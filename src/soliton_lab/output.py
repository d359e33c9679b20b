"""Serializers for profiles, check reports, fits, and scans.

Every document is built in the one format asked for, and goes through
one of two emitters: a JSON document or a CSV header and rows of cells.
JSON is the document at indent 2 with its keys in insertion order and
floats in shortest round-trip form; a non-finite float, which RFC 8259
has no number for, is the string its CSV cell holds ("inf", "-inf",
"nan").  CSV is the header and the rows through one cell rule: None is
empty, a bool is true/false, an int or str stands as is and a float
takes 17 significant digits.  Both are UTF-8 and newline-terminated, and
the same inputs always give the same bytes.  The check-report emitter
has a matching parser and the pair round-trips exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math

from .asymptotics import FarFieldFit, expected_coefficients
from .model import ModelParams
from .profile import RadialProfile
from .verify import CheckReport, GradientScanReport, ScanSample

__all__ = [
    "emit_report",
    "parse_report",
    "profile_document",
    "scan_document",
    "table_document",
]


def _f(x: float) -> str:
    """Fixed 17-significant-digit decimal, enough to round-trip a double."""
    return f"{float(x):.16e}"


def _cell(value) -> str:
    if isinstance(value, float):  # first: nearly every cell is one
        return _f(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return _f(value)


def _check_format(format: str) -> str:
    if format not in ("csv", "json"):
        raise ValueError(f"unknown format {format!r} (expected csv or json)")
    return format


def _finite(value):
    """value with each non-finite float in it as the text of its CSV cell."""
    if isinstance(value, float):
        return value if math.isfinite(value) else _f(value)
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _json(doc) -> str:
    return json.dumps(_finite(doc), indent=2, allow_nan=False) + "\n"


def _float(value):
    """A number of a JSON document as a float; "inf", "-inf" and "nan"
    stand for the non-finite ones."""
    if isinstance(value, list):
        return [_float(item) for item in value]
    return float(value) if isinstance(value, str) else value


def _csv(header, rows) -> str:
    """``header`` and ``rows``; an empty row is a blank line."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)
    return buf.getvalue()


def _fit_record(fit: FarFieldFit) -> dict:
    """A fit beside the closed-form coefficients it should recover."""
    expected_leading, expected_second = expected_coefficients(fit.params)
    return {
        "window": [fit.window[0], fit.window[1]],
        "fitted_leading": fit.fitted_leading,
        "expected_leading": expected_leading,
        "fitted_second": fit.fitted_second,
        "expected_second": expected_second,
        "fitted_C1": fit.fitted_C1,
        "residual_norm": fit.residual_norm,
    }


def emit_report(
    reports: list[CheckReport],
    fit: FarFieldFit | None,
    format: str = "csv",
    params: ModelParams | None = None,
) -> str:
    """Serialize check reports plus an optional far-field fit.

    JSON shape: {"params": {"n":..., "alpha":...}, "checks": [{"name":...,
    "pass":..., "metric":..., "tolerance":..., "detail":...}], "fit": {...}}.
    CSV: a check table, a blank line, then a key,value fit section.
    """
    if params is None:
        if fit is None:
            raise ValueError("need params when no fit is supplied")
        params = fit.params
    header = ["name", "pass", "metric", "tolerance", "detail"]
    rows = [[c.name, c.passed, c.metric, c.tolerance, c.detail] for c in reports]
    record = _fit_record(fit) if fit is not None else None
    if _check_format(format) == "json":
        checks = [dict(zip(header, row)) for row in rows]
        params_doc = {"n": params.n, "alpha": params.alpha}
        return _json({"params": params_doc, "checks": checks, "fit": record})
    rows += [[], ["key", "value"], ["n", params.n], ["alpha", params.alpha]]
    if record is not None:
        rows += [["window_lo", record["window"][0]], ["window_hi", record["window"][1]]]
        rows += [[key, value] for key, value in record.items() if key != "window"]
    return _csv(header, rows)


def parse_report(text: str, format: str = "csv") -> dict:
    """Parse a document produced by emit_report.

    Returns {"params": {...}, "checks": [CheckReport, ...], "fit": dict or
    None}; parse(emit(x)) reproduces the CheckReport list exactly.
    """
    if _check_format(format) == "json":
        doc = json.loads(text)
        checks = [
            CheckReport(
                name=c["name"],
                passed=bool(c["pass"]),
                metric=float(c["metric"]),
                tolerance=float(c["tolerance"]),
                detail=c.get("detail", ""),
            )
            for c in doc.get("checks", [])
        ]
        fit = doc.get("fit")
        if fit is not None:
            fit = {key: _float(value) for key, value in fit.items()}
        return {"params": doc.get("params"), "checks": checks, "fit": fit}
    head, _, tail = text.partition("\n\n")
    rows = list(csv.reader(io.StringIO(head)))
    checks = [
        CheckReport(
            name=row[0],
            passed=row[1] == "true",
            metric=float(row[2]),
            tolerance=float(row[3]),
            detail=row[4] if len(row) > 4 else "",
        )
        for row in rows[1:]
        if row
    ]
    params: dict = {}
    fit: dict = {}
    for row in csv.reader(io.StringIO(tail)):
        if not row or row[0] == "key":
            continue
        key, value = row[0], row[1]
        if key == "n":
            params["n"] = int(value)
        elif key == "alpha":
            params["alpha"] = float(value)
        else:
            fit[key] = float(value) if value else None
    return {"params": params or None, "checks": checks, "fit": fit or None}


def profile_document(profile: RadialProfile, format: str = "csv") -> str:
    """Serialize a profile; CSV columns exactly t,r,dr,ddr at 17 digits."""
    columns = {
        "t": profile.grid.tolist(),
        "r": profile.r.tolist(),
        "dr": profile.dr.tolist(),
        "ddr": profile.ddr.tolist(),
    }
    if _check_format(format) == "json":
        return _json({
            "params": {"n": profile.params.n, "alpha": profile.params.alpha},
            "tol": profile.tol,
            "profile": columns,
        })
    return _csv(list(columns), zip(*columns.values()))


def scan_document(report: GradientScanReport, format: str = "csv") -> str:
    """Serialize a gradient scan; CSV ends in a ``sup_ratio`` row."""
    if _check_format(format) == "json":
        return _json({
            "params": {"n": report.params.n, "alpha": report.params.alpha},
            "samples": [s._asdict() for s in report.samples],
            "sup_ratio": report.sup_ratio,
        })
    rows = [*report.samples, ["sup_ratio", report.sup_ratio, None, None, None]]
    return _csv(ScanSample._fields, rows)


def table_document(rows: list[dict], format: str = "csv") -> str:
    """Serialize the (n, alpha) summary table of fitted vs expected coefficients."""
    columns = [
        "n",
        "alpha",
        "fitted_leading",
        "expected_leading",
        "fitted_second",
        "expected_second",
        "fitted_C1",
        "residual_norm",
    ]
    if _check_format(format) == "json":
        return _json({"table": rows})
    return _csv(columns, [[row[col] for col in columns] for row in rows])
