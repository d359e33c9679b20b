import json
import math

import pytest

from soliton_lab.asymptotics import FarFieldFit
from soliton_lab.model import ModelParams
from soliton_lab.output import (
    emit_report,
    parse_report,
    profile_document,
    scan_document,
    table_document,
)
from soliton_lab.verify import CheckReport, GradientScanReport, ScanSample

REPORTS = [
    CheckReport("bounds", True, -3.0945e-8, -1e-9, "worst at t=2.75, gap \"tiny\""),
    CheckReport("growth", False, math.pi * 1e-2, 0.02, ""),
    CheckReport("oddball", True, 1e-300, 1.0, "denormal-adjacent metric"),
    CheckReport("thirds", True, 1.0 / 3.0, 0.5, "repeating binary fraction"),
]

FIT = FarFieldFit(
    params=ModelParams(2, 1.0),
    window=(100.0, 200.0),
    fitted_leading=0.5,
    fitted_second=1.000325,
    fitted_C1=-0.6523165033904,
    residual_norm=2.4e-9,
)

POWER_FIT = FarFieldFit(
    params=ModelParams(3, 2.0),
    window=(1000.0, 2000.0),
    fitted_leading=0.4713982427,
    fitted_second=-1.033034077,
    fitted_C1=None,
    residual_norm=3.1e-7,
)


SCAN = GradientScanReport(
    params=ModelParams(2, 1.0),
    samples=[
        ScanSample(1.0, 0.5, 0.9, 0.6, 0.0),
        ScanSample(5.0, 2.5, 26.0, 3.4, 0.0113),
    ],
    sup_ratio=0.0113,
)

TABLE_ROWS = [
    {
        "n": 2, "alpha": 1.0,
        "fitted_leading": 0.5, "expected_leading": 0.5,
        "fitted_second": 1.0003, "expected_second": 1.0,
        "fitted_C1": -0.652, "residual_norm": 1e-9,
    },
    {
        "n": 3, "alpha": 2.0,
        "fitted_leading": 0.4714, "expected_leading": 0.4714,
        "fitted_second": -1.033, "expected_second": -1.0607,
        "fitted_C1": None, "residual_norm": 2e-7,
    },
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_round_trip_exact(fmt):
    text = emit_report(REPORTS, FIT, format=fmt)
    doc = parse_report(text, format=fmt)
    assert doc["checks"] == REPORTS
    assert doc["params"] == {"n": 2, "alpha": 1.0}
    fit = doc["fit"]
    assert fit["fitted_C1"] == FIT.fitted_C1
    assert fit["fitted_second"] == FIT.fitted_second
    assert fit["residual_norm"] == FIT.residual_norm


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_round_trip_no_c1(fmt):
    text = emit_report(REPORTS[:1], POWER_FIT, format=fmt)
    doc = parse_report(text, format=fmt)
    assert doc["fit"]["fitted_C1"] is None
    assert doc["fit"]["fitted_leading"] == POWER_FIT.fitted_leading
    # expected values ride along for the reader's convenience
    assert doc["fit"]["expected_second"] == pytest.approx(-1.0606601717798212)


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_floats_are_strict_json_and_round_trip(fmt):
    """RFC 8259 has no number for inf or nan: JSON documents write them as
    the text of their CSV cells, and ``parse_report`` reads them back as
    floats in the checks and in the fit."""
    reports = [
        CheckReport("growth", False, math.inf, 0.02, ""),
        CheckReport("low", True, -math.inf, 1.0, ""),
        CheckReport("odd", False, math.nan, 1.0, ""),
    ]
    fit = FarFieldFit(ModelParams(2, 0.5), (100.0, math.inf), math.nan, 1.0, None, math.inf)
    text = emit_report(reports, fit, format=fmt)
    doc = parse_report(text, format=fmt)
    assert doc["checks"][:2] == reports[:2]
    assert math.isnan(doc["checks"][2].metric)
    assert math.isnan(doc["fit"]["fitted_leading"])
    assert doc["fit"]["residual_norm"] == math.inf and doc["fit"]["fitted_C1"] is None
    if fmt == "csv":
        return
    assert doc["fit"]["window"] == [100.0, math.inf]
    raw = json.loads(text, parse_constant=_refuse_constant)
    assert [c["metric"] for c in raw["checks"]] == ["inf", "-inf", "nan"]
    assert raw["fit"]["window"] == [100.0, "inf"]
    scan = GradientScanReport(ModelParams(2, 1.0), [ScanSample(1.0, 0.5, math.nan, 0.6, 0.0)], math.inf)
    raw = json.loads(scan_document(scan, format="json"), parse_constant=_refuse_constant)
    assert raw["samples"][0]["M"] == "nan" and raw["sup_ratio"] == "inf"


def test_report_no_fit_needs_params():
    with pytest.raises(ValueError):
        emit_report(REPORTS, None)
    text = emit_report(REPORTS, None, format="json", params=ModelParams(4, 3.0))
    doc = json.loads(text)
    assert doc["fit"] is None
    assert doc["params"] == {"n": 4, "alpha": 3.0}


def test_report_deterministic():
    a = emit_report(REPORTS, FIT, format="csv")
    b = emit_report(REPORTS, FIT, format="csv")
    assert a == b
    assert a.endswith("\n")
    assert a.splitlines()[0] == "name,pass,metric,tolerance,detail"


def test_report_csv_window_keys():
    text = emit_report([], FIT, format="csv")
    doc = parse_report(text, format="csv")
    assert doc["fit"]["window_lo"] == 100.0
    assert doc["fit"]["window_hi"] == 200.0
    assert doc["checks"] == []


def test_profile_document_csv(profile_of):
    prof = profile_of(2, 1.0)
    text = profile_document(prof, format="csv")
    lines = text.splitlines()
    assert lines[0] == "t,r,dr,ddr"
    assert len(lines) == 1 + len(prof.grid)
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 0.5]
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == prof.grid[-1]
    assert last[1] == prof.r[-1]


def test_profile_document_json(profile_of):
    prof = profile_of(2, 1.0)
    doc = json.loads(profile_document(prof, format="json"))
    assert doc["params"] == {"n": 2, "alpha": 1.0}
    assert doc["tol"] == prof.tol
    assert doc["profile"]["r"] == list(prof.r)
    assert doc["profile"]["t"][0] == 0.0


def test_scan_document():
    text = scan_document(SCAN, format="csv")
    lines = text.splitlines()
    assert lines[0] == "center_offset,radius,M,grad_norm,ratio"
    assert len(lines) == 4
    assert lines[-1].startswith("sup_ratio,")
    assert lines[-1].count(",") == 4
    doc = json.loads(scan_document(SCAN, format="json"))
    assert doc["sup_ratio"] == 0.0113
    assert doc["samples"][1]["M"] == 26.0


def test_table_document():
    text = table_document(TABLE_ROWS, format="csv")
    lines = text.splitlines()
    assert lines[0].startswith("n,alpha,fitted_leading")
    assert lines[1].startswith("2,")
    cells = lines[2].split(",")
    assert cells[0] == "3"
    assert cells[6] == ""  # missing C1 on the power branch
    doc = json.loads(table_document(TABLE_ROWS, format="json"))
    assert doc["table"][1]["fitted_C1"] is None


@pytest.mark.parametrize(
    "call",
    [
        lambda prof: emit_report(REPORTS, FIT, format="yaml"),
        lambda prof: parse_report("", format="yaml"),
        lambda prof: profile_document(prof, format="xml"),
        lambda prof: table_document([], format="parquet"),
        lambda prof: scan_document(SCAN, format="tsv"),
    ],
)
def test_unknown_format_rejected(call, profile_of):
    with pytest.raises(ValueError):
        call(profile_of(2, 1.0))


# Golden documents: the exact bytes every emitter writes for the inputs above.

REPORT_FIT_CSV = r'''name,pass,metric,tolerance,detail
bounds,true,-3.0944999999999997e-08,-1.0000000000000001e-09,"worst at t=2.75, gap ""tiny"""
growth,false,3.1415926535897934e-02,2.0000000000000000e-02,
oddball,true,1.0000000000000000e-300,1.0000000000000000e+00,denormal-adjacent metric
thirds,true,3.3333333333333331e-01,5.0000000000000000e-01,repeating binary fraction

key,value
n,2
alpha,1.0000000000000000e+00
window_lo,1.0000000000000000e+02
window_hi,2.0000000000000000e+02
fitted_leading,5.0000000000000000e-01
expected_leading,5.0000000000000000e-01
fitted_second,1.0003249999999999e+00
expected_second,1.0000000000000000e+00
fitted_C1,-6.5231650339040004e-01
residual_norm,2.4000000000000000e-09
'''

REPORT_FIT_JSON = r'''{
  "params": {
    "n": 2,
    "alpha": 1.0
  },
  "checks": [
    {
      "name": "bounds",
      "pass": true,
      "metric": -3.0945e-08,
      "tolerance": -1e-09,
      "detail": "worst at t=2.75, gap \"tiny\""
    },
    {
      "name": "growth",
      "pass": false,
      "metric": 0.031415926535897934,
      "tolerance": 0.02,
      "detail": ""
    },
    {
      "name": "oddball",
      "pass": true,
      "metric": 1e-300,
      "tolerance": 1.0,
      "detail": "denormal-adjacent metric"
    },
    {
      "name": "thirds",
      "pass": true,
      "metric": 0.3333333333333333,
      "tolerance": 0.5,
      "detail": "repeating binary fraction"
    }
  ],
  "fit": {
    "window": [
      100.0,
      200.0
    ],
    "fitted_leading": 0.5,
    "expected_leading": 0.5,
    "fitted_second": 1.000325,
    "expected_second": 1.0,
    "fitted_C1": -0.6523165033904,
    "residual_norm": 2.4e-09
  }
}
'''

REPORT_POWER_FIT_CSV = r'''name,pass,metric,tolerance,detail
bounds,true,-3.0944999999999997e-08,-1.0000000000000001e-09,"worst at t=2.75, gap ""tiny"""

key,value
n,3
alpha,2.0000000000000000e+00
window_lo,1.0000000000000000e+03
window_hi,2.0000000000000000e+03
fitted_leading,4.7139824270000003e-01
expected_leading,4.7140452079103168e-01
fitted_second,-1.0330340769999999e+00
expected_second,-1.0606601717798214e+00
fitted_C1,
residual_norm,3.1000000000000000e-07
'''

REPORT_POWER_FIT_JSON = r'''{
  "params": {
    "n": 3,
    "alpha": 2.0
  },
  "checks": [
    {
      "name": "bounds",
      "pass": true,
      "metric": -3.0945e-08,
      "tolerance": -1e-09,
      "detail": "worst at t=2.75, gap \"tiny\""
    }
  ],
  "fit": {
    "window": [
      1000.0,
      2000.0
    ],
    "fitted_leading": 0.4713982427,
    "expected_leading": 0.4714045207910317,
    "fitted_second": -1.033034077,
    "expected_second": -1.0606601717798214,
    "fitted_C1": null,
    "residual_norm": 3.1e-07
  }
}
'''

REPORT_NO_FIT_CSV = r'''name,pass,metric,tolerance,detail
growth,false,3.1415926535897934e-02,2.0000000000000000e-02,
oddball,true,1.0000000000000000e-300,1.0000000000000000e+00,denormal-adjacent metric

key,value
n,4
alpha,3.0000000000000000e+00
'''

REPORT_NO_FIT_JSON = r'''{
  "params": {
    "n": 4,
    "alpha": 3.0
  },
  "checks": [
    {
      "name": "growth",
      "pass": false,
      "metric": 0.031415926535897934,
      "tolerance": 0.02,
      "detail": ""
    },
    {
      "name": "oddball",
      "pass": true,
      "metric": 1e-300,
      "tolerance": 1.0,
      "detail": "denormal-adjacent metric"
    }
  ],
  "fit": null
}
'''

SCAN_CSV = r'''center_offset,radius,M,grad_norm,ratio
1.0000000000000000e+00,5.0000000000000000e-01,9.0000000000000002e-01,5.9999999999999998e-01,0.0000000000000000e+00
5.0000000000000000e+00,2.5000000000000000e+00,2.6000000000000000e+01,3.3999999999999999e+00,1.1299999999999999e-02
sup_ratio,1.1299999999999999e-02,,,
'''

SCAN_JSON = r'''{
  "params": {
    "n": 2,
    "alpha": 1.0
  },
  "samples": [
    {
      "center_offset": 1.0,
      "radius": 0.5,
      "M": 0.9,
      "grad_norm": 0.6,
      "ratio": 0.0
    },
    {
      "center_offset": 5.0,
      "radius": 2.5,
      "M": 26.0,
      "grad_norm": 3.4,
      "ratio": 0.0113
    }
  ],
  "sup_ratio": 0.0113
}
'''

TABLE_CSV = r'''n,alpha,fitted_leading,expected_leading,fitted_second,expected_second,fitted_C1,residual_norm
2,1.0000000000000000e+00,5.0000000000000000e-01,5.0000000000000000e-01,1.0003000000000000e+00,1.0000000000000000e+00,-6.5200000000000002e-01,1.0000000000000001e-09
3,2.0000000000000000e+00,4.7139999999999999e-01,4.7139999999999999e-01,-1.0329999999999999e+00,-1.0607000000000000e+00,,1.9999999999999999e-07
'''

TABLE_JSON = r'''{
  "table": [
    {
      "n": 2,
      "alpha": 1.0,
      "fitted_leading": 0.5,
      "expected_leading": 0.5,
      "fitted_second": 1.0003,
      "expected_second": 1.0,
      "fitted_C1": -0.652,
      "residual_norm": 1e-09
    },
    {
      "n": 3,
      "alpha": 2.0,
      "fitted_leading": 0.4714,
      "expected_leading": 0.4714,
      "fitted_second": -1.033,
      "expected_second": -1.0607,
      "fitted_C1": null,
      "residual_norm": 2e-07
    }
  ]
}
'''


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: emit_report(REPORTS, FIT, format="csv"), REPORT_FIT_CSV),
        (lambda: emit_report(REPORTS, FIT, format="json"), REPORT_FIT_JSON),
        (lambda: emit_report(REPORTS[:1], POWER_FIT, format="csv"), REPORT_POWER_FIT_CSV),
        (lambda: emit_report(REPORTS[:1], POWER_FIT, format="json"), REPORT_POWER_FIT_JSON),
        (
            lambda: emit_report(REPORTS[1:3], None, format="csv", params=ModelParams(4, 3.0)),
            REPORT_NO_FIT_CSV,
        ),
        (
            lambda: emit_report(REPORTS[1:3], None, format="json", params=ModelParams(4, 3.0)),
            REPORT_NO_FIT_JSON,
        ),
        (lambda: scan_document(SCAN, format="csv"), SCAN_CSV),
        (lambda: scan_document(SCAN, format="json"), SCAN_JSON),
        (lambda: table_document(TABLE_ROWS, format="csv"), TABLE_CSV),
        (lambda: table_document(TABLE_ROWS, format="json"), TABLE_JSON),
    ],
    ids=[
        "report-fit-csv", "report-fit-json",
        "report-power-fit-csv", "report-power-fit-json",
        "report-no-fit-csv", "report-no-fit-json",
        "scan-csv", "scan-json", "table-csv", "table-json",
    ],
)
def test_documents_golden_bytes(call, expected):
    assert call() == expected


def test_profile_document_csv_golden_lines(profile_of):
    text = profile_document(profile_of(2, 1.0), format="csv")
    assert text.startswith(
        "t,r,dr,ddr\n"
        "0.0000000000000000e+00,0.0000000000000000e+00,"
        "0.0000000000000000e+00,5.0000000000000000e-01\n"
    )
    assert text.endswith(
        "\n2.0000000000000000e+02,1.9994049391139884e+04,"
        "1.9999499974996561e+02,1.0000250037508598e+00\n"
    )
