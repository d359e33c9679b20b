"""Command-line interface.

Subcommands: solve, verify, asymptotics, scan-gradient, table.  Exit codes:
0 success (and, for verify, every check passed), 1 verify ran but at least
one check failed, 2 usage or validation error, or a SolverError: a solve
that failed or met no handoff, or (in verify) a profile whose phase
residual breaks its contract.  Errors go to stderr after ``error:``, and
no document is written.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .asymptotics import fit_far_field
from .model import ModelParams
from .output import _fit_record, emit_report, profile_document, scan_document, table_document
from .profile import SolverError, solve_profile
from .verify import default_scan_geometry, run_battery, scan_gradient_bound

__all__ = ["run_cli", "main"]

TABLE_DIMENSIONS = (2, 3, 4, 5, 6)
TABLE_EXPONENTS = (0.5, 1.0, 2.0, 3.0)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="soliton-lab",
        description="Radial translator profiles: solve, verify, fit, scan.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params=True):
        if with_params:
            p.add_argument("--n", type=int, required=True, help="ambient dimension (>= 2)")
            p.add_argument("--alpha", type=float, required=True, help="speed exponent (> 0)")
        p.add_argument("--tmax", type=float, default=200.0, help="outer radius (default 200)")
        p.add_argument("--tol", type=float, default=1e-10, help="accuracy target (default 1e-10)")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", type=str, choices=("csv", "json"), default="csv",
            help="output format (default csv)",
        )

    add_common(sub.add_parser("solve", help="solve one profile and emit t,r,dr,ddr"))
    add_common(sub.add_parser("verify", help="run the verification battery plus a far-field fit"))
    add_common(sub.add_parser("asymptotics", help="fit the far-field expansion only"))
    add_common(sub.add_parser("scan-gradient", help="scan the interior gradient bound"))
    add_common(sub.add_parser("table", help="summary table over the (n, alpha) grid"), with_params=False)
    return parser


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _table_cell(n: int, alpha: float, t_max: float, tol: float) -> dict:
    profile = solve_profile(ModelParams(n, alpha), t_max, tol)
    record = _fit_record(fit_far_field(profile))
    del record["window"]
    return {"n": n, "alpha": alpha, **record}


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "table":
        rows = [
            _table_cell(n, a, args.tmax, args.tol)
            for n in TABLE_DIMENSIONS
            for a in TABLE_EXPONENTS
        ]
        _write(table_document(rows, args.format), args.out)
        return 0

    params = ModelParams(args.n, args.alpha)
    if args.command == "solve":
        profile = solve_profile(params, args.tmax, args.tol)
        _write(profile_document(profile, args.format), args.out)
        return 0
    if args.command == "verify":
        profile = solve_profile(params, args.tmax, args.tol)
        reports = run_battery(profile)
        fit = fit_far_field(profile)
        _write(emit_report(reports, fit, args.format), args.out)
        return 0 if all(c.passed for c in reports) else 1
    if args.command == "asymptotics":
        profile = solve_profile(params, args.tmax, args.tol)
        fit = fit_far_field(profile)
        _write(emit_report([], fit, args.format), args.out)
        return 0
    if args.command == "scan-gradient":
        centers, radii = default_scan_geometry(args.tmax)
        report = scan_gradient_bound(params, centers, radii, args.tol)
        _write(scan_document(report, args.format), args.out)
        return 0
    raise ValueError(f"unknown command {args.command!r}")


def run_cli(argv: list[str] | None = None) -> int:
    """Parse arguments and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass it through.
        code = exc.code
        return int(code) if code is not None else 0
    try:
        return _dispatch(args)
    except (ValueError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())
