import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import soliton_lab
from soliton_lab.cli import _build_parser, run_cli


def test_solve_stdout_csv(capsys):
    code = run_cli(["solve", "--n", "2", "--alpha", "1", "--tmax", "30", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,r,dr,ddr"
    assert len(lines) > 500
    assert [float(v) for v in lines[1].split(",")] == [0.0, 0.0, 0.0, 0.5]


def test_solve_json_format(capsys):
    code = run_cli(["solve", "--n", "3", "--alpha", "2", "--tmax", "25", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["params"] == {"n": 3, "alpha": 2.0}
    assert doc["profile"]["t"][0] == 0.0


def test_solve_out_file(tmp_path, capsys):
    target = tmp_path / "profile.csv"
    code = run_cli(["solve", "--n", "2", "--alpha", "1", "--tmax", "25", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert target.read_text().startswith("t,r,dr,ddr\n")


def test_missing_flag_is_usage_error(capsys):
    code = run_cli(["solve", "--n", "2"])
    assert code == 2
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli([]) == 2


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_invalid_alpha_reported(capsys):
    code = run_cli(["solve", "--n", "2", "--alpha", "-1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_invalid_tol_reported(capsys):
    code = run_cli(["solve", "--n", "2", "--alpha", "1", "--tol", "1e-20"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solver_error_reported(capsys):
    """A cell outside the supported range exits 2 and writes no document."""
    code = run_cli(["solve", "--n", "2", "--alpha", "0.15"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_phase_contract_miss_reported(capsys):
    """A profile that breaks the phase residual contract in ``verify`` exits 2.

    At tol 1e-12 the phase residual of (2, 0.5) is 3.1e-9, the truncation
    of the difference stencil, against a contract of 1e-10: the command
    refuses it as an error, with no document, and does not report it as a
    failed check (exit 1).
    """
    code = run_cli(["verify", "--n", "2", "--alpha", "0.5", "--tol", "1e-12"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: phase residual")
    assert captured.out == ""


def test_verify_green_cell(capsys):
    code = run_cli(
        ["verify", "--n", "2", "--alpha", "1", "--tmax", "120", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert all(check["pass"] for check in doc["checks"])
    names = {check["name"] for check in doc["checks"]}
    assert {"bounds", "phase-monotone", "pde-residual", "growth"} <= names
    assert doc["fit"]["fitted_C1"] == pytest.approx(-0.65231650, abs=1e-3)


def test_verify_honest_failure_exit_code(capsys):
    # (6, 3) at the default radius genuinely misses the growth gate; the
    # command must say so in the exit code rather than smooth it over
    code = run_cli(["verify", "--n", "6", "--alpha", "3"])
    out = capsys.readouterr().out
    assert code == 1
    growth_rows = [
        line for line in out.splitlines() if line.startswith("growth,")
    ]
    assert len(growth_rows) == 1
    assert growth_rows[0].split(",")[1] == "false"


def test_asymptotics_subcommand(capsys):
    code = run_cli(
        ["asymptotics", "--n", "2", "--alpha", "2", "--tmax", "60", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["checks"] == []
    assert doc["fit"]["fitted_leading"] == pytest.approx(2.0 / 3.0, rel=2e-3)


def test_scan_gradient_subcommand(capsys):
    code = run_cli(["scan-gradient", "--n", "2", "--alpha", "2", "--tmax", "16"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "center_offset,radius,M,grad_norm,ratio"
    assert lines[-1].startswith("sup_ratio,")
    assert len(lines) == 14


def test_table_one_row_per_grid_cell(tmp_path):
    """One row per grid cell under the header."""
    target = tmp_path / "table.csv"
    assert run_cli(["table", "--tmax", "25", "--tol", "1e-8", "--out", str(target)]) == 0
    lines = target.read_text().splitlines()
    assert len(lines) == 21
    assert lines[0].startswith("n,alpha,")


def test_module_entry_point(tmp_path):
    target = tmp_path / "out.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "soliton_lab",
            "solve", "--n", "2", "--alpha", "1", "--tmax", "25", "--out", str(target),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert target.exists()


def test_module_entry_point_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "soliton_lab"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "usage" in proc.stderr


def _fresh_process(argv, env):
    """Exit code, stdout and stderr of the CLI in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "soliton_lab", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reused_across_calls(monkeypatch, capsys):
    """Calls in one process, sharing one parser, print what fresh processes print."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    src = str(Path(soliton_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    runs = [
        ["solve", "--n", "3", "--alpha", "2", "--tmax", "25", "--format", "json"],
        ["asymptotics", "--n", "2", "--alpha", "2", "--tmax", "60"],
        ["solve", "--n", "2"],
        ["--help"],
        ["asymptotics", "--n", "3", "--alpha", "1", "--tmax", "40", "--format", "json"],
    ]
    in_process = []
    for argv in runs:
        code = run_cli(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_process] == [0, 0, 2, 0, 0]
    assert in_process == [_fresh_process(argv, env) for argv in runs]
    assert _build_parser() is _build_parser()
