import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soliton_lab import profile as profile_module
from soliton_lab import verify as verify_module
from soliton_lab.model import ModelParams, g_eval
from soliton_lab.phase import phase_trajectory
from soliton_lab.profile import solve_profile
from soliton_lab.verify import (
    CheckReport,
    blow_down_deviation,
    check_blow_down,
    check_bounds,
    check_convexity,
    check_growth,
    check_pde_residual,
    check_phase_monotone,
    check_refinement_agreement,
    default_scan_geometry,
    run_battery,
    sample_ball,
    scan_gradient_bound,
)


def test_report_fields():
    rep = CheckReport("x", True, 1.0, 2.0, "d")
    assert (rep.name, rep.passed, rep.metric, rep.tolerance, rep.detail) == (
        "x", True, 1.0, 2.0, "d",
    )


def test_bounds_pass_with_margin(profile_of):
    rep = check_bounds(profile_of(2, 1.0))
    assert rep.name == "bounds"
    assert rep.passed
    assert rep.tolerance == -1e-9
    assert rep.metric < -1e-9
    assert "worst normalized violation" in rep.detail


def test_bounds_custom_margin_can_fail(profile_of):
    rep = check_bounds(profile_of(2, 1.0), margin_rate=1e-2)
    assert not rep.passed  # no cell has that much slack near the origin


_GRID = [(n, a) for n in range(2, 7) for a in (0.5, 1.0, 2.0, 3.0)]


@pytest.mark.parametrize("n, alpha", _GRID)
def test_bounds_report_is_the_same_with_the_stored_slope_map(profile_of, monkeypatch, n, alpha):
    """A solved profile stores no slope map: ``check_bounds`` evaluates g
    once, at every node of ``dr``, and reports what it reports for a
    ``dataclasses.replace`` copy, which it reads the same way."""
    prof = profile_of(n, alpha)
    nodes = []

    def counting(y, params):
        nodes.append(len(y))
        return g_eval(y, params)

    monkeypatch.setattr(verify_module, "g_eval", counting)
    assert check_bounds(prof) == check_bounds(dataclasses.replace(prof))
    assert nodes == [len(prof.grid) - 1, len(prof.grid) - 1]


def test_bounds_of_a_replaced_slope_recompute_g(profile_of, monkeypatch):
    """A profile with another slope has g evaluated from its own ``dr``:
    its steepened origin-series nodes break the upper bound there."""
    prof = profile_of(3, 2.0)
    dr = prof.dr.copy()
    dr[1:prof.launch + 1] *= 2.0
    steep = dataclasses.replace(prof, dr=dr)
    calls = []

    def counting(y, params):
        calls.append(y)
        return g_eval(y, params)

    monkeypatch.setattr(verify_module, "g_eval", counting)
    rep = check_bounds(steep)
    assert [c.tobytes() for c in calls] == [steep.dr[1:].tobytes()]
    assert not rep.passed
    assert rep.metric > 0.0
    assert float(rep.detail.split("at t=")[1].split(";")[0]) <= prof.grid[prof.launch]


def test_phase_monotone(profile_of):
    rep = check_phase_monotone(phase_trajectory(profile_of(3, 2.0)))
    assert rep.name == "phase-monotone"
    assert rep.passed
    assert rep.metric < 0.0


def test_phase_monotone_sample_count():
    from soliton_lab.phase import PhaseTrajectory

    tiny = PhaseTrajectory(
        params=ModelParams(2, 1.0),
        s=np.linspace(0, 1, 5),
        y=np.ones(5),
        z=np.linspace(-0.4, -0.1, 5),
        w=None,
        tol=1e-10,
    )
    with pytest.raises(ValueError):
        check_phase_monotone(tiny)


def test_sample_ball_properties():
    rng = np.random.default_rng(7)
    pts = sample_ball(rng, 500, 4, 3.0)
    assert pts.shape == (500, 4)
    assert np.linalg.norm(pts, axis=1).max() <= 3.0
    again = sample_ball(np.random.default_rng(7), 500, 4, 3.0)
    np.testing.assert_array_equal(pts, again)


@pytest.mark.parametrize("n", range(2, 11))
def test_battery_points_fill_the_ball_evenly(n):
    """The battery's points are the same bits on every call, lie in the
    closed ball and are uniform in volume: the share within R q^(1/n) is q
    to within 0.015, where a uniform random sample's standard deviation
    at q = 1/2 is 0.016."""
    radius = 100.0
    pts = verify_module._ball_points(1000, n, radius)
    assert pts.shape == (1000, n)
    assert pts.tobytes() == verify_module._ball_points(1000, n, radius).tobytes()
    radii = np.linalg.norm(pts, axis=1)
    assert radii.max() <= radius
    for q in (0.25, 0.5, 0.75):
        assert abs(np.mean(radii <= radius * q ** (1.0 / n)) - q) <= 0.015, q


def test_run_battery_draws_no_random_numbers(profile_of, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_battery called numpy.random.default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    reports = run_battery(profile_of(2, 1.0))
    assert reports[2].name == "pde-residual" and reports[2].passed


_VERIFY_ENTRIES = {
    "cli": "from soliton_lab.cli import run_cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert run_cli(['verify', '--n', '3', '--alpha', '2', '--format', 'json']) == 0\n",
    "run_battery": "from soliton_lab import ModelParams, run_battery, solve_profile\n"
    "run_battery(solve_profile(ModelParams(3, 2.0), 200.0))\n",
}


@pytest.mark.parametrize("entry", sorted(_VERIFY_ENTRIES))
def test_verify_loads_no_numpy_random(entry):
    """The battery's points come from numpy arithmetic alone: in a fresh
    interpreter, neither ``verify`` nor ``run_battery`` imports
    ``numpy.random``, which adds about 6 MB to a fresh process's peak RSS."""
    src = str(Path(verify_module.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import contextlib, io, sys\n"
        "import numpy\n"
        "if 'numpy.random' in sys.modules:\n"
        "    print('numpy'); sys.exit()\n"
        + _VERIFY_ENTRIES[entry]
        + "print('numpy.random' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "numpy":
        pytest.skip("a bare `import numpy` already loads numpy.random (older numpy)")
    assert proc.stdout.strip() == "False"


def test_pde_residual_random_ball(profile_of):
    prof = profile_of(2, 1.0)
    rng = np.random.default_rng(3)
    pts = np.vstack([np.zeros((1, 2)), sample_ball(rng, 400, 2, 100.0)])
    rep = check_pde_residual(prof, pts)
    assert rep.name == "pde-residual"
    assert rep.passed
    assert rep.tolerance == 1e-8
    assert rep.metric < 1e-9


def test_pde_residual_rotation_invariant(profile_of):
    prof = profile_of(2, 2.0)
    rng = np.random.default_rng(11)
    pts = sample_ball(rng, 200, 2, 80.0)
    rot = np.column_stack([pts[:, 1], -pts[:, 0]])  # exact quarter turn
    a = check_pde_residual(prof, pts)
    b = check_pde_residual(prof, rot)
    assert b.metric == pytest.approx(a.metric, rel=1e-4)


@pytest.mark.parametrize("n, alpha", [(2, 1.5), (3, 1.0)])
def test_battery_pde_residual_keeps_the_contract_at_tol_1e_12(profile_of, n, alpha):
    """At tol 1e-12 the battery's PDE residual stays inside the 1e-10
    contract.  On these cells an r'' interpolant of lower order than the
    derivative of the r' quintic reads 1.2e-10 and 1.3e-10 at every tol."""
    reports = {rep.name: rep for rep in run_battery(profile_of(n, alpha, 200.0, 1e-12))}
    rep = reports["pde-residual"]
    assert rep.tolerance == 1e-10
    assert rep.passed, rep


def test_pde_residual_input_checks(profile_of):
    prof = profile_of(2, 1.0)
    with pytest.raises(ValueError):
        check_pde_residual(prof, np.zeros(4))
    with pytest.raises(ValueError):
        check_pde_residual(prof, np.zeros((4, 3)))
    with pytest.raises(ValueError):
        check_pde_residual(prof, np.array([[250.0, 0.0]]))
    with pytest.raises(ValueError, match="m >= 1"):
        check_pde_residual(prof, np.zeros((0, 2)))


def test_convexity(profile_of):
    rep = check_convexity(profile_of(2, 1.0))
    assert rep.passed
    assert rep.metric < -0.1  # eigenvalues stay of order 1/n, not just positive


def test_blow_down_deviation_decreases(profile_of):
    prof = profile_of(2, 1.0)
    d200 = blow_down_deviation(prof, 200.0)
    d100 = blow_down_deviation(prof, 100.0)
    assert d200 == pytest.approx(1.487652e-4, rel=1e-3)
    assert d200 < d100
    with pytest.raises(ValueError):
        blow_down_deviation(prof, 0.0)
    with pytest.raises(ValueError):
        blow_down_deviation(prof, 300.0)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_blow_down_deviation_refuses_non_finite_scale_and_no_samples(profile_of, h):
    """A NaN scale passed the h <= 0 check, an infinite one warned at tau =
    0, and no samples failed in numpy's reduction; all are refused by name."""
    prof = profile_of(2, 1.0)
    with pytest.raises(ValueError, match="finite"):
        blow_down_deviation(prof, h)
    for samples in (0, 1):
        with pytest.raises(ValueError, match="samples"):
            blow_down_deviation(prof, 100.0, samples=samples)
    assert blow_down_deviation(prof, 100.0, samples=2) >= 0.0


def test_range_gate_edge(profile_of):
    """One ulp past t_max counts as t_max everywhere; 1e-15 past it is out."""
    prof = profile_of(2, 1.0)
    edge = math.nextafter(prof.t_max, math.inf)
    assert prof.evaluate(edge) == prof.evaluate(prof.t_max)
    assert check_pde_residual(prof, np.array([[edge, 0.0]])).passed
    assert math.isfinite(blow_down_deviation(prof, edge))
    past = prof.t_max * (1.0 + 1e-15)
    with pytest.raises(ValueError):
        prof.evaluate(past)
    with pytest.raises(ValueError):
        check_pde_residual(prof, np.array([[past, 0.0]]))
    with pytest.raises(ValueError):
        blow_down_deviation(prof, past)


def test_check_blow_down(profile_of):
    rep = check_blow_down(profile_of(2, 1.0))
    assert rep.name == "blow-down"
    assert rep.passed
    assert rep.tolerance == pytest.approx(1.324579e-3, rel=1e-5)


def test_growth_passes_moderate_cell(profile_of):
    rep = check_growth(profile_of(2, 1.0))
    assert rep.passed
    assert rep.metric < 5e-3


def test_growth_honest_at_slow_cell(profile_of):
    """(6, 3) at t_max = 200 is genuinely outside 2 percent.

    The dyadic slope converges like the subleading correction, which for
    large n and alpha is still a few percent at t = 100.  The check
    reports that honestly rather than passing on a looser gate; at
    t_max = 2000 the same cell is comfortably inside (see acceptance).
    """
    rep = check_growth(profile_of(6, 3.0))
    assert not rep.passed
    assert 0.02 < rep.metric < 0.06


def test_refinement_agreement():
    rep = check_refinement_agreement(solve_profile(ModelParams(3, 2.0), 200.0, 1e-8))
    assert rep.name == "refinement"
    assert rep.passed
    assert rep.metric < 1e-8


def test_default_scan_geometry():
    with pytest.raises(ValueError):
        default_scan_geometry(3.0)
    centers, radii = default_scan_geometry(200.0)
    assert len(centers) == len(radii) == 25
    assert centers[0] == pytest.approx(1.0)
    assert centers[-1] == pytest.approx(100.0)
    assert radii == [c / 2.0 for c in centers]


def test_scan_gradient_bound_small():
    report = scan_gradient_bound(ModelParams(2, 1.0), [1.0, 5.0], [0.5, 2.5], tol=1e-8)
    assert len(report.samples) == 2
    # slope at t = 1 sits strictly below 1 (slope sandwich), so the log clips
    assert report.samples[0].ratio == 0.0
    assert 0.0 < report.sup_ratio < 1.0
    assert report.sup_ratio == report.samples[1].ratio


def test_scan_samples_match_pointwise_evaluation():
    """Batched evaluation gives the samples of one scalar call per point, bitwise."""
    params = ModelParams(2, 0.5)
    centers, radii = default_scan_geometry(200.0)
    centers, radii = [0.0] + centers, [0.5] + radii
    report = scan_gradient_bound(params, centers, radii)
    profile = solve_profile(params, max(c + r for c, r in zip(centers, radii)), 1e-10)
    for c, rho, sample in zip(centers, radii, report.samples):
        grad = profile.evaluate(c)[1] if c > 0.0 else 0.0
        m_val = profile.evaluate(c + rho)[0]
        ratio = math.log(max(grad, 1.0)) / (1.0 + (m_val / rho) ** 2)
        assert sample == (c, rho, m_val, grad, ratio)


def test_scan_gradient_bound_validation():
    params = ModelParams(2, 1.0)
    with pytest.raises(ValueError):
        scan_gradient_bound(params, [1.0, 2.0], [0.5])
    with pytest.raises(ValueError):
        scan_gradient_bound(params, [], [])
    with pytest.raises(ValueError):
        scan_gradient_bound(params, [1.0], [-0.5])
    with pytest.raises(ValueError):
        scan_gradient_bound(params, [-1.0], [0.5])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_scan_gradient_bound_refuses_non_finite_balls(bad):
    """A NaN centre or radius passed the sign checks, and the scan failed
    later inside ``evaluate``; each is refused before any solve."""
    params = ModelParams(2, 1.0)
    with pytest.raises(ValueError, match="finite center offsets"):
        scan_gradient_bound(params, [1.0, bad], [0.5, 0.5])
    with pytest.raises(ValueError, match="finite center offsets"):
        scan_gradient_bound(params, [1.0, 2.0], [0.5, bad])


def test_run_battery_solves_once(profile_of, monkeypatch):
    """The refinement check reuses the battery's profile: one finer solve,
    which takes over the profile's series coefficients."""
    solves = []

    def recording(*args, **kwargs):
        solves.append(kwargs)
        return solve_profile(*args, **kwargs)

    monkeypatch.setattr(verify_module, "solve_profile", recording)
    profile = profile_of(3, 2.0)
    reports = run_battery(profile)
    assert solves == [{
        "switch_radius": profile.grid[1] / 2.0,
        "_series_from": (profile.series, profile._far),
    }]
    assert reports[-1].name == "refinement" and reports[-1].passed


def test_run_battery_computes_each_series_once(monkeypatch):
    """A battery's two solves share one origin and one far-field recursion,
    and the finer solve still goes through ``solve_profile``."""
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("series_coefficients", "_far_series"):
        monkeypatch.setattr(profile_module, name, counting(name, getattr(profile_module, name)))
    monkeypatch.setattr(verify_module, "solve_profile", counting("solve_profile", solve_profile))
    profile = verify_module.solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    run_battery(profile)
    assert sorted(calls) == [
        "_far_series", "series_coefficients", "solve_profile", "solve_profile"
    ]


def test_run_battery_all_green(profile_of):
    reports = run_battery(profile_of(2, 1.0))
    names = [rep.name for rep in reports]
    assert names == [
        "bounds",
        "phase-monotone",
        "pde-residual",
        "convexity",
        "blow-down",
        "growth",
        "refinement",
    ]
    assert all(rep.passed for rep in reports)
