"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line (visible under ``pytest -s`` or on
failure) and then asserts.  The shared fixture solves the full parameter
grid once; scaling criteria re-solve at larger radii where the quantity
being tested only converges far out.
"""

import time

import numpy as np
import pytest

from helpers import mp_series_residual_slope
from soliton_lab.asymptotics import expected_coefficients, fit_far_field
from soliton_lab.model import ModelParams, coeff_B, coeff_C, g_eval
from soliton_lab.phase import phase_trajectory
from soliton_lab.profile import solve_profile
from soliton_lab.verify import (
    blow_down_deviation,
    check_blow_down,
    check_bounds,
    check_convexity,
    check_growth,
    check_pde_residual,
    check_phase_monotone,
    check_refinement_agreement,
    default_scan_geometry,
    sample_ball,
    scan_gradient_bound,
)

DIMENSIONS = (2, 3, 4, 5, 6)
EXPONENTS = (0.5, 1.0, 2.0, 3.0)
GRID = [(n, a) for n in DIMENSIONS for a in EXPONENTS]


@pytest.fixture
def say(capsys):
    """Print one PASS/FAIL line per criterion, bypassing output capture."""

    def _emit(tag: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'}  {tag}: {detail}")

    return _emit


@pytest.fixture(scope="module")
def battery():
    """One solve per grid cell at t_max = 200, tol = 1e-10, wall-clock timed."""
    start = time.perf_counter()
    profiles = {
        cell: solve_profile(ModelParams(*cell), 200.0, 1e-10) for cell in GRID
    }
    elapsed = time.perf_counter() - start
    return profiles, elapsed


def test_criterion_01_bounds_and_runtime(battery, say):
    profiles, elapsed = battery
    worst = -np.inf
    for cell, prof in profiles.items():
        rep = check_bounds(prof, margin_rate=1e-12)
        worst = max(worst, rep.metric)
        assert rep.passed, (cell, rep.detail)
    ok = worst <= -1e-12 and elapsed < 5.0
    say(
        "criterion 01 (slope sandwich + convexity margin, grid runtime)",
        ok,
        f"worst normalized violation {worst:.3e} (need <= -1e-12), "
        f"grid solved in {elapsed:.2f} s (need < 5 s)",
    )
    assert elapsed < 5.0
    assert worst <= -1e-12


def test_criterion_02_phase_limits(battery, say):
    profiles, _ = battery
    worst = -np.inf
    for cell, prof in profiles.items():
        rep = check_phase_monotone(phase_trajectory(prof))
        worst = max(worst, rep.metric)
        assert rep.passed, (cell, rep.detail)
    say(
        "criterion 02 (z strictly increasing, -1/n to 0 within gates)",
        worst <= 0.0,
        f"worst folded metric {worst:.3e} (gates 1e-3 inner, 1e-2 outer)",
    )
    assert worst <= 0.0


def test_criterion_03_log_branch_expansion(battery, say):
    profiles, _ = battery
    rows = []
    for n in (2, 3, 5, 6):
        fit = fit_far_field(profiles[(n, 1.0)], window=(100.0, 200.0))
        expected = -0.5 * (n - 1.0) * (n - 4.0)
        rel = abs(fit.fitted_second - expected) / abs(expected)
        rows.append((n, fit.fitted_second, expected, rel))
        assert rel < 0.05, rows[-1]
    fit4 = fit_far_field(profiles[(4, 1.0)], window=(100.0, 200.0))
    assert abs(fit4.fitted_second) < 0.05
    worst = max(row[3] for row in rows)
    say(
        "criterion 03 (refined log-branch coefficient fits)",
        worst < 0.05,
        f"worst relative error {worst:.2e} over n in (2,3,5,6) "
        f"(need < 5e-2); |n=4 fit| = {abs(fit4.fitted_second):.2e} (need < 0.05)",
    )


def test_criterion_04_power_branch_expansion(say):
    cases = {(2, 2.0): 2000.0, (3, 2.0): 2000.0, (2, 3.0): 4000.0, (3, 3.0): 4000.0}
    worst_lead = 0.0
    worst_second = 0.0
    for (n, alpha), t_max in cases.items():
        prof = solve_profile(ModelParams(n, alpha), t_max, 1e-10)
        fit = fit_far_field(prof)
        lead, second = expected_coefficients(prof.params)
        rel_lead = abs(fit.fitted_leading - lead) / abs(lead)
        rel_second = abs(fit.fitted_second - second) / abs(second)
        worst_lead = max(worst_lead, rel_lead)
        worst_second = max(worst_second, rel_second)
        assert rel_lead < 1e-3, (n, alpha, fit.fitted_leading, lead)
        assert rel_second < 0.05, (n, alpha, fit.fitted_second, second)
    spot_c = coeff_C(ModelParams(2, 2.0))
    spots_b = [coeff_B(ModelParams(n, 1.0)) for n in DIMENSIONS]
    ok = spot_c == 1.0 and all(b == 1.0 for b in spots_b)
    say(
        "criterion 04 (power-branch coefficient fits + closed-form spots)",
        ok and worst_lead < 1e-3 and worst_second < 0.05,
        f"worst leading rel {worst_lead:.2e} (need < 1e-3), worst second rel "
        f"{worst_second:.2e} (need < 5e-2); C(2,2)-1 = {spot_c - 1.0:.1e}, "
        f"max|B(n,1)-1| = {max(abs(b - 1.0) for b in spots_b):.1e} (exact)",
    )
    assert spot_c == 1.0
    assert all(b == 1.0 for b in spots_b)


def test_criterion_05_pde_residual(battery, say):
    profiles, _ = battery
    rng = np.random.default_rng(20240214)
    worst = 0.0
    worst_origin = 0.0
    for (n, alpha), prof in profiles.items():
        pts = sample_ball(rng, 1000, n, 100.0)
        rep = check_pde_residual(prof, pts, tolerance=1e-7)
        worst = max(worst, rep.metric)
        assert rep.passed, ((n, alpha), rep.detail)
        origin_gap = abs(n * float(prof.ddr[0]) - 1.0)
        worst_origin = max(worst_origin, origin_gap)
        assert origin_gap <= 1e-9, (n, alpha, origin_gap)
    say(
        "criterion 05 (equation residual at random interior points)",
        worst < 1e-7,
        f"sup residual {worst:.3e} over 20 cells x 1000 points, radius 100 "
        f"(need < 1e-7); origin gap {worst_origin:.1e} (need <= 1e-9)",
    )
    assert worst < 1e-7


def test_criterion_06_convexity(battery, say):
    profiles, _ = battery
    worst = -np.inf
    worst_origin = 0.0
    for (n, alpha), prof in profiles.items():
        rep = check_convexity(prof)
        worst = max(worst, rep.metric)
        assert rep.passed, ((n, alpha), rep.detail)
        tiny = 1e-6
        _, dr_tiny, ddr_tiny = prof.evaluate(tiny)
        gap = max(abs(ddr_tiny - 1.0 / n), abs(dr_tiny / tiny - 1.0 / n))
        worst_origin = max(worst_origin, gap)
        assert gap <= 1e-9, (n, alpha, gap)
    say(
        "criterion 06 (both Hessian eigenvalue families strictly positive)",
        worst < 0.0,
        f"smallest eigenvalue {-worst:.4f} across the grid (need > 0); "
        f"worst origin gap {worst_origin:.1e} (need <= 1e-9)",
    )
    assert worst < 0.0


def test_criterion_07_blow_down(battery, say):
    profiles, _ = battery
    prof = profiles[(2, 1.0)]
    rep = check_blow_down(prof)
    dev_200 = blow_down_deviation(prof, 200.0)
    dev_100 = blow_down_deviation(prof, 100.0)
    ok = rep.passed and dev_200 < dev_100
    say(
        "criterion 07 (parabolic blow-down convergence, n=2 log branch)",
        ok,
        f"deviation {dev_200:.4e} at h=200 (need <= {rep.tolerance:.4e}), "
        f"{dev_100:.4e} at h=100 (must exceed the h=200 value)",
    )
    assert rep.passed, rep.detail
    assert dev_200 < dev_100


def test_criterion_08_growth_exponent(say):
    worst = 0.0
    for n, alpha in GRID:
        prof = solve_profile(ModelParams(n, alpha), 2000.0, 1e-10)
        rep = check_growth(prof)
        worst = max(worst, rep.metric)
        assert rep.passed, ((n, alpha), rep.detail)
    say(
        "criterion 08 (dyadic log-log growth exponent vs 1 + 1/alpha)",
        worst <= 0.02,
        f"worst relative exponent error {worst:.2%} at t_max/2 = 1000 "
        f"(need <= 2%)",
    )
    assert worst <= 0.02


def test_criterion_09_gradient_scan(say):
    worst_drift = 0.0
    for n, alpha in GRID:
        params = ModelParams(n, alpha)
        rep_a = scan_gradient_bound(params, *default_scan_geometry(200.0))
        rep_b = scan_gradient_bound(params, *default_scan_geometry(400.0))
        assert np.isfinite(rep_a.sup_ratio) and rep_a.sup_ratio > 0.0
        drift = abs(rep_b.sup_ratio - rep_a.sup_ratio) / rep_a.sup_ratio
        worst_drift = max(worst_drift, drift)
        assert drift < 0.10, (n, alpha, rep_a.sup_ratio, rep_b.sup_ratio)
    say(
        "criterion 09 (interior gradient-bound functional finite and stable)",
        worst_drift < 0.10,
        f"worst sup-ratio drift {worst_drift:.2%} when the domain doubles "
        f"(need < 10%)",
    )
    assert worst_drift < 0.10


def test_criterion_10a_refinement_agreement(say):
    cells = [(2, 1.0), (6, 0.5), (3, 2.0), (4, 3.0)]
    worst = 0.0
    for n, alpha in cells:
        for tol in (1e-8, 1e-10):
            rep = check_refinement_agreement(solve_profile(ModelParams(n, alpha), 200.0, tol))
            worst = max(worst, rep.metric / rep.tolerance)
            assert rep.passed, ((n, alpha), tol, rep.detail)
    say(
        "criterion 10a (refinement agreement under tolerance tightening)",
        worst <= 1.0,
        f"worst gap as a fraction of the 100*tol gate: {worst:.2e} "
        f"(need <= 1)",
    )
    assert worst <= 1.0


@pytest.mark.xfail(
    strict=True,
    reason="the truncation residual of an even series of degree m scales like "
    "t^m, not t^(m-1); the demanded slope window order-1 +/- 0.3 excludes the "
    "true value, so this clause cannot pass as stated",
)
def test_criterion_10b_series_residual_order(say):
    slopes = {
        (2, 1.0, 8): mp_series_residual_slope(2, 1.0, 8),
        (3, 2.0, 6): mp_series_residual_slope(3, 2.0, 6),
        (4, 0.5, 12): mp_series_residual_slope(4, 0.5, 12),
    }
    ok = all(abs(slope - (order - 1)) <= 0.3 for (_, _, order), slope in slopes.items())
    say(
        "criterion 10b (series residual slope within order-1 +/- 0.3)",
        ok,
        "measured slopes "
        + ", ".join(
            f"order {order}: {slope:.4f} (demanded {order - 1} +/- 0.3)"
            for (_, _, order), slope in slopes.items()
        ),
    )
    for (_, _, order), slope in slopes.items():
        assert abs(slope - (order - 1)) <= 0.3, (order, slope)


def test_criterion_11_origin_data(battery, say):
    profiles, _ = battery
    worst = 0.0
    for (n, alpha), prof in profiles.items():
        assert prof.r[0] == 0.0
        assert prof.dr[0] == 0.0
        assert abs(prof.ddr[0] - 1.0 / n) <= 1e-9
        sc = prof.grid[1]
        mask = (prof.grid > sc * (1.0 + 1e-12)) & (prof.grid <= 10.0 * sc)
        tt = prof.grid[mask]
        rr = prof.r[mask]
        u = tt / tt.max()
        basis = np.column_stack([u ** 2, u ** 4, u ** 6])
        coef, *_ = np.linalg.lstsq(basis, rr, rcond=None)
        ddr0 = 2.0 * coef[0] / tt.max() ** 2
        gap = abs(ddr0 - 1.0 / n)
        worst = max(worst, gap)
        assert gap <= 1e-9, (n, alpha, gap)
    say(
        "criterion 11 (origin values exact, integrated profile limit)",
        worst <= 1e-9,
        f"r(0) = r'(0) = 0 and r''(0) = 1/n exact on all cells; worst "
        f"integrated-limit gap {worst:.2e} (need <= 1e-9)",
    )
    assert worst <= 1e-9
