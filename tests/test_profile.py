import math
import os
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import dop853_loop_step, mp_far_series_coeffs
import soliton_lab
from soliton_lab import profile as profile_module
from soliton_lab import series as series_module
from soliton_lab.asymptotics import asymptotic_z
from soliton_lab.model import (
    ModelParams,
    _slope_map_deriv,
    coeff_B,
    g_eval,
    g_invert,
)
from soliton_lab.phase import phase_trajectory
from soliton_lab.profile import (
    RadialProfile,
    SolverError,
    _STIFFNESS_BUDGET,
    _far_series,
    _series_sum,
    solve_profile,
)
from soliton_lab.series import _polyval, series_eval
from soliton_lab.verify import check_pde_residual, sample_ball


def _last_term_negligible(c, x):
    """Where the last term of the series c at x is below 1e-16 of its sum."""
    return _series_sum(c, x)[1]


def test_deterministic(profile_of):
    a = profile_of(3, 2.0)
    b = solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    assert np.array_equal(a.grid, b.grid)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.dr, b.dr)
    assert np.array_equal(a.ddr, b.ddr)


def test_validation_errors():
    p = ModelParams(2, 1.0)
    with pytest.raises(ValueError):
        solve_profile(p, 100.0, 1e-5)        # tol above the supported range
    with pytest.raises(ValueError):
        solve_profile(p, 100.0, 1e-14)       # tol below it
    with pytest.raises(ValueError):
        solve_profile(p, 0.005, 1e-10)       # t_max inside the series region
    with pytest.raises(ValueError):
        solve_profile(p, 2e4, 1e-10)         # beyond the cap
    with pytest.raises(ValueError):
        solve_profile(p, 100.0, 1e-10, grid_spacing=0.5)
    with pytest.raises(ValueError):
        solve_profile(p, 100.0, 1e-10, switch_radius=0.5)
    with pytest.raises(ValueError):
        solve_profile("params", 100.0, 1e-10)


@pytest.mark.parametrize(
    "n, alpha, tol_a, tol_b", [(3, 2.0, 1e-12, 1e-13), (2, 0.5, 3e-12, 1e-13)]
)
def test_nodes_stop_changing_at_the_rtol_floor(n, alpha, tol_a, tol_b):
    """The stepper's rtol is max(tol/100, 3e-14): below tol 3e-12 it is floored."""
    a = solve_profile(ModelParams(n, alpha), 200.0, tol_a)
    b = solve_profile(ModelParams(n, alpha), 200.0, tol_b)
    for name in ("grid", "r", "dr", "ddr", "dddr", "phase_z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    above = solve_profile(ModelParams(n, alpha), 200.0, 4e-12)  # rtol 4e-14
    assert not np.array_equal(a.r, above.r)


def test_overflow_guard():
    # slope ~ t^(1/alpha) leaves float range long before t_max for tiny alpha
    with pytest.raises(SolverError):
        solve_profile(ModelParams(2, 0.01), 1e4, 1e-10)


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (3, 2.0)])
def test_explicit_stretch_matches_reference(n, alpha):
    """The carried-slope stepper against scipy's DOP853 at tighter tolerance.

    Up to t = 5 both cells stay in the explicit regime.  The reference
    integrates (r, z) with the slope recovered by inversion in every
    evaluation, so a wrong carried-slope equation or tableau shows up as
    drift in z and r.
    """
    params = ModelParams(n, alpha)
    prof = solve_profile(params, 5.0, 1e-10)
    m = n - 1.0

    def rhs(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        return [y, -(1.0 + n * u[1] + alpha * m * u[1] * y * y) / t]

    t = prof.grid[1:]
    ref = solve_ivp(
        rhs, (t[0], t[-1]), [prof.r[1], prof.phase_z[0]], method="DOP853",
        t_eval=t, rtol=1e-13, atol=1e-15,
    )
    assert ref.success
    np.testing.assert_allclose(prof.phase_z, ref.y[1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(prof.r[1:], ref.y[0], rtol=2e-12, atol=0.0)


def _solve_recording_launch(monkeypatch, params, t_max=200.0):
    """Solve and return the profile and the t the explicit stepper starts at."""
    launches = []

    class Recording(profile_module._CarriedSlopeStepper):
        def __init__(self, n, alpha, t, *args, **kwargs):
            launches.append(t)
            super().__init__(n, alpha, t, *args, **kwargs)

    monkeypatch.setattr(profile_module, "_CarriedSlopeStepper", Recording)
    prof = solve_profile(params, t_max, 1e-10)
    (t_launch,) = launches
    return prof, t_launch


def test_explicit_stretch_inverts_once_per_node(monkeypatch):
    # Stages carry the slope; only the projection at each node the stepper
    # lands on inverts g.  The origin series nodes need no inversion.
    calls = []
    invert = profile_module._invert_slope

    def counting(*args):
        calls.append(args)
        return invert(*args)

    monkeypatch.setattr(profile_module, "_invert_slope", counting)
    prof, t_launch = _solve_recording_launch(monkeypatch, ModelParams(3, 2.0), 5.0)
    assert 0.01 < t_launch < 5.0
    assert len(calls) == np.count_nonzero(prof.grid > t_launch)


@pytest.mark.parametrize("n, alpha", [(2, 5.0), (6, 0.5), (10, 0.3)])
def test_origin_series_nodes_match_reference(monkeypatch, n, alpha):
    """Every node filled by the origin series against scipy's DOP853.

    The reference integrates (r, z) at rtol 1e-13 from the first node, with
    the slope recovered by inversion, and must agree with the series nodes
    up to the launch of the explicit stepper.  Its atol is that of
    ``test_explicit_stretch_matches_reference``: at atol 1e-20 its first
    steps on (2, 5) miss a 50-digit evaluation of z by 1.05e-13, where the
    series nodes are within 1.7e-16 of it.  The series nodes are also
    ``series_eval``'s values bit for bit.
    """
    params = ModelParams(n, alpha)
    prof, t_launch = _solve_recording_launch(monkeypatch, params, 20.0)
    m = n - 1.0

    def rhs(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        return [y, -(1.0 + n * u[1] + alpha * m * u[1] * y * y) / t]

    t = prof.grid[1:]
    t = t[t <= t_launch]
    assert len(t) > 100
    r_series, dr_series, _ = series_eval(prof.series, t)
    assert r_series.tobytes() == prof.r[1:len(t) + 1].tobytes()
    assert dr_series.tobytes() == prof.dr[1:len(t) + 1].tobytes()
    ref = solve_ivp(
        rhs, (t[0], t[-1]), [prof.r[1], prof.phase_z[0]], method="DOP853",
        t_eval=t, rtol=1e-13, atol=1e-15,
    )
    assert ref.success
    np.testing.assert_allclose(prof.phase_z[:len(t)], ref.y[1], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(prof.r[1:len(t) + 1], ref.y[0], rtol=1e-13, atol=0.0)


def test_origin_series_stops_inside_its_radius(monkeypatch):
    # At (2, 5) the series' radius of convergence is about 1.19.
    _, t_launch = _solve_recording_launch(monkeypatch, ModelParams(2, 5.0))
    assert t_launch < 1.19


def _step_bits(step, stepper, state, h):
    """float.hex of a step's new state, its rhs and error norm; None on overflow."""
    try:
        (r, z, y), f_new, error_norm = step(stepper, *state, h)
    except OverflowError:
        return None
    return [float(v).hex() for v in (r, z, y, *f_new, error_norm)]


def test_dop853_step_matches_loop_oracle():
    """The straight-line step equals the loop over scipy's tables bit for bit.

    This checks every literal tableau entry as the step uses it: stage
    weights, nodes, solution weights and both error estimators.  The
    states are seeded random (n, alpha, t, r, z, y, h) with the slope y on
    the constraint for the defect z and h up to three times the inverse
    relaxation rate of z.  Where every output is finite, the new state,
    its rhs and the error norm must match to the last bit.  A step that
    leaves float range is rejected by the controller whatever its bits,
    since its error norm is not below 1; there the two forms must agree
    that it does, and most states must stay finite.
    """
    rng = np.random.default_rng(20081)
    finite = 0
    for _ in range(400):
        n = int(rng.integers(2, 11))
        alpha = float(10.0 ** rng.uniform(-0.7, 1.0))
        t = float(10.0 ** rng.uniform(-2.0, 3.3))
        r = float(t * rng.uniform(0.0, 3.0))
        z = float(rng.uniform(-0.9, 0.1))
        y = g_invert((1.0 + z) * t / (n - 1.0), ModelParams(n, alpha))
        h_max = 3.0 * t / (n + alpha * (n - 1.0) * y * y)
        h = float(h_max * 10.0 ** rng.uniform(-3.0, 0.0))
        stepper = profile_module._CarriedSlopeStepper(
            n, alpha, t, r, z, y, 2.0 * t, rtol=1e-12, atol=1e-13
        )
        state = (t, r, z, y, stepper.f)
        ours = _step_bits(profile_module._CarriedSlopeStepper._rk_step, stepper, state, h)
        oracle = _step_bits(dop853_loop_step, stepper, state, h)
        if ours is not None and all(math.isfinite(float.fromhex(v)) for v in ours):
            assert ours == oracle
            finite += 1
        else:
            assert oracle is None or not float.fromhex(oracle[-1]) < 1.0
    assert finite >= 350


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (3, 2.0), (6, 1.0), (2, 5.0), (10, 0.3)])
def test_solve_matches_loop_step_bitwise(monkeypatch, n, alpha):
    """Every node of a solve is the same with the loop-form step in place."""
    params = ModelParams(n, alpha)
    straight = solve_profile(params, 200.0, 1e-10)
    monkeypatch.setattr(profile_module._CarriedSlopeStepper, "_rk_step", dop853_loop_step)
    loop = solve_profile(params, 200.0, 1e-10)
    for name in ("grid", "r", "dr", "ddr", "dddr", "phase_z"):
        assert getattr(straight, name).tobytes() == getattr(loop, name).tobytes(), name


def test_import_loads_no_scipy():
    """scipy is a test dependency only; importing the package must not load it.

    Nor numpy.polynomial: every series sum goes through ``series._polyval``.
    """
    src = str(Path(soliton_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, soliton_lab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
            "or m.startswith('numpy.polynomial')))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_polyval_bitwise_equals_numpy():
    """``_polyval`` is numpy's polyval bit for bit, on arrays and on scalars."""
    from numpy.polynomial.polynomial import polyval

    rng = np.random.default_rng(7)
    for _ in range(200):
        c = rng.standard_normal(int(rng.integers(1, 50))) * 10.0 ** rng.uniform(-20, 20)
        x = rng.uniform(-2.0, 2.0, int(rng.integers(1, 300))) * 10.0 ** rng.uniform(-8, 1)
        assert _polyval(x, c).tobytes() == polyval(x, c).tobytes()
        x0 = float(x[0])
        assert np.float64(_polyval(x0, c)).tobytes() == np.float64(polyval(x0, c)).tobytes()


def test_solve_sums_each_series_once_per_node(monkeypatch):
    """One solve sums no series twice at one node.

    Every Horner pass is recorded, through the solver's ``_polyval`` and
    through the one ``series_eval`` uses, with its coefficients and its
    points.  The six series (r and r' at the axis; U, W, the integral of
    the slope and F in the far field) must each be summed, and no
    (coefficients, point) pair twice.
    """
    passes = []

    def recording(x, c):
        passes.append((np.asarray(c).tobytes(), np.atleast_1d(x).tolist()))
        return _polyval(x, c)

    monkeypatch.setattr(profile_module, "_polyval", recording)
    monkeypatch.setattr(series_module, "_polyval", recording)
    solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    assert len({c for c, _ in passes}) == 6
    sums = Counter((c, x) for c, points in passes for x in points)
    twice = [x for (_, x), count in sums.items() if count > 1]
    assert not twice, f"{len(twice)} nodes summed twice, first at x = {twice[0]:.6g}"


def test_last_term_negligible_false_where_the_sum_overflows():
    """A sum that overflows is not converged, although inf <= inf holds.

    The far series of (2, 0.5) at t = 0.01 has x = 1e8, where both its sum
    and its last term leave float range.
    """
    u, w = _far_series(2, 0.5)
    x = np.array([(1.0 / 0.01) ** 4.0, 1e-6])
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(_polyval(x[0], u))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _last_term_negligible(u, x).tolist() == [False, True]
        assert _last_term_negligible(w, x).tolist() == [False, True]


def _solve_recording_handoff(monkeypatch, params, t_max=200.0, tol=1e-10):
    """Solve and return the profile and every node the explicit stepper lands on.

    The last of them is the handoff node: the far-field series fills every
    node after it, and none when it is t_max.
    """
    targets = []

    class Recording(profile_module._CarriedSlopeStepper):
        def advance_to(self, t_target):
            targets.append(t_target)
            super().advance_to(t_target)

    monkeypatch.setattr(profile_module, "_CarriedSlopeStepper", Recording)
    prof = solve_profile(params, t_max, tol)
    return prof, np.array(targets)


def _radau_past_handoff(monkeypatch, n, alpha, t_max):
    """The profile, its handoff node k and scipy's Radau from there to t_max.

    Radau integrates (r, z) at tight tolerance with the slope recovered by
    inversion, from the last explicit node, at every series node.
    """
    params = ModelParams(n, alpha)
    prof, explicit = _solve_recording_handoff(monkeypatch, params, t_max)
    m = n - 1.0
    t = prof.grid[1:]
    (k,) = np.flatnonzero(t == explicit[-1])
    assert k < len(t) - 10

    def rhs(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        return [y, -(1.0 + n * u[1] + alpha * m * u[1] * y * y) / t]

    def jac(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        dydz = t / (m * _slope_map_deriv(alpha, y))
        c = alpha * m
        return [[0.0, dydz], [0.0, -(n + c * y * y + 2.0 * c * u[1] * y * dydz) / t]]

    ref = solve_ivp(
        rhs, (t[k], t[-1]), [prof.r[k + 1], prof.phase_z[k]], method="Radau",
        t_eval=t[k + 1:], rtol=1e-13, atol=1e-20, jac=jac,
    )
    assert ref.success
    return prof, k, ref


# Odd integer alpha puts a term of the radius integral at e_k = 0, where it
# is a log: k = 1 at alpha 1, k = 2 at alpha 3.  Just off 3 it is the
# expm1 form with e_k of about 3e-10.
@pytest.mark.parametrize(
    "n, alpha",
    [(2, 1.0), (2, 2.0), (5, 2.0), (3, 3.0), (3, 3.0 + 1e-9), (3, 3.0 - 1e-9)],
)
def test_series_stretch_matches_radau(monkeypatch, n, alpha):
    """Past the handoff the far-field series is the integrated trajectory:
    the series nodes carry Radau's defect z and radius r."""
    prof, k, ref = _radau_past_handoff(monkeypatch, n, alpha, 200.0)
    np.testing.assert_allclose(prof.phase_z[k + 1:], ref.y[1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(prof.r[k + 2:], ref.y[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, alpha, t_max", [(10, 0.15, 200.0), (7, 0.2, 200.0), (2, 0.5, 2000.0)])
def test_far_radius_matches_radau_below_alpha_one(monkeypatch, n, alpha, t_max):
    """r past the handoff is the slope series integrated term by term.

    Here the slope grows like t^(1/alpha), with 1/alpha up to 6.7, faster
    than a quadrature between nodes resolves.  Only r is compared:
    Radau's atol of 1e-20 cannot resolve |z| ~ t^(-2/alpha) this far out.
    """
    prof, k, ref = _radau_past_handoff(monkeypatch, n, alpha, t_max)
    np.testing.assert_allclose(prof.r[k + 2:], ref.y[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, alpha, t_max", [(10, 0.05, 200.0), (15, 0.01, 50.0)])
def test_tiny_alpha_radius_follows_the_leading_term(n, alpha, t_max):
    """r grows like alpha/(alpha+1) (n-1)^(-1/alpha) t^(1+1/alpha), and at
    these alphas every other term is below 1e-12 of it by t_max."""
    prof = solve_profile(ModelParams(n, alpha), t_max, 1e-10)
    assert np.all(np.diff(prof.r) > 0)
    leading = alpha / (alpha + 1.0) * (n - 1.0) ** (-1.0 / alpha) * t_max ** (1.0 + 1.0 / alpha)
    assert prof.r[-1] == pytest.approx(leading, rel=1e-12)


@pytest.mark.parametrize("n, alpha", [(10, 0.15), (7, 0.2)])
def test_pde_residual_below_alpha_one(n, alpha):
    """The battery's PDE residual check, with its points, within 100 tol."""
    prof = solve_profile(ModelParams(n, alpha), 200.0, 1e-10)
    points = sample_ball(np.random.default_rng(0), 1000, n, prof.t_max / 2.0)
    report = check_pde_residual(prof, points)
    assert report.metric <= 100.0 * prof.tol, report


def _far_oracle_scaled(n, alpha, order):
    """The oracle's (u_k, w_k) in the variables of ``_far_series``."""
    u, w = mp_far_series_coeffs(n, alpha, order)
    with mp.workdps(50):
        a = mp.mpf(alpha)
        m = mp.mpf(n - 1)
        u = [u[k] * m ** (-(2 * k - 1) / a) for k in range(order + 1)]
        w = [-w[k] * a * m * m ** (-(2 * k + 2) / a) for k in range(order + 1)]
    return u, w


@pytest.mark.parametrize(
    "n, alpha, order",
    [(10, 10.0, 48), (3, 2.0, 48), (2, 0.5, 24), (4, 1.0, 24), (5, 3.0, 24), (2, 0.15, 24)],
)
def test_far_series_matches_high_precision(monkeypatch, n, alpha, order):
    """Float64 far-field coefficients against a 50-digit recomputation.

    Every coefficient agrees to 1e-12 relative unless its error stays below
    1e-17 of the sum (whose first term is 1) at every x where the solver
    uses the series, which is at most x_use, the x of the handoff node.
    That exception covers (3, 2): the z equation's factor 2k/alpha - n
    vanishes at k = 3, so from k = 34 on the coefficients are what
    cancellation leaves of a geometric sequence and keep no relative
    digits in float64; their errors at the handoff are below 1e-94.
    (2, 0.15) raises before any handoff, so there every coefficient must
    agree to 1e-12 relative (the worst is 5.7e-16).
    """
    u, w = _far_series(n, alpha, order)
    try:
        _, explicit = _solve_recording_handoff(monkeypatch, ModelParams(n, alpha), 2000.0)
        x_use = ((n - 1.0) / explicit[-1]) ** (2.0 / alpha)
    except SolverError:
        assert (n, alpha) == (2, 0.15)
        x_use = None
    for ours, exact in zip((u, w), _far_oracle_scaled(n, alpha, order)):
        for k, (a, b) in enumerate(zip(ours, exact)):
            err = abs(float(a - b))
            assert err <= 1e-12 * abs(float(b)) or (
                x_use is not None and err * x_use ** k <= 1e-17
            ), (k, a, b)


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (3, 1.0), (4, 2.0), (6, 3.0), (10, 10.0)])
def test_far_series_leading_coefficients(n, alpha):
    """u_1 = -B and w_0 the leading coefficient of ``asymptotic_z``."""
    params = ModelParams(n, alpha)
    u, w = _far_series(n, alpha)
    m = n - 1.0
    assert u[1] * m ** (1.0 / alpha) == pytest.approx(-coeff_B(params), rel=1e-14)
    w0 = -w[0] * m ** (2.0 / alpha) / (alpha * m)
    s = 20.0  # asymptotic_z keeps a second term on the alpha = 1 branch
    leading = asymptotic_z(params, s) * math.exp(2.0 * s / alpha)
    assert w0 == pytest.approx(leading, rel=1e-14)


def test_far_series_out_of_float_range_is_never_used():
    """For tiny alpha the coefficients overflow quietly and never pass."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, w = _far_series(2, 0.001)
        assert not _last_term_negligible(u, 1e-12)
        assert not _last_term_negligible(w, 1e-12)


@pytest.mark.parametrize("n, alpha", [(2, 2.0), (3, 3.0)])
def test_handoff_where_the_defect_matches_the_series(monkeypatch, n, alpha):
    """The handoff comes where z agrees with the series, not at the stability cap.

    These cells hand off at t of about 22 and 25, where the series has
    converged and z agrees with it to the stepper's tolerance; the
    relaxation rate reaches the stability cap only at t of about 151 on
    (2, 2), and not before t_max 200 on (3, 3).
    """
    _, explicit = _solve_recording_handoff(monkeypatch, ModelParams(n, alpha))
    assert explicit[-1] < 40.0


def _capped_and_converged(params, t, y, z):
    """At the nodes (t, y, z): where the relaxation rate passes the stability
    cap with the far series converged, where it has converged, and its z."""
    n, alpha = params.n, params.alpha
    m = n - 1.0
    c = alpha * m
    rate_cap = _STIFFNESS_BUDGET / (1e-2 if alpha >= 1.0 else 3.25e-3)
    dydz = t / (m * _slope_map_deriv(alpha, y))
    capped = n + c * (y * y + 2.0 * z * y * dydz) > rate_cap
    u, w = _far_series(n, alpha)
    x = (m / t) ** (2.0 / alpha)
    converged = _last_term_negligible(u, x) & _last_term_negligible(w, x)
    with np.errstate(over="ignore", invalid="ignore"):
        z_series = -x * _polyval(x, w) / c
    return capped & converged, converged, z_series


# The ends of the range, 0.15 and 0.2 (n = 2 raises there: the stability
# cap arrives while z is still off the series), the log branch, and six
# seeded log-uniform draws.
_SWEEP_ALPHAS = sorted(
    [0.15, 0.2, 1.0, 10.0]
    + [float(a) for a in 10.0 ** np.random.default_rng(1010).uniform(-0.8, 1.0, 6)]
)

# The cells that reach the stability cap while z is farther from the far
# series than the stepper's error scale.
_OUTSIDE = {(2, 0.15), (2, 0.2)}


@pytest.mark.parametrize("n", [2, 3, 5, 7, 10, 15])
def test_handoff_never_later_than_the_relaxed_gate(monkeypatch, n):
    """On a seeded sweep every solve finishes, at a node that agrees with
    the series or with an error, never later than the stability cap.

    No explicit node before the handoff passes the stability cap with the
    series converged.  The handoff node itself has a converged series and
    z within atol + rtol |z| of the series' z, and within rtol |z| unless
    it passes the cap.  Only (2, 0.15) and (2, 0.2) raise instead.
    """
    atol = 1e-13
    for alpha in _SWEEP_ALPHAS:
        params = ModelParams(n, alpha)
        for tol in (1e-8, 1e-10, 1e-12):
            if (n, alpha) in _OUTSIDE:
                with pytest.raises(SolverError, match="limit"):
                    solve_profile(params, 200.0, tol)
                continue
            prof, explicit = _solve_recording_handoff(monkeypatch, params, 200.0, tol)
            assert np.all(np.isfinite(prof.r)) and np.all(np.isfinite(prof.phase_z))
            k = np.searchsorted(prof.grid[1:], explicit)
            t, y, z = prof.grid[1:][k], prof.dr[1:][k], prof.phase_z[k]
            gate, converged, z_series = _capped_and_converged(params, t, y, z)
            assert not gate[:-1].any(), (alpha, tol, t[np.argmax(gate)])
            if explicit[-1] < 200.0:
                rtol = max(tol * 1e-2, 3e-14)
                gap = abs(z[-1] - z_series[-1])
                assert converged[-1] and gap <= atol + rtol * abs(z[-1]), (alpha, tol)
                assert gate[-1] or gap <= rtol * abs(z[-1]), (alpha, tol)


@pytest.mark.parametrize("alpha", [0.15, 0.2])
@pytest.mark.parametrize("tol", [1e-8, 1e-10])
def test_stability_cap_off_the_series_raises(alpha, tol):
    """n = 2 at alpha 0.15 and 0.2 reaches the cap inside the layer, where
    z is 5 % and 2.5e-9 relative off the series; returning that profile
    would join the series to a wrong trajectory."""
    with pytest.raises(SolverError) as info:
        solve_profile(ModelParams(2, alpha), 200.0, tol)
    message = str(info.value)
    assert f"(n, alpha) = (2, {alpha:g})" in message
    assert "limit atol + rtol |z|" in message


def test_cap_handoff_within_the_error_scale(monkeypatch):
    """(15, 7) at tol 1e-12 never agrees to rtol before the cap (t of about
    1438 at t_max 2000) and hands off there, within atol + rtol |z|."""
    params = ModelParams(15, 7.0)
    prof, explicit = _solve_recording_handoff(monkeypatch, params, 2000.0, 1e-12)
    assert 1000.0 < explicit[-1] < 2000.0
    k = int(np.flatnonzero(prof.grid[1:] == explicit[-1])[0])
    t, y, z = prof.grid[1:][k], prof.dr[k + 1], prof.phase_z[k]
    gate, _, z_series = _capped_and_converged(params, np.array([t]), np.array([y]), np.array([z]))
    rtol = 3e-14  # the stepper's floor, above tol 1e-12 / 100
    gap = abs(z - z_series[0])
    assert gate[0] and rtol * abs(z) < gap <= 1e-13 + rtol * abs(z)


def test_no_handoff_reaches_t_max(monkeypatch):
    """(10, 10) at tol 1e-12 neither agrees nor reaches the cap before
    t_max 200: the explicit stretch runs to the end and keeps the phase
    contract."""
    prof, explicit = _solve_recording_handoff(monkeypatch, ModelParams(10, 10.0), 200.0, 1e-12)
    assert explicit[-1] == 200.0
    phase_trajectory(prof)


def test_origin_row(profile_of):
    prof = profile_of(4, 3.0)
    assert prof.grid[0] == 0.0
    assert prof.r[0] == 0.0
    assert prof.dr[0] == 0.0
    assert prof.ddr[0] == 1.0 / 4.0


def test_monotone_structure(profile_of):
    for cell in [(2, 0.5), (2, 1.0), (6, 3.0)]:
        prof = profile_of(*cell)
        assert np.all(np.diff(prof.grid) > 0)
        assert np.all(np.diff(prof.r[1:]) > 0)
        assert np.all(np.diff(prof.dr) > 0)
        assert np.all(prof.ddr > 0)
        assert np.all(np.diff(prof.phase_z) > 0)


def test_slope_bounds_everywhere(profile_of):
    prof = profile_of(5, 0.5)
    t = prof.grid[1:]
    gy = g_eval(prof.dr[1:], prof.params)
    assert np.all(gy > t / 5.0)
    assert np.all(gy < t / 4.0)


def test_tail_defect_matches_asymptote(profile_of):
    # z ~ -(1/alpha) (n-1)^(2/alpha - 1) t^(-2/alpha) far out
    for (n, alpha, rel) in [(2, 1.0, 2e-3), (6, 1.0, 2e-3), (2, 2.0, 0.08), (2, 0.5, 1e-4)]:
        prof = profile_of(n, alpha)
        z_end = prof.phase_z[-1]
        expect = -(1.0 / alpha) * (n - 1.0) ** (2.0 / alpha - 1.0) * 200.0 ** (-2.0 / alpha)
        assert z_end == pytest.approx(expect, rel=rel)


def test_evaluate_matches_nodes(profile_of):
    prof = profile_of(3, 1.0)
    k = np.array([0, 1, 40, len(prof.grid) - 1])
    r, dr, ddr = prof.evaluate(prof.grid[k])
    np.testing.assert_array_equal(r, prof.r[k])
    np.testing.assert_array_equal(dr, prof.dr[k])
    np.testing.assert_array_equal(ddr, prof.ddr[k])


def test_evaluate_against_refined_grid(profile_of):
    """Interpolated values agree with a finer solve to ~tol."""
    coarse = profile_of(2, 2.0)
    fine = solve_profile(ModelParams(2, 2.0), 200.0, 1e-10, grid_spacing=5e-3)
    t = np.geomspace(0.02, 199.0, 400)
    ra, da, ca = coarse.evaluate(t)
    rb, db, cb = fine.evaluate(t)
    assert np.max(np.abs(ra - rb) / (1.0 + np.abs(rb))) < 1e-9
    assert np.max(np.abs(da - db) / (1.0 + np.abs(db))) < 1e-9
    assert np.max(np.abs(ca - cb) / (1.0 + np.abs(cb))) < 1e-8


def test_evaluate_domain_checks(profile_of):
    prof = profile_of(2, 1.0)
    with pytest.raises(ValueError):
        prof.evaluate(-0.5)
    with pytest.raises(ValueError):
        prof.evaluate(200.5)
    with pytest.raises(ValueError):
        prof.evaluate(float("nan"))
    r, dr, ddr = prof.evaluate(np.float64(200.0) * (1.0 + 1e-16))
    assert math.isfinite(r)


def test_evaluate_series_region(profile_of):
    prof = profile_of(6, 0.5)
    t = np.array([1e-6, 1e-4, 5e-3])
    r, dr, ddr = prof.evaluate(t)
    np.testing.assert_allclose(ddr, 1.0 / 6.0, rtol=1e-4)
    np.testing.assert_allclose(r, t * t / 12.0, rtol=1e-4)


def test_t_max_property(profile_of):
    assert profile_of(2, 1.0).t_max == 200.0


def test_custom_grid_spacing_covers_range():
    prof = solve_profile(ModelParams(3, 1.0), 50.0, 1e-8, grid_spacing=2e-2)
    s = np.log(prof.grid[1:])
    gaps = np.diff(s)
    assert abs(gaps.max() - gaps.min()) < 1e-12
    assert prof.grid[-1] == 50.0


def test_profile_is_dataclass_instance(profile_of):
    assert isinstance(profile_of(2, 1.0), RadialProfile)
