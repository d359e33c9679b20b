import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from helpers import dop853_loop_step, mp_far_series_coeffs
import soliton_lab
from soliton_lab import profile as profile_module
from soliton_lab.asymptotics import asymptotic_z
from soliton_lab.model import ModelParams, coeff_B, g_eval, g_invert
from soliton_lab.profile import (
    RadialProfile,
    SolverError,
    _far_series,
    _far_series_converged,
    solve_profile,
)


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
    series nodes are within 1.7e-16 of it.
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
    """scipy is a test dependency only; importing the package must not load it."""
    src = str(Path(soliton_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, soliton_lab; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _solve_recording_handoff(monkeypatch, params, t_max=200.0):
    """Solve and return the profile and x at its handoff node."""
    handoffs = []
    converged = profile_module._far_series_converged

    def recording(u, w, x):
        ok = converged(u, w, x)
        if ok:
            handoffs.append(x)
        return ok

    monkeypatch.setattr(profile_module, "_far_series_converged", recording)
    prof = solve_profile(params, t_max, 1e-10)
    (x,) = handoffs
    return prof, x


@pytest.mark.parametrize("n, alpha", [(2, 1.0), (2, 2.0), (5, 2.0)])
def test_series_stretch_matches_radau(monkeypatch, n, alpha):
    """Past the handoff the far-field series is the integrated trajectory.

    From the last explicit node, scipy's Radau integrates (r, z) at tight
    tolerance with the slope recovered by inversion, and the series nodes
    must carry the same defect z and radius r.
    """
    params = ModelParams(n, alpha)
    prof, x = _solve_recording_handoff(monkeypatch, params)
    m = n - 1.0
    t = prof.grid[1:]
    k = int(np.argmin(np.abs(t - m * x ** (-alpha / 2.0))))
    assert k < len(t) - 10

    def rhs(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        return [y, -(1.0 + n * u[1] + alpha * m * u[1] * y * y) / t]

    ref = solve_ivp(
        rhs, (t[k], t[-1]), [prof.r[k + 1], prof.phase_z[k]], method="Radau",
        t_eval=t[k + 1:], rtol=1e-13, atol=1e-20,
    )
    assert ref.success
    np.testing.assert_allclose(prof.phase_z[k + 1:], ref.y[1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(prof.r[k + 2:], ref.y[0], rtol=1e-12, atol=0.0)


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
    """
    u, w = _far_series(n, alpha, order)
    _, x_use = _solve_recording_handoff(monkeypatch, ModelParams(n, alpha), 2000.0)
    for ours, exact in zip((u, w), _far_oracle_scaled(n, alpha, order)):
        for k, (a, b) in enumerate(zip(ours, exact)):
            err = abs(float(a - b))
            assert err <= 1e-12 * abs(float(b)) or err * x_use ** k <= 1e-17, (k, a, b)


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
        assert not _far_series_converged(u, w, 1e-12)


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
