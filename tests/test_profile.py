import copy
import dataclasses
import json
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st
from scipy.integrate import solve_ivp

from helpers import (
    ENVELOPE_CELLS,
    GRID_CELLS,
    STORED_DIGESTS,
    controller_attempts,
    dop853_loop_step,
    evaluate_oracle,
    float_digest,
    mp_far_series_coeffs,
    mp_series_nodes,
)
import soliton_lab
from soliton_lab import profile as profile_module
from soliton_lab import series as series_module
from soliton_lab.asymptotics import asymptotic_z, fit_far_field
from soliton_lab.model import (
    ModelParams,
    _slope_map_deriv,
    coeff_B,
    g_eval,
    g_invert,
)
from soliton_lab.phase import phase_trajectory, z_ode_residual
from soliton_lab.profile import (
    RadialProfile,
    SolverError,
    _FAR_CUT,
    _STIFFNESS_BUDGET,
    _T_MAX_SLACK,
    _default_spacing,
    _stepper_rtol,
    solve_profile,
)
from soliton_lab.series import (
    _FAR_ORDER,
    _batch_coefficients,
    _far_series,
    _polyval,
    _series_sum,
    series_coefficients,
    series_eval,
)
from soliton_lab.verify import _ball_points, check_pde_residual


def _last_term_negligible(c, x, tol=1e-10):
    """Where the far series c at x counts as resolved in a solve at tol: its
    last term within the solver's cut, ``_FAR_CUT`` times the stepper's rtol,
    of its sum."""
    return _series_sum(c, x, _FAR_CUT * _stepper_rtol(tol))[1]


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


# Cells whose DOP853 part is bound by the lattice, not by its error norm:
# every step lands on the next node, so its nodes do not move with rtol, and
# the Adams part ends at the same node at rtol 3e-14 and 4e-14.
_LATTICE_BOUND = {(3, 2.0)}


@pytest.mark.parametrize(
    "n, alpha, tol_a, tol_b",
    [(3, 2.0, 1e-12, 1e-13), (2, 0.5, 3e-12, 1e-13), (3, 1.0, 1e-12, 1e-13)],
)
def test_nodes_stop_changing_at_the_rtol_floor(n, alpha, tol_a, tol_b):
    """The stepper's rtol is max(tol/100, 3e-14): below tol 3e-12 it is
    floored.  Above the floor the nodes move where DOP853 is error-bound,
    on (2, 0.5) and (3, 1), and stay put where it is lattice-bound."""
    a = solve_profile(ModelParams(n, alpha), 200.0, tol_a)
    b = solve_profile(ModelParams(n, alpha), 200.0, tol_b)
    for name in ("grid", "r", "dr", "ddr", "dddr", "phase_z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    above = solve_profile(ModelParams(n, alpha), 200.0, 4e-12)  # rtol 4e-14
    assert np.array_equal(a.r, above.r) == ((n, alpha) in _LATTICE_BOUND)


def test_overflow_guard():
    # slope ~ t^(1/alpha) leaves float range long before t_max for tiny alpha
    with pytest.raises(SolverError, match="predicted slope"):
        solve_profile(ModelParams(2, 0.01), 1e4, 1e-10)
    # (1 + y^2)^((3 - alpha)/2) in r'' leaves it first: these slopes fit,
    # log(t_max)/alpha is 368 and 442, but the power's log is 834 and 772
    for n, alpha, t_max in ((10, 0.025, 1e4), (10, 0.012, 200.0)):
        with pytest.raises(SolverError, match=r"in r'' overflows float64"):
            solve_profile(ModelParams(n, alpha), t_max, 1e-10)
    # Here the slope, about 1.4e30 at t_max, fits: log(t_max)/alpha is 760
    # because the bound leaves out (n - 1), and the r'' guard reads 207.
    # Yet this guard is the cell's only refusal, and must stay one: solved
    # without it, the profile breaks the phase contract (residual 2.7e-5
    # against 1e-8).
    with pytest.raises(SolverError, match="predicted slope"):
        solve_profile(ModelParams(1000, 0.01), 2000.0, 1e-10)


def test_overflow_guard_admits_a_cell_just_inside():
    """(10, 0.015) at t_max 300, where the log of (1 + y^2)^((3 - alpha)/2)
    at t_max is 697.8, solves with finite r'' and r''' and no warning
    (pytest turns a RuntimeWarning into an error)."""
    prof = solve_profile(ModelParams(10, 0.015), 300.0, 1e-10)
    assert np.isfinite(prof.ddr).all() and np.isfinite(prof.dddr).all()


def _stepped_reference(params, t, r0, z0):
    """scipy's DOP853 on (r, z) from (t[0], r0, z0), stepped node to node.

    The slope is recovered by inversion in every evaluation, and each node
    is a step endpoint, at rtol 1e-13 and atol 1e-15.  Returns r and z at
    the nodes t.
    """
    n, alpha = params.n, params.alpha
    m = n - 1.0

    def rhs(t, u):
        y = g_invert((1.0 + u[1]) * t / m, params)
        return [y, -(1.0 + n * u[1] + alpha * m * u[1] * y * y) / t]

    ref = np.empty((2, len(t)))
    ref[:, 0] = r0, z0
    for k in range(1, len(t)):
        step = solve_ivp(
            rhs, (t[k - 1], t[k]), ref[:, k - 1], method="DOP853", rtol=1e-13, atol=1e-15,
        )
        assert step.success
        ref[:, k] = step.y[:, -1]
    return ref


@pytest.mark.parametrize("n, alpha", [(2, 0.5), (3, 2.0)])
def test_explicit_stretch_matches_reference(n, alpha):
    """The carried-slope stepper against scipy's DOP853 at tighter tolerance.

    Only the origin-series and explicit nodes are compared, up to the last
    node the stepper lands on: (3, 2) stays explicit up to t_max 5, and
    (2, 0.5) hands off to the far-field series at t = 4.24, past which the
    series' truncation sets the nodes, not the stepper.  The reference
    recovers the slope by inversion in every evaluation, so a wrong
    carried-slope equation or tableau shows up as drift in z and r.
    Measured: r within 1.8e-15 relative and z within 5.6e-16; the bounds
    leave about five times that.  Read from one run's dense output the
    reference is 4.2e-13 off in r on (2, 0.5).
    """
    params = ModelParams(n, alpha)
    prof = solve_profile(params, 5.0, 1e-10)
    k = prof.handoff  # grid[1:k + 1] are the series and explicit nodes
    assert k - prof.launch > 50 and prof.grid[k] > 4.0
    ref = _stepped_reference(params, prof.grid[1:k + 1], prof.r[1], prof.phase_z[0])
    np.testing.assert_allclose(prof.phase_z[:k], ref[1], rtol=0.0, atol=3e-15)
    np.testing.assert_allclose(prof.r[1:k + 1], ref[0], rtol=1e-14, atol=0.0)


_GRID = [(n, a) for n in range(2, 7) for a in (0.5, 1.0, 2.0, 3.0)]


def _constraint_residual(prof, dr):
    """|(n - 1) g(dr) - (1 + z) t| / ((1 + z) t) at the explicit nodes of
    ``prof``, with the slope ``dr`` (the profile's own, or a changed copy)."""
    n = prof.params.n
    k = np.arange(prof.launch + 1, prof.handoff + 1)
    v = (1.0 + prof.phase_z[k - 1]) * prof.grid[k]
    return np.abs((n - 1.0) * g_eval(dr[k], prof.params) - v) / v


# Worst constraint residual at the explicit nodes, measured over the 60
# cells of n {2, 3, 5, 7, 10} x alpha {0.15, ..., 10} at t_max 200 and
# 2000 and tol 1e-10 and 1e-12: 1.7e-14, at (2, 0.3) and (3, 0.15); on the
# 20 grid cells at t_max 200 it is 2.2e-15.  The stored slope is the one
# the stepper carries, so it meets the constraint to the stepper's error;
# the bound leaves 1.8 times the worst case.
_CONSTRAINT_BOUND = 3e-14

_CONSTRAINT_CELLS = [
    (2, 0.3, 200.0, 1e-12), (3, 0.15, 2000.0, 1e-12), (3, 0.2, 2000.0, 1e-10),
    (7, 10.0, 2000.0, 1e-10), (10, 10.0, 200.0, 1e-12),
]


def test_stored_slope_meets_the_constraint_to_the_stepper_error(profile_of):
    """The carried slope stored at every explicit node satisfies
    (n - 1) g(dr) = (1 + z) t to the bound above, on the grid and on a few
    envelope cells, and one explicit dr moved by 1e-12 relative breaks it:
    g moves by at least min(1, alpha) times that."""
    solves = [profile_of(n, alpha) for n, alpha in _GRID]
    solves += [
        solve_profile(ModelParams(n, alpha), t_max, tol)
        for n, alpha, t_max, tol in _CONSTRAINT_CELLS
    ]
    for prof in solves:
        assert prof.launch < prof.handoff
        worst = float(_constraint_residual(prof, prof.dr).max())
        assert worst <= _CONSTRAINT_BOUND, (prof.params, worst)
    for prof in (solves[0], solves[-4]):  # (2, 0.5) and (3, 0.15)
        dr = prof.dr.copy()
        k = (prof.launch + prof.handoff) // 2
        dr[k] *= 1.0 + 1e-12
        assert _constraint_residual(prof, dr).max() > _CONSTRAINT_BOUND, prof.params


@pytest.mark.parametrize(
    "t_max, counts", [(200.0, (17_537, 4_041, 8_547)), (2000.0, (17_532, 4_042, 15_541))]
)
def test_grid_regime_counts(profile_of, t_max, counts):
    """Nodes per regime summed over the 20 grid cells at tol 1e-10: origin
    series (up to and including the launch node), explicit and far series.

    A change that moves a regime boundary changes these sums and has to
    say so.  They do not move with numpy's SIMD level.
    """
    solves = [profile_of(n, alpha, t_max) for n, alpha in _GRID]
    series = sum(p.launch for p in solves)
    explicit = sum(p.handoff - p.launch for p in solves)
    far = sum(len(p.grid) - 1 - p.handoff for p in solves)
    assert (series, explicit, far) == counts


@pytest.mark.parametrize("n, alpha", [(2, 5.0), (6, 0.5), (10, 0.3)])
def test_origin_series_nodes_match_reference(profile_of, n, alpha):
    """Every node filled by the origin series against scipy's DOP853 and
    against a 50-digit sum of the series.

    The reference is ``_stepped_reference`` from the first node, each node
    a step endpoint.  Read from one run's dense output instead it is up to
    1.07e-13 off a 50-digit sum at t = 0.71 on (2, 5), where the series
    node is within 1.1e-16 of it.  At atol 1e-20, not 1e-15, its first
    steps on (2, 5) miss a 50-digit evaluation of z by 1.05e-13.  The
    series nodes are also ``series_eval``'s values bit for bit.
    """
    params = ModelParams(n, alpha)
    prof = profile_of(n, alpha, 20.0)
    t = prof.grid[1:prof.launch + 1]
    assert len(t) > 100
    r, dr, z = prof.r[1:len(t) + 1], prof.dr[1:len(t) + 1], prof.phase_z[:len(t)]
    r_series, dr_series, _ = series_eval(prof.series, t)
    assert r_series.tobytes() == r.tobytes()
    assert dr_series.tobytes() == dr.tobytes()
    r_mp, dr_mp, z_mp = mp_series_nodes(n, alpha, prof.series.order, t)
    np.testing.assert_allclose(r, r_mp, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(dr, dr_mp, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(z, z_mp, rtol=0.0, atol=1e-15)
    ref = _stepped_reference(params, t, r[0], z[0])
    np.testing.assert_allclose(z, ref[1], rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(r, ref[0], rtol=1e-13, atol=0.0)


def test_origin_series_stops_inside_its_radius(profile_of):
    # At (2, 5) the series' radius of convergence is about 1.19.
    prof = profile_of(2, 5.0)
    assert prof.grid[prof.launch] < 1.19


def test_origin_series_launches_past_t_1_5(profile_of):
    """On the 20-cell grid the degree-80 series fills every node to t >= 1.5.

    The earliest launch is 1.57, on (2, 3).  Degree 40 launched there
    from 0.98, and the grid took 6,309 DOP853 steps against 4,927.
    """
    for n, alpha in _GRID:
        prof = profile_of(n, alpha)
        t_launch = prof.grid[prof.launch]
        assert t_launch >= 1.5, (n, alpha, t_launch)


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


# Prints a digest of every series coefficient, node array and far-field fit
# value of two cells.
_KERNEL_PROBE = """
import hashlib, json
import numpy as np
from soliton_lab.asymptotics import fit_far_field
from soliton_lab.model import ModelParams
from soliton_lab.profile import solve_profile
from soliton_lab.series import _far_series, series_coefficients
digests = {}
for n, alpha in ((2, 0.5), (3, 2.0)):
    params = ModelParams(n, alpha)
    prof = solve_profile(params, 200.0, 1e-10)
    fit = fit_far_field(prof)
    arrays = {
        "series_coefficients": np.array(series_coefficients(params).coeffs),
        "_far_series": np.array(_far_series(n, alpha)),
        **{name: getattr(prof, name) for name in ("grid", "r", "dr", "ddr", "dddr", "phase_z")},
        "fit_far_field": np.array([fit.fitted_leading, fit.fitted_second, fit.residual_norm]),
    }
    for name, a in arrays.items():
        digests[f"({n}, {alpha}) {name}"] = hashlib.sha256(a.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def _numpy_blas_is_openblas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return "openblas" in str(blas.get("name", "")).lower()


def _cpu_has(*features):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return all(__cpu_features__.get(f, False) for f in features)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS x86-64 kernels"
)
@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy is not built on OpenBLAS")
def test_outputs_do_not_depend_on_the_blas_kernel():
    """The series coefficients, every node array and the far-field fit are
    the same bytes on every OpenBLAS kernel.

    Child processes run with OPENBLAS_CORETYPE unset, set to Prescott
    (SSE3, so safe on any x86-64) and, where the CPU has AVX2 and FMA, to
    Haswell.  OpenBLAS's dot kernels split a sum into partial sums by a
    rule of their own, so a series recursion that used them gave other
    coefficients, and other nodes, on each kernel, and a fit whose normal
    equations were BLAS products and a LAPACK solve gave other fitted
    values.
    """
    src = str(Path(soliton_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1", "OPENBLAS_VERBOSE": "2"}
    env.pop("OPENBLAS_CORETYPE", None)
    kernels = [None, "Prescott"] + (["Haswell"] if _cpu_has("AVX2", "FMA3") else [])
    digests = {}
    for kernel in kernels:
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_PROBE],
            capture_output=True,
            text=True,
            env=env if kernel is None else {**env, "OPENBLAS_CORETYPE": kernel},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Core not found" not in proc.stderr, (kernel, proc.stderr)
        digests[kernel] = json.loads(proc.stdout)
    for kernel in kernels[1:]:
        moved = [name for name, d in digests[None].items() if digests[kernel][name] != d]
        assert not moved, (kernel, moved)


# Saves every node array of the 20 grid cells at t_max 200 to the file
# argv[1] and prints each cell's coefficient digest, launch and handoff,
# with the CPU features numpy runs without.
_SIMD_PROBE = """
import hashlib, json, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from soliton_lab.model import ModelParams
from soliton_lab.profile import solve_profile
from soliton_lab.series import _far_series, series_coefficients
cells, arrays = {}, {}
for n in range(2, 7):
    for alpha in (0.5, 1.0, 2.0, 3.0):
        params = ModelParams(n, alpha)
        u, w = _far_series(n, alpha)
        coeffs = np.array([*series_coefficients(params).coeffs, *u, *w])
        prof = solve_profile(params, 200.0, 1e-10)
        key = f"{n},{alpha!r}"
        cells[key] = [hashlib.sha256(coeffs.tobytes()).hexdigest(), prof.launch, prof.handoff]
        for name in ("grid", "r", "dr", "ddr", "dddr", "phase_z"):
            arrays[f"{key} {name}"] = getattr(prof, name)
np.savez(sys.argv[1], **arrays)
print(json.dumps({"cells": cells, "off": sorted(f for f, on in __cpu_features__.items() if not on)}))
"""

# (relative, absolute) bounds on the gap between the node arrays of two
# SIMD levels.  Measured on the 20 grid cells at t_max 200: 2.2e-16
# relative in grid, 1.2e-15 in r, 1.1e-15 in dr, 2.8e-15 in ddr, 3.3e-16
# absolute in z, and in r''' 4.2e-13 at a value of 1.85 and 6.2e-14
# where it is below 1.  Each bound leaves a factor of two or more.
_SIMD_BOUNDS = {
    "grid": (4.5e-16, 0.0),
    "r": (2.5e-15, 0.0),
    "dr": (2.5e-15, 0.0),
    "ddr": (6e-15, 0.0),
    "dddr": (1e-12, 1e-12),
    "phase_z": (0.0, 7e-16),
}


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 SIMD levels"
)
def test_nodes_agree_across_simd_levels(tmp_path):
    """The series coefficients, launch and handoff are the same at every
    SIMD level numpy dispatches to, and the node arrays agree within
    ``_SIMD_BOUNDS``.

    Child processes run with NPY_DISABLE_CPU_FEATURES unset, then with
    the AVX-512 levels turned off (which alone changes the bits of
    ``np.exp``), then with AVX2 (X86_V3) turned off as well.  A level
    turns off only the features the CPU has, and is skipped when that
    leaves nothing to turn off or repeats the level before it.
    """
    src = str(Path(soliton_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    levels = [()]
    for features in (
        ("X86_V4", "AVX512_ICL", "AVX512_SPR"),
        ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"),
    ):
        features = tuple(f for f in features if _cpu_has(f))
        if features and features != levels[-1]:
            levels.append(features)
    if len(levels) == 1:
        pytest.skip("the CPU has none of the SIMD levels to turn off")
    runs = []
    for i, features in enumerate(levels):
        target = tmp_path / f"level{i}.npz"
        proc = subprocess.run(
            [sys.executable, "-c", _SIMD_PROBE, str(target)],
            capture_output=True,
            text=True,
            env={**env, "NPY_DISABLE_CPU_FEATURES": " ".join(features)} if features else env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "", proc.stderr
        result = json.loads(proc.stdout)
        assert set(features) <= set(result["off"]), (features, result["off"])
        with np.load(target) as saved:
            runs.append((result["cells"], {name: saved[name] for name in saved.files}))
    cells, arrays = runs[0]
    for features, (level_cells, level_arrays) in zip(levels[1:], runs[1:]):
        assert level_cells == cells, features
        for name, a in arrays.items():
            rel, floor = _SIMD_BOUNDS[name.split()[1]]
            gap = np.abs(level_arrays[name] - a)
            assert np.all(gap <= rel * np.abs(a) + floor), (features, name, float(gap.max()))


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

    Every Horner pass is recorded, through ``series._polyval``, which
    both the solver's ``_series_sum`` and ``series_eval`` call, with its
    points and, for a stack of series, each row's coefficients.  The six series (r and r'
    at the axis; U, W, the integral of the slope and F in the far field)
    must each be summed, and no (coefficients, point) pair twice.
    """
    passes = []

    def recording(x, c):
        rows = np.asarray(c)
        rows = rows.reshape(len(rows), -1).T if rows.ndim > 1 else [rows]
        points = np.atleast_1d(x).tolist()
        passes.extend((np.ascontiguousarray(row).tobytes(), points) for row in rows)
        return _polyval(x, c)

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


# One cell for each way the explicit stretch ends.
@pytest.mark.parametrize(
    "n, alpha, t_max, tol, end",
    [
        (3, 2.0, 200.0, 1e-10, "agreement"),  # z agrees with the far series
        (15, 7.0, 2000.0, 1e-12, "cap"),  # the stability cap
        (10, 10.0, 200.0, 1e-12, "t_max"),  # no handoff
        (3, 2.0, 1.0, 1e-10, "series"),  # the origin series fills every node
    ],
)
def test_launch_and_handoff_are_where_the_stepper_runs(monkeypatch, n, alpha, t_max, tol, end):
    """The Adams part fills ``grid[launch + 1:switch + 1]``, and DOP853
    starts at ``grid[switch]`` and lands on exactly ``grid[switch +
    1:handoff + 1]``; with no node to step neither starts.

    The Adams nodes are the PECE replay of ``_adams_candidate`` bit for
    bit.  The landings are the accepted DOP853 step endpoints that are
    nodes: every accepted endpoint lies in (grid[switch], grid[handoff]],
    and the last one is grid[handoff].  On (15, 7) and (10, 10) the
    stability gate never opens (the rate times h_s reads 0.18 and 0.12 at
    the first candidate), so there DOP853 starts at the launch."""
    starts, accepted = [], []

    class Recording(profile_module._CarriedSlopeStepper):
        def __init__(self, n, alpha, t, *args, **kwargs):
            starts.append(t)
            super().__init__(n, alpha, t, *args, **kwargs)

        def _rk_step(self, t, r, z, y, f, h):
            result = super()._rk_step(t, r, z, y, f, h)
            if result[2] < 1.0:
                accepted.append(t + h)
            return result

    monkeypatch.setattr(profile_module, "_CarriedSlopeStepper", Recording)
    prof = solve_profile(ModelParams(n, alpha), t_max, tol)
    last = len(prof.grid) - 1
    nodes = set(prof.grid.tolist())
    landings = [t for t in accepted if t in nodes]
    switch = prof.grid.tolist().index(starts[0]) if starts else prof.handoff
    assert landings == prof.grid[switch + 1:prof.handoff + 1].tolist()
    for k in range(prof.launch + 1, switch + 1):
        _, node, _ = _adams_candidate(prof, k)
        assert node == (prof.r[k], prof.phase_z[k - 1], prof.dr[k]), k
    if end == "series":
        assert prof.launch == prof.handoff == last and starts == [] and accepted == []
    else:
        assert starts == [prof.grid[switch]]
        assert 1 <= prof.launch <= switch < prof.handoff
        assert (switch == prof.launch) == (end in ("cap", "t_max"))
        assert (prof.handoff == last) == (end == "t_max")
        assert prof.grid[switch] < accepted[0]
        assert all(a < b for a, b in zip(accepted, accepted[1:]))
        assert accepted[-1] == prof.grid[prof.handoff]


def _record_attempts(monkeypatch, norm_of=None):
    """Record every DOP853 attempt of the solves that follow as (t, h,
    error norm), and each stepper's start as (t, initial h).

    A stage that raises OverflowError is recorded with a norm of inf.
    ``norm_of(i, norm)``, if given, replaces the norm of attempt i (from
    0); a replacement of None raises OverflowError there, as a stage that
    leaves float range does.  More than 10,000 attempts in one solve fail
    the test, so a controller that loops stops.
    """
    attempts, starts = [], []

    class Recording(profile_module._CarriedSlopeStepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            starts.append((self.t, self.h_abs))
            attempts.clear()

        def _rk_step(self, t, r, z, y, f, h):
            try:
                state, f_new, norm = super()._rk_step(t, r, z, y, f, h)
            except OverflowError:
                state, f_new, norm = None, None, None
            if norm_of is not None:
                norm = norm_of(len(attempts), norm)
            attempts.append((t, h, math.inf if norm is None else norm))
            assert len(attempts) <= 10_000, "the step-size controller loops"
            if norm is None:
                raise OverflowError("a stage left float range")
            return state, f_new, norm

    monkeypatch.setattr(profile_module, "_CarriedSlopeStepper", Recording)
    return attempts, starts


def _reject_every_25th(i, norm):
    return 3.0 if i % 25 == 24 else norm


@pytest.mark.parametrize(
    "t_max, norm_of, steps",
    [(200.0, None, 2_879), (2000.0, None, 2_880), (200.0, _reject_every_25th, None)],
)
def test_controller_replays_the_reference(monkeypatch, t_max, norm_of, steps):
    """Every step attempt of the grid solves is the one the reference
    controller makes, given the same error norms.

    ``helpers.controller_attempts`` is the accept/reject loop written with
    ``min`` and ``max``.  Fed each solve's start, which is the node where
    the Adams part ends, and its recorded error norms, it must ask for the
    same (t, h) at every attempt, to the bit.
    The grid at tol 1e-10 rejects no step, so one pass also rejects every
    25th attempt with a norm of 3.  The grid's accepted steps are counted:
    a change that moves them has to say so.
    """
    attempts, starts = _record_attempts(monkeypatch, norm_of)
    accepted = 0
    for n, alpha in _GRID:
        starts.clear()
        prof = solve_profile(ModelParams(n, alpha), t_max, 1e-10)
        ((t, h_abs),) = starts
        switch = prof.grid.tolist().index(t)
        nodes = prof.grid[switch + 1:prof.handoff + 1].tolist()
        replay = controller_attempts(t, h_abs, nodes, [norm for _, _, norm in attempts])
        assert replay == [(t, h) for t, h, _ in attempts], (n, alpha)
        accepted += sum(norm < 1.0 for _, _, norm in attempts)
    assert steps is None or accepted == steps


@pytest.mark.parametrize("bad", [None, math.nan, math.inf])
def test_overflow_or_a_nan_norm_shrinks_the_step_by_five(monkeypatch, bad):
    """A stage that raises OverflowError (None here), or an error norm of
    NaN or inf, rejects the step, and the next attempt is from the same t
    with h exactly 0.2 h, as t + 0.2 h rounds."""
    attempts, _ = _record_attempts(monkeypatch, lambda i, norm: bad if i == 40 else norm)
    solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    (t, h, _), (t_next, h_next, _) = attempts[40:42]
    assert t_next == t
    assert h_next == (t + 0.2 * h) - t


def test_no_growth_right_after_a_rejection(monkeypatch):
    """A step accepted right after a rejection does not grow the next one.

    Attempt 40 is rejected with a norm that shrinks it by 5, and attempt
    41, the retry, is accepted with a norm of 1e-30, which would grow the
    step tenfold.  Attempt 42 takes the retry's h again, which lands short
    of the next node; tenfold would not."""
    norms = {40: 1e8, 41: 1e-30}
    attempts, _ = _record_attempts(monkeypatch, lambda i, norm: norms.get(i, norm))
    solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    (t, h, _), (t_retry, h_retry, _), (t_next, h_next, _) = attempts[40:43]
    assert t_retry == t and h_retry == (t + 0.2 * h) - t
    assert t_next == t + h_retry
    assert h_next == (t_next + h_retry) - t_next


@pytest.mark.parametrize("norm", [None, 2.0, math.nan])
def test_a_step_never_accepted_raises(monkeypatch, norm):
    """A step that no size makes acceptable (a stage that always
    overflows, a norm that stays at 2, a NaN norm) shrinks to ten ulps of
    t and raises there; it does not loop."""
    attempts, _ = _record_attempts(monkeypatch, lambda i, _: norm)
    floor = "required step size is less than spacing between numbers"
    with pytest.raises(SolverError, match=floor):
        solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    t = attempts[0][0]
    min_step = 10.0 * (math.nextafter(t, math.inf) - t)
    assert all(a[0] == t for a in attempts)
    assert min_step <= attempts[-1][1] < 5.0 * min_step


# The Adams part of the explicit stretch.  ``_ATOL`` is the stepper's fixed
# absolute floor on the defect channel.
_ATOL = 1e-13


def _adams_weights(implicit):
    """The order-10 Adams weights, newest first, as exact fractions: the
    integrals over [0, 1] of the Lagrange basis on the nodes 0, -1, ..., -9
    (Adams-Bashforth) or 1, 0, ..., -8 (Adams-Moulton), in steps."""
    nodes = [1 - j for j in range(10)] if implicit else [-j for j in range(10)]
    weights = []
    for ti in nodes:
        poly = [Fraction(1)]  # coefficients in the step variable, lowest first
        for tj in nodes:
            if tj != ti:  # times (x - tj)/(ti - tj)
                poly = [
                    (lower - tj * same) / (ti - tj)
                    for lower, same in zip([0, *poly], [*poly, 0])
                ]
        weights.append(sum(c / (i + 1) for i, c in enumerate(poly)))
    return weights


def test_adams_weights_are_the_exact_ones():
    """The 20 literals are the order-10 weights within one ulp each."""
    for literals, implicit in (
        (profile_module._ADAMS_BASHFORTH, False), (profile_module._ADAMS_MOULTON, True)
    ):
        exact = _adams_weights(implicit)
        assert len(literals) == len(exact) == 10 and sum(exact) == 1
        for literal, weight in zip(literals, exact):
            assert abs(Fraction(literal) - weight) <= Fraction(math.ulp(literal)), literal


def _pece_spectral_radius(mu):
    """Largest root modulus of the PECE pair on y' = lambda y, mu = h lambda:

        zeta^10 - zeta^9 = mu a_0 (zeta^9 + mu sum_j b_j zeta^(9-j))
                           + mu sum_(j>=1) a_j zeta^(10-j),

    with b the predictor's and a the corrector's weights, newest first."""
    b, a = profile_module._ADAMS_BASHFORTH, profile_module._ADAMS_MOULTON
    by_power = np.zeros(11)
    by_power[10] = 1.0
    by_power[9] = -1.0 - mu * a[0]
    for j in range(10):
        by_power[9 - j] -= mu * a[0] * mu * b[j]
    for j in range(1, 10):
        by_power[10 - j] -= mu * a[j]
    return float(np.abs(np.roots(by_power[::-1])).max())


def test_adams_stability_bound():
    """The gate's 0.106 is half the pair's real-axis stability bound: the
    roots of its characteristic polynomial leave the unit disk at h lambda
    = -0.2129, and 0.212 is that to 1e-3.  Inside it every root stays in."""
    lo, hi = 0.1, 0.5
    assert _pece_spectral_radius(-lo) < 1.0 < _pece_spectral_radius(-hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _pece_spectral_radius(-mid) <= 1.0 else (lo, mid)
    bound = 2.0 * profile_module._ADAMS_STABILITY
    assert abs(lo - bound) <= 1e-3, lo
    assert all(_pece_spectral_radius(-x) <= 1.0 for x in np.linspace(1e-3, bound, 200))


def _adams_candidate(prof, k):
    """The Adams PECE candidate for grid node k from the stored nodes k - 10
    to k - 1, with the solver's arithmetic: the predicted and the corrected
    (r, z, y), and the relaxation rate at the corrected node (the handoff
    test's, through g') times the lattice spacing h_s."""
    n, alpha = prof.params.n, prof.params.alpha
    m = float(n - 1)
    c, wp_exp = alpha * m, (3.0 - alpha) / 2.0
    t = prof.grid.tolist()
    h_s = (math.log(t[-1]) - math.log(t[1])) / (len(t) - 2)
    r, y, z = prof.r.tolist(), prof.dr.tolist(), [math.nan, *prof.phase_z.tolist()]

    def rhs(tj, zj, yj):
        return tj * yj, -(1.0 + n * zj + c * zj * yj * yj), -tj * zj * (1.0 + yj * yj) ** wp_exp

    f = [rhs(t[j], z[j], y[j]) for j in range(k - 1, k - 11, -1)]  # newest first
    start = (r[k - 1], z[k - 1], y[k - 1])
    b, a = profile_module._ADAMS_BASHFORTH, profile_module._ADAMS_MOULTON
    pred = tuple(
        x + h_s * sum(w * fj[i] for w, fj in zip(b, f)) for i, x in enumerate(start)
    )
    f = [rhs(t[k], pred[1], pred[2]), *f]
    corr = tuple(
        x + h_s * sum(w * fj[i] for w, fj in zip(a, f)) for i, x in enumerate(start)
    )
    cz, cy = corr[1], corr[2]
    rate = n + c * (cy * cy + 2.0 * cz * cy * t[k] / (m * _slope_map_deriv(alpha, cy)))
    return pred, corr, rate * h_s


def _adams_readings(prof, k):
    """Node k's candidate read against the Adams gates, each as a fraction
    of its bound: the corrector's move in z and y against 0.1 of the error
    scale, and the rate times h_s against 0.106; last, the move in r against
    0.1 of its error scale, which no gate reads.  All inf where the
    candidate leaves float range."""
    try:
        pred, corr, rate_h = _adams_candidate(prof, k)
    except OverflowError:
        return (math.inf,) * 4
    rtol = _stepper_rtol(prof.tol)
    scales = (_ATOL + rtol * abs(corr[0]), _ATOL + rtol * abs(corr[1]), rtol * abs(corr[2]))
    move_r, move_z, move_y = (abs(c - p) / (0.1 * s) for p, c, s in zip(pred, corr, scales))
    return move_z, move_y, rate_h / 0.106, move_r


def test_adams_nodes_meet_both_gates(monkeypatch):
    """On the 20 grid cells at t_max 200, every node from the launch to the
    switch, where DOP853 starts, is the Adams candidate bit for bit and
    meets both gates, and the candidate at the next node fails one of them.
    The corrector moves r by at most 0.1 of its error scale at every Adams
    node, so no gate on r would end the Adams part sooner.

    Only DOP853's nodes run the handoff test.  That rests on the test
    holding at no Adams node: z agrees with no converged far series to
    rtol there, and the rate stays below the stability cap.  The grid's
    Adams nodes are counted: a change that moves them has to say so."""
    _, starts = _record_attempts(monkeypatch)
    rtol = _stepper_rtol(1e-10)
    adams_nodes = 0
    for n, alpha in _GRID:
        starts.clear()
        params = ModelParams(n, alpha)
        prof = solve_profile(params, 200.0, 1e-10)
        ((t_switch, _),) = starts
        switch = prof.grid.tolist().index(t_switch)
        for k in range(prof.launch + 1, switch + 1):
            _, node, _ = _adams_candidate(prof, k)
            assert node == (prof.r[k], prof.phase_z[k - 1], prof.dr[k]), (n, alpha, k)
            assert max(_adams_readings(prof, k)) <= 1.0 + 1e-9, (n, alpha, k)
        assert max(_adams_readings(prof, switch + 1)[:3]) > 1.0 - 1e-9, (n, alpha)
        adams = slice(prof.launch + 1, switch + 1)
        t, y, z = prof.grid[adams], prof.dr[adams], prof.phase_z[prof.launch:switch]
        capped, converged, z_series = _capped_and_converged(params, 1e-10, t, y, z)
        agrees = converged & (np.abs(z - z_series) <= rtol * np.abs(z))
        assert not agrees.any() and not capped.any(), (n, alpha)
        adams_nodes += switch - prof.launch
    assert adams_nodes == 1_685


@pytest.mark.parametrize("n, alpha, t_max, launch", [(3, 2.0, 3.0, 553), (2, 0.5, 2.0, 1_603)])
def test_an_adams_part_that_reaches_t_max_builds_no_stepper(monkeypatch, n, alpha, t_max, launch):
    """Where the Adams gates hold up to t_max, the Adams part fills every
    node past the launch and no DOP853 stepper is built: none starts from a
    zero interval.  (3, 2) at t_max 3 launches at node 553 of 572, and
    (2, 0.5) at t_max 2 at node 1,603 of 1,632."""
    attempts, starts = _record_attempts(monkeypatch)
    prof = solve_profile(ModelParams(n, alpha), t_max, 1e-10)
    last = len(prof.grid) - 1
    assert starts == [] and attempts == []
    assert (prof.launch, prof.handoff) == (launch, last)
    for k in range(prof.launch + 1, last + 1):
        _, node, _ = _adams_candidate(prof, k)
        assert node == (prof.r[k], prof.phase_z[k - 1], prof.dr[k]), k
    phase_trajectory(prof)


@pytest.mark.parametrize("t_max", [200.0, 2000.0])
def test_adams_part_moves_no_regime_boundary(monkeypatch, profile_of, t_max):
    """With the Adams part turned off (a history longer than any origin
    series), the 20 grid cells keep their launch and handoff, and every node
    of r, dr, ddr and z stays within 1e-13 relative (measured: 3.0e-14)."""
    solves = {cell: profile_of(*cell, t_max) for cell in _GRID}
    monkeypatch.setattr(profile_module, "_ADAMS_HISTORY", 10**9)
    for cell, prof in solves.items():
        off = solve_profile(ModelParams(*cell), t_max, 1e-10)
        assert (off.launch, off.handoff) == (prof.launch, prof.handoff), cell
        for name in ("r", "dr", "ddr", "phase_z"):
            np.testing.assert_allclose(
                getattr(prof, name), getattr(off, name), rtol=1e-13, atol=0.0,
                err_msg=f"{cell} {name}",
            )


def test_adams_part_keeps_the_phase_residual(monkeypatch, profile_of):
    """The Adams nodes are steps of the method, not interpolants, so the
    phase check's sixth-order stencil sees no new wiggle: on the 20 grid
    cells at t_max 200 and tol 1e-10 the largest |z_ode_residual| is at
    most twice what it is with the Adams part off (measured: the same to
    2e-6 relative).  Dense output failed exactly here, by 150 times."""

    def worst(solves):
        return max(float(np.abs(z_ode_residual(phase_trajectory(p))).max()) for p in solves)

    on = worst(profile_of(n, alpha) for n, alpha in _GRID)
    monkeypatch.setattr(profile_module, "_ADAMS_HISTORY", 10**9)
    off = worst(solve_profile(ModelParams(n, alpha), 200.0, 1e-10) for n, alpha in _GRID)
    assert on <= 2.0 * off, (on, off)


def test_a_short_origin_series_steps_from_the_launch(monkeypatch):
    """With fewer origin-series nodes than the Adams history the stretch is
    DOP853 alone, from the launch, and the solve evaluates g there alone.
    At degree 8 from t = 0.01 at spacing 0.02 the series fills 6 nodes."""
    _, starts = _record_attempts(monkeypatch)
    g_sizes = []
    g_eval_of = profile_module.g_eval

    def counted_g(y, params):
        g_sizes.append(np.size(y))
        return g_eval_of(y, params)

    monkeypatch.setattr(profile_module, "g_eval", counted_g)
    monkeypatch.setattr(
        profile_module, "series_coefficients", lambda p: series_module.series_coefficients(p, 8)
    )
    prof = solve_profile(ModelParams(3, 2.0), 200.0, 1e-10, grid_spacing=0.02)
    assert 1 <= prof.launch < profile_module._ADAMS_HISTORY
    assert [t for t, _ in starts] == [prof.grid[prof.launch]]
    assert g_sizes == [1]
    assert prof.launch < prof.handoff


def _radau_past_handoff(profile_of, n, alpha, t_max):
    """The profile, its handoff node k (an index into ``grid[1:]``) and
    scipy's Radau from there to t_max.

    Radau integrates (r, z) at tight tolerance with the slope recovered by
    inversion, from the last explicit node, at every series node.
    """
    params = ModelParams(n, alpha)
    prof = profile_of(n, alpha, t_max)
    m = n - 1.0
    t = prof.grid[1:]
    k = prof.handoff - 1
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
def test_series_stretch_matches_radau(profile_of, n, alpha):
    """Past the handoff the far-field series is the integrated trajectory:
    the series nodes carry Radau's defect z and radius r."""
    prof, k, ref = _radau_past_handoff(profile_of, n, alpha, 200.0)
    np.testing.assert_allclose(prof.phase_z[k + 1:], ref.y[1], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(prof.r[k + 2:], ref.y[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, alpha, t_max", [(10, 0.15, 200.0), (7, 0.2, 200.0), (2, 0.5, 2000.0)])
def test_far_radius_matches_radau_below_alpha_one(profile_of, n, alpha, t_max):
    """r past the handoff is the slope series integrated term by term.

    Here the slope grows like t^(1/alpha), with 1/alpha up to 6.7, faster
    than a quadrature between nodes resolves.  Only r is compared:
    Radau's atol of 1e-20 cannot resolve |z| ~ t^(-2/alpha) this far out.
    """
    prof, k, ref = _radau_past_handoff(profile_of, n, alpha, t_max)
    np.testing.assert_allclose(prof.r[k + 2:], ref.y[0], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, alpha, t_max", [(10, 0.05, 200.0), (15, 0.01, 50.0)])
def test_tiny_alpha_radius_follows_the_leading_term(n, alpha, t_max):
    """r grows like alpha/(alpha+1) (n-1)^(-1/alpha) t^(1+1/alpha), and at
    these alphas every other term is below 1e-12 of it by t_max."""
    prof = solve_profile(ModelParams(n, alpha), t_max, 1e-10)
    assert np.all(np.diff(prof.r) > 0)
    leading = alpha / (alpha + 1.0) * (n - 1.0) ** (-1.0 / alpha) * t_max ** (1.0 + 1.0 / alpha)
    assert prof.r[-1] == pytest.approx(leading, rel=1e-12)


class _StepBudgetSpent(Exception):
    """Raised by a wrapped stepper once a solve has taken its step budget."""


@pytest.mark.xfail(
    strict=True,
    raises=_StepBudgetSpent,
    reason="y' = -z (1 + y^2)^((3 - alpha)/2) stiffens within one node interval "
    "at alpha 0.05, and the stability-cap test runs only at nodes: the stepper "
    "sits at t = 2.05 with h = 8.4e-11 after 600,000 steps",
)
def test_tiny_alpha_solve_ends_within_a_step_budget(monkeypatch):
    """Below the surveyed alphas a solve returns or raises ``SolverError``
    within 100,000 DOP853 steps (under a second).  (2, 0.07) takes 39,692
    steps and (2, 0.1) 419; (2, 0.05) ran for 221 s."""
    steps = 0
    rk_step = profile_module._CarriedSlopeStepper._rk_step

    def budgeted(self, *args):
        nonlocal steps
        steps += 1
        if steps > 100_000:
            raise _StepBudgetSpent
        return rk_step(self, *args)

    monkeypatch.setattr(profile_module._CarriedSlopeStepper, "_rk_step", budgeted)
    try:
        solve_profile(ModelParams(2, 0.05), 200.0)
    except SolverError:
        pass


@pytest.mark.parametrize("n, alpha", [(10, 0.15), (7, 0.2)])
def test_pde_residual_below_alpha_one(n, alpha):
    """The battery's PDE residual check, with its points, within 100 tol."""
    prof = solve_profile(ModelParams(n, alpha), 200.0, 1e-10)
    points = _ball_points(1000, n, prof.t_max / 2.0)
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
    [
        (10, 10.0, _FAR_ORDER), (3, 2.0, _FAR_ORDER),
        (2, 0.5, 24), (4, 1.0, 24), (5, 3.0, 24), (2, 0.15, 24),
    ],
)
def test_far_series_matches_high_precision(n, alpha, order):
    """Float64 far-field coefficients against a 50-digit recomputation.

    Every coefficient agrees to 1e-12 relative unless its error stays below
    1e-17 of the sum (whose first term is 1) at every x where the solver
    uses the series, which is at most x_use, the x of the handoff node.
    The first two cells run to the solver's order, ``_FAR_ORDER``.  The
    exception is for orders past 33 at (3, 2): the z equation's factor
    2k/alpha - n vanishes at k = 3, so from k = 34 on the coefficients are
    what cancellation leaves of a geometric sequence and keep no relative
    digits in float64 (at 36 terms their errors at the handoff, x_use =
    0.114, are below 7.6e-64).  At 32 terms every coefficient of every
    cell agrees to 1e-12 relative, the worst to 1.9e-14 at (3, 2).
    (2, 0.15) raises before any handoff, so there every coefficient must
    agree to 1e-12 relative (the worst is 4.5e-16).
    """
    u, w = _far_series(n, alpha, order)
    try:
        prof = solve_profile(ModelParams(n, alpha), 2000.0, 1e-10)
        x_use = ((n - 1.0) / prof.grid[prof.handoff]) ** (2.0 / alpha)
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


def _assert_batch_is_the_scalar_recursions(cells):
    params = [ModelParams(n, a) for n, a in cells]
    pairs = _batch_coefficients(params)
    assert len(pairs) == len(params)
    for p, (series, (u, w)) in zip(params, pairs):
        scalar = series_coefficients(p)
        assert series == scalar
        assert np.array(series.coeffs).tobytes() == np.array(scalar.coeffs).tobytes(), p
        u_scalar, w_scalar = _far_series(p.n, p.alpha)
        assert np.array(u).tobytes() == np.array(u_scalar).tobytes(), p
        assert np.array(w).tobytes() == np.array(w_scalar).tobytes(), p
        assert all(type(v) is float for v in [*series.coeffs, *u, *w])


def test_batched_coefficients_are_the_scalar_recursions_bitwise():
    """One batched pass gives each cell the bits of ``series_coefficients``
    and ``_far_series``: on the 60 cells of the envelope and the 20 of the
    grid in one batch, and on the grid alone, as ``table`` batches it."""
    _assert_batch_is_the_scalar_recursions(ENVELOPE_CELLS + _GRID)
    _assert_batch_is_the_scalar_recursions(_GRID)


def test_recursions_reproduce_the_stored_digests():
    """The list path and one batched pass both give the coefficient bytes
    stored in ``STORED_DIGESTS``, on all 20 grid and 60 envelope cells.
    Every sum runs in index order on doubles, so the bytes hold on any
    machine; ``PYTHONPATH=src python tests/helpers.py`` writes them."""
    stored = json.loads(STORED_DIGESTS.read_text())["cells"]
    cells = list(dict.fromkeys(GRID_CELLS + ENVELOPE_CELLS))
    assert sorted(stored) == sorted(f"{n},{alpha!r}" for n, alpha in cells)
    params = [ModelParams(n, alpha) for n, alpha in cells]
    for p, (series, (u, w)) in zip(params, _batch_coefficients(params)):
        want = stored[f"{p.n},{p.alpha!r}"]
        u_list, w_list = _far_series(p.n, p.alpha)
        assert float_digest(series_coefficients(p).coeffs) == want["origin"], p
        assert float_digest(u_list + w_list) == want["far"], p
        assert float_digest(series.coeffs) == want["origin"], p
        assert float_digest(u + w) == want["far"], p


@given(
    cells=st.lists(
        st.tuples(st.integers(2, 15), st.floats(0.1, 10.0)), min_size=1, max_size=6
    )
)
@seed(20250)
@settings(max_examples=60, deadline=None)
def test_batched_coefficients_sweep(cells):
    _assert_batch_is_the_scalar_recursions(cells)


def test_batched_far_series_out_of_float_range():
    """Where the far coefficients leave float range, at (2, 5e-5), the batch
    gives the scalar loop's inf and nan, byte for byte, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ((_, (u, w)),) = _batch_coefficients([ModelParams(2, 5e-5)])
        u_scalar, w_scalar = _far_series(2, 5e-5)
    assert not all(math.isfinite(v) for v in [*u, *w])
    assert np.array([u, w]).tobytes() == np.array([u_scalar, w_scalar]).tobytes()


def test_far_series_out_of_float_range_is_never_used():
    """For tiny alpha the coefficients overflow quietly and never pass.

    At the default order they leave float range below alpha of 8.5e-5 on
    n = 2 (at 1e-4 the last, u_32, is -1.0e302 and the series passes).
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, w = _far_series(2, 5e-5)
        assert not all(math.isfinite(v) for v in [*u, *w])
        assert not _last_term_negligible(u, 1e-12)
        assert not _last_term_negligible(w, 1e-12)


@pytest.mark.parametrize("n, alpha", [(2, 2.0), (3, 3.0)])
def test_handoff_where_the_defect_matches_the_series(profile_of, n, alpha):
    """The handoff comes where z agrees with the series, not at the stability cap.

    These cells hand off at t of about 22 and 25, where the series has
    converged and z agrees with it to the stepper's tolerance; the
    relaxation rate reaches the stability cap only at t of about 151 on
    (2, 2), and not before t_max 200 on (3, 3).
    """
    prof = profile_of(n, alpha)
    assert prof.grid[prof.handoff] < 40.0


def _capped_and_converged(params, tol, t, y, z):
    """At the nodes (t, y, z) of a solve at tol: where the relaxation rate
    passes the stability cap with the far series converged, where it has
    converged, and its z."""
    n, alpha = params.n, params.alpha
    m = n - 1.0
    c = alpha * m
    rate_cap = _STIFFNESS_BUDGET / _default_spacing(alpha)
    dydz = t / (m * _slope_map_deriv(alpha, y))
    capped = n + c * (y * y + 2.0 * z * y * dydz) > rate_cap
    u, w = _far_series(n, alpha)
    x = (m / t) ** (2.0 / alpha)
    converged = _last_term_negligible(u, x, tol) & _last_term_negligible(w, x, tol)
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
def test_handoff_never_later_than_the_relaxed_gate(n):
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
            prof = solve_profile(params, 200.0, tol)
            assert np.all(np.isfinite(prof.r)) and np.all(np.isfinite(prof.phase_z))
            stepped = slice(prof.launch + 1, prof.handoff + 1)  # the explicit nodes
            t, y, z = prof.grid[stepped], prof.dr[stepped], prof.phase_z[prof.launch:prof.handoff]
            gate, converged, z_series = _capped_and_converged(params, tol, t, y, z)
            assert not gate[:-1].any(), (alpha, tol, t[np.argmax(gate)])
            if prof.handoff < len(prof.grid) - 1:
                rtol = _stepper_rtol(tol)
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


def test_cap_handoff_within_the_error_scale():
    """(15, 7) at tol 1e-12 never agrees to rtol before the cap (t of about
    1438 at t_max 2000) and hands off there, within atol + rtol |z|."""
    params = ModelParams(15, 7.0)
    prof = solve_profile(params, 2000.0, 1e-12)
    k = prof.handoff
    t, y, z = prof.grid[k], prof.dr[k], prof.phase_z[k - 1]
    assert 1000.0 < t < 2000.0
    gate, _, z_series = _capped_and_converged(
        params, 1e-12, np.array([t]), np.array([y]), np.array([z])
    )
    rtol = _stepper_rtol(1e-12)  # the floor, 3e-14, above tol 1e-12 / 100
    gap = abs(z - z_series[0])
    assert gate[0] and rtol * abs(z) < gap <= 1e-13 + rtol * abs(z)


def test_no_handoff_reaches_t_max():
    """(10, 10) at tol 1e-12 neither agrees nor reaches the cap before
    t_max 200: the explicit stretch runs to the end and keeps the phase
    contract."""
    prof = solve_profile(ModelParams(10, 10.0), 200.0, 1e-12)
    assert prof.launch < prof.handoff == len(prof.grid) - 1
    phase_trajectory(prof)


@pytest.mark.parametrize("t_max", [200.0, 2000.0])
def test_series_degree_moves_no_handoff(monkeypatch, profile_of, t_max):
    """Degree 40 against degree 80: the same handoff node on every grid
    cell, and the nodes alike to the last digits (measured: r to 1.0e-15
    relative, z to 4.2e-16 absolute)."""
    solves = {cell: profile_of(*cell, t_max) for cell in _GRID}
    monkeypatch.setattr(
        profile_module, "series_coefficients", lambda p: series_module.series_coefficients(p, 40)
    )
    for cell, prof in solves.items():
        low = solve_profile(ModelParams(*cell), t_max, 1e-10)
        assert low.series.order == 40 and prof.series.order == 80
        assert low.handoff == prof.handoff, cell
        np.testing.assert_allclose(low.r, prof.r, rtol=4e-15, atol=0.0, err_msg=str(cell))
        np.testing.assert_allclose(
            low.phase_z, prof.phase_z, rtol=0.0, atol=2e-15, err_msg=str(cell)
        )


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
    """``evaluate`` and ``_radius`` refuse the same points with one message."""
    prof = profile_of(2, 1.0)
    for bad in (-0.5, 200.5, float("nan"), [1.0, math.inf]):
        with pytest.raises(ValueError) as refused:
            prof.evaluate(bad)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            prof._radius(bad)
    r, dr, ddr = prof.evaluate(np.float64(200.0) * (1.0 + 1e-16))
    assert math.isfinite(r)


def test_evaluate_series_region(profile_of):
    prof = profile_of(6, 0.5)
    t = np.array([1e-6, 1e-4, 5e-3])
    r, dr, ddr = prof.evaluate(t)
    np.testing.assert_allclose(ddr, 1.0 / 6.0, rtol=1e-4)
    np.testing.assert_allclose(r, t * t / 12.0, rtol=1e-4)


@pytest.mark.parametrize("n, alpha", [(6, 0.5), (3, 2.0), (2, 5.0)])
def test_evaluate_at_the_axis_is_the_series(profile_of, n, alpha):
    """At t = 0, alone or inside an array, ``evaluate`` gives ``series_eval``'s
    bytes, and every other point of the array its own scalar value."""
    prof = profile_of(n, alpha)
    axis = [float(v).hex() for v in series_eval(prof.series, 0.0)]
    assert [v.hex() for v in prof.evaluate(0.0)] == axis
    t = np.array([0.5, 0.0, 2e-3, 0.0, 50.0])
    values = np.array(prof.evaluate(t))
    for i, ti in enumerate(t.tolist()):
        expected = axis if ti == 0.0 else [v.hex() for v in prof.evaluate(ti)]
        assert [v.hex() for v in values[:, i].tolist()] == expected, ti


@pytest.mark.parametrize("n, alpha", _GRID)
def test_evaluate_matches_the_hermite_oracle_bitwise(profile_of, n, alpha):
    """``evaluate`` gives the bytes of ``helpers.evaluate_oracle``, which
    forms each quintic's basis, and the derivative basis of the dr quintic
    that gives ddr, on its own.

    The points are seeded random ones past ``grid[1]``, every node, t = 0,
    points below ``grid[1]`` and t_max: all in one array, which takes
    the overwrite below ``grid[1]`` and the copy of node 0 at t = 0, and
    the points past ``grid[1]`` alone, which take neither."""
    prof = profile_of(n, alpha)
    t_max = prof.t_max
    rng = np.random.default_rng(10 * n + int(4 * alpha))
    past = np.concatenate((rng.uniform(prof.grid[1], t_max, 2000), prof.grid[1:], [t_max]))
    below = rng.uniform(0.0, prof.grid[1], 50)
    for t in (np.concatenate((past, below, prof.grid, [0.0])), past, below):
        oracle = evaluate_oracle(prof, t)
        for name, ours, theirs in zip(("r", "dr", "ddr"), prof.evaluate(t), oracle):
            assert ours.tobytes() == theirs.tobytes(), name
    assert prof.evaluate(t_max) == tuple(v[0] for v in evaluate_oracle(prof, [t_max]))


# The worst off-node radial residual below, 2.67e-11 at (2, 0.5) near t =
# 2.85 in the explicit stretch, is set by the interpolant, not by tol: it
# reads the same at tol 1e-10, 1e-11 and 1e-12.  The bound leaves 1.5x of
# it and stays under the 100 tol contract at tol 1e-12.
_OFF_NODE_RESIDUAL_BOUND = 4e-11


@pytest.mark.parametrize("tol", [1e-10, 1e-11, 1e-12])
def test_off_node_radial_residual_keeps_the_contract(profile_of, tol):
    """``evaluate``'s (r', r'') meet the radial equation r''/(1 + r'^2) +
    (n - 1) r'/t = (1 + r'^2)^((1 - alpha)/2) between nodes, at 15 interior
    points of every lattice cell that starts below t = 100, on the 20 grid
    cells; and at the nodes its r'' is the stored ``ddr`` bit for bit."""
    assert _OFF_NODE_RESIDUAL_BOUND < 100.0 * tol
    frac = np.arange(1, 16) / 16.0
    for n, alpha in _GRID:
        prof = profile_of(n, alpha, 200.0, tol)
        grid = prof.grid
        cells = np.searchsorted(grid, 100.0)
        lo, width = grid[:cells], np.diff(grid[: cells + 1])
        t = (lo[:, None] + width[:, None] * frac).ravel()
        _, dr, ddr = prof.evaluate(t)
        w = 1.0 + dr * dr
        residual = ddr / w + (n - 1.0) * dr / t - w ** ((1.0 - alpha) / 2.0)
        worst = np.max(np.abs(residual))
        assert worst <= _OFF_NODE_RESIDUAL_BOUND, (n, alpha, worst)
        assert prof.evaluate(grid)[2].tobytes() == prof.ddr.tobytes(), (n, alpha)


@pytest.mark.parametrize("n, alpha", _GRID)
def test_radius_is_evaluates_r_bitwise(profile_of, n, alpha):
    """``_radius`` gives the bytes of ``evaluate(t)[0]`` and of
    ``helpers.evaluate_oracle``'s r: at the axis, below ``grid[1]``, on
    every node, between nodes, at t_max and within ``_T_MAX_SLACK`` of it,
    for scalars and for arrays."""
    prof = profile_of(n, alpha)
    grid, t_max = prof.grid, prof.t_max
    above = np.nextafter(t_max, np.inf)
    assert above <= t_max * _T_MAX_SLACK
    mid = 0.5 * (grid[1:-1] + grid[2:])
    below = np.linspace(0.0, grid[1], 7)[1:-1]
    t = np.concatenate(([0.0], below, grid, mid, [t_max, above]))
    clipped = np.minimum(t, t_max)  # the oracle does not clip
    oracle = evaluate_oracle(prof, clipped)[0]
    radius = prof._radius(t)
    assert radius.tobytes() == prof.evaluate(t)[0].tobytes() == oracle.tobytes()
    past = np.concatenate((mid, [t_max, above]))  # no axis mask is taken
    past_oracle = evaluate_oracle(prof, np.minimum(past, t_max))[0]
    assert prof._radius(past).tobytes() == past_oracle.tobytes()
    assert prof._radius(t.reshape(1, -1)).tobytes() == radius.tobytes()
    scalars = np.concatenate(([0.0], below, grid[1::97], mid[::97], [t_max, above]))
    for ti in scalars.tolist():
        value = prof._radius(ti)
        assert type(value) is float
        expected = evaluate_oracle(prof, [min(ti, t_max)])[0][0]
        assert value.hex() == expected.hex() == prof.evaluate(ti)[0].hex(), ti


_DERIVED = ("phase_z", "ddr", "dddr")


@pytest.mark.parametrize("first", _DERIVED)
def test_solve_forms_derived_arrays_on_first_read(monkeypatch, profile_of, first):
    """A solve and a far-field fit of it evaluate g once, at the Adams
    part's history nodes, and form no r'' or r'''.  The first read of any of ``phase_z``, ``ddr``
    and ``dddr`` forms all three, once, with the bits whichever is read
    first, and evaluates g at the origin-series nodes for z there.  A
    ``dataclasses.replace`` copy keeps the arrays."""
    reference = {name: getattr(profile_of(3, 2.0), name) for name in _DERIVED}
    g_sizes, formed = [], []
    g_eval_of, second_and_third = profile_module.g_eval, profile_module._second_and_third

    def counted_g(y, params):
        g_sizes.append(np.size(y))
        return g_eval_of(y, params)

    def counted_second_and_third(*args):
        formed.append(args)
        return second_and_third(*args)

    monkeypatch.setattr(profile_module, "g_eval", counted_g)
    monkeypatch.setattr(profile_module, "_second_and_third", counted_second_and_third)
    prof = solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    fit_far_field(prof)
    history = profile_module._ADAMS_HISTORY
    assert g_sizes == [history] and not formed
    held = {name: getattr(prof, name) for name in (first, *_DERIVED)}
    assert g_sizes == [history, prof.launch] and len(formed) == 1
    for name, value in held.items():
        assert getattr(prof, name) is value, name
        assert value.tobytes() == reference[name].tobytes(), name
    assert len(formed) == 1
    copy = dataclasses.replace(prof)
    for name in _DERIVED:
        assert getattr(copy, name) is held[name], name


def test_a_write_before_the_first_read_is_kept():
    """Writing one derived array of a solved profile forms the others
    first, so a later read of them does not overwrite the write."""
    prof = solve_profile(ModelParams(3, 2.0), 200.0, 1e-10)
    ddr = np.zeros(len(prof.grid))
    prof.ddr = ddr
    assert prof.dddr is not None
    assert prof.ddr is ddr


def test_copies_of_an_unread_profile_form_the_same_arrays(monkeypatch):
    """A deep copy and a pickle round trip of a solved profile whose derived
    arrays are not formed yet form them on read with the original's bits.
    Reading an unknown name raises AttributeError and forms nothing."""
    g_sizes = []
    g_eval_of = profile_module.g_eval

    def counted_g(y, params):
        g_sizes.append(np.size(y))
        return g_eval_of(y, params)

    monkeypatch.setattr(profile_module, "g_eval", counted_g)
    prof = solve_profile(ModelParams(3, 2.0), 200.0)
    with pytest.raises(AttributeError, match="ddrr"):
        prof.ddrr
    deep = copy.deepcopy(prof)
    thawed = pickle.loads(pickle.dumps(prof))
    assert g_sizes == [profile_module._ADAMS_HISTORY]
    for name in _DERIVED:
        expected = getattr(prof, name).tobytes()
        assert getattr(deep, name).tobytes() == expected, name
        assert getattr(thawed, name).tobytes() == expected, name


def test_series_of_other_params_are_not_taken_over(profile_of):
    """A pair of series coefficients serves only a solve of its own params,
    whether a profile kept it or the batched recursions made it; a pair
    without its far-field part is not taken over either."""
    params = ModelParams(2, 0.5)
    fresh = solve_profile(params, 200.0, 1e-10)
    other = profile_of(3, 2.0)
    for pair in (
        (other.series, other._far),
        _batch_coefficients([other.params])[0],
        (fresh.series, None),
    ):
        given = solve_profile(params, 200.0, 1e-10, _series_from=pair)
        assert given.series.coeffs == fresh.series.coeffs
        assert given._far == fresh._far
        for name in ("r", "dr", "ddr", "dddr", "phase_z"):
            assert getattr(given, name).tobytes() == getattr(fresh, name).tobytes(), name


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
