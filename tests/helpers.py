"""Shared oracles for the test suite.

The mpmath series oracle recomputes the origin expansion independently at
50 digits, so float64 coefficient rounding cannot hide in residual-order
measurements (the residual of the degree-8 truncation is ~1e-24 at
t = 1e-3, far beneath double precision).  Its degree-80 results for the
cells the tests check in full are stored as test data; run this file
(``PYTHONPATH=src python tests/helpers.py``) to write them again, with
the digests of ``STORED_DIGESTS``.  The
DOP853 oracle is the loop form of one step, driven by scipy's tables, the
controller oracle its accept/reject loop written with min and max, the
slope-map oracle g one Python float at a time, the origin-series oracle
the loop form of ``series_eval``, and the
interpolation oracle ``RadialProfile.evaluate`` with one Hermite basis per
channel.
"""

import functools
import hashlib
import json
import math
import struct
from pathlib import Path

import mpmath as mp
import numpy as np


# The 50-digit origin coefficients of the degree-80 cells the tests check
# in full.  Recomputing them costs 1 to 2 s a cell.  They were made by
# mp_series_coeffs_computed, and test_stored_series_matches_the_oracle
# recomputes the leading ones of one cell.
STORED_SERIES = Path(__file__).resolve().parent / "data" / "origin_series_50_digits.json"
_STORED_CELLS = [(2, 0.15), (2, 5.0), (3, 2.0), (4, 1.0), (6, 0.5), (10, 0.3), (10, 10.0)]
_STORED_ORDER = 80

# The sha256 of the float64 coefficients both series recursions give on
# the grid and envelope cells, so a test pins their bits (see
# write_stored_digests).
STORED_DIGESTS = Path(__file__).resolve().parent / "data" / "recursion_digests.json"

# The 20 cells of the acceptance grid, n 2..6 x alpha {0.5, 1, 2, 3}.
GRID_CELLS = [(n, alpha) for n in range(2, 7) for alpha in (0.5, 1.0, 2.0, 3.0)]

# The 60 cells of the envelope map, n {2, 3, 5, 7, 10} x alpha
# {0.15, ..., 10}, n first.
ENVELOPE_CELLS = [
    (n, alpha)
    for n in (2, 3, 5, 7, 10)
    for alpha in (0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)
]


def mp_series_coeffs(n, alpha, order, dps=50):
    """Origin series coefficients (a_2, a_4, ..., a_order) at high precision.

    At 50 digits the cells of ``STORED_SERIES`` are read from it, up to
    degree 80; any other request is computed, in O(order^3).  Each result
    is kept for the rest of the test run.
    """
    return _mp_series_coeffs_cached(n, float(alpha), order, dps)


@functools.lru_cache(maxsize=None)
def _mp_series_coeffs_cached(n, alpha, order, dps):
    stored = _stored_series().get((n, alpha))
    if dps == 50 and stored is not None and order <= 2 * len(stored):
        return stored[:order // 2]
    return mp_series_coeffs_computed(n, alpha, order, dps)


@functools.lru_cache(maxsize=1)
def _stored_series():
    doc = json.loads(STORED_SERIES.read_text())
    with mp.workdps(doc["dps"]):
        return {
            (int(n), float(alpha)): tuple(mp.mpf(c) for c in coeffs)
            for key, coeffs in doc["cells"].items()
            for n, alpha in [key.split(",")]
        }


def mp_series_coeffs_computed(n, alpha, order, dps):
    """The coefficients from the ODE residual, order by order.

    Each order cancels the residual of the shorter truncation, rebuilt from
    full series products: independent of the Miller recursion of
    ``series_coefficients``, and O(order^3).
    """
    with mp.workdps(dps):
        coeffs = {2: mp.mpf(1) / (2 * n)}
        for k in range(2, order // 2 + 1):
            m = 2 * k - 2
            res = mp_series_residual_poly(n, alpha, coeffs, m)
            coeffs[2 * k] = -res[m] / ((2 * k) * (2 * k + n - 2))
        return tuple(coeffs[2 * j] for j in range(1, order // 2 + 1))


def write_stored_series(path=STORED_SERIES):
    """Recompute every cell of ``STORED_SERIES`` (about 12 s) and write it."""
    cells = {}
    for n, alpha in _STORED_CELLS:
        coeffs = mp_series_coeffs_computed(n, alpha, _STORED_ORDER, 50)
        with mp.workdps(50):
            cells[f"{n},{alpha!r}"] = [str(c) for c in coeffs]
    doc = {
        "what": (
            "Origin series coefficients (a_2, a_4, ..., a_80) at 50 digits, one list "
            "per cell 'n,alpha', made by helpers.mp_series_coeffs_computed; regenerate with: "
            "PYTHONPATH=src python tests/helpers.py"
        ),
        "dps": 50,
        "order": _STORED_ORDER,
        "cells": cells,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def mp_series_nodes(n, alpha, order, t, dps=50):
    """r, r' and z = (n - 1) g(r')/t - 1 of the origin series at the points t.

    Each is summed from ``mp_series_coeffs`` at ``dps`` digits, then rounded
    to float64.  ``t`` is one-dimensional; returns three arrays like it.
    """
    coeffs = mp_series_coeffs(n, alpha, order, dps)
    r, dr, z = (np.empty(len(t)) for _ in range(3))
    with mp.workdps(dps):
        # r = u A(u) and r' = 2 t B(u), with A and B highest order first.
        a = coeffs[::-1]
        b = [k * c for k, c in enumerate(coeffs, start=1)][::-1]
        gamma = (mp.mpf(alpha) - 1) / 2
        for i, x in enumerate(t):
            x = mp.mpf(float(x))
            u = x * x
            y = 2 * x * mp.polyval(b, u)
            r[i] = float(u * mp.polyval(a, u))
            dr[i] = float(y)
            z[i] = float((n - 1) * y * (1 + y * y) ** gamma / x - 1)
    return r, dr, z


def mp_series_residual_poly(n, alpha, coeffs, m):
    """Taylor coefficients (degree <= m) of the profile ODE residual.

    ``coeffs`` maps even powers to high-precision Taylor coefficients of r.
    """
    alpha = mp.mpf(alpha)
    dr = [mp.mpf(0)] * (m + 1)
    ddr = [mp.mpf(0)] * (m + 1)
    dr_over_t = [mp.mpf(0)] * (m + 1)
    for i, a in coeffs.items():
        if i - 1 <= m:
            dr[i - 1] = i * a
        if i - 2 <= m:
            ddr[i - 2] = i * (i - 1) * a
            dr_over_t[i - 2] = i * a
    q = _mul(dr, dr, m)
    lhs = _mul(ddr, _one_plus_pow(q, mp.mpf(-1), m), m)
    rhs = _one_plus_pow(q, (1 - alpha) / 2, m)
    return [lhs[i] + (n - 1) * dr_over_t[i] - rhs[i] for i in range(m + 1)]


def _mul(a, b, m):
    out = [mp.mpf(0)] * (m + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > m:
                break
            out[i + j] += ai * bj
    return out


def _one_plus_pow(q, p, m):
    out = [mp.mpf(0)] * (m + 1)
    out[0] = mp.mpf(1)
    term = [mp.mpf(0)] * (m + 1)
    term[0] = mp.mpf(1)
    coef = mp.mpf(1)
    for k in range(1, m + 1):
        coef *= (p - k + 1) / k
        term = _mul(term, q, m)
        if all(x == 0 for x in term):
            break
        for i in range(m + 1):
            out[i] += coef * term[i]
    return out


def mp_series_residual_slope(n, alpha, order, t_lo=1e-3, t_hi=1e-2, points=9, dps=50):
    """Log-log slope of the truncated-series ODE residual over [t_lo, t_hi]."""
    with mp.workdps(dps):
        coeffs = mp_series_coeffs(n, alpha, order, dps)
        alpha_mp = mp.mpf(alpha)
        logs_t, logs_r = [], []
        for k in range(points):
            t = mp.mpf(t_lo) * (mp.mpf(t_hi) / mp.mpf(t_lo)) ** (mp.mpf(k) / (points - 1))
            r1 = mp.mpf(0)
            r2 = mp.mpf(0)
            for j, a in enumerate(coeffs, start=1):
                r1 += a * 2 * j * t ** (2 * j - 1)
                r2 += a * 2 * j * (2 * j - 1) * t ** (2 * j - 2)
            w = 1 + r1 * r1
            res = r2 / w + (n - 1) * r1 / t - w ** ((1 - alpha_mp) / 2)
            logs_t.append(mp.log(t))
            logs_r.append(mp.log(abs(res)))
        # least-squares slope
        mt = sum(logs_t) / points
        mr = sum(logs_r) / points
        num = sum((a - mt) * (b - mr) for a, b in zip(logs_t, logs_r))
        den = sum((a - mt) ** 2 for a in logs_t)
        return float(num / den)


def mp_far_series_coeffs(n, alpha, order, dps=50):
    """Far-field coefficients (u_k, w_k), k = 0..order, at high precision.

    The slow manifold y = t^(1/alpha) sum u_k eps^k, z = eps sum w_k eps^k
    in eps = t^(-2/alpha) satisfies the constraint
    (n-1) U (U^2 + eps)^((alpha-1)/2) = 1 + eps W and the z equation
    (2/alpha) (eps W + eps^2 W') = 1 + n eps W + alpha (n-1) W U^2.  Each
    order cancels the residual of the shorter truncation: u_k zeroes the
    constraint at eps^k (a secant through two trial values, the residual
    being linear in u_k), then w_k the z equation at eps^k.  The power is
    exp(beta log(1 + q)), each factor by its own series recurrence.
    """
    with mp.workdps(dps):
        alpha = mp.mpf(alpha)
        m = mp.mpf(n - 1)
        beta = (alpha - 1) / 2
        u = [m ** (-1 / alpha)]
        w = [-1 / (alpha * m * u[0] ** 2)]
        scale = u[0] ** (2 * beta)

        def constraint(k):
            sq = _mul(u, u, k)
            q = [(sq[i] + (1 if i == 1 else 0)) / u[0] ** 2 for i in range(k + 1)]
            q[0] = mp.mpf(0)
            power = _exp_series([beta * c for c in _log1p_series(q, k)], k)
            return m * scale * _mul(u, power, k)[k] - w[k - 1]

        for k in range(1, order + 1):
            u.append(mp.mpf(0))
            f0 = constraint(k)
            u[k] = 1 + abs(f0)
            f1 = constraint(k)
            u[k] = -f0 * u[k] / (f1 - f0)
            sq = _mul(u, u, k)
            rest = sum(w[i] * sq[k - i] for i in range(k))
            w.append(((2 * k / alpha - n) * w[k - 1] - alpha * m * rest) / (alpha * m * sq[0]))
        return u, w


def _log1p_series(q, m):
    """log(1 + q) to degree m, q with zero constant term: (1 + q) L' = q'."""
    out = [mp.mpf(0)] * (m + 1)
    for k in range(1, m + 1):
        out[k] = q[k] - sum(j * out[j] * q[k - j] for j in range(1, k)) / k
    return out


def _exp_series(a, m):
    """exp(a) to degree m, a with zero constant term: E' = a' E."""
    out = [mp.mpf(1)] + [mp.mpf(0)] * m
    for k in range(1, m + 1):
        out[k] = sum(j * a[j] * out[k - j] for j in range(1, k + 1)) / k
    return out


@functools.lru_cache(maxsize=1)
def _dop853_tables():
    """scipy's DOP853 tables as Python floats; A and B as nonzero (index, value)."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    stages = ref.N_STAGES
    a = [
        [(j, float(ref.A[s, j])) for j in range(s) if ref.A[s, j] != 0.0]
        for s in range(stages)
    ]
    b = [(j, float(v)) for j, v in enumerate(ref.B) if v != 0.0]
    return (
        stages, [float(v) for v in ref.C[:stages]], a, b,
        [float(v) for v in ref.E3], [float(v) for v in ref.E5],
    )


def dop853_loop_step(stepper, t, r, z, y, f, h):
    """One DOP853 step of a carried-slope stepper, in loop form.

    The reference for ``_CarriedSlopeStepper._rk_step``, with its signature
    and its return value, so it can stand in for it.  Each stage sum is
    accumulated from 0.0 over the nonzero entries in index order, the r
    stage values are formed and passed on, and both error estimators run
    over all 13 weights, zeros included.
    """
    stages, c, a_rows, b_row, e3_row, e5_row = _dop853_tables()
    n, an, wp_exp = stepper.n, stepper.an, stepper.wp_exp

    def rhs(t, r, z, y):
        return (
            y,
            -(1.0 + n * z + an * z * y * y) / t,
            -z * (1.0 + y * y) ** wp_exp,
        )

    kr, kz, ky = [f[0]], [f[1]], [f[2]]
    for s in range(1, stages):
        dr = dz = dy = 0.0
        for j, a in a_rows[s]:
            dr += a * kr[j]
            dz += a * kz[j]
            dy += a * ky[j]
        fr, fz, fy = rhs(t + c[s] * h, r + dr * h, z + dz * h, y + dy * h)
        kr.append(fr)
        kz.append(fz)
        ky.append(fy)
    dr = dz = dy = 0.0
    for j, b in b_row:
        dr += b * kr[j]
        dz += b * kz[j]
        dy += b * ky[j]
    r_new, z_new, y_new = r + h * dr, z + h * dz, y + h * dy
    f_new = rhs(t + h, r_new, z_new, y_new)
    kr.append(f_new[0])
    kz.append(f_new[1])

    scale_r = stepper.atol + max(abs(r), abs(r_new)) * stepper.rtol
    scale_z = stepper.atol + max(abs(z), abs(z_new)) * stepper.rtol
    e5r = e5z = e3r = e3z = 0.0
    for e5, e3, a, b in zip(e5_row, e3_row, kr, kz):
        e5r += e5 * a
        e5z += e5 * b
        e3r += e3 * a
        e3z += e3 * b
    e5r /= scale_r
    e5z /= scale_z
    e3r /= scale_r
    e3z /= scale_z
    err5 = e5r * e5r + e5z * e5z
    err3 = e3r * e3r + e3z * e3z
    if err5 == 0.0 and err3 == 0.0:
        error_norm = 0.0
    else:
        error_norm = abs(h) * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
    return (r_new, z_new, y_new), f_new, error_norm


def slope_map_oracle(alpha, ys):
    """The slope map g at each Python float of ys, one scalar formula per
    element; the reference for ``model._slope_map``.

    Python's float ``**`` is libm pow, and every other operation is one
    IEEE-rounded float operation, so the array form must give the same
    bits.  The alpha < 1 split at |y| > 1 is the model's.  Raises
    OverflowError where a pow overflows.
    """
    e = (alpha - 1.0) / 2.0
    if alpha < 1.0:
        return [
            math.copysign(abs(y) ** alpha * (1.0 + 1.0 / (y * y)) ** e, y)
            if abs(y) > 1.0 else y * (1.0 + y * y) ** e
            for y in ys
        ]
    return [y * (1.0 + y * y) ** e for y in ys]


def series_eval_loop(series, t):
    """The origin series and its first two derivatives at t, in loop form.

    The reference for ``series_eval``: one Horner loop in u = t^2 that
    carries the series and its two u-derivatives together, each started
    from zero.  Returns arrays shaped like ``t``.
    """
    t_arr = np.asarray(t, dtype=float)
    u = t_arr * t_arr
    r = np.zeros_like(t_arr)
    dr_du = np.zeros_like(t_arr)
    ddr_uu = np.zeros_like(t_arr)
    for k in range(len(series.coeffs), 0, -1):
        a = series.coeffs[k - 1]
        r = r * u + a
        dr_du = dr_du * u + a * k
        if k >= 2:
            ddr_uu = ddr_uu * u + a * k * (k - 1.0)
    return r * u, 2.0 * t_arr * dr_du, 2.0 * dr_du + 4.0 * u * ddr_uu


# quintic Hermite basis on [0, 1]: value, first and second derivative
# matched at both ends; its tau-derivative for the second-derivative channel.

def _quintic(tau, h, f0, d0, c0, f1, d1, c1):
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    t5 = t4 * tau
    h00 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h10 = tau - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h20 = 0.5 * (t2 - 3.0 * t3 + 3.0 * t4 - t5)
    h01 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h11 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h21 = 0.5 * (t3 - 2.0 * t4 + t5)
    return (
        f0 * h00 + h * d0 * h10 + h * h * c0 * h20
        + f1 * h01 + h * d1 * h11 + h * h * c1 * h21
    )


def _quintic_slope(tau, h, f0, d0, c0, f1, d1, c1):
    """d/dt of ``_quintic`` on a cell of width h: (1/h) d/dtau of each
    basis value, with the 1/h and h folded into their terms so that the
    derivative at tau = 0 and 1 is d0 and d1 exactly."""
    t2 = tau * tau
    t3 = t2 * tau
    t4 = t3 * tau
    g00 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
    g10 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
    g20 = 0.5 * (2.0 * tau - 9.0 * t2 + 12.0 * t3 - 5.0 * t4)
    g01 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
    g11 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
    g21 = 0.5 * (3.0 * t2 - 8.0 * t3 + 5.0 * t4)
    return (f0 * g00 + f1 * g01) / h + d0 * g10 + d1 * g11 + h * (c0 * g20 + c1 * g21)


def evaluate_oracle(profile, t):
    """(r, dr, ddr) of a profile at the points t, a 1-D array in [0, t_max].

    The reference for ``RadialProfile.evaluate``: node 0 at t = 0, the
    origin series below ``grid[1]``, and past it two quintic Hermite
    interpolants (r, and dr) and the t-derivative of the dr one (ddr),
    each forming its own basis.
    """
    from soliton_lab.series import series_eval

    t = np.asarray(t, dtype=float)
    r_out, dr_out, ddr_out = (np.empty_like(t) for _ in range(3))
    far = t >= profile.grid[1]
    origin = t == 0.0
    r_out[origin], dr_out[origin], ddr_out[origin] = profile.r[0], profile.dr[0], profile.ddr[0]
    near = ~(far | origin)
    if near.any():
        r_out[near], dr_out[near], ddr_out[near] = series_eval(profile.series, t[near])
    tq = t[far]
    k = np.clip(np.searchsorted(profile.grid, tq, side="right") - 1, 1, len(profile.grid) - 2)
    t0 = profile.grid[k]
    h = profile.grid[k + 1] - t0
    tau = (tq - t0) / h
    j = k - 1  # index into the node-only dddr
    r, dr, ddr, dddr = profile.r, profile.dr, profile.ddr, profile.dddr
    r_out[far] = _quintic(tau, h, r[k], dr[k], ddr[k], r[k + 1], dr[k + 1], ddr[k + 1])
    dr_out[far] = _quintic(tau, h, dr[k], ddr[k], dddr[j], dr[k + 1], ddr[k + 1], dddr[j + 1])
    ddr_out[far] = _quintic_slope(tau, h, dr[k], ddr[k], dddr[j], dr[k + 1], ddr[k + 1], dddr[j + 1])
    return r_out, dr_out, ddr_out


# The step-size controller's constants, as in soliton_lab.profile.
_SAFETY, _MIN_FACTOR, _MAX_FACTOR, _EXPONENT = 0.9, 0.2, 10.0, -1.0 / 8.0


def controller_attempts(t, h_abs, nodes, error_norms):
    """The (t, h) of every step attempt the DOP853 controller makes from t
    over ``nodes``, fed the error norm of each attempt in turn.

    The reference for the accept/reject loop of ``solve_profile``, written
    with ``min`` and ``max`` (Hairer, Norsett and Wanner, Solving ODEs I,
    II.4): a step of at least ten ulps of t, clipped to land on each node;
    an accepted step grows by at most 10 and not at all right after a
    rejection; a rejected one shrinks by at most 5, and by exactly 5 when
    its norm is inf or NaN.  It raises RuntimeError where the step falls
    below ten ulps of t.  ``error_norms`` is an iterable; its values are
    consumed one per attempt.
    """
    norms = iter(error_norms)
    attempts = []
    for tk in nodes:
        while t < tk:
            min_step = 10.0 * (math.nextafter(t, math.inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise RuntimeError("required step size is less than spacing between numbers")
                t_new = min(t + h_abs, tk)
                h_abs = t_new - t
                attempts.append((t, h_abs))
                error_norm = next(norms)
                if error_norm < 1.0:
                    if error_norm == 0.0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                    if rejected:
                        factor = min(1.0, factor)
                    h_abs *= factor
                    break
                h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _EXPONENT)
                rejected = True
            t = t_new
    return attempts


def float_digest(values):
    """The sha256 of values as little-endian float64, in order."""
    return hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()


def write_stored_digests(path=STORED_DIGESTS):
    """Write the digests of both recursions' coefficients on the grid and
    envelope cells, leaving out a cell with a non-finite coefficient: the
    recursions use only + - * / on doubles, so their bits are the same on
    every machine, but the payload of a NaN is not."""
    from soliton_lab.model import ModelParams
    from soliton_lab.series import _far_series, series_coefficients

    cells = {}
    for n, alpha in GRID_CELLS + ENVELOPE_CELLS:
        origin = series_coefficients(ModelParams(n, alpha)).coeffs
        u, w = _far_series(n, alpha)
        if all(math.isfinite(v) for v in [*origin, *u, *w]):
            cells[f"{n},{alpha!r}"] = {"origin": float_digest(origin), "far": float_digest(u + w)}
    doc = {
        "about": (
            "sha256 of the little-endian float64 coefficients of each cell 'n,alpha': "
            "'origin' of series.series_coefficients(params).coeffs (degree 80), 'far' of the "
            "lists u then w of series._far_series(n, alpha) (order 32); regenerate with: "
            "PYTHONPATH=src python tests/helpers.py"
        ),
        "cells": cells,
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_stored_series()
    write_stored_digests()
