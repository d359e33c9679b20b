"""Shared oracles for the test suite.

The mpmath series oracle recomputes the origin expansion independently at
50 digits, so float64 coefficient rounding cannot hide in residual-order
measurements (the residual of the degree-8 truncation is ~1e-24 at
t = 1e-3, far beneath double precision).  The DOP853 oracle is the loop
form of one step, driven by scipy's tables, and the origin-series oracle
the loop form of ``series_eval``.
"""

import functools
import math

import mpmath as mp
import numpy as np


def mp_series_coeffs(n, alpha, order, dps=50):
    """Origin series coefficients (a_2, a_4, ..., a_order) at high precision."""
    with mp.workdps(dps):
        coeffs = {2: mp.mpf(1) / (2 * n)}
        for k in range(2, order // 2 + 1):
            m = 2 * k - 2
            res = mp_series_residual_poly(n, alpha, coeffs, m)
            coeffs[2 * k] = -res[m] / ((2 * k) * (2 * k + n - 2))
        return [coeffs[2 * j] for j in range(1, order // 2 + 1)]


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
