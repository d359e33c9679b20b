"""Near-origin power series of the radial profile.

The profile equation forces r(0) = r'(0) = 0 and r''(0) = 1/n, and all odd
Taylor coefficients vanish.  The even series

    r(t) = a_2 t^2 + a_4 t^4 + ... + a_m t^m

is computed in slope form.  Multiplying the ODE by 1 + y^2, with y = r',
gives

    y' + (n - 1) (y/t) (1 + y^2) = (1 + y^2)^((3 - alpha)/2),

and writing y = t Y(u) with u = t^2 turns it into one triangular
recurrence for the coefficients of Y:

    (2k + n) Y_k = P_k - (n - 1) [Y^3]_(k-1),    P = (1 + u Y^2)^((3 - alpha)/2),

where P_k depends on Y_0..Y_(k-1) only and is carried by J.C.P. Miller's
power recurrence (Knuth, TAOCP vol. 2, 4.7).  Then a_(2k+2) = Y_k/(2k+2).
Each order costs O(k), the whole series O(m^2).  The residual of the
degree-m truncation is an even function of t, hence O(t^m) rather than
the naive O(t^(m-1)).

The recursion runs on Python floats, and every sum adds its products in
index order (see :func:`_dot`).  A batch of cells runs it once with the
cells as columns, with the same bits (:func:`_series_coefficients_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["OriginSeries", "series_coefficients", "series_eval"]

# Degree of the origin series the solver uses, and the highest accepted.
# The profile is analytic at the axis, with a radius of convergence of
# about n (where r'^2 = -1).  At degree 80 the last term stays below 1e-16
# of the sum out to t of about 1.6 to 5.9 on the n 2..6 x alpha
# {0.5, 1, 2, 3} grid, and the solver fills every node out to there from
# the series.  The grid at t_max 200 then took 4,927 explicit steps (with
# a 48-term far series), against 6,309 at degree 40 and 4,653 at 100; from
# degree 64 to 120 its solve time is flat within the noise, as the longer
# sums eat what the fewer steps save.
_MAX_ORDER = 80


@dataclass(frozen=True)
class OriginSeries:
    """Truncated even Taylor expansion of the profile at the axis.

    ``coeffs`` holds (a_2, a_4, ..., a_order).
    """

    params: ModelParams
    order: int
    coeffs: tuple[float, ...]


def _dot(a, b):
    """The sum of a_j b_j over the shorter of a and b, added in index order.

    The series recursions make these sums, 1 to 40 terms long, where a
    numpy call costs more than the arithmetic.  Written out, the sum is
    also the same on every machine: a BLAS dot splits it into partial sums
    by a rule of its kernel, and ``sum`` compensates from Python 3.12 on.
    Miller's power sums, with a weight in each term, are added in the same
    order by :func:`_power_step`.  The far-field fit forms its normal
    equations with it too, for that sameness alone.
    """
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


def _power_step(weights, base, p, k):
    """p_k of P = (1 + B)^gamma by J.C.P. Miller's recurrence,
    k p_k = sum over j = 1..k of ((gamma + 1) j - k) b_j p_(k-j).

    ``weights`` holds (gamma + 1) j and ``base`` b_j for j = 1, 2, ...;
    ``p`` holds p_0..p_(k-1).  The terms are added in order of j.
    """
    acc = 0.0
    for g, a, b in zip(weights, base, p[::-1]):
        acc += (g - k) * (a * b)
    return acc / k


def series_coefficients(params: ModelParams, order: int = _MAX_ORDER) -> OriginSeries:
    """Compute the origin series of the profile to the given even degree."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"series order must be an integer, got {order!r}")
    if order < 2 or order > _MAX_ORDER or order % 2:
        raise ValueError(
            f"series order must be an even integer in [2, {_MAX_ORDER}], got {order}"
        )
    n, alpha = params.n, params.alpha
    gamma = (3.0 - alpha) / 2.0
    m = order // 2
    # Miller's weights (gamma + 1) j, j = 1..m-1; order k subtracts k.
    weights = [(gamma + 1.0) * j for j in range(1, m)]
    y = [1.0 / n]
    s = [y[0] * y[0]]  # s = Y^2
    p = [1.0]  # p = (1 + u Y^2)^gamma
    for k in range(1, m):
        # Miller's recurrence with the coefficients s_(j-1) of u Y^2, j = 1..k.
        p.append(_power_step(weights, s, p, k))
        y.append((p[k] - (n - 1.0) * _dot(y, s[::-1])) / (2.0 * k + n))
        s.append(_dot(y, y[::-1]))
    coeffs = tuple(yk / (2.0 * k) for k, yk in enumerate(y, start=1))
    return OriginSeries(params=params, order=order, coeffs=coeffs)


def _column_sums(terms):
    """The sum of each column of ``terms`` down its rows, added in row order.

    Row 0 must hold zeros, so each column is summed from +0.0 as
    :func:`_dot` and :func:`_power_step` sum it.  ``np.add.accumulate``
    adds one row at a time, never pairwise.  It overwrites ``terms`` with
    the partial sums, which leaves row 0 at zero for the next sum.
    """
    return np.add.accumulate(terms, axis=0, out=terms)[-1]


def _series_coefficients_batch(params_list) -> list[OriginSeries]:
    """The origin series of several cells at the default degree, in one pass.

    The batched twin of :func:`series_coefficients`, bit for bit, with the
    cells as columns.  Each sum of :func:`_dot` and :func:`_power_step`
    becomes an elementwise product of rows, summed by :func:`_column_sums`
    in index order from +0.0; every other operation is the scalar loop's,
    in its order.  The numpy calls cost more than one cell's recursion, so
    this pays only for a batch of several cells.
    """
    n = np.array([p.n for p in params_list], dtype=float)
    alpha = np.array([p.alpha for p in params_list])
    gamma = (3.0 - alpha) / 2.0
    m = _MAX_ORDER // 2
    weights = (gamma + 1.0) * np.arange(1.0, m)[:, None]
    y, s, p = (np.zeros((m, len(n))) for _ in range(3))
    terms = np.zeros((m + 1, len(n)))
    y[0] = 1.0 / n
    s[0] = y[0] * y[0]
    p[0] = 1.0
    for k in range(1, m):
        np.multiply(weights[:k] - k, s[:k] * p[k - 1::-1], out=terms[1:k + 1])
        p[k] = _column_sums(terms[:k + 1]) / k
        np.multiply(y[:k], s[k - 1::-1], out=terms[1:k + 1])
        y[k] = (p[k] - (n - 1.0) * _column_sums(terms[:k + 1])) / (2.0 * k + n)
        np.multiply(y[:k + 1], y[k::-1], out=terms[1:k + 2])
        s[k] = _column_sums(terms[:k + 2])
    coeffs = y / (2.0 * np.arange(1.0, m + 1.0))[:, None]
    return [
        OriginSeries(params=params, order=_MAX_ORDER, coeffs=tuple(column))
        for params, column in zip(params_list, coeffs.T.tolist())
    ]


def _polyval(x, c):
    """The power series with coefficients c, lowest order first, at x.

    Horner's rule with the operations of numpy.polynomial.polynomial.polyval
    in its order, so the result is bitwise the same, without importing
    numpy.polynomial.  Every series sum in the package goes through here.
    The sum is formed in place, in a fresh array that no caller holds.
    The axes of c past the first broadcast against x, so series that share
    x are summed in one pass: c of shape (order + 1, m, 1) at x of shape
    (N,) gives m rows of N sums, each the same bits as its series alone.
    x is then copied out to the shape of the sums, since numpy multiplies
    arrays of one shape faster than it broadcasts.
    """
    total = c[-1] + x * 0
    if np.shape(total) != np.shape(x):
        x = np.broadcast_to(x, total.shape).copy()
    for ck in c[-2::-1]:
        total *= x
        total += ck
    return total


def series_eval(series: OriginSeries, t):
    """Evaluate the truncated series and its first two derivatives.

    Parameters
    ----------
    series : OriginSeries
    t : float or array_like
        Evaluation points, t >= 0.

    Returns
    -------
    (r, dr, ddr) : floats or ndarrays matching the shape of ``t``.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("series evaluation needs t >= 0")
    # Three series in u = t^2 with coefficients a_k, k a_k and k (k - 1) a_k,
    # k = 1..m: r/u, dr/du and u d^2r/du^2.  The last has a zero constant
    # term, so it is summed one power of u up.
    u = t_arr * t_arr
    a = np.array(series.coeffs)
    k = np.arange(1.0, len(a) + 1.0)
    r = u * _polyval(u, a)
    dr_du = _polyval(u, a * k)
    ddr = 2.0 * dr_du + 4.0 * _polyval(u, a * k * (k - 1.0))
    dr = 2.0 * t_arr * dr_du
    if t_arr.ndim == 0:
        return float(r), float(dr), float(ddr)
    return r, dr, ddr
