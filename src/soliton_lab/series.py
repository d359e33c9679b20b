"""The two expansions of the radial profile: at the axis and in the far field.

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

Far from the axis the profile follows its slow manifold, a power series
in x = ((n - 1)/t)^(2/alpha) behind

    r ~ L t^(1 + 1/alpha) - C t^(1 - 1/alpha),
    L = alpha/(alpha + 1) (n - 1)^(-1/alpha),

whose coefficients :func:`_far_series` fixes order by order.  The solver
(:mod:`soliton_lab.profile`) sums both series with :func:`_series_sum`.

Each recursion is written once over a backend that supplies its sums,
added in index order: :class:`_Floats` runs one cell on Python floats,
:class:`_Rows` a batch of cells as columns, with the same bits, and
:func:`_batch_coefficients` runs both recursions for many cells at once.
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

# Order of the far-field series past the explicit stretch.  Its
# coefficients grow factorially (see _far_series), so the order is fixed
# and the handoff waits until the last term is within the solver's cut
# (``profile._FAR_CUT``).  A last term of order N falls below the cut of
# the default tol, 1e-14, earliest near N = ln(1e14), about 32, and the
# recursion (2 N^2 multiply-adds) and every far sum grow with N.  The n 2..6 x alpha
# {0.5, 1, 2, 3} grid at t_max 200 takes 4,801 DOP853 steps at order 24,
# 4,638 at 28, 4,559 at 32, 4,543 at 34, 4,542 at 36, 4,555 at 40 and
# 4,644 at 48; its solve time, measured in-process, moves less than its
# noise from 24 to 36 and rises from 40 on, so 32 keeps near the fewest
# steps with 2,048 multiply-adds where 36 takes 2,592.  On n in
# {2, 3, 5, 7, 10} x alpha {0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1, 1.5, 2, 3,
# 5, 10} at tol 1e-10 the wait still binds in 48 of the 58 cells that
# return a profile at t_max 200 and in 47 at 2000: z already agrees with
# the 32-term sum 1 to 92 nodes earlier.
_FAR_ORDER = 32


@dataclass(frozen=True)
class OriginSeries:
    """Truncated even Taylor expansion of the profile at the axis.

    ``coeffs`` holds (a_2, a_4, ..., a_order).
    """

    params: ModelParams
    order: int
    coeffs: tuple[float, ...]


def _dot(a, b):
    """The sum of a_j b_j over the terms of b, added in index order.

    The series recursions make these sums, 1 to 40 terms long, where a
    numpy call costs more than the arithmetic.  Written out, the sum is
    also the same on every machine: a BLAS dot splits it into partial sums
    by a rule of its kernel, and ``sum`` compensates from Python 3.12 on.
    The far-field fit forms its normal equations with it too, for that
    sameness alone.
    """
    acc = 0.0
    for x, y in zip(a, b):
        acc += x * y
    return acc


class _Floats:
    """The list backend of the series recursions: one cell on Python floats.

    A recursion body reads four members of its backend b: ``b.rows(count,
    first)``, count coefficients from ``first`` on; ``b.weights(c, count)``,
    c j for j = 1..count; ``b.dot(x, y)``, the sum of x_j y_j; and
    ``b.power(weights, base, p, k)``, J.C.P. Miller's step for P = (1 + B)^g,
    k p_k = sum over j = 1..k of ((g + 1) j - k) b_j p_(k-j), given weights
    (g + 1) j, base b_j (j = 1, 2, ...) and p = (p_(k-1), ..., p_0).  Each
    sum adds its terms in index order from 0.0, as many as the last operand
    holds; ``zip`` stops there, so the leading operands may be longer.
    """

    @staticmethod
    def rows(count, first):
        return [first] * count

    @staticmethod
    def weights(c, count):
        return [c * j for j in range(1, count + 1)]

    dot = staticmethod(_dot)

    @staticmethod
    def power(weights, base, p, k):
        acc = 0.0
        for g, a, b in zip(weights, base, p):
            acc += (g - k) * (a * b)
        return acc / k


class _Rows:
    """The row backend: a batch of cells as the columns of numpy rows, each
    with the bits of :class:`_Floats`.  A sum writes its products, leading
    operands cut to the last one's length, into rows 1.. of a buffer whose
    row 0 is zero, and ``np.add.accumulate`` adds them down the rows one at
    a time, never pairwise: in index order from +0.0, leaving row 0 zero.
    A dot is a view of the buffer until the next sum.  The numpy calls cost
    more than one cell on floats, so rows pay only for several cells.
    """

    def __init__(self, cells):
        self.cells = cells
        self.terms = np.zeros((1, cells))

    def rows(self, count, first):
        if len(self.terms) <= count:
            self.terms = np.zeros((count + 1, self.cells))
        return np.full((count, self.cells), first)

    @staticmethod
    def weights(c, count):
        return c * np.arange(1.0, count + 1.0)[:, None]

    def dot(self, a, b):
        terms = self.terms[:len(b) + 1]
        np.multiply(a[:len(b)], b, out=terms[1:])
        return np.add.accumulate(terms, axis=0, out=terms)[-1]

    def power(self, weights, base, p, k):
        terms = self.terms[:len(p) + 1]
        np.multiply(weights[:len(p)] - k, base[:len(p)] * p, out=terms[1:])
        return np.add.accumulate(terms, axis=0, out=terms)[-1] / k


def _slope_coefficients(n, alpha, m, b):
    """Y_0..Y_(m-1) of the slope series Y, on the backend b (see :class:`_Floats`)."""
    gamma = (3.0 - alpha) / 2.0
    weights = b.weights(gamma + 1.0, m - 1)
    y = b.rows(m, 1.0 / n)
    s = b.rows(m, y[0] * y[0])  # s = Y^2
    p = b.rows(m, 1.0)  # p = (1 + u Y^2)^gamma
    dot, power = b.dot, b.power
    for k in range(1, m):
        # Miller's recurrence with the coefficients s_(j-1) of u Y^2, j = 1..k.
        p[k] = power(weights, s, p[k - 1::-1], k)
        y[k] = (p[k] - (n - 1.0) * dot(y, s[k - 1::-1])) / (2.0 * k + n)
        s[k] = dot(y, y[k::-1])
    return y


def series_coefficients(params: ModelParams, order: int = _MAX_ORDER) -> OriginSeries:
    """Compute the origin series of the profile to the given even degree."""
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f"series order must be an integer, got {order!r}")
    if order < 2 or order > _MAX_ORDER or order % 2:
        raise ValueError(
            f"series order must be an even integer in [2, {_MAX_ORDER}], got {order}"
        )
    y = _slope_coefficients(params.n, params.alpha, order // 2, _Floats)
    coeffs = tuple(yk / (2.0 * k) for k, yk in enumerate(y, start=1))
    return OriginSeries(params=params, order=order, coeffs=coeffs)


def _far_series(n, alpha, order=_FAR_ORDER, b=_Floats):
    """Coefficients of the slow manifold as power series in x = ((n-1)/t)^(2/alpha).

    Written as y = (t/(n-1))^(1/alpha) U(x) and z = -(x/c) W(x) with
    c = alpha (n - 1), the constraint and the z equation become

        U (U^2 + x)^beta = 1 - x W/c,                   beta = (alpha-1)/2,
        (2/(alpha c)) (x W + x^2 W') = n x W/c + W U^2 - 1,

    so U(0) = W(0) = 1.  Matching powers of x is triangular: the constraint
    at order k fixes u_k (it enters with weight alpha) from w_{k-1}, then
    the z equation fixes w_k.  The power P = (U^2 + x)^beta is carried by
    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7).  In the
    variables t^(1/alpha) sum u'_k eps^k, eps sum w'_k eps^k of eps =
    t^(-2/alpha) the coefficients are u'_k = u_k (n-1)^((2k-1)/alpha) and
    w'_k = -w_k (n-1)^((2k+2)/alpha)/c; the scaling keeps them in float
    range for small alpha and large n.  They grow like k! (2/(alpha c))^k,
    so the series is asymptotic, and a fixed order serves every cell once
    the caller waits for its last term to be negligible.  At the default
    order the last coefficients leave float range, and become inf or nan,
    below alpha of 8.5e-5 at n = 2 (2.3e-5 at n = 15), and
    :func:`_series_sum` then never reports them resolved.

    Runs on the backend b of the series recursions (see :class:`_Floats`)
    and returns u and w, order + 1 coefficients each: lists on Python
    floats, which overflow to inf and nan quietly, or rows on
    :class:`_Rows`, whose caller silences numpy's warnings for them.
    """
    c = alpha * (n - 1.0)
    beta = (alpha - 1.0) / 2.0
    # Miller's weights (beta + 1) j, j = 1..order; order k subtracts k.
    weights = b.weights(beta + 1.0, order)
    u, w, s, q, p = (b.rows(order + 1, 1.0) for _ in range(5))  # s = U^2, q = U^2 + x
    dot, power = b.dot, b.power
    for k in range(1, order + 1):
        # Everything at order k with u_k = 0, then u_k from the constraint.
        s[k] = dot(u[1:k], u[k - 1:0:-1])
        q[k] = s[k] + 1.0 if k == 1 else s[k]
        p[k] = power(weights, q[1:k + 1], p[k - 1::-1], k)
        u[k] = (-w[k - 1] / c - dot(u[1:k], p[k - 1:0:-1]) - p[k]) / alpha
        s[k] += 2.0 * u[k]
        q[k] += 2.0 * u[k]
        p[k] += 2.0 * beta * u[k]
        w[k] = (2.0 * k / alpha - n) * w[k - 1] / c - dot(w, s[k:0:-1])
    return u, w


def _batch_coefficients(params_list):
    """The (OriginSeries, (u, w)) pair of each cell at the default orders,
    as ``solve_profile`` takes it in ``_series_from``: one pass of each
    recursion on numpy rows, with the bits of the list backend."""
    rows = _Rows(len(params_list))
    n = np.array([p.n for p in params_list], dtype=float)
    alpha = np.array([p.alpha for p in params_list])
    m = _MAX_ORDER // 2
    coeffs = _slope_coefficients(n, alpha, m, rows) / (2.0 * np.arange(1.0, m + 1.0))[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        u, w = _far_series(n, alpha, _FAR_ORDER, rows)
    return [
        (OriginSeries(params=params, order=_MAX_ORDER, coeffs=tuple(a)), (uc, wc))
        for params, a, uc, wc in zip(params_list, coeffs.T.tolist(), u.T.tolist(), w.T.tolist())
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


def _series_sum(c, x, cut):
    """The power series c, lowest order first, summed at x, and where it is resolved.

    Element-wise in x: ``resolved`` is where the last term is at most cut
    times the sum.  It is False where the sum is not finite, and
    everywhere when the last coefficient is not, so a series that
    overflows at x or whose coefficients left float range is never used.
    The sum is returned everywhere, so a caller fills its nodes from it.
    A stack c of shape (order + 1, m, 1) sums m series of one order in
    one Horner pass (see :func:`_polyval`); the sums
    and ``resolved`` then have a row per series.
    """
    last = c[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        total = _polyval(x, c)
        return total, np.isfinite(last) & np.isfinite(total) & (
            np.abs(last) * x ** (len(c) - 1) <= cut * np.abs(total)
        )


def series_eval(series: OriginSeries, t):
    """Evaluate the truncated series and its first two derivatives.

    Parameters
    ----------
    series : OriginSeries
    t : float or array_like
        Evaluation points, finite and t >= 0.

    Returns
    -------
    (r, dr, ddr) : floats or ndarrays matching the shape of ``t``.
    """
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("series evaluation needs finite t")
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
