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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["OriginSeries", "series_coefficients", "series_eval"]

# Degree of the origin series the solver uses, and the highest accepted.
# The profile is analytic at the axis, with a radius of convergence of
# about n (where r'^2 = -1).  At degree 40 the last term stays below 1e-16
# of the sum out to t of about 1 to 4 on the n 2..6 x alpha {0.5, 1, 2, 3}
# grid, and the solver fills every node out to there from the series.
_MAX_ORDER = 40


@dataclass(frozen=True)
class OriginSeries:
    """Truncated even Taylor expansion of the profile at the axis.

    ``coeffs`` holds (a_2, a_4, ..., a_order).
    """

    params: ModelParams
    order: int
    coeffs: tuple[float, ...]


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
    y, s, p = (np.zeros(m) for _ in range(3))  # s = Y^2, p = (1 + u Y^2)^gamma
    y[0] = 1.0 / n
    s[0] = y[0] * y[0]
    p[0] = 1.0
    for k in range(1, m):
        # Miller's recurrence with the coefficients s_(j-1) of u Y^2, j = 1..k.
        p[k] = ((gamma + 1.0) * np.arange(1, k + 1) - k) @ (s[:k] * p[k - 1::-1]) / k
        y[k] = (p[k] - (n - 1.0) * (y[:k] @ s[k - 1::-1])) / (2.0 * k + n)
        s[k] = y[:k + 1] @ y[k::-1]
    coeffs = y / (2.0 * np.arange(1, m + 1))
    return OriginSeries(params=params, order=order, coeffs=tuple(coeffs.tolist()))


def _polyval(x, c):
    """The power series with coefficients c, lowest order first, at x.

    Horner's rule with the operations of numpy.polynomial.polynomial.polyval
    in its order, so the result is bitwise the same, without importing
    numpy.polynomial.  Every series sum in the package goes through here.
    The sum is formed in place, in a fresh array that no caller holds.
    """
    total = c[-1] + x * 0
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
