"""Parameters and the slope map shared by every profile computation.

A rotationally symmetric translator of the power mean curvature flow is a
graph whose radial profile r(t) satisfies

    r''/(1 + r'^2) + (n - 1) r'/t = (1 + r'^2)^((1 - alpha)/2),

with r(0) = r'(0) = 0.  The monotone odd map

    g(y) = y (1 + y^2)^((alpha - 1)/2)

controls the sharp slope bounds t/n < g(r'(t)) < t/(n - 1) and the
coefficients of the far-field expansion, so it lives here together with
parameter validation and the closed-form expansion coefficients.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "g_eval",
    "g_invert",
    "coeff_B",
    "coeff_C",
    "is_log_branch",
]

# Largest log of a slope y ~ v^(1/alpha) that the package represents:
# float64 overflows at exp(709.78), and the margin covers the prefactors.
_LOG_SLOPE_MAX = 700.0

#: Below this distance from alpha = 1 the power-law correction coefficient
#: C blows up like 1/(alpha - 1) and the logarithmic branch is used instead.
ALPHA_ONE_THRESHOLD = 1e-12


def is_log_branch(alpha: float) -> bool:
    """True when alpha is (numerically) 1, selecting the log-branch formulas."""
    return abs(alpha - 1.0) < ALPHA_ONE_THRESHOLD


def _check_dimension(n) -> int:
    if isinstance(n, bool):
        raise ValueError("dimension must be an integer, got a bool")
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"dimension must be an integer, got {n!r}") from None
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    return n


def _check_exponent(alpha) -> float:
    try:
        alpha = float(alpha)
    except (TypeError, ValueError):
        raise ValueError(f"alpha must be a real number, got {alpha!r}") from None
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    return alpha


@dataclass(frozen=True)
class ModelParams:
    """Ambient dimension ``n`` and speed exponent ``alpha`` of the flow."""

    n: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_dimension(self.n))
        object.__setattr__(self, "alpha", _check_exponent(self.alpha))


# ----------------------------------------------------------------------
# the slope map g and its inverse
# ----------------------------------------------------------------------

def g_eval(y, params: ModelParams):
    """Evaluate g(y) = y (1 + y^2)^((alpha - 1)/2).

    Odd and strictly increasing in ``y``, and nondecreasing in float64 as
    well (see :func:`_slope_map`); the identity map when ``alpha == 1``.
    Accepts scalars or arrays.
    """
    a = params.alpha
    y = np.asarray(y, dtype=float)
    if is_log_branch(a):
        out = y.copy()
    else:
        out = _slope_map_array(a, y)
    if out.ndim == 0:
        return float(out)
    return out


def _slope_map(alpha: float, y: float) -> float:
    """The slope map g at a scalar y; the one definition every caller uses.

    For alpha < 1 the factor (1 + y^2)^((alpha-1)/2) decreases, so the
    product y (1 + y^2)^((alpha-1)/2) can round out of order for large y.
    There g is written as |y|^alpha (1 + y^-2)^((alpha-1)/2), whose factors
    are both nondecreasing in |y|, so correctly rounded pow keeps the
    product in order.  The sign is attached last, which keeps g exactly odd.
    """
    if alpha < 1.0 and abs(y) > 1.0:
        return math.copysign(
            abs(y) ** alpha * (1.0 + 1.0 / (y * y)) ** ((alpha - 1.0) / 2.0), y
        )
    return y * (1.0 + y * y) ** ((alpha - 1.0) / 2.0)


_slope_map_array = np.vectorize(_slope_map, otypes=[float])


def _slope_map_deriv(alpha: float, y):
    """g'(y); element-wise, so it serves scalars and arrays alike."""
    # d/dy [y (1+y^2)^((alpha-1)/2)] = (1+y^2)^((alpha-3)/2) (1 + alpha y^2)
    w = 1.0 + y * y
    return w ** ((alpha - 3.0) / 2.0) * (1.0 + alpha * y * y)


def _invert_slope(alpha: float, v: float, seed: float | None = None) -> float:
    """Solve g(y) = v for y >= 0, given v >= 0.

    Newton iteration inside a bisection bracket.  The default seed sits on
    the monotone side of the root (g is convex on y > 0 for alpha >= 1 and
    concave for alpha <= 1), so the plain iteration already converges
    monotonically; the bracket guards the last digits and bad seeds.
    """
    if v == 0.0:
        return 0.0
    if v < 0.0:
        raise ValueError(f"slope map inversion needs a nonnegative value, got {v}")
    if is_log_branch(alpha):
        return v

    if seed is None or seed <= 0.0 or not math.isfinite(seed):
        # g(y) ~ y for small y and ~ y^alpha for large y, so v and
        # v^(1/alpha) enclose the root from the same side.
        if v > 1.0 and math.log(v) / alpha > _LOG_SLOPE_MAX:
            raise ValueError(
                f"slope map inversion overflows: g(y) = {v:g} needs y ~ v^(1/alpha) "
                f"beyond float range for alpha = {alpha:g}"
            )
        guess = v ** (1.0 / alpha)
        y = min(v, guess) if alpha > 1.0 else max(v, guess)
    else:
        y = seed

    lo, hi = 0.0, math.inf
    for _ in range(120):
        f = _slope_map(alpha, y) - v
        if f == 0.0:
            return y
        if f < 0.0:
            lo = max(lo, y)
        else:
            hi = min(hi, y)
        y_new = y - f / _slope_map_deriv(alpha, y)
        # Convergence first: a Newton step below half an ulp leaves
        # y_new == y, which sits on the bracket edge it just set.
        if abs(y_new - y) <= 4e-16 * (1.0 + abs(y_new)):
            return y_new
        if not lo < y_new < hi:
            y_new = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(y, 1.0)
        y = y_new
    return y


def g_invert(v: float, params: ModelParams) -> float:
    """Invert the slope map: the unique y >= 0 with g(y) = v.

    Scalar only.  Accurate to a relative tolerance well below 1e-12.
    """
    v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"slope map inversion needs a finite value, got {v}")
    return _invert_slope(params.alpha, v)


# ----------------------------------------------------------------------
# far-field expansion coefficients
# ----------------------------------------------------------------------

def coeff_B(params: ModelParams) -> float:
    """Second coefficient of the far-field slope expansion.

    r'(t) ~ t^(1/alpha) ((n-1)^(-1/alpha) - B t^(-2/alpha) + ...), with
    B = (n-1)^(1/alpha) (1/(alpha^2 (n-1)) + (alpha-1)/(2 alpha)).
    Equals 1 exactly when alpha == 1, for every n.
    """
    n, a = params.n, params.alpha
    if is_log_branch(a):
        return 1.0
    return (n - 1.0) ** (1.0 / a) * (1.0 / (a * a * (n - 1.0)) + (a - 1.0) / (2.0 * a))


def coeff_C(params: ModelParams) -> float:
    """Second coefficient of the far-field height expansion, alpha != 1.

    r(t) ~ alpha/(alpha+1) (n-1)^(-1/alpha) t^(1+1/alpha) - C t^(1-1/alpha);
    C = (n-1)^(1/alpha)/(alpha-1) (1/(alpha (n-1)) + (alpha-1)/2).  Related
    to the slope coefficient by C = alpha B / (alpha - 1), which changes
    sign with alpha - 1.

    Raises
    ------
    ValueError
        When ``alpha == 1``: the correction there is the logarithmic branch
        -log(t), not a power law, and no finite C exists.
    """
    n, a = params.n, params.alpha
    if is_log_branch(a):
        raise ValueError(
            "no power-law correction coefficient at alpha = 1; the expansion "
            "carries a logarithmic branch -log(t) there"
        )
    return (n - 1.0) ** (1.0 / a) / (a - 1.0) * (1.0 / (a * (n - 1.0)) + (a - 1.0) / 2.0)

