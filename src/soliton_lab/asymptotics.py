"""Far-field expansions of the profile and least-squares coefficient fits.

Two branches.  For alpha != 1,

    r(t) = alpha/(alpha+1) (n-1)^(-1/alpha) t^(1+1/alpha) - C t^(1-1/alpha) + o(t^(1-1/alpha)),

with C the closed-form coefficient from the model module.  On the
logarithmic branch alpha = 1,

    r(t) = t^2/(2(n-1)) - log t + C1 - (n-1)(n-4)/2 t^(-2) + o(t^(-2)),

where C1 is an integration constant pinned here by the normalization
r(0) = 0; ``_powers`` is the one place that states these powers of t.
Matching expansions for the phase variables y(s) and z(s) are evaluated
by the ``asymptotic_y`` / ``asymptotic_z`` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, coeff_C, is_log_branch
from .profile import _T_MAX_SLACK, RadialProfile
from .series import _dot

__all__ = [
    "FarFieldFit",
    "asymptotic_eval",
    "asymptotic_y",
    "asymptotic_z",
    "expected_coefficients",
    "fit_far_field",
]


def _finite(x, name: str) -> np.ndarray:
    """x as a float array, refused unless every element is finite: NaN
    passes a sign check and comes back as nan, and an infinite t or s
    makes the terms warn or come back as nan or -inf."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"far-field expansion needs finite {name}")
    return x


def asymptotic_eval(params: ModelParams, C1: float | None, t):
    """Truncated far-field expansion of r(t).

    ``C1``, a finite float, must be supplied exactly on the alpha = 1
    branch (where the expansion contains the free constant) and must be
    omitted elsewhere.
    ``t`` must be finite and positive.
    """
    t = _finite(t, "t")
    if np.any(t <= 0.0):
        raise ValueError("far-field expansion needs t > 0")
    leading, second = expected_coefficients(params)
    p, q = _powers(params.alpha)
    out = leading * t ** p + second * t ** q
    if is_log_branch(params.alpha):
        if C1 is None or not math.isfinite(C1):
            raise ValueError("alpha = 1 expansion needs a finite constant C1")
        out = out + C1 - np.log(t)
    elif C1 is not None:
        raise ValueError("C1 is defined only on the alpha = 1 branch")
    if out.ndim == 0:
        return float(out)
    return out


def asymptotic_y(params: ModelParams, s):
    """Far-field expansion of the slope y at s = log t.

    This is d/dt of :func:`asymptotic_eval`, term by term:
    alpha = 1: e^s/(n-1) - e^{-s} + (n-1)(n-4) e^{-3s}  (three terms);
    otherwise e^{s/alpha} ((n-1)^(-1/alpha) - B e^{-2s/alpha})  (two terms).
    ``s`` must be finite.
    """
    t = np.exp(_finite(s, "s"))
    leading, second = expected_coefficients(params)
    p, q = _powers(params.alpha)
    out = leading * p * t ** (p - 1.0) + second * q * t ** (q - 1.0)
    if is_log_branch(params.alpha):
        out = out - 1.0 / t
    if out.ndim == 0:
        return float(out)
    return out


def asymptotic_z(params: ModelParams, s):
    """Far-field expansion of the slope defect z at s = log t.

    alpha = 1: -(n-1) e^{-2s} + (n-1)^2 (n-4) e^{-4s};
    otherwise the leading term -(1/alpha) (n-1)^(2/alpha - 1) e^{-2s/alpha}.
    ``s`` must be finite.
    """
    s = _finite(s, "s")
    n, alpha = params.n, params.alpha
    if is_log_branch(alpha):
        out = -(n - 1.0) * np.exp(-2.0 * s) + (n - 1.0) ** 2 * (n - 4.0) * np.exp(-4.0 * s)
    else:
        out = -(1.0 / alpha) * (n - 1.0) ** (2.0 / alpha - 1.0) * np.exp(-2.0 * s / alpha)
    if out.ndim == 0:
        return float(out)
    return out


def expected_coefficients(params: ModelParams) -> tuple[float, float]:
    """Closed-form (leading, second) coefficients the fit should recover.

    The second coefficient multiplies t^(1 - 1/alpha) for alpha != 1 (so it
    is -C), and t^(-2) on the alpha = 1 branch (so it is -(n-1)(n-4)/2).
    """
    n, a = params.n, params.alpha
    if is_log_branch(a):
        return 1.0 / (2.0 * (n - 1.0)), -0.5 * (n - 1.0) * (n - 4.0)
    return a / (a + 1.0) * (n - 1.0) ** (-1.0 / a), -coeff_C(params)


def _powers(alpha: float) -> tuple[float, float]:
    """Powers of t that the (leading, second) coefficients multiply in r(t)."""
    if is_log_branch(alpha):
        return 2.0, -2.0
    return 1.0 + 1.0 / alpha, 1.0 - 1.0 / alpha


@dataclass(eq=False)
class FarFieldFit:
    """Least-squares far-field fit of a profile over an outer window.

    ``fitted_C1`` is present only on the alpha = 1 branch.  On that branch
    the quadratic and logarithmic parts are imposed exactly (they are
    parameter-free), so ``fitted_leading`` reports the imposed value.
    ``residual_norm`` is the root-mean-square misfit over the window.
    """

    params: ModelParams
    window: tuple[float, float]
    fitted_leading: float
    fitted_second: float
    fitted_C1: float | None
    residual_norm: float


def _gram_cond(gram) -> float:
    """2-norm condition number of a symmetric 2x2 Gram matrix, in closed form.

    The eigenvalues are mean +- radius; the smaller one is taken as det over
    the larger, which keeps its relative accuracy, so the condition number
    is larger^2/det.  inf unless det > 0, as for collinear columns.  This
    spares the SVD of ``np.linalg.cond``.
    """
    (g11, g12), (_, g22) = gram
    det = g11 * g22 - g12 * g12
    if not det > 0.0:
        return math.inf
    big = 0.5 * (g11 + g22) + math.hypot(0.5 * (g11 - g22), g12)
    return big * big / det


def _scaled_lstsq(columns: list[np.ndarray], target: np.ndarray) -> tuple[list[float], float]:
    """Normal-equations solve on two max-norm scaled columns; returns (coefs, rms).

    The Gram matrix, the right-hand side and the residual's sum of squares
    are Python-float sums in index order (``series._dot``), and the 2x2
    system is solved in closed form, so the fit makes no BLAS or LAPACK
    call: a BLAS kernel splits its sums by a rule of its own, and the fit
    would change with it.
    """
    scale = [float(np.abs(col).max()) for col in columns]
    if 0.0 in scale:
        raise ValueError("degenerate fit basis column")
    c1, c2 = [(col / s).tolist() for col, s in zip(columns, scale)]
    g11, g12, g22 = _dot(c1, c1), _dot(c1, c2), _dot(c2, c2)
    cond = _gram_cond(((g11, g12), (g12, g22)))
    if not math.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"ill-conditioned far-field fit (normal-system condition {cond:.3g})"
        )
    y = target.tolist()
    b1, b2 = _dot(c1, y), _dot(c2, y)
    det = g11 * g22 - g12 * g12
    coefs = [(g22 * b1 - g12 * b2) / det / scale[0], (g11 * b2 - g12 * b1) / det / scale[1]]
    resid = (target - (columns[0] * coefs[0] + columns[1] * coefs[1])).tolist()
    return coefs, math.sqrt(_dot(resid, resid) / len(resid))


def fit_far_field(
    profile: RadialProfile,
    window: tuple[float, float] | None = None,
) -> FarFieldFit:
    """Fit the far-field expansion over an outer window of the grid.

    Default window is the outer dyadic range [t_max/2, t_max].  The window
    must contain at least 50 grid samples and must not stretch below a
    third of its outer edge, where the fitted two-term models stop being
    meaningful.
    """
    t_max = profile.t_max
    if window is None:
        window = (t_max / 2.0, t_max)
    t_lo, t_hi = float(window[0]), float(window[1])
    if not (0.0 < t_lo < t_hi <= t_max * _T_MAX_SLACK):
        raise ValueError(f"fit window must satisfy 0 < t_lo < t_hi <= {t_max:g}")
    if t_lo < t_hi / 3.0:
        raise ValueError("fit window too deep: need t_lo >= t_hi/3")

    mask = (profile.grid >= t_lo) & (profile.grid <= t_hi)
    t = profile.grid[mask]
    r = profile.r[mask]
    if len(t) < 50:
        raise ValueError(f"fit window holds {len(t)} samples; need at least 50")

    params = profile.params
    n, alpha = params.n, params.alpha
    p, q = _powers(alpha)
    if is_log_branch(alpha):
        # t^2/(2(n-1)) and not leading * t^2: the product rounds differently
        # at n = 4 and 6, and the fitted coefficients would move in their
        # last digits.
        known = t * t / (2.0 * (n - 1.0)) - np.log(t)
        (c1, second), rms = _scaled_lstsq([np.ones_like(t), t ** q], r - known)
        leading = expected_coefficients(params)[0]
    else:
        (leading, second), rms = _scaled_lstsq([t ** p, t ** q], r)
        c1 = None
    return FarFieldFit(
        params=params,
        window=(t_lo, t_hi),
        fitted_leading=leading,
        fitted_second=second,
        fitted_C1=c1,
        residual_norm=rms,
    )
