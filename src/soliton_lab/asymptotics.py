"""Far-field expansions of the profile and least-squares coefficient fits.

Two branches.  For alpha != 1,

    r(t) = alpha/(alpha+1) (n-1)^(-1/alpha) t^(1+1/alpha) - C t^(1-1/alpha) + o(t^(1-1/alpha)),

with C the closed-form coefficient from the model module.  On the
logarithmic branch alpha = 1,

    r(t) = t^2/(2(n-1)) - log t + C1 - (n-1)(n-4)/2 t^(-2) + o(t^(-2)),

where C1 is an integration constant pinned here by the normalization
r(0) = 0.  Matching expansions for the phase variables y(s) and z(s) are
evaluated by the ``asymptotic_y`` / ``asymptotic_z`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, coeff_B, coefficient_set, is_log_branch
from .profile import RadialProfile

__all__ = [
    "FarFieldFit",
    "asymptotic_eval",
    "asymptotic_y",
    "asymptotic_z",
    "expected_coefficients",
    "fit_far_field",
]


def asymptotic_eval(params: ModelParams, C1: float | None, t):
    """Truncated far-field expansion of r(t).

    ``C1`` must be supplied exactly on the alpha = 1 branch (where the
    expansion contains the free constant) and must be omitted elsewhere.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("far-field expansion needs t > 0")
    alpha = params.alpha
    leading, second = expected_coefficients(params)
    if is_log_branch(alpha):
        if C1 is None:
            raise ValueError("alpha = 1 expansion needs the constant C1")
        out = leading * (t * t) - np.log(t) + C1 + second / (t * t)
    else:
        if C1 is not None:
            raise ValueError("C1 is defined only on the alpha = 1 branch")
        out = leading * t ** (1.0 + 1.0 / alpha) + second * t ** (1.0 - 1.0 / alpha)
    if out.ndim == 0:
        return float(out)
    return out


def asymptotic_y(params: ModelParams, s):
    """Far-field expansion of the slope y at s = log t.

    alpha = 1: e^s/(n-1) - e^{-s} + (n-1)(n-4) e^{-3s}  (three terms);
    otherwise e^{s/alpha} ((n-1)^(-1/alpha) - B e^{-2s/alpha})  (two terms).
    """
    s = np.asarray(s, dtype=float)
    n, alpha = params.n, params.alpha
    if is_log_branch(alpha):
        out = (
            np.exp(s) / (n - 1.0)
            - np.exp(-s)
            + (n - 1.0) * (n - 4.0) * np.exp(-3.0 * s)
        )
    else:
        out = np.exp(s / alpha) * (
            (n - 1.0) ** (-1.0 / alpha) - coeff_B(params) * np.exp(-2.0 * s / alpha)
        )
    if out.ndim == 0:
        return float(out)
    return out


def asymptotic_z(params: ModelParams, s):
    """Far-field expansion of the slope defect z at s = log t.

    alpha = 1: -(n-1) e^{-2s} + (n-1)^2 (n-4) e^{-4s};
    otherwise the leading term -(1/alpha) (n-1)^(2/alpha - 1) e^{-2s/alpha}.
    """
    s = np.asarray(s, dtype=float)
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
    cs = coefficient_set(params)
    if cs.log_term:
        n = params.n
        return cs.leading, -0.5 * (n - 1.0) * (n - 4.0)
    return cs.leading, -cs.c_coeff


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


def _scaled_lstsq(columns: list[np.ndarray], target: np.ndarray) -> tuple[np.ndarray, float]:
    """Normal-equations solve on max-norm scaled columns; returns (coefs, rms)."""
    a = np.column_stack(columns)
    scale = np.abs(a).max(axis=0)
    if np.any(scale == 0.0):
        raise ValueError("degenerate fit basis column")
    a_s = a / scale
    gram = a_s.T @ a_s
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(
            f"ill-conditioned far-field fit (normal-system condition {cond:.3g})"
        )
    coefs = np.linalg.solve(gram, a_s.T @ target) / scale
    resid = target - a @ coefs
    return coefs, float(np.sqrt(np.mean(resid * resid)))


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
    if not (0.0 < t_lo < t_hi <= t_max * (1.0 + 4e-16)):
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
    if is_log_branch(alpha):
        # t^2/(2(n-1)) and not leading * t^2: the product rounds differently
        # at n = 4 and 6, and the fitted coefficients would move in their
        # last digits.
        known = t * t / (2.0 * (n - 1.0)) - np.log(t)
        coefs, rms = _scaled_lstsq([np.ones_like(t), t ** -2.0], r - known)
        return FarFieldFit(
            params=params,
            window=(t_lo, t_hi),
            fitted_leading=coefficient_set(params).leading,
            fitted_second=float(coefs[1]),
            fitted_C1=float(coefs[0]),
            residual_norm=rms,
        )
    coefs, rms = _scaled_lstsq(
        [t ** (1.0 + 1.0 / alpha), t ** (1.0 - 1.0 / alpha)], r
    )
    return FarFieldFit(
        params=params,
        window=(t_lo, t_hi),
        fitted_leading=float(coefs[0]),
        fitted_second=float(coefs[1]),
        fitted_C1=None,
        residual_norm=rms,
    )
