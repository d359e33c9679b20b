"""Executable checks for the structural properties of computed profiles.

Each check returns a CheckReport whose pass flag is exactly
(metric <= tolerance).  Strict inequalities are tested with an explicit
margin; metrics that bound a violation from above are negative when the
property holds, and the margin enters through a negative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .asymptotics import _powers, expected_coefficients
from .model import ModelParams, coeff_C, g_eval, is_log_branch
from .phase import PhaseTrajectory, phase_trajectory
from .profile import _CONTRACT, _TOL_MIN, RadialProfile, solve_profile

__all__ = [
    "CheckReport",
    "GradientScanReport",
    "ScanSample",
    "check_bounds",
    "check_phase_monotone",
    "check_pde_residual",
    "check_convexity",
    "check_blow_down",
    "blow_down_deviation",
    "check_growth",
    "scan_gradient_bound",
    "default_scan_geometry",
    "check_refinement_agreement",
    "sample_ball",
    "run_battery",
]


@dataclass(frozen=True)
class CheckReport:
    """Named verification outcome; ``passed`` is (metric <= tolerance)."""

    name: str
    passed: bool
    metric: float
    tolerance: float
    detail: str = ""


# Smallest outer radius at which the blow-down and growth checks read the
# far-field rate: below it the transition region still sets r.  The verify
# command refuses a smaller radius before it solves.
_T_MAX_MIN = 100.0


def _require_radius(t_max: float, check: str) -> None:
    """Refuse an outer radius below what the blow-down and growth checks need."""
    if t_max < _T_MAX_MIN:
        raise ValueError(f"{check} check needs t_max >= {_T_MAX_MIN:g}")


def _report(name: str, metric: float, tolerance: float, detail: str = "") -> CheckReport:
    metric = float(metric)
    tolerance = float(tolerance)
    return CheckReport(
        name=name,
        passed=bool(metric <= tolerance),
        metric=metric,
        tolerance=tolerance,
        detail=detail,
    )


# ----------------------------------------------------------------------
# pointwise structural checks
# ----------------------------------------------------------------------

def check_bounds(profile: RadialProfile, margin_rate: float | None = None) -> CheckReport:
    """Strict slope sandwich t/n < g(r') < t/(n-1) and convexity r'' > 0.

    The metric is the worst violation over positive grid points of
    max(t/n - g(r'), g(r') - t/(n-1), -r''), normalized by (1 + t); the
    tolerance is -margin_rate, so passing means every strict inequality
    holds with margin margin_rate*(1+t).  Default margin_rate is 10*tol.
    g is evaluated at every node from the profile's ``dr``, the same way
    for a solved profile and for one built by hand.
    """
    if margin_rate is None:
        margin_rate = 10.0 * profile.tol
    t = profile.grid[1:]
    gy = g_eval(profile.dr[1:], profile.params)
    n = profile.params.n
    lower = t / n - gy
    upper = gy - t / (n - 1.0)
    viol = np.maximum(np.maximum(lower, upper), -profile.ddr[1:]) / (1.0 + t)
    k = int(np.argmax(viol))
    detail = (
        f"worst normalized violation {viol[k]:.3e} at t={t[k]:.4g}; "
        f"lower-gap {-lower[k]:.3e}, upper-gap {-upper[k]:.3e}"
    )
    return _report("bounds", float(viol.max()), -float(margin_rate), detail)


def check_phase_monotone(traj: PhaseTrajectory) -> CheckReport:
    """z strictly increasing, z(start) near -1/n, z(end) near 0.

    Metric folds the three requirements: the worst non-increase of z, the
    start-gap excess over 1e-3, and the end-gap excess over 1e-2.
    """
    z = traj.z
    if len(z) < 10:
        raise ValueError("phase monotonicity check needs at least 10 samples")
    n = traj.params.n
    non_increase = float(np.max(z[:-1] - z[1:]))
    start_gap = abs(float(z[0]) + 1.0 / n)
    end_gap = abs(float(z[-1]))
    metric = max(non_increase, start_gap - 1e-3, end_gap - 1e-2)
    detail = (
        f"z[0]+1/n = {float(z[0]) + 1.0 / n:.3e}, z[-1] = {float(z[-1]):.3e}, "
        f"worst non-increase {non_increase:.3e}"
    )
    return _report("phase-monotone", metric, 0.0, detail)


def sample_ball(rng: np.random.Generator, count: int, dim: int, radius: float) -> np.ndarray:
    """Uniform random sample of ``count`` points in the dim-ball of given
    radius, drawn from the caller's numpy Generator.  :func:`run_battery`
    uses the deterministic points of :func:`_ball_points` instead."""
    x = rng.standard_normal((count, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    u = rng.random(count) ** (1.0 / dim)
    return x * (radius * u)[:, None]


def _ball_points(count: int, dim: int, radius: float) -> np.ndarray:
    """``count`` evenly spread, deterministic points in the dim-ball of
    given radius, from numpy arithmetic alone (no ``numpy.random``).

    The R_d sequence (Roberts, 2018) u_k = frac(1/2 + k a), with
    a_j = phi^-j for j = 1..d and phi the positive root of
    x^(d+1) = x + 1, fills the unit d-cube with low discrepancy at every
    count; here k runs from 1 to count.  It has d = 1 + 2 ceil(dim/2)
    coordinates.  The first sets the radius radius u^(1/dim), so the
    points are uniform in volume; each later pair gives two normal
    deviates by Box-Muller, and the normalised vector of the first dim of
    them is a uniform direction.
    """
    d = 1 + 2 * ((dim + 1) // 2)
    phi = 2.0
    for _ in range(30):  # a contraction by at most 1/(d+1) per pass
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    a = phi ** -np.arange(1.0, d + 1.0)
    # One row per coordinate, so each transcendental runs on contiguous rows.
    u = 0.5 + a[:, None] * np.arange(1.0, count + 1.0)
    u -= np.floor(u)
    # 1 - u lies in (0, 1], so each Box-Muller modulus is finite.
    rho = np.sqrt(-2.0 * np.log1p(-u[1::2]))
    theta = (2.0 * np.pi) * u[2::2]
    half = dim // 2
    x = np.concatenate((rho * np.cos(theta), rho[:half] * np.sin(theta[:half])))
    x *= (radius * u[0] ** (1.0 / dim)) / np.sqrt(np.einsum("ij,ij->j", x, x))
    return np.ascontiguousarray(x.T)


def check_pde_residual(
    profile: RadialProfile,
    points: np.ndarray,
    tolerance: float | None = None,
) -> CheckReport:
    """Residual of the full translator equation at arbitrary points.

    For u(x) = r(|x|) the gradient and Hessian are assembled from the
    interpolated (r', r''), both from one quintic between nodes (r'' is
    its derivative; see :meth:`RadialProfile.evaluate`), and the equation

        (delta_ij - u_i u_j / (1 + |Du|^2)) u_ij = (1 + |Du|^2)^((1-alpha)/2)

    is contracted exactly as written, so the metric measures integration
    plus interpolation error through an independent route from the radial
    ODE.  Points must lie inside the solved ball.  At the origin the
    Hessian is the exact limit (r''(0)) times the identity.
    """
    params = profile.params
    n, alpha = params.n, params.alpha
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n or not len(pts):
        raise ValueError(f"points must have shape (m, {n}) with m >= 1")
    radii = np.linalg.norm(pts, axis=1)
    if tolerance is None:
        tolerance = _CONTRACT * profile.tol

    worst = 0.0
    origin = radii == 0.0
    if origin.any():
        # Du = 0 there, so the operator is the Laplacian: n * r''(0) vs 1.
        worst = abs(n * float(profile.ddr[0]) - 1.0)

    off = ~origin
    if off.any():
        x = pts[off]
        rad = radii[off]
        _, dr, ddr = profile.evaluate(rad)
        xhat = x / rad[:, None]
        proj = xhat[:, :, None] * xhat[:, None, :]
        eye = np.eye(n)[None, :, :]
        hess = ddr[:, None, None] * proj + (dr / rad)[:, None, None] * (eye - proj)
        grad = dr[:, None] * xhat
        denom = 1.0 + np.einsum("ki,ki->k", grad, grad)
        a = eye - grad[:, :, None] * grad[:, None, :] / denom[:, None, None]
        lhs = np.einsum("kij,kij->k", a, hess)
        rhs = denom ** ((1.0 - alpha) / 2.0)
        worst = max(worst, float(np.abs(lhs - rhs).max()))

    detail = f"sup residual over {len(pts)} points, ball radius {radii.max():.4g}"
    return _report("pde-residual", worst, tolerance, detail)


def check_convexity(profile: RadialProfile) -> CheckReport:
    """Strict positivity of both Hessian eigenvalue families r'' and r'/t.

    At t = 0 both families degenerate to r''(0) by continuity.  Metric is
    minus the smallest eigenvalue found.
    """
    radial = profile.ddr
    t = profile.grid[1:]
    tangential = profile.dr[1:] / t
    min_eig = min(float(radial.min()), float(tangential.min()))
    detail = (
        f"min radial eigenvalue {radial.min():.6g}, "
        f"min tangential {tangential.min():.6g}, origin value {radial[0]:.6g}"
    )
    return _report("convexity", -min_eig, 0.0, detail)


# ----------------------------------------------------------------------
# scaling checks
# ----------------------------------------------------------------------

def _blow_down_gaps(profile: RadialProfile, scales, samples: int = 513) -> list[float]:
    """The blow-down gap of :func:`blow_down_deviation` at each scale, from
    one interpolation of r over every scale's samples."""
    leading, _ = expected_coefficients(profile.params)
    p, _ = _powers(profile.params.alpha)
    tau = np.linspace(0.0, 1.0, samples)
    limit = leading * tau ** p
    rr = profile._radius(np.concatenate([h * tau for h in scales]))
    return [
        float(np.abs(rr_h / h ** p - limit).max())
        for h, rr_h in zip(scales, rr.reshape(len(scales), samples))
    ]


def blow_down_deviation(profile: RadialProfile, h: float, samples: int = 513) -> float:
    """sup over t in [0,1] of the blow-down gap |h^{-p} r(h t) - L t^p|,
    over ``samples`` points from 0 to 1 (at least 2)."""
    if not 0.0 < h < math.inf:  # NaN fails here too
        raise ValueError(f"blow-down scale h must be positive and finite, got {h!r}")
    if samples < 2:
        raise ValueError(f"blow-down needs at least 2 samples, got {samples!r}")
    return _blow_down_gaps(profile, [h], samples)[0]


def check_blow_down(profile: RadialProfile) -> CheckReport:
    """Convergence of the parabolic blow-down to the limiting paraboloid.

    Uses the largest available scale h = t_max and compares against the
    known remainder rate: log(h)/h^2 on the alpha = 1 branch, otherwise
    h to the power -min(2/alpha, 1 + 1/alpha) (outer correction term vs
    inner-region contribution).  The halved-scale deviation is reported
    for rate inspection.
    """
    h = profile.t_max
    _require_radius(h, "blow-down")
    params = profile.params
    alpha = params.alpha
    dev, dev_half = _blow_down_gaps(profile, [h, h / 2.0])
    if is_log_branch(alpha):
        tol = 10.0 * math.log(h) / (h * h)
    else:
        rate = min(2.0 / alpha, 1.0 + 1.0 / alpha)
        tol = 10.0 * max(1.0, abs(coeff_C(params))) * h ** (-rate)
    detail = f"deviation {dev:.6e} at h={h:g}, {dev_half:.6e} at h={h / 2.0:g}"
    return _report("blow-down", dev, tol, detail)


def check_growth(profile: RadialProfile) -> CheckReport:
    """Superlinear growth and the far-field power of r.

    Requires r/t increasing with r(t_max)/t_max > 1, and the dyadic
    log-log slope at t_max/2 within 2 percent of 1 + 1/alpha.  Note the
    slope converges to its limit only like the subleading term; at
    moderate t_max the honest slope can still sit outside 2 percent.
    """
    t_max = profile.t_max
    _require_radius(t_max, "growth")
    t = profile.grid[1:]
    ratio = profile.r[1:] / t
    increasing = bool(np.all(np.diff(ratio) > 0.0))
    super_linear = bool(ratio[-1] > 1.0)
    r_half = profile._radius(t_max / 2.0)
    r_end = float(profile.r[-1])
    exponent = (math.log(r_end) - math.log(r_half)) / math.log(2.0)
    expected, _ = _powers(profile.params.alpha)
    metric = abs(exponent - expected) / expected
    if not (increasing and super_linear):
        metric = math.inf
    detail = (
        f"exponent {exponent:.6f} vs {expected:.6f}; r/t increasing: {increasing}; "
        f"r(t_max)/t_max = {ratio[-1]:.4g}"
    )
    return _report("growth", metric, 0.02, detail)


# ----------------------------------------------------------------------
# gradient-estimate scan
# ----------------------------------------------------------------------

class ScanSample(NamedTuple):
    center_offset: float
    radius: float
    M: float
    grad_norm: float
    ratio: float


@dataclass(eq=False)
class GradientScanReport:
    """Empirical interior-gradient-bound scan.

    Per sample, ratio = log(max(grad_norm, 1)) / (1 + M^2/radius^2) with
    M the supremum of u over the ball (attained on the outer rim by radial
    monotonicity).  ``sup_ratio`` is the maximum over samples; finiteness
    and stability under domain growth are the testable content.
    """

    params: ModelParams
    samples: list[ScanSample]
    sup_ratio: float


def default_scan_geometry(t_max: float) -> tuple[list[float], list[float]]:
    """Paired (centers, radii) covering [1, t_max/2] at fixed log density."""
    if not (math.isfinite(t_max) and t_max >= 4.0):
        raise ValueError(f"gradient scan needs a finite t_max >= 4, got {t_max:g}")
    hi = t_max / 2.0
    count = max(2, int(round(1 + 12 * math.log10(hi))))
    centers = list(np.geomspace(1.0, hi, count))
    radii = [c / 2.0 for c in centers]
    return centers, radii


def scan_gradient_bound(
    params: ModelParams,
    centers: list[float],
    radii: list[float],
    tol: float = 1e-10,
) -> GradientScanReport:
    """Scan the interior gradient bound over paired (center, radius) balls.

    Solves one profile covering every ball.  Centers are offsets along a
    coordinate axis; by radial symmetry |Du| at the center is r'(center)
    and the ball supremum of u is r(center + radius).
    """
    if len(centers) != len(radii):
        raise ValueError("centers and radii must pair up")
    if not centers:
        raise ValueError("gradient scan needs at least one ball")
    cs = [float(c) for c in centers]
    rs = [float(r) for r in radii]
    if not all(0.0 <= c < math.inf for c in cs) or not all(0.0 < r < math.inf for r in rs):
        raise ValueError("need finite center offsets >= 0 and finite radii > 0")
    reach = max(c + r for c, r in zip(cs, rs))
    profile = solve_profile(params, max(reach, 1.0), tol)
    grads = profile.evaluate(cs)[1].tolist()
    rims = profile._radius([c + rho for c, rho in zip(cs, rs)]).tolist()
    samples = []
    for c, rho, grad, m_val in zip(cs, rs, grads, rims):
        ratio = math.log(max(grad, 1.0)) / (1.0 + (m_val / rho) ** 2)
        samples.append(ScanSample(c, rho, m_val, grad, ratio))
    sup_ratio = max(s.ratio for s in samples)
    return GradientScanReport(params=params, samples=samples, sup_ratio=sup_ratio)


# ----------------------------------------------------------------------
# refinement agreement
# ----------------------------------------------------------------------

def check_refinement_agreement(profile: RadialProfile) -> CheckReport:
    """Agreement between a solved profile and a strictly finer solve.

    The finer run tightens the profile's tolerance tenfold (floored at the
    solver minimum) and halves the first node of its lattice, which shifts
    every node; each solve's stepper starts where its own origin series
    ends, at ``grid[launch]``.  Below tol 3e-12 both solves step at the
    solver's rtol floor, so the shifted lattice is their only difference.
    The finer solve takes over the profile's series coefficients, which
    depend on (n, alpha) alone.
    Metric is the sup over the coarse grid of |r_a - r_b| / (1 + |r_a|);
    r reaches 1e4 and beyond, so only the relative form is meaningful
    against 100*tol.
    """
    tol = profile.tol
    fine = solve_profile(
        profile.params, profile.t_max, max(tol / 10.0, _TOL_MIN),
        switch_radius=profile.grid[1] / 2.0,
        _series_from=(profile.series, profile._far),
    )
    t = profile.grid[1:]
    ra = profile.r[1:]
    gap = np.abs(ra - fine._radius(t)) / (1.0 + np.abs(ra))
    metric = float(gap.max())
    detail = f"worst normalized gap {metric:.3e} at t={t[int(np.argmax(gap))]:.4g}"
    return _report("refinement", metric, _CONTRACT * tol, detail)


# ----------------------------------------------------------------------
# battery
# ----------------------------------------------------------------------

def run_battery(profile: RadialProfile) -> list[CheckReport]:
    """Run every profile-level check on one solved profile.

    The PDE residual uses the 1000 deterministic points of
    :func:`_ball_points` in the half-radius ball, the same on every call;
    the refinement check compares the profile with one finer solve.
    """
    traj = phase_trajectory(profile)
    points = _ball_points(1000, profile.params.n, profile.t_max / 2.0)
    return [
        check_bounds(profile),
        check_phase_monotone(traj),
        check_pde_residual(profile, points),
        check_convexity(profile),
        check_blow_down(profile),
        check_growth(profile),
        check_refinement_agreement(profile),
    ]
