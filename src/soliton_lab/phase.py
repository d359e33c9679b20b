"""Phase-plane view of a solved profile.

In the variables s = log t, y(s) = r'(e^s) the far-field structure of the
profile becomes autonomous-at-infinity.  The normalized slope defect

    z(s) = (n - 1) e^{-s} g(y(s)) - 1

increases strictly from -1/n (s -> -infinity) to 0 (s -> +infinity) and
satisfies

    z' + n z + 1 + alpha (n - 1) z y^2 = 0,

which is the sharpest computable consistency check on the solver output.
On the alpha = 1 branch the once-more-rescaled defect
w = -e^{2s} z/(n - 1) - 1 decays like t^{-2} and exposes the refined
expansion coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, g_eval, is_log_branch
from .profile import RadialProfile

__all__ = [
    "PhaseTrajectory",
    "phase_trajectory",
    "z_ode_residual",
    "slope_ode_residual",
]

#: Widest log-t sample gap the sixth-order difference stencil tolerates
#: before its truncation error pollutes the residual contracts.
_MAX_STEP = 2e-2


@dataclass(eq=False)
class PhaseTrajectory:
    """Samples of the phase variables on the positive part of the grid.

    ``w`` is present only on the alpha = 1 branch, where it is defined.
    """

    params: ModelParams
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w: np.ndarray | None
    tol: float


def _fd6(f: np.ndarray, h: float) -> np.ndarray:
    """Sixth-order centered first derivative on the interior of a uniform grid.

    Returns values at indices 3 .. len(f)-4.
    """
    return (
        -f[:-6] + 9.0 * f[1:-5] - 45.0 * f[2:-4]
        + 45.0 * f[4:-2] - 9.0 * f[5:-1] + f[6:]
    ) / (60.0 * h)


def phase_trajectory(profile: RadialProfile) -> PhaseTrajectory:
    """Extract the phase-plane trajectory from a solved profile.

    Uses the positive grid nodes only.  Verifies that the z-equation
    residual, with z' formed by sixth-order finite differences, stays
    below 100 times the profile tolerance.

    Raises
    ------
    ValueError
        Fewer than 10 positive samples, or log-t gaps too wide for the
        finite-difference stencil.
    RuntimeError
        Residual contract violated.  The residual includes the stencil's
        h^6 truncation, which at tol 1e-12 exceeds the contract on correct
        profiles: 3.1e-9 on (2, 0.5) and 5.0e-10 on (2, 1).
    """
    t = profile.grid[1:]
    if len(t) < 10:
        raise ValueError("profile too coarse for a phase trajectory: need 10 samples")
    s = np.log(t)
    gaps = np.diff(s)
    h = (s[-1] - s[0]) / (len(s) - 1)
    if gaps.max() > _MAX_STEP:
        raise ValueError(
            f"profile too coarse for finite differences: log-t gap {gaps.max():.3g} "
            f"exceeds {_MAX_STEP:g}"
        )
    if np.abs(gaps - h).max() > 1e-8 * max(1.0, abs(h)):
        raise ValueError("phase trajectory needs a grid uniform in log t")

    y = profile.dr[1:]
    z = profile.phase_z
    params = profile.params
    if is_log_branch(params.alpha):
        w = -np.exp(2.0 * s) * z / (params.n - 1.0) - 1.0
    else:
        w = None

    traj = PhaseTrajectory(params=params, s=s, y=y, z=z, w=w, tol=profile.tol)
    worst = float(np.abs(z_ode_residual(traj)).max())
    if worst > 100.0 * profile.tol:
        raise RuntimeError(
            f"phase residual {worst:.3e} exceeds the accuracy contract "
            f"{100.0 * profile.tol:.3e}"
        )
    return traj


def z_ode_residual(traj: PhaseTrajectory) -> np.ndarray:
    """Residual of z' + n z + 1 + alpha (n-1) z y^2 on the grid interior.

    z' is a sixth-order finite difference, so the result measures solver
    consistency, not a tautology of the stored values.
    """
    n, alpha = traj.params.n, traj.params.alpha
    h = (traj.s[-1] - traj.s[0]) / (len(traj.s) - 1)
    dz = _fd6(traj.z, h)
    zi = traj.z[3:-3]
    yi = traj.y[3:-3]
    return dz + n * zi + 1.0 + alpha * (n - 1.0) * zi * yi * yi


def slope_ode_residual(traj: PhaseTrajectory, normalized: bool = False) -> np.ndarray:
    """Residual of y' + [(n-1) g(y) - e^s] (1+y^2)^((3-alpha)/2), interior.

    With ``normalized`` the residual is divided by the local magnitude of
    the equation's terms.  For alpha < 1 the two bracket terms reach 1e13
    and cancel to machine digits, so the absolute residual is floored by
    float64 rounding far above any solver error; the normalized form is
    the meaningful one there.
    """
    n, alpha = traj.params.n, traj.params.alpha
    h = (traj.s[-1] - traj.s[0]) / (len(traj.s) - 1)
    dy = _fd6(traj.y, h)
    yi = traj.y[3:-3]
    si = traj.s[3:-3]
    es = np.exp(si)
    w = 1.0 + yi * yi
    wp = w ** ((3.0 - alpha) / 2.0)
    gy = g_eval(yi, traj.params)
    res = dy + ((n - 1.0) * gy - es) * wp
    if not normalized:
        return res
    scale = 1.0 + np.abs(dy) + ((n - 1.0) * np.abs(gy) + es) * wp
    return res / scale
