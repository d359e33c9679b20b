import numpy as np
import pytest

from soliton_lab.model import ModelParams
from soliton_lab.phase import (
    PhaseTrajectory,
    phase_trajectory,
    slope_ode_residual,
    z_ode_residual,
)
from soliton_lab.profile import solve_profile

CELLS = [(2, 0.5), (2, 1.0), (3, 2.0), (6, 3.0)]


@pytest.mark.parametrize("n, alpha", CELLS)
def test_z_residual_contract(n, alpha, profile_of):
    traj = phase_trajectory(profile_of(n, alpha))
    worst = float(np.abs(z_ode_residual(traj)).max())
    assert worst < 100.0 * 1e-10


@pytest.mark.parametrize("n, alpha", CELLS)
def test_z_monotone_and_limits(n, alpha, profile_of):
    traj = phase_trajectory(profile_of(n, alpha))
    assert np.all(np.diff(traj.z) > 0.0)
    assert traj.z[0] == pytest.approx(-1.0 / n, abs=1e-5)
    assert -1e-2 < traj.z[-1] < 0.0


@pytest.mark.parametrize("n, alpha, tol", [(10, 10.0, 1e-10), (3, 2.0, 1e-12), (4, 0.5, 1e-12)])
def test_z_residual_contract_far_cells(n, alpha, tol, profile_of):
    """Cells where an integrated far field missed the contract.

    At (10, 10) the defect decays like t^(-1/5), so the handoff sits at
    x = ((n-1)/t)^(2/alpha) near 0.67; at tol 1e-12 the far field must
    hold z to about 1e-12 relative.  phase_trajectory raises on a miss.
    """
    traj = phase_trajectory(profile_of(n, alpha, tol=tol))
    assert float(np.abs(z_ode_residual(traj)).max()) <= 100.0 * tol


def test_trajectory_fields(profile_of):
    prof = profile_of(2, 1.0)
    traj = phase_trajectory(prof)
    assert isinstance(traj, PhaseTrajectory)
    np.testing.assert_array_equal(traj.s, np.log(prof.grid[1:]))
    np.testing.assert_array_equal(traj.y, prof.dr[1:])
    np.testing.assert_array_equal(traj.z, prof.phase_z)
    assert traj.tol == prof.tol


def test_w_only_on_log_branch(profile_of):
    assert phase_trajectory(profile_of(3, 2.0)).w is None
    traj = phase_trajectory(profile_of(2, 1.0))
    assert traj.w is not None
    # w = -e^{2s} z/(n-1) - 1 decays to zero like t^{-2} corrections
    assert abs(traj.w[-1]) < 1e-3
    assert abs(traj.w[-1]) < abs(traj.w[len(traj.w) // 2])


@pytest.mark.parametrize("n, alpha", CELLS)
def test_slope_residual_normalized(n, alpha, profile_of):
    traj = phase_trajectory(profile_of(n, alpha))
    worst = float(np.abs(slope_ode_residual(traj, normalized=True)).max())
    assert worst < 5e-10


def test_slope_residual_raw_cancellation_floor(profile_of):
    """The raw residual subtracts ~1e13-size terms for alpha < 1.

    Float cancellation floors it far above the solver error; the
    normalized form is the meaningful one (see the docstring).
    """
    traj = phase_trajectory(profile_of(2, 0.5))
    raw = float(np.abs(slope_ode_residual(traj)).max())
    norm = float(np.abs(slope_ode_residual(traj, normalized=True)).max())
    assert norm < 5e-10
    assert raw > norm


def test_too_coarse_grid_rejected():
    prof = solve_profile(ModelParams(2, 1.0), 5.0, 1e-8, grid_spacing=2e-2)
    # widen the gaps artificially by subsampling the stored grid
    sub = prof.grid[::4].copy()
    import dataclasses

    clipped = dataclasses.replace(
        prof,
        grid=sub,
        r=prof.r[::4].copy(),
        dr=prof.dr[::4].copy(),
        ddr=prof.ddr[::4].copy(),
        phase_z=prof.phase_z[3::4].copy(),
        dddr=prof.dddr[3::4].copy(),
    )
    with pytest.raises(ValueError):
        phase_trajectory(clipped)
