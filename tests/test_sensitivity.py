"""Sensitivity of the check battery to one perturbed node.

Each case multiplies one node array of a solved profile at one node, in
the middle of the explicit stretch, by 1 + eps and runs
:func:`~soliton_lab.verify.run_battery` on the result.  A battery that
sees the change fails a check or refuses the profile with
:class:`~soliton_lab.profile.SolverError`.
"""

import dataclasses

import numpy as np
import pytest

from soliton_lab.profile import SolverError
from soliton_lab.verify import _ball_points, run_battery

_CELLS = [pytest.param((2, 0.5), id="n2-a0.5"), pytest.param((3, 2.0), id="n3-a2")]
_EPS = [1e-7, 1e-3]
# A node's r'' and r''' are end data of the r and r' quintics on the two
# lattice cells around it, which only the PDE residual reads; the
# convexity check reads only the smallest r'' over the nodes.
_BLIND = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the 1000 battery points rarely land in the two lattice cells "
    "that a node's r'' and r''' shape, so the PDE residual misses the change",
)


def _perturbed(profile, name, eps):
    """A copy of profile with ``name`` multiplied by 1 + eps at the node
    halfway along the explicit stretch; phase_z and dddr have no axis
    entry, so their index is one less."""
    node = (profile.launch + profile.handoff) // 2
    index = node - 1 if name in ("phase_z", "dddr") else node
    values = getattr(profile, name).copy()
    values[index] *= 1.0 + eps
    return dataclasses.replace(profile, **{name: values}), node


@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("cell", _CELLS)
def test_a_perturbed_radius_fails_refinement_alone(profile_of, cell, eps):
    bad, _ = _perturbed(profile_of(*cell), "r", eps)
    assert [rep.name for rep in run_battery(bad) if not rep.passed] == ["refinement"]


@pytest.mark.parametrize("name", ["dr", "phase_z"])
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("cell", _CELLS)
def test_a_perturbed_slope_or_defect_breaks_the_phase_residual(profile_of, cell, eps, name):
    bad, _ = _perturbed(profile_of(*cell), name, eps)
    with pytest.raises(SolverError, match="phase residual"):
        run_battery(bad)


@pytest.mark.parametrize("name", [pytest.param("ddr", marks=_BLIND), pytest.param("dddr", marks=_BLIND)])
@pytest.mark.parametrize("eps", _EPS)
@pytest.mark.parametrize("cell", _CELLS)
def test_a_perturbed_curvature_fails_a_check(profile_of, cell, eps, name):
    profile = profile_of(*cell)
    bad, node = _perturbed(profile, name, eps)
    grid = profile.grid
    radii = np.linalg.norm(_ball_points(1000, cell[0], profile.t_max / 2.0), axis=1)
    hits = int(np.count_nonzero((radii > grid[node - 1]) & (radii < grid[node + 1])))
    failed = [rep.name for rep in run_battery(bad) if not rep.passed]
    assert failed, (
        f"{name} times 1 + {eps} at t = {grid[node]:.4g}: no check failed; "
        f"{hits} of 1000 battery points lie in the two lattice cells around it"
    )
