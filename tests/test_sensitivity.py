"""Sensitivity of the check battery to one perturbed node.

Each case multiplies one node array of a solved profile at one node by
1 + eps and runs :func:`~soliton_lab.verify.run_battery` on the result.
A battery that sees the change fails a check or refuses the profile with
:class:`~soliton_lab.profile.SolverError`.

The matrix covers three cells, a node in each regime of the solve (the
origin series, the explicit stretch, the far-field series), every stored
channel and eps in {1e-9, 1e-7, 1e-5, 1e-3}, at the default tol 1e-10.
A change that nothing catches while eps |value| exceeds the 100 tol
contract is a blind spot, kept as a strict xfail that names it and that
goes red when anything catches the change; one at or below the contract
that nothing catches is pinned as unseen.
"""

import dataclasses

import numpy as np
import pytest

from soliton_lab.profile import SolverError
from soliton_lab.verify import _CONTRACT, _ball_points, run_battery

_CELLS = {"n2-a0.5": (2, 0.5), "n3-a2": (3, 2.0), "n5-a1": (5, 1.0)}
_EPS = (1e-9, 1e-7, 1e-5, 1e-3)
# Where each node sits, from launch and handoff: the middle of the origin
# series, of the explicit stretch and of the far-field series.  On the
# three cells these are t = 0.13, 0.16, 0.22; 2.8, 6.6, 8.9; and 29.1,
# 59.1, 56.2.  The explicit node keeps the bare cell id it was seeded with.
_NODES = {
    "origin": lambda p: p.launch // 2,
    "": lambda p: (p.launch + p.handoff) // 2,
    "far": lambda p: (p.handoff + len(p.grid) - 1) // 2,
}
# What the battery does at each eps, one string per cell in _CELLS order:
# C it catches the change, B a blind spot, . unseen within the contract.
_MATRIX = {
    ("r", "origin"): ("..CC", "..CC", "..CC"),
    ("r", ""): (".CCC", ".CCC", ".CCC"),
    ("r", "far"): ("BCCC", "BCCC", "BCCC"),
    ("dr", "origin"): ("..CC", "..CC", "..CC"),
    ("dr", ""): (".CCC", ".CCC", ".CCC"),
    ("dr", "far"): ("BCCC", ".CCC", "BCCC"),
    ("phase_z", "origin"): ("CCCC", "CCCC", "CCCC"),
    ("phase_z", ""): ("CCCC", ".CCC", ".CCC"),
    ("phase_z", "far"): (".CCC", ".CCC", ".CCC"),
    ("ddr", "origin"): (".BBB", ".BBB", ".BBB"),
    ("ddr", ""): ("BBBB", ".BBB", ".BBB"),
    ("ddr", "far"): ("BBBB", "..CC", ".BCC"),
    ("dddr", "origin"): ("..BB", "..BB", "..BB"),
    ("dddr", ""): (".BBB", "..BB", "..BB"),
    ("dddr", "far"): (".BBB", "...B", "...B"),
}
_BLIND = {
    # refinement normalizes by 1 + |r|, and the far r is 200 to 8,000
    "r": "refinement compares |r_a - r_b| / (1 + |r_a|) with 100 tol, so a "
    "relative change of r below 100 tol passes however large r is",
    # the far r' is 14 and 850 on the two blind cells
    "dr": "the phase residual moves by about 2 eps at a far node, below 100 "
    "tol at eps 1e-9, although eps |r'| exceeds it",
    # A node's r'' and r''' are end data of the r and r' quintics on the
    # two lattice cells around it, which only the PDE residual reads; the
    # convexity check reads only the smallest r'' over the nodes.
    "ddr": "the 1000 battery points rarely land in the two lattice cells "
    "that a node's r'' and r''' shape, so the PDE residual misses the change",
}
_BLIND["dddr"] = _BLIND["ddr"]


def _cases(kinds, *names):
    """The matrix rows of the channels ``names`` marked with one of
    ``kinds``, as test parameters (cell, node, eps, name), with ids
    cell[-node]-eps[-name], the name only when there are several; each
    blind spot is a strict xfail."""
    for name in names:
        for node in _NODES:
            for (cell_id, cell), row in zip(_CELLS.items(), _MATRIX[name, node]):
                for eps, mark in zip(_EPS, row):
                    if mark not in kinds:
                        continue
                    parts = [cell_id, node, str(eps), name if len(names) > 1 else ""]
                    marks = []
                    if mark == "B":
                        marks.append(pytest.mark.xfail(
                            strict=True, raises=AssertionError, reason=_BLIND[name]
                        ))
                    yield pytest.param(
                        cell, node, eps, name, id="-".join(filter(None, parts)), marks=marks
                    )


def _index(profile, name, node):
    """The index in ``name`` of the node that ``_NODES[node]`` picks;
    phase_z and dddr have no axis entry, so their index is one less."""
    at = _NODES[node](profile)
    return at - 1 if name in ("phase_z", "dddr") else at


def _perturbed(profile, name, node, eps):
    """A copy of profile with ``name`` multiplied by 1 + eps at the node
    that ``_NODES[node]`` picks."""
    values = getattr(profile, name).copy()
    values[_index(profile, name, node)] *= 1.0 + eps
    return dataclasses.replace(profile, **{name: values})


def _beyond_contract(profile, name, node, eps):
    """Whether the change eps |value| exceeds the 100 tol contract."""
    value = getattr(profile, name)[_index(profile, name, node)]
    return eps * abs(value) > _CONTRACT * profile.tol


def _caught(profile):
    """The names of the checks that fail, or ["phase residual"] when the
    phase contract refuses the profile."""
    try:
        return [rep.name for rep in run_battery(profile) if not rep.passed]
    except SolverError as exc:
        if "phase residual" not in str(exc):
            raise
        return ["phase residual"]


def _expect(bad, expected, detail=""):
    """Fail with AssertionError when nothing catches ``bad``, which a blind
    spot's strict xfail expects, and otherwise, through ``pytest.fail``,
    when the checks caught are not ``expected``; so a blind spot that
    anything closes goes red."""
    caught = _caught(bad)
    assert caught, f"nothing caught{detail}"
    if caught != expected:
        pytest.fail(f"caught {caught}, not {expected}{detail}")


@pytest.mark.parametrize("cell, node, eps, name", _cases("CB", "r"))
def test_a_perturbed_radius_fails_refinement_alone(profile_of, cell, node, eps, name):
    _expect(_perturbed(profile_of(*cell), name, node, eps), ["refinement"])


@pytest.mark.parametrize("cell, node, eps, name", _cases("CB", "dr", "phase_z"))
def test_a_perturbed_slope_or_defect_breaks_the_phase_residual(profile_of, cell, node, eps, name):
    _expect(_perturbed(profile_of(*cell), name, node, eps), ["phase residual"])


@pytest.mark.parametrize("cell, node, eps, name", _cases("CB", "ddr", "dddr"))
def test_a_perturbed_curvature_fails_a_check(profile_of, cell, node, eps, name):
    profile = profile_of(*cell)
    at = _NODES[node](profile)
    grid = profile.grid
    radii = np.linalg.norm(_ball_points(1000, cell[0], profile.t_max / 2.0), axis=1)
    hits = int(np.count_nonzero((radii > grid[at - 1]) & (radii < grid[at + 1])))
    _expect(_perturbed(profile, name, node, eps), ["pde-residual"], (
        f": {name} times 1 + {eps} at t = {grid[at]:.4g}; "
        f"{hits} of 1000 battery points lie in the two lattice cells around it"
    ))


@pytest.mark.parametrize("cell, node, eps, name", _cases(".", "r", "dr", "phase_z", "ddr", "dddr"))
def test_a_change_within_the_contract_goes_unseen(profile_of, cell, node, eps, name):
    profile = profile_of(*cell)
    assert not _beyond_contract(profile, name, node, eps)
    assert _caught(_perturbed(profile, name, node, eps)) == []


def test_each_blind_spot_lies_beyond_the_contract(profile_of):
    for name, node in _MATRIX:
        for cell, row in zip(_CELLS.values(), _MATRIX[name, node]):
            for eps, mark in zip(_EPS, row):
                if mark == "B":
                    assert _beyond_contract(profile_of(*cell), name, node, eps), (
                        cell, node, eps, name
                    )
