"""The benchmark's workloads: which CLI operations one round makes.

An operation is one call to ``soliton_lab.cli.run_cli(argv)``.  A run
repeats whole rounds, so every run attempts the same mix of operations in
the same proportions; the seed fixes the order of the operations inside a
round (one shuffle per run, the same order in every round).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# The 20-cell acceptance grid, the grid of the ``table`` command.
GRID = tuple((n, a) for n in (2, 3, 4, 5, 6) for a in (0.5, 1.0, 2.0, 3.0))
# ``verify`` cells whose battery passes at the parent of this benchmark.
VERIFY_CELLS = tuple((n, a) for n in (2, 3, 4) for a in (0.5, 0.75, 1.0, 1.5, 2.0))
# ``verify`` cells kept although ``check_bounds`` fails them on honest
# profiles: its fixed 10 tol (1 + t) margin exceeds the O(t^3) sandwich
# gap at the first node.  They fail on every seed and are counted failed.
BOUNDS_FAULT_CELLS = ((5, 0.5), (6, 1.0))

TABLE_TMAX = 200.0
VERIFY_TMAX = 200.0
FAR_TMAX = 2000.0
TOL = 1e-10

WORKLOADS = ("table", "verify", "far")


@dataclass(frozen=True)
class Op:
    """One operation: the argv handed to ``run_cli`` and what it delivers."""

    command: str
    n: int | None
    alpha: float | None
    t_max: float
    argv: tuple[str, ...]
    cells: int


def _cell_op(command: str, n: int, alpha: float, t_max: float, *extra: str) -> Op:
    argv = (command, "--n", str(n), "--alpha", repr(alpha), "--tmax", repr(t_max), *extra)
    return Op(command, n, alpha, t_max, argv, 1)


def round_ops(workload: str, seed: int) -> list[Op]:
    """The operations of one round of ``workload``, in the seed's order."""
    if workload == "table":
        argv = ("table", "--tmax", repr(TABLE_TMAX), "--tol", repr(TOL))
        ops = [Op("table", None, None, TABLE_TMAX, argv, len(GRID))]
    elif workload == "verify":
        ops = [
            _cell_op("verify", n, a, VERIFY_TMAX, "--format", "json")
            for n, a in VERIFY_CELLS + BOUNDS_FAULT_CELLS
        ]
    elif workload == "far":
        ops = [
            _cell_op(command, n, a, FAR_TMAX)
            for n, a in GRID
            for command in ("asymptotics", "scan-gradient")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    random.Random(seed).shuffle(ops)
    return ops


def delivered_cells(workload: str) -> list[tuple[int, float, float]]:
    """The distinct (n, alpha, t_max) profiles a round of ``workload`` delivers."""
    if workload == "table":
        return [(n, a, TABLE_TMAX) for n, a in GRID]
    if workload == "verify":
        return [(n, a, VERIFY_TMAX) for n, a in VERIFY_CELLS + BOUNDS_FAULT_CELLS]
    return [(n, a, FAR_TMAX) for n, a in GRID]


def reference_cells() -> list[tuple[int, float]]:
    """Every distinct (n, alpha) that some workload delivers."""
    return sorted({(n, a) for w in WORKLOADS for n, a, _ in delivered_cells(w)})


def far_scan_centers() -> list[float]:
    """Ball centres of ``scan-gradient --tmax 2000``: the documented ladder
    over [1, t_max/2] at twelve per decade, radius half the centre."""
    hi = FAR_TMAX / 2.0
    count = round(1 + 12 * math.log10(hi))
    return [hi ** (k / (count - 1)) for k in range(count)]
