"""Independent reference values of the radial profile.

The profile ODE is integrated in its original form, in (r, r'),

    r'' = (1 + r'^2) ((1 + r'^2)^((1 - alpha)/2) - (n - 1) r'/t),

with scipy's Radau method at rtol 1e-13, from r = t^2/(2n), r' = t/n at
t = 1e-4.  Nothing of soliton_lab is used: neither its phase variables,
nor its series launch, nor its solver.  Each output radius is an exact
step endpoint (the integration restarts there), so no dense-output
interpolation enters the values.

    python3 perfbench/reference.py

rewrites ``perfbench/reference.json``; the benchmark only reads it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import far_scan_centers, reference_cells

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
T_START = 1e-4
T_LIMIT = 20.0
RTOL = 1e-13


def reference_radii() -> list[float]:
    """A log-spaced ladder over [2e-3, 20] (the lowest points lie inside
    the solver's series region) plus every point the far gradient scan
    samples inside t <= 20: each centre and its ball's outer rim."""
    radii = set(np.geomspace(2e-3, T_LIMIT, 41).tolist())
    for c in far_scan_centers():
        if 1.5 * c <= T_LIMIT:
            radii.update((c, 1.5 * c))
    return sorted(radii)


def integrate(n: int, alpha: float, radii: list[float]) -> tuple[list[float], list[float]]:
    """(r, r') of the (n, alpha) profile at each radius in ascending ``radii``."""
    m = n - 1.0
    e = (1.0 - alpha) / 2.0

    def rhs(t, u):
        w = 1.0 + u[1] * u[1]
        return [u[1], w * (w ** e - m * u[1] / t)]

    def jac(t, u):
        p = u[1]
        w = 1.0 + p * p
        d = 2.0 * p * (w ** e - m * p / t) + w * (2.0 * e * p * w ** (e - 1.0) - m / t)
        return [[0.0, 1.0], [0.0, d]]

    t, u = T_START, [T_START * T_START / (2.0 * n), T_START / n]
    r_out, dr_out = [], []
    for t_next in radii:
        sol = solve_ivp(
            rhs, (t, t_next), u, method="Radau", jac=jac, rtol=RTOL, atol=1e-30
        )
        if not sol.success:
            raise RuntimeError(f"reference integration failed for ({n}, {alpha}) at {t}")
        t, u = t_next, sol.y[:, -1].tolist()
        if not all(math.isfinite(v) for v in u):
            raise RuntimeError(f"non-finite reference state for ({n}, {alpha}) at {t}")
        r_out.append(u[0])
        dr_out.append(u[1])
    return r_out, dr_out


def cell_key(n: int, alpha: float) -> str:
    return f"{n},{alpha!r}"


def build() -> dict:
    radii = reference_radii()
    cells = {}
    for n, alpha in reference_cells():
        r, dr = integrate(n, alpha, radii)
        cells[cell_key(n, alpha)] = {"r": r, "dr": dr}
    return {"method": f"Radau rtol {RTOL:g} in (r, r') from t = {T_START:g}",
            "radii": radii, "cells": cells}


def load() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def dump(doc: dict) -> str:
    """JSON with one line per cell."""
    cells = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in doc["cells"].items())
    return (f'{{"method": {json.dumps(doc["method"])},\n "radii": {json.dumps(doc["radii"])},\n'
            f' "cells": {{\n{cells}\n }}}}\n')


if __name__ == "__main__":
    REFERENCE_PATH.write_text(dump(build()), encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
