#!/usr/bin/env python3
"""Tour of a single solved profile.

Solves the n = 3, alpha = 2 bowl out to t = 100, prints a few grid rows,
evaluates between nodes, and shows the slope sandwich

    t/n < g(r'(t)) < t/(n-1)

holding with room to spare at every sampled radius.
"""

import numpy as np

from soliton_lab import ModelParams, g_eval, solve_profile

params = ModelParams(n=3, alpha=2.0)
profile = solve_profile(params, t_max=100.0, tol=1e-10)

print(f"profile for n={params.n}, alpha={params.alpha}")
print(f"grid: {len(profile.grid)} nodes, first node {profile.grid[1]:g}")
print()

print(f"{'t':>10} {'r':>16} {'dr':>16} {'ddr':>12}")
for k in np.linspace(0, len(profile.grid) - 1, 9).astype(int):
    t = profile.grid[k]
    print(f"{t:10.4f} {profile.r[k]:16.8e} {profile.dr[k]:16.8e} {profile.ddr[k]:12.6f}")
print()

# interpolation between nodes is as good as the nodes themselves
t_query = np.array([0.005, 0.7531, 12.345, 99.999])
r_q, dr_q, ddr_q = profile.evaluate(t_query)
print("off-grid evaluation:")
for t, r, dr in zip(t_query, r_q, dr_q):
    print(f"  r({t:g}) = {r:.10e},  r'({t:g}) = {dr:.10e}")
print()

t = profile.grid[1:]
gy = g_eval(profile.dr[1:], params)
lower_gap = (gy - t / params.n).min()
upper_gap = (t / (params.n - 1) - gy).min()
print("slope sandwich t/n < g(r') < t/(n-1):")
print(f"  smallest gap above t/n:      {lower_gap:.6e}")
print(f"  smallest gap below t/(n-1):  {upper_gap:.6e}")
