"""Placement by the numbers: greedy count selection plus location-allocation.

A synthetic iteration metric makes the mechanics visible.  Targets form
two tight clusters; each preconditioner build costs 8 "iterations".  The
greedy pass inserts preconditioners at the worst-served target until the
modeled cost rises twice (then discards those two); location-allocation
re-centers each cell at its Weber point, which need not be a target; a
final prune drops any preconditioner that stopped paying for itself.
"""

import numpy as np

from pcplace import ParamBox, ParamSet, plan_placement
from pcplace.placement import allocate

rng = np.random.default_rng(3)
cluster_a = rng.normal([-0.65, -0.65], 0.07, size=(12, 2))
cluster_b = rng.normal([0.65, 0.65], 0.07, size=(12, 2))
points = np.clip(np.vstack([cluster_a, cluster_b]), -1, 1)
targets = ParamSet(ParamBox.symmetric_unit(2), points)


def m(deltas):
    # iteration-count-like metric: floor of one iteration, linear growth
    return np.maximum(1.0, 9.0 * np.linalg.norm(np.atleast_2d(deltas), axis=1))


plan = plan_placement(targets, m, cost_ratio=8.0, seed=0)
print("greedy cost trace:", [round(c, 1) for c in plan.greedy_cost_trace])
print("location-allocation iterations:", plan.la_iterations)
print("total-iteration trace:", [round(v, 1) for v in plan.sigma_m_trace])
print(f"\nfinal count: {plan.n_pc} preconditioners")
for k, loc in enumerate(plan.pc_locations):
    size = int(np.sum(plan.assignment == k))
    print(f"  pc {k} at [{loc[0]: .3f}, {loc[1]: .3f}] serves {size} targets")
print(f"modeled strategy cost: {plan.estimated_cost:.1f} iteration units")

mean_cost = 8.0 + float(np.sum(m(points)))
per_point_cost = len(targets) * (8.0 + 1.0)
print(f"  vs mean-based   {mean_cost:.1f}")
print(f"  vs per-point    {per_point_cost:.1f}")

# the assignment is a generalized Voronoi diagram under m; with a
# norm-based metric it coincides with nearest-neighbor cells
assignment, _ = allocate(points, plan.pc_locations, m)
nearest = np.array(
    [int(np.argmin(np.linalg.norm(plan.pc_locations - p, axis=1))) for p in points]
)
print("\nallocation equals nearest-neighbor cells:", bool(np.all(assignment == nearest)))
print("cluster centers are not target points (continuous relocation at work)")
