"""Preconditioner placement: greedy count selection plus location-allocation.

Given a finite set of solve targets and an iteration-count metric m over
parameter shifts, the planner decides how many preconditioners to build,
where to put them, and which target uses which.  The objective is the
modeled strategy cost

    cost_ratio * (#preconditioners to build) + sum_i m(y_i - yhat(y_i)),

i.e. build cost expressed in iteration units plus the total iterations of
the assigned solves.  Already-built (fixed) preconditioners are sunk cost:
they participate in assignment but are neither charged nor moved.

The count comes from greedy insertion at the currently worst target until
the cost rises twice in a row (the last two insertions are then discarded).
Locations are refined by location-allocation: alternating generalized-Voronoi
allocation with per-cell Weber re-centering, until a sweep moves nothing or
gains less than the caller's price for a sweep.  Preconditioners whose
removal lowers the cost are pruned at the end; that includes every
chargeable one whose cell a sweep emptied, since dropping it leaves every
assignment as it is and saves one build.

The Weber step scores cell members as candidates but starts no descent
from them: an iteration-count metric has a logarithmic cusp at zero
shift, so a descent from a member returns its start (for an exception
of negligible gain, see ``locate``).  Each planner call keeps its
descent ends in one dict keyed by (cell, start), the only inputs a descent
has that change between sweeps.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np
from scipy.optimize import minimize

from .param_space import ParamBox, ParamSet

__all__ = [
    "PlacementPlan",
    "allocate",
    "locate",
    "greedy_init",
    "plan_placement",
]


@dataclass
class PlacementPlan:
    """Preconditioner locations, target assignment and modeled cost."""

    pc_locations: np.ndarray  # (k, N)
    fixed_mask: np.ndarray  # (k,) bool, True = supplied prebuilt
    assignment: np.ndarray  # (n,) pc index per target
    point_indices: np.ndarray  # (n,) stable indices of the targets
    assigned_m: np.ndarray  # (n,) m of each target to its pc
    estimated_cost: float
    greedy_cost_trace: list[float] = field(default_factory=list)
    sigma_m_trace: list[float] = field(default_factory=list)
    la_iterations: int = 0

    @property
    def n_pc(self) -> int:
        return self.pc_locations.shape[0]

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(format_version=1, fixed_mask=self.fixed_mask.astype(bool))
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in doc.items()}

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)


def _objective(cost_ratio: float, fixed_mask, per_m: np.ndarray) -> float:
    """The placement objective: ``cost_ratio`` per chargeable build plus Σ m."""
    n_charged = int((~np.asarray(fixed_mask, dtype=bool)).sum())
    return cost_ratio * n_charged + float(per_m.sum())


def _metric_table(points: np.ndarray, locations: np.ndarray, m) -> np.ndarray:
    """m(y_i - yhat_k) for every target/preconditioner pair, (n, k)."""
    n, k = points.shape[0], locations.shape[0]
    table = np.empty((n, k))
    for j in range(k):
        table[:, j] = m(points - locations[j])
    return table


def allocate(points: np.ndarray, locations: np.ndarray, m) -> tuple[np.ndarray, np.ndarray]:
    """Assign each target to its iteration-minimal preconditioner.

    Ties break to the lowest preconditioner index.  Returns the assignment
    and the per-target m values.
    """
    locations = np.atleast_2d(locations)
    if locations.shape[0] == 0:
        raise ValueError("cannot allocate against an empty preconditioner set")
    return _assign(_metric_table(np.atleast_2d(points), locations, m))


def _assign(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise first argmin of a metric table and the m values it picks."""
    assignment = np.argmin(table, axis=1)
    return assignment, table[np.arange(table.shape[0]), assignment]


# Absolute forward-difference step, as scipy's L-BFGS-B uses by default.
_FD_STEP = 1e-8


def _cell_totals(cell: np.ndarray, locations: np.ndarray, m) -> np.ndarray:
    """Total m of the cell against each row of ``locations``, in one m call."""
    shifts = (cell[None, :, :] - locations[:, None, :]).reshape(-1, cell.shape[1])
    return np.asarray(m(shifts), dtype=float).reshape(locations.shape[0], -1).sum(axis=1)


def _value_and_gradient(yhat, cell: np.ndarray, m, box: ParamBox):
    """The cell's total m at yhat and its forward-difference gradient.

    The stencil [yhat, yhat + h e_1, ..., yhat + h e_d] is evaluated in one
    m call; each step is flipped backward where the forward step would
    leave the box, and the gradient divides by the realized step.
    """
    yhat = np.asarray(yhat, dtype=float)
    step = np.where(yhat + _FD_STEP > box.hi, -_FD_STEP, _FD_STEP)
    stencil = np.tile(yhat, (yhat.size + 1, 1))
    stencil[1:] += np.diag(step)
    totals = _cell_totals(cell, stencil, m)
    dx = (yhat + step) - yhat
    return float(totals[0]), (totals[1:] - totals[0]) / dx


def _descent_ends(
    cell: np.ndarray, m, box: ParamBox, starts: np.ndarray, memo: dict | None = None
) -> list[np.ndarray]:
    """L-BFGS-B end points from the distinct ``starts`` that are not cell members.

    Each run minimizes the cell's total m with batched forward-difference
    gradients (one m call per step).  Its end point is returned clipped to
    the box, not paired with ``res.fun``: after an abnormal line-search exit
    scipy returns the start but the value of its last trial point.  A run
    depends only on the cell and its start (m and the box are fixed within
    one planner call), so its end is kept in ``memo`` under their bytes.
    """
    memo = {} if memo is None else memo
    cell_key = cell.tobytes()
    skip = {row.tobytes() for row in cell}
    bounds = list(zip(box.lo, box.hi))
    ends = []
    for start in starts:
        start_key = start.tobytes()
        if start_key in skip:
            continue
        skip.add(start_key)
        key = (cell_key, start_key)
        if key not in memo:
            res = minimize(
                _value_and_gradient, start, args=(cell, m, box), method="L-BFGS-B",
                jac=True, bounds=bounds,
            )
            memo[key] = box.clip(res.x)
        ends.append(memo[key])
    return ends


def locate(
    cell: np.ndarray,
    m,
    box: ParamBox,
    incumbent: np.ndarray,
    rng: np.random.Generator | None = None,
    n_restarts: int = 5,
    memo: dict | None = None,
) -> tuple[np.ndarray, bool]:
    """Weber step: a box-constrained minimizer of the cell's total m.

    The candidates are the starts (the incumbent, the cell centroid, the
    first, middle and last member, and ``n_restarts`` uniform random
    points) and the ends of quasi-Newton descents (box bounds, batched
    forward-difference gradients) from the distinct starts that are not
    cell members.  All candidates are scored in one m call, and the first
    one of least total is returned, so the result is never worse than the
    incumbent; it counts as improved when it beats the incumbent by more
    than 1e-12.

    Members are scored but not descended from: an iteration-count metric
    rises from its one-iteration floor with a logarithmic cusp (infinite
    slope) at zero shift, so a descent from a member returns its start
    after a failed line search, unless a finite-difference step along some
    weakly weighted direction stays in the floor: the other members then
    pull it off for a gain near 1e-9 iterations (strict xfail
    ``test_descent_leaves_a_member_in_the_floor_band``).  ``memo`` keeps
    descent ends by (cell, start) bytes; ``plan_placement`` passes one dict
    per call, so a repeated cell reuses its centroid's descent even after
    its incumbent moved.  Without a memo every descent runs.
    """
    cell = np.atleast_2d(np.asarray(cell, dtype=float))
    if cell.shape[0] == 0:
        raise ValueError("cannot locate for an empty cell")
    if rng is None:
        rng = np.random.default_rng(0)
    incumbent = np.asarray(incumbent, dtype=float)

    member_picks = sorted({0, cell.shape[0] // 2, cell.shape[0] - 1})
    starts = np.vstack([incumbent, cell.mean(axis=0), cell[member_picks]])
    restarts = rng.uniform(box.lo, box.hi, size=(n_restarts, box.dims))
    candidates = np.vstack([
        starts, *_descent_ends(cell, m, box, starts, memo),
        restarts, *_descent_ends(cell, m, box, restarts, memo),
    ])
    totals = _cell_totals(cell, candidates, m)
    best = int(np.argmin(totals))
    return candidates[best], bool(totals[best] < totals[0] - 1e-12)


def _prune(table, fixed_mask, assignment, per_m, cost_ratio):
    """Drop chargeable preconditioners that do not pay for themselves.

    A preconditioner goes when its cell reassigns more cheaply than one
    build; each round drops the one whose removal lowers the cost most.
    Locations do not move here, so ``table`` is the (n, k) metric table
    of the final allocation, and a trial drop is an argmin over the kept
    columns in their original order (ties break to the lowest kept index,
    as in ``allocate``).  Returns the kept column indices, the assignment
    into them and the per-target m values.
    """
    kept = np.arange(table.shape[1])
    while kept.size > 1:
        current = _objective(cost_ratio, fixed_mask[kept], per_m)
        best_cost, best_state = current, None
        for k in kept:
            if fixed_mask[k]:
                continue
            trial_kept = kept[kept != k]
            trial_assignment, trial_m = _assign(table[:, trial_kept])
            trial_cost = _objective(cost_ratio, fixed_mask[trial_kept], trial_m)
            if trial_cost < best_cost - 1e-12:
                best_cost = trial_cost
                best_state = (trial_kept, trial_assignment, trial_m)
        if best_state is None:
            break
        kept, assignment, per_m = best_state
    return kept, assignment, per_m


def greedy_init(
    points: np.ndarray,
    m,
    cost_ratio: float,
    fixed_locations: np.ndarray,
    box: ParamBox,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Greedy insertion until the strategy cost rises twice in a row.

    Starts from the fixed locations (or the box center when none are
    given), repeatedly adds a preconditioner at the target with the
    current-highest m, and finally discards the last two insertions.
    Returns (locations, fixed_mask, cost trace); the trace's first entry
    is the pre-insertion cost.
    """
    fixed_locations = np.atleast_2d(np.asarray(fixed_locations, dtype=float))
    if fixed_locations.size == 0:
        locations = [box.center.copy()]
        fixed_mask = [False]
    else:
        locations = [loc.copy() for loc in fixed_locations]
        fixed_mask = [True] * len(locations)

    _, vals = allocate(points, np.vstack(locations), m)
    trace = [_objective(cost_ratio, fixed_mask, vals)]
    added = 0
    cap = points.shape[0] + 2
    while added < cap:
        if len(trace) >= 3 and trace[-1] > trace[-2] > trace[-3]:
            break
        pick = int(np.argmax(vals))
        locations.append(points[pick].copy())
        fixed_mask.append(False)
        added += 1
        vals = np.minimum(vals, m(points - points[pick]))
        trace.append(_objective(cost_ratio, fixed_mask, vals))
    drop = min(2, added)
    if drop:
        locations = locations[:-drop]
        fixed_mask = fixed_mask[:-drop]
    return np.vstack(locations), np.asarray(fixed_mask, dtype=bool), trace


def plan_placement(
    targets: ParamSet,
    m,
    cost_ratio: float,
    pc_fixed=(),
    seed: int = 0,
    sweep_price=lambda total, seconds: 1e-4 * max(total, 1.0),
    la_max_iter: int = 50,
    n_restarts: int = 5,
) -> PlacementPlan:
    """Full placement: greedy count selection, location-allocation, pruning.

    ``m`` maps parameter shifts (rows) to iteration counts.  Each sweep
    re-centers every non-empty chargeable cell at its Weber point
    (``locate``, sharing one descent memo keyed by (cell, start)) and
    reallocates.  The sweeps stop when nothing moved, after ``la_max_iter``
    sweeps, or when a sweep gains fewer iterations than
    ``sweep_price(total_before, sweep_seconds)``; the default price is
    ``1e-4 * max(total_before, 1.0)``.
    A final pruning pass drops chargeable preconditioners whose removal
    lowers the strategy cost; one left with an empty cell always goes.
    """
    if len(targets) == 0:
        raise ValueError("cannot place preconditioners for an empty target set")
    rng = np.random.default_rng(seed)
    points = targets.points
    box = targets.box

    fixed_arr = np.asarray(list(pc_fixed), dtype=float).reshape(-1, box.dims)
    locations, fixed_mask, trace = greedy_init(points, m, cost_ratio, fixed_arr, box)

    table = _metric_table(points, locations, m)
    assignment, per_m = _assign(table)
    sigma_trace = [float(per_m.sum())]
    memo: dict = {}
    for _ in range(la_max_iter):
        tick = time.perf_counter()
        prev_total = sigma_trace[-1]
        prev_assignment = assignment

        shifted = 0.0
        for k in range(locations.shape[0]):
            if fixed_mask[k]:
                continue
            members = points[assignment == k]
            if members.shape[0] == 0:
                continue
            new_loc, _ = locate(members, m, box, locations[k], rng, n_restarts, memo=memo)
            shifted = max(shifted, float(np.max(np.abs(new_loc - locations[k]))))
            locations[k] = new_loc

        table = _metric_table(points, locations, m)
        assignment, per_m = _assign(table)
        sigma_trace.append(float(per_m.sum()))
        if shifted <= 1e-12 and np.array_equal(assignment, prev_assignment):
            break
        price = sweep_price(prev_total, time.perf_counter() - tick)
        if prev_total - sigma_trace[-1] < price:
            break

    kept, assignment, per_m = _prune(table, fixed_mask, assignment, per_m, cost_ratio)
    locations, fixed_mask = locations[kept], fixed_mask[kept]

    return PlacementPlan(
        pc_locations=locations,
        fixed_mask=fixed_mask,
        assignment=assignment,
        point_indices=targets.indices.copy(),
        assigned_m=per_m,
        estimated_cost=_objective(cost_ratio, fixed_mask, per_m),
        greedy_cost_trace=trace,
        sigma_m_trace=sigma_trace,
        la_iterations=len(sigma_trace) - 1,
    )
