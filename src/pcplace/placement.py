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

A sweep descends all moving cells together: one L-BFGS-B run per start
slot (incumbent, centroid, each restart) over their stacked locations,
whose objective, the sum of the cell totals, is separable.  No descent
starts at a cell member: every member is scored anyway, and an
iteration-count metric's logarithmic cusp at zero shift usually returns
such a descent to its start (see ``_descend``).  Each planner call keeps
the descent ends in one dict keyed by (cell, start), and ``locate`` picks
each cell's location among its starts, its members and those ends.  The
descent and ``locate`` score cells through one routine, ``_cell_totals``,
so a descent's values and ``locate``'s scores agree bitwise.  A sweep
recomputes only the metric-table columns of the locations that moved.
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


def _cell_totals(cells: list[np.ndarray], locations: np.ndarray, m) -> np.ndarray:
    """Total m of each cell against each of its locations, (cells, L).

    ``locations`` is (cells, L, d): L locations per cell.  One m call takes
    the shifts location slot by location slot, each slot over all cells'
    rows in cell order, so each cell total is a contiguous sum, pairwise
    like ``np.sum`` of the cell's m values.
    """
    sizes = [cell.shape[0] for cell in cells]
    owner = np.repeat(np.arange(len(cells)), sizes)
    shifts = np.concatenate(cells)[None, :, :] - locations[owner].transpose(1, 0, 2)
    values = np.asarray(m(shifts.reshape(-1, locations.shape[2])), dtype=float)
    values = values.reshape(locations.shape[1], -1)
    ends = np.cumsum(sizes)
    return np.stack([values[:, end - size : end].sum(axis=1) for size, end in zip(sizes, ends)])


def _value_and_gradient(x, cells: list[np.ndarray], m, box: ParamBox):
    """The summed total m of ``cells`` and its forward-difference gradient.

    ``x`` stacks one location per cell.  The sum is separable, so its
    gradient is each cell's own.  Every cell's stencil [yhat, yhat + h e_1,
    ..., yhat + h e_d] is scored by one ``_cell_totals`` call, the one
    ``locate`` scores its candidates with.  Each step is flipped backward
    where the forward step would leave the box, and the gradient divides by
    the realized step.
    """
    dims = box.dims
    yhat = np.asarray(x, dtype=float).reshape(len(cells), dims)
    step = np.where(yhat + _FD_STEP > box.hi, -_FD_STEP, _FD_STEP)
    stencils = np.repeat(yhat[:, None, :], dims + 1, axis=1)
    axis = np.arange(dims)
    stencils[:, axis + 1, axis] += step
    totals = _cell_totals(cells, stencils, m)
    dx = (yhat + step) - yhat
    return float(totals[:, 0].sum()), ((totals[:, 1:] - totals[:, :1]) / dx).ravel()


def _starts(cell: np.ndarray, incumbent: np.ndarray, restarts) -> np.ndarray:
    """A cell's descent starts by slot: incumbent, centroid, then restarts."""
    restarts = np.asarray(restarts, dtype=float).reshape(-1, cell.shape[1])
    return np.vstack([incumbent, cell.mean(axis=0), restarts])


def _descend(cells: list[np.ndarray], starts: list[np.ndarray], m, box: ParamBox, memo: dict):
    """One L-BFGS-B run per start slot over every cell still lacking its end.

    ``starts[j]`` holds cell j's starts by slot (``_starts``).  Slot by
    slot, the cells whose start there is neither a member nor already in
    ``memo`` under (cell, start) bytes descend together: one bounded run
    over their stacked locations minimizes the sum of their totals, one m
    call per objective evaluation.  Each end is stored in ``memo`` clipped
    to the box, not paired with ``res.fun``: after an abnormal line-search
    exit scipy returns the start but the value of its last trial point.

    Members are not descended from: ``locate`` scores every member, and
    an iteration-count metric rises from its one-iteration floor with a
    logarithmic cusp (infinite slope) at zero shift, so a descent from a
    member usually returns its start after a failed line search.  It can
    leave it: a finite-difference step along a weakly weighted direction
    that stays in the floor, or a first trial step that lands near a
    heavier cluster (the strict xfails ``test_descent_leaves_*``).  The
    property test ``test_locate_is_no_worse_than_a_descent_from_a_member``
    checks that the skip still loses nothing: ``locate``'s pick totals no
    more than such a descent's end.
    """
    keys = [cell.tobytes() for cell in cells]
    members = [{row.tobytes() for row in cell} for cell in cells]
    for slot in zip(*starts):
        batch = [
            j for j, start in enumerate(slot)
            if start.tobytes() not in members[j] and (keys[j], start.tobytes()) not in memo
        ]
        if not batch:
            continue
        res = minimize(
            _value_and_gradient, np.concatenate([slot[j] for j in batch]),
            args=([cells[j] for j in batch], m, box), method="L-BFGS-B", jac=True,
            bounds=list(zip(box.lo, box.hi)) * len(batch),
        )
        ends = box.clip(res.x.reshape(len(batch), box.dims))
        for j, end in zip(batch, ends):
            memo[keys[j], slot[j].tobytes()] = end


def locate(
    cell: np.ndarray,
    m,
    box: ParamBox,
    incumbent: np.ndarray,
    restarts: np.ndarray,
    memo: dict | None = None,
) -> tuple[np.ndarray, bool]:
    """Weber step: the least-total candidate for the cell's location.

    The candidates are the incumbent, the cell centroid, every member, the
    ``restarts`` and the ends of the descents from those starts (``_descend``,
    which runs only the ones ``memo`` lacks; ``plan_placement`` fills its
    memo for all cells first, so there ``locate`` starts no descent).  All
    are scored in one m call, and the first one of least total is returned;
    the incumbent comes first, so the result is never worse than it and a
    tie keeps it.  It counts as improved when it beats the incumbent by
    more than 1e-12.
    """
    cell = np.atleast_2d(np.asarray(cell, dtype=float))
    if cell.shape[0] == 0:
        raise ValueError("cannot locate for an empty cell")
    starts = _starts(cell, np.asarray(incumbent, dtype=float), restarts)
    memo = {} if memo is None else memo
    _descend([cell], [starts], m, box, memo)
    keys = dict.fromkeys((cell.tobytes(), start.tobytes()) for start in starts)
    ends = [memo[key] for key in keys if key in memo]
    candidates = np.vstack([starts[:2], cell, starts[2:], *ends])
    totals = _cell_totals([cell], candidates[None], m)[0]
    best = int(np.argmin(totals))
    return candidates[best], bool(totals[best] < totals[0] - 1e-12)


def _prune(table, fixed_mask, assignment, per_m, cost_ratio):
    """Drop chargeable preconditioners that do not pay for themselves.

    A preconditioner goes when its cell reassigns more cheaply than one
    build; each round drops the one whose removal lowers the cost most.
    Locations do not move here, so ``table`` is the (n, k) metric table
    of the final allocation, and a trial drop is an argmin over the kept
    columns in their original order (ties break to the lowest kept index,
    as in ``allocate``).  Each round finds every row's second-best kept
    column once: dropping column p moves exactly the rows assigned to p,
    each to its second best, which is the first argmin over the rest.
    Returns the kept column indices, the assignment into them and the
    per-target m values.
    """
    kept = np.arange(table.shape[1])
    rows = np.arange(table.shape[0])
    while kept.size > 1:
        masked = table[:, kept]
        masked[rows, assignment] = np.inf
        second = np.argmin(masked, axis=1)
        second_m = table[rows, kept[second]]
        best_cost = _objective(cost_ratio, fixed_mask[kept], per_m)
        best_drop = None
        for p in np.flatnonzero(~fixed_mask[kept]):
            moved = assignment == p
            trial_m = np.where(moved, second_m, per_m)
            trial_cost = _objective(cost_ratio, fixed_mask[np.delete(kept, p)], trial_m)
            if trial_cost < best_cost - 1e-12:
                best_cost, best_drop = trial_cost, (p, moved, trial_m)
        if best_drop is None:
            break
        p, moved, per_m = best_drop
        assignment = np.where(moved, second, assignment)
        assignment = assignment - (assignment > p)
        kept = np.delete(kept, p)
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
    draws the restarts of every non-empty chargeable cell from the seeded
    generator, in cell order, runs one batched descent per start slot
    (``_descend``, filling one memo keyed by (cell, start) that the whole
    call shares), re-centers each cell at the best of its candidates
    (``locate``) and reallocates, recomputing only the table columns of
    the locations that moved.  The sweeps stop when nothing moved, after
    ``la_max_iter`` sweeps, or when a sweep gains fewer iterations than
    ``sweep_price(total_before, sweep_seconds)``; the default price is
    ``1e-4 * max(total_before, 1.0)``.
    A final pruning pass drops chargeable preconditioners whose removal
    lowers the strategy cost; one left with an empty cell always goes.
    An empty target set gets the fixed preconditioners only, at no cost.
    """
    rng = np.random.default_rng(seed)
    points = targets.points
    box = targets.box

    fixed_arr = np.asarray(list(pc_fixed), dtype=float).reshape(-1, box.dims)
    if len(targets) == 0:
        return PlacementPlan(
            pc_locations=fixed_arr,
            fixed_mask=np.ones(len(fixed_arr), dtype=bool),
            assignment=np.zeros(0, dtype=int),
            point_indices=targets.indices.copy(),
            assigned_m=np.zeros(0),
            estimated_cost=0.0,
        )
    locations, fixed_mask, trace = greedy_init(points, m, cost_ratio, fixed_arr, box)

    table = _metric_table(points, locations, m)
    assignment, per_m = _assign(table)
    sigma_trace = [float(per_m.sum())]
    memo: dict = {}
    for _ in range(la_max_iter):
        tick = time.perf_counter()
        prev_total = sigma_trace[-1]
        prev_assignment = assignment

        moving = [k for k in np.flatnonzero(~fixed_mask) if np.any(assignment == k)]
        cells = [points[assignment == k] for k in moving]
        restarts = [rng.uniform(box.lo, box.hi, size=(n_restarts, box.dims)) for _ in moving]
        starts = [_starts(*cell_args) for cell_args in zip(cells, locations[moving], restarts)]
        _descend(cells, starts, m, box, memo)

        shifted, moved = 0.0, []
        for k, cell, cell_restarts in zip(moving, cells, restarts):
            new_loc, _ = locate(cell, m, box, locations[k], cell_restarts, memo)
            shifted = max(shifted, float(np.max(np.abs(new_loc - locations[k]))))
            if new_loc.tobytes() != locations[k].tobytes():
                moved.append(k)
            locations[k] = new_loc

        for k in moved:
            table[:, k] = m(points - locations[k])
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
