import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.optimize import OptimizeResult
from scipy.optimize._numdiff import approx_derivative  # what L-BFGS-B calls

from pcplace import placement
from pcplace.param_space import ParamBox, ParamSet
from pcplace.placement import (
    PlacementPlan,
    _objective,
    _prune,
    _value_and_gradient,
    allocate,
    greedy_init,
    locate,
    plan_placement,
)
from pcplace.surrogate import IterationMap


def euclidean_m(deltas):
    return np.linalg.norm(np.atleast_2d(deltas), axis=1)


def floored_scaled_m(scale):
    """Iteration-count-like metric: radially increasing with floor 1."""

    def m(deltas):
        return np.maximum(1.0, scale * np.linalg.norm(np.atleast_2d(deltas), axis=1))

    return m


def iteration_map_m(scale):
    """The GP's shape of m: the iteration map of a contraction factor that
    rises linearly from its one-iteration anchor, with a cusp at zero shift."""
    iter_map = IterationMap(1e-5)
    anchor = iter_map.alpha_from_iters(1.0)

    def m(deltas):
        alpha = np.clip(scale * np.linalg.norm(np.atleast_2d(deltas), axis=1), anchor, 0.5)
        return np.maximum(1.0, iter_map.iters_from_alpha(alpha))

    return m


def make_set(points):
    points = np.atleast_2d(points)
    return ParamSet(ParamBox.symmetric_unit(points.shape[1]), points)


def manual_plan(points, locations, m, fixed=None):
    locations = np.atleast_2d(locations)
    assignment, per_m = allocate(points, locations, m)
    fixed_mask = (
        np.zeros(locations.shape[0], dtype=bool) if fixed is None else np.asarray(fixed)
    )
    return PlacementPlan(
        pc_locations=locations,
        fixed_mask=fixed_mask,
        assignment=assignment,
        point_indices=np.arange(points.shape[0]),
        assigned_m=per_m,
        estimated_cost=np.nan,
    )


class TestStrategyCost:
    def test_direct_sum(self):
        plan = PlacementPlan(
            pc_locations=np.zeros((2, 1)),
            fixed_mask=np.zeros(2, dtype=bool),
            assignment=np.zeros(7, dtype=int),
            point_indices=np.arange(7),
            assigned_m=np.full(7, 50.0),
            estimated_cost=np.nan,
        )
        assert_allclose(
            _objective(100.0, plan.fixed_mask, plan.assigned_m), 100.0 * 2 + 350.0
        )

    def test_empty_plan_costs_nothing(self):
        plan = PlacementPlan(
            pc_locations=np.zeros((0, 1)),
            fixed_mask=np.zeros(0, dtype=bool),
            assignment=np.zeros(0, dtype=int),
            point_indices=np.zeros(0, dtype=int),
            assigned_m=np.zeros(0),
            estimated_cost=0.0,
        )
        assert _objective(100.0, plan.fixed_mask, plan.assigned_m) == 0.0

    def test_duplicate_location_adds_only_build_cost(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(20, 2))
        locs1 = np.array([[0.0, 0.0]])
        locs2 = np.array([[0.0, 0.0], [0.0, 0.0]])
        p1 = manual_plan(pts, locs1, euclidean_m)
        p2 = manual_plan(pts, locs2, euclidean_m)
        assert_allclose(p2.assigned_m, p1.assigned_m)
        assert_allclose(
            _objective(40.0, p2.fixed_mask, p2.assigned_m),
            _objective(40.0, p1.fixed_mask, p1.assigned_m) + 40.0,
        )


class TestAllocate:
    def test_single_preconditioner_takes_all(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1, 1, size=(15, 3))
        assignment, _ = allocate(pts, np.zeros((1, 3)), euclidean_m)
        assert np.all(assignment == 0)

    def test_nearest_in_one_dimension(self):
        assignment, _ = allocate(
            np.array([[0.3]]), np.array([[-0.5], [0.5]]), euclidean_m
        )
        assert assignment[0] == 1

    def test_matches_brute_force_nearest(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(100, 2))
        locs = rng.uniform(-1, 1, size=(6, 2))
        assignment, per_m = allocate(pts, locs, euclidean_m)
        for i in range(100):
            dists = [np.linalg.norm(pts[i] - locs[k]) for k in range(6)]
            assert assignment[i] == int(np.argmin(dists))
            assert_allclose(per_m[i], min(dists))

    def test_tie_breaks_to_lowest_index(self):
        assignment, _ = allocate(
            np.array([[0.0, 0.0]]),
            np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5]]),
            euclidean_m,
        )
        assert assignment[0] == 0

    def test_empty_location_set_raises(self):
        with pytest.raises(ValueError):
            allocate(np.zeros((3, 2)), np.zeros((0, 2)), euclidean_m)


class TestLocate:
    BOX = ParamBox.symmetric_unit(1)

    def test_singleton_cell_returns_the_point(self):
        box = ParamBox.symmetric_unit(2)
        p = np.array([0.4, -0.7])
        m = floored_scaled_m(10.0)
        loc, _ = locate(p.reshape(1, -1), m, box, np.zeros(2), restarts=())
        assert_allclose(loc, p, atol=1e-12)

    def test_geometric_median_against_grid_oracle(self):
        cell = np.array([[0.0], [0.0], [0.75]])
        loc, _ = locate(cell, euclidean_m, self.BOX, np.array([0.3]), restarts=())
        grid = np.arange(-1.0, 1.0 + 1e-9, 0.01)
        objective = np.array([np.sum(np.abs(cell.ravel() - g)) for g in grid])
        oracle = grid[int(np.argmin(objective))]
        assert abs(loc[0] - oracle) <= 0.01
        assert_allclose(loc[0], 0.0, atol=1e-8)

    def test_never_worse_than_centroid(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dims = int(rng.integers(1, 4))
            box = ParamBox.symmetric_unit(dims)
            cell = rng.uniform(-1, 1, size=(int(rng.integers(1, 12)), dims))
            centroid = cell.mean(axis=0)
            m = floored_scaled_m(rng.uniform(1.0, 30.0))
            restarts = rng.uniform(box.lo, box.hi, size=(5, dims))
            loc, _ = locate(cell, m, box, centroid, restarts)
            assert np.sum(m(cell - loc)) <= np.sum(m(cell - centroid)) + 1e-10

    def test_descends_to_a_minimizer_off_the_candidates(self):
        # the Fermat point of a right isosceles triangle lies on its axis at
        # t = (3 - sqrt(3)) / 6 from the right angle: neither the centroid
        # (t = 1/3) nor a vertex, so only a descent reaches it
        box = ParamBox.symmetric_unit(2)
        cell = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        loc, improved = locate(cell, euclidean_m, box, np.array([-0.5, 0.5]), restarts=())
        assert improved
        assert_allclose(loc, np.full(2, (3.0 - math.sqrt(3.0)) / 6.0), atol=1e-5)

    def test_symmetric_pair_centers_off_the_points(self):
        # strictly convex even metric, targets at -1 and +1: the Weber
        # point is the origin, which is not itself a target (with m = |.|
        # the whole segment ties and the incumbent legitimately wins)
        def quadratic_m(deltas):
            return np.linalg.norm(np.atleast_2d(deltas), axis=1) ** 2

        cell = np.array([[-1.0], [1.0]])
        loc, _ = locate(cell, quadratic_m, self.BOX, np.array([0.9]), restarts=())
        assert abs(loc[0]) <= 1e-6

    @pytest.mark.parametrize("on_upper_bound", [False, True])
    def test_gradient_matches_scipy_forward_difference(self, on_upper_bound):
        rng = np.random.default_rng(4)
        box = ParamBox(np.array([-1.0, -0.5, 0.0]), np.array([1.0, 0.5, 2.0]))
        x = np.array([0.3, -0.2, 1.1])
        if on_upper_bound:
            x[[0, 2]] = box.hi[[0, 2]]
        # a member at x puts a kink of the |d| term there: forward and
        # backward differences then differ by 2 per coordinate
        cell = np.vstack([rng.uniform(box.lo, box.hi, size=(8, 3)), x])

        def metric(deltas):
            d = np.atleast_2d(deltas)
            return (
                np.sqrt(1.0 + 40.0 * np.sum(d * d, axis=1))
                + np.sin(3.0 * d[:, 0])
                + (np.abs(d).sum(axis=1) if on_upper_bound else 0.0)
            )

        value, grad = _value_and_gradient(x, [cell], metric, box)

        def total(y):
            return float(np.sum(metric(cell - y)))

        expected = approx_derivative(
            total, x, method="2-point", abs_step=1e-8, bounds=(box.lo, box.hi)
        )
        assert value == total(x)
        assert_allclose(grad, expected, rtol=1e-6)

    def test_batched_gradient_is_each_cells_own(self):
        rng = np.random.default_rng(4)
        box = ParamBox(np.array([-1.0, -0.5]), np.array([1.0, 0.5]))
        cells = [rng.uniform(box.lo, box.hi, size=(n, 2)) for n in (5, 1, 8)]
        x = np.vstack([[0.3, -0.2], box.hi, [-0.7, 0.1]])
        m = iteration_map_m(2.0)
        value, grad = _value_and_gradient(x.ravel(), cells, m, box)
        alone = [_value_and_gradient(y, [cell], m, box) for y, cell in zip(x, cells)]
        assert value == sum(v for v, _ in alone)
        assert_array_equal(grad, np.concatenate([g for _, g in alone]))

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the cells of one start slot share one line search and stopping test",
    )
    def test_a_cusp_in_one_cell_leaves_the_others_descents_alone(self, monkeypatch):
        # two targets 2e-9 apart put their centroid on the cusp of m at zero
        # shift: its line search fails before the first iteration, and in a
        # shared run that ends every other cell's descent as well
        rng = np.random.default_rng(1)
        box = ParamBox.symmetric_unit(2)
        m = iteration_map_m(1.0)
        smooth = rng.uniform(-1, 1, size=(7, 2))
        p = rng.uniform(-0.5, 0.5, size=2)
        cusp = np.vstack([p, p + [2e-9, 0.0]])
        messages = []
        scipy_minimize = placement.minimize

        def watched_minimize(*args, **kwargs):
            res = scipy_minimize(*args, **kwargs)
            messages.append((res.message, res.nit))
            return res

        monkeypatch.setattr(placement, "minimize", watched_minimize)

        def centroid_ends(cells):
            # each incumbent is a member, so only the centroid slot descends
            starts = [placement._starts(c, c[0], ()) for c in cells]
            memo = {}
            placement._descend(cells, starts, m, box, memo)
            return [memo[c.tobytes(), c.mean(axis=0).tobytes()] for c in cells]

        def total(y):
            return placement._cell_totals([smooth], y[None, None], m)[0, 0]

        (alone,) = centroid_ends([smooth])
        centroid_ends([cusp])
        if not (messages[0][0].startswith("CONVERGENCE") and messages[1] == ("ABNORMAL: ", 0)):
            pytest.fail(f"premise: solo runs end {messages}")
        if not total(alone) < total(smooth.mean(axis=0)) - 1.0:
            pytest.fail("premise: the smooth cell's own descent gains")
        batched, _ = centroid_ends([smooth, cusp])
        assert total(batched) <= total(alone) + 1e-6

    def test_one_metric_call_per_objective_evaluation(self, monkeypatch):
        nfev, x0s = [], []
        scipy_minimize = placement.minimize

        def counting_minimize(fun, x0, *args, **kwargs):
            res = scipy_minimize(fun, x0, *args, **kwargs)
            nfev.append(res.nfev)
            x0s.append(np.array(x0))
            return res

        monkeypatch.setattr(placement, "minimize", counting_minimize)
        calls = []
        base = floored_scaled_m(8.0)

        def counting_m(deltas):
            calls.append(np.atleast_2d(deltas).shape[0])
            return base(deltas)

        rng = np.random.default_rng(5)
        box = ParamBox.symmetric_unit(2)
        cells = [rng.uniform(-1, 1, size=(6, 2)), rng.uniform(-1, 1, size=(4, 2))]
        incumbents = [np.zeros(2), cells[1][0]]
        restarts = [rng.uniform(-1, 1, size=(2, 2)) for _ in cells]
        starts = [placement._starts(*args) for args in zip(cells, incumbents, restarts)]
        memo = {}
        placement._descend(cells, starts, counting_m, box, memo)
        # one run per start slot; the second cell's incumbent is a member, so
        # the incumbent slot descends the first cell alone
        assert [x0.size for x0 in x0s] == [2, 4, 4, 4]
        assert_array_equal(x0s[0], incumbents[0])
        assert len(memo) == 4 + 3
        assert len(calls) == sum(nfev)
        assert set(calls[: nfev[0]]) == {3 * 6}  # the (d+1)-row stencil per step
        assert set(calls[nfev[0] :]) == {3 * 10}  # both cells' stencils in one call
        calls.clear()
        for cell, incumbent, cell_restarts in zip(cells, incumbents, restarts):
            locate(cell, counting_m, box, incumbent, cell_restarts, memo)
        assert len(nfev) == 4  # locate starts no descent
        # incumbent, centroid, members, restarts and ends, in one call each
        assert calls == [(2 + 6 + 2 + 4) * 6, (2 + 4 + 2 + 3) * 4]

    def test_every_member_is_a_candidate(self, monkeypatch):
        # descents that return their start add nothing, yet the least-total
        # member, neither the first, the middle nor the last, comes back
        def start_minimize(fun, x0, **kwargs):
            return OptimizeResult(x=np.array(x0, dtype=float))

        monkeypatch.setattr(placement, "minimize", start_minimize)
        cell = np.array([[0.9], [0.8], [0.0], [0.7], [-0.01], [0.01]])
        m = iteration_map_m(1.0)
        totals = placement._cell_totals([cell], cell[None], m)[0]
        assert int(np.argmin(totals)) == 2  # members 0, 3 and 5 are the old picks
        loc, improved = locate(cell, m, self.BOX, cell[0], ())
        assert_array_equal(loc, cell[2])
        assert improved

    def test_tie_keeps_the_incumbent(self, monkeypatch):
        # the two members tie bitwise; the descent's own reported value must
        # not break the tie (after an abnormal line-search exit scipy pairs
        # the start with the value of its last trial point)
        cell = np.array([[-0.1], [0.1]])
        m = iteration_map_m(1.0)
        totals = placement._cell_totals([cell], cell[None], m)[0]
        assert totals[0] == totals[1]
        memo = {}
        placement._descend([cell], [placement._starts(cell, cell[0], ())], m, self.BOX, memo)
        assert len(memo) == 1  # from the centroid
        scored = []
        cell_totals = placement._cell_totals

        def recording_totals(*args):
            scored.append(cell_totals(*args))
            return scored[-1]

        monkeypatch.setattr(placement, "_cell_totals", recording_totals)
        loc, improved = locate(cell, m, self.BOX, cell[0].copy(), (), memo)
        assert_array_equal(loc, cell[0])
        assert not improved
        assert cell_totals([cell], loc[None, None], m)[0, 0] == scored[-1].min()

    def test_memo_reuses_a_descent_across_incumbents(self, monkeypatch):
        starts = []
        scipy_minimize = placement.minimize

        def counting_minimize(fun, x0, *args, **kwargs):
            starts.append(np.array(x0))
            return scipy_minimize(fun, x0, *args, **kwargs)

        monkeypatch.setattr(placement, "minimize", counting_minimize)
        rng = np.random.default_rng(6)
        box = ParamBox.symmetric_unit(2)
        cell = rng.uniform(-1, 1, size=(5, 2))
        m = iteration_map_m(1.0)
        incumbents = [np.array([0.9, -0.9]), np.array([-0.8, 0.7])]
        calls = [(cell, incumbents[0]), (cell, incumbents[1]), (cell[:-1], incumbents[1])]

        fresh = [locate(c, m, box, inc, ()) for c, inc in calls]
        memo, runs, shared = {}, [], []
        for c, inc in calls:
            before = len(starts)
            shared.append(locate(c, m, box, inc, (), memo))
            runs.append(len(starts) - before)
        # the second call shares the cell and so the centroid's descent, and
        # runs only the one from its own incumbent; the third shares that
        # incumbent but not the cell, so it runs both of its own
        assert runs == [2, 1, 2]
        assert_array_equal(starts[-3], incumbents[1])
        for (loc, improved), (fresh_loc, fresh_improved) in zip(shared, fresh):
            assert_array_equal(loc, fresh_loc)
            assert improved == fresh_improved


class TestPrune:
    @staticmethod
    def allocate_pruning(points, locations, fixed_mask, assignment, per_m, m, ratio):
        """The pruning loop as written before the metric table: one
        ``allocate`` per trial drop."""
        while locations.shape[0] > 1:
            current = ratio * int((~fixed_mask).sum()) + float(per_m.sum())
            best_k, best_cost, best_state = -1, current, None
            for k in range(locations.shape[0]):
                if fixed_mask[k]:
                    continue
                keep = np.arange(locations.shape[0]) != k
                trial_assignment, trial_m = allocate(points, locations[keep], m)
                trial_cost = ratio * int((~fixed_mask[keep]).sum()) + float(
                    trial_m.sum()
                )
                if trial_cost < best_cost - 1e-12:
                    best_k, best_cost = k, trial_cost
                    best_state = (keep, trial_assignment, trial_m)
            if best_k < 0:
                break
            keep, assignment, per_m = best_state
            locations = locations[keep]
            fixed_mask = fixed_mask[keep]
        return locations, fixed_mask, assignment, per_m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_allocate_per_trial(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(-1, 1, size=(60, 2))
        locations = rng.uniform(-1, 1, size=(12, 2))
        # two fixed copies at a target are never pruned, so the ties
        # between them must break to the lower index in the final
        # assignment too
        locations[:2] = points[0]
        fixed_mask = np.zeros(12, dtype=bool)
        fixed_mask[:2] = True
        m = floored_scaled_m(6.0)
        table = placement._metric_table(points, locations, m)
        assignment, per_m = allocate(points, locations, m)
        kept, got_assignment, got_m = _prune(table, fixed_mask, assignment, per_m, 4.0)
        got = (locations[kept], fixed_mask[kept], got_assignment, got_m)
        want = self.allocate_pruning(
            points, locations, fixed_mask, assignment, per_m, m, 4.0
        )
        assert 1 < want[0].shape[0] < 12 and np.any(want[2] == 0)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @staticmethod
    def argmin_pruning(table, fixed_mask, assignment, per_m, ratio):
        """The pruning loop as written before second-best bookkeeping: one
        argmin over the kept columns per trial drop."""
        kept = np.arange(table.shape[1])
        while kept.size > 1:
            current = _objective(ratio, fixed_mask[kept], per_m)
            best_cost, best_state = current, None
            for k in kept:
                if fixed_mask[k]:
                    continue
                trial_kept = kept[kept != k]
                trial_assignment, trial_m = placement._assign(table[:, trial_kept])
                trial_cost = _objective(ratio, fixed_mask[trial_kept], trial_m)
                if trial_cost < best_cost - 1e-12:
                    best_cost = trial_cost
                    best_state = (trial_kept, trial_assignment, trial_m)
            if best_state is None:
                break
            kept, assignment, per_m = best_state
        return kept, assignment, per_m

    def test_second_best_matches_an_argmin_per_trial(self):
        rng = np.random.default_rng(14)
        dropped = 0
        for _ in range(300):
            n, k = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            # small integer entries: ties within rows and between trial costs
            table = rng.integers(1, 6, size=(n, k)).astype(float)
            fixed_mask = rng.random(k) < 0.25
            ratio = float(rng.choice([0.5, 1.0, 2.0, 3.5]))
            assignment, per_m = placement._assign(table)
            got = _prune(table, fixed_mask, assignment, per_m, ratio)
            want = self.argmin_pruning(table, fixed_mask, assignment, per_m, ratio)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            dropped += got[0].size < k
        assert dropped > 150

    def test_reuses_final_allocation_table(self, monkeypatch):
        calls = []

        def recording_m(deltas):
            calls.append(len(deltas))
            return floored_scaled_m(6.0)(deltas)

        seen = {}
        real_prune = placement._prune

        def watched_prune(table, *args):
            before = len(calls)
            out = real_prune(table, *args)
            seen.update(table=table, kept=out[0], m_calls=len(calls) - before)
            return out

        monkeypatch.setattr(placement, "_prune", watched_prune)
        rng = np.random.default_rng(3)
        targets = make_set(rng.uniform(-1, 1, size=(40, 2)))
        plan = plan_placement(targets, recording_m, cost_ratio=4.0, seed=0)
        assert seen["m_calls"] == 0
        # the table handed over is that of the final locations
        fresh = placement._metric_table(targets.points, plan.pc_locations, recording_m)
        assert np.array_equal(seen["table"][:, seen["kept"]], fresh)


class TestGreedyInit:
    def test_stops_after_two_rises_and_drops_two(self):
        rng = np.random.default_rng(4)
        cluster_a = rng.normal([-0.7, -0.7], 0.05, size=(10, 2))
        cluster_b = rng.normal([0.7, 0.7], 0.05, size=(10, 2))
        pts = np.clip(np.vstack([cluster_a, cluster_b]), -1, 1)
        box = ParamBox.symmetric_unit(2)
        m = floored_scaled_m(20.0)
        locs, fixed_mask, trace = greedy_init(
            pts, m, cost_ratio=5.0, fixed_locations=np.empty((0, 2)), box=box
        )
        # trace = [seed cost, cost after each insertion]; the loop exits on
        # two consecutive rises and the final two insertions are discarded
        assert trace[-1] > trace[-2] > trace[-3]
        added = len(trace) - 1
        assert locs.shape[0] == 1 + added - 2
        assert not fixed_mask[0] and locs.shape[0] >= 1

    def test_stops_on_the_second_consecutive_rise(self):
        # every insertion costs more than it saves: the first two rise,
        # so the loop stops there and keeps only the seed
        pts = np.array([[0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        box = ParamBox.symmetric_unit(2)
        locs, fixed_mask, trace = greedy_init(
            pts, floored_scaled_m(2.0), cost_ratio=1e3,
            fixed_locations=np.empty((0, 2)), box=box,
        )
        assert len(trace) == 3 and trace[2] > trace[1] > trace[0]
        assert_array_equal(locs, box.center[None])
        assert not fixed_mask[0]

    def test_fixed_locations_not_charged(self):
        pts = np.array([[0.9, 0.9]])
        box = ParamBox.symmetric_unit(2)
        m = floored_scaled_m(3.0)
        locs, fixed_mask, trace = greedy_init(
            pts, m, cost_ratio=100.0, fixed_locations=np.zeros((1, 2)), box=box
        )
        # seed cost charges nothing for the fixed center
        assert_allclose(trace[0], m(pts - np.zeros(2)).sum())
        assert fixed_mask[0]


class TestPlanPlacement:
    def test_concentrated_cheap_landscape_keeps_one(self):
        # high-dimensional isotropic set: distances concentrate, and the
        # uniform iteration count sits far below the build cost
        rng = np.random.default_rng(5)
        dims, n = 25, 60
        pts = rng.uniform(-1, 1, size=(n, dims))
        targets = make_set(pts)
        typical = np.mean(np.linalg.norm(pts, axis=1))
        m = floored_scaled_m(30.0 / typical)  # m(E|X|) ~ 30 < 100
        plan = plan_placement(targets, m, cost_ratio=100.0, seed=0)
        assert plan.n_pc == 1

    def test_expensive_landscape_gives_one_pc_per_point(self):
        rng = np.random.default_rng(6)
        dims, n = 12, 12
        pts = rng.uniform(-1, 1, size=(n, dims))
        targets = make_set(pts)
        typical = np.mean(np.linalg.norm(pts, axis=1))
        m = floored_scaled_m(400.0 / typical)  # m(E|X|) ~ 400 >> 100
        plan = plan_placement(targets, m, cost_ratio=100.0, seed=0)
        assert plan.n_pc == len(targets)
        # every target sits at the metric floor
        assert_allclose(plan.assigned_m, 1.0)

    def test_two_clusters_match_exhaustive_oracle(self):
        rng = np.random.default_rng(7)
        cluster_a = rng.normal([-0.65, -0.65], 0.06, size=(10, 2))
        cluster_b = rng.normal([0.65, 0.65], 0.06, size=(10, 2))
        pts = np.clip(np.vstack([cluster_a, cluster_b]), -1, 1)
        targets = make_set(pts)
        cost_ratio = 5.0
        m = floored_scaled_m(8.0)
        plan = plan_placement(targets, m, cost_ratio=cost_ratio, seed=0)

        # oracle: exhaustive over count in {1,2,3} with candidate centers
        # on a grid, exact allocation
        grid = np.array(
            [
                [a, b]
                for a in np.linspace(-1, 1, 21)
                for b in np.linspace(-1, 1, 21)
            ]
        )
        best = {}
        for k in (1, 2, 3):
            best_cost = np.inf
            # seed candidates from cluster structure to keep this tractable
            pool = np.vstack([grid[::10], pts, [[-0.65, -0.65], [0.65, 0.65]]])
            for combo in itertools.combinations(range(len(pool)), k):
                _, per_m = allocate(pts, pool[list(combo)], m)
                cost = cost_ratio * k + per_m.sum()
                best_cost = min(best_cost, cost)
            best[k] = best_cost
        oracle_k = min(best, key=best.get)
        assert oracle_k == 2
        assert plan.n_pc == 2
        # one preconditioner per cluster
        sides = pts[:, 0] < 0
        assert len(set(plan.assignment[sides])) == 1
        assert len(set(plan.assignment[~sides])) == 1
        assert plan.assignment[0] != plan.assignment[-1]
        # and the realized cost is oracle-competitive
        assert plan.estimated_cost <= best[2] * 1.05

    def test_cost_never_worse_than_greedy_outcome(self):
        rng = np.random.default_rng(8)
        for trial in range(20):
            dims = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(int(rng.integers(5, 40)), dims))
            targets = make_set(pts)
            scale = float(rng.uniform(2.0, 60.0))
            ratio = float(rng.uniform(3.0, 120.0))
            plan = plan_placement(
                targets, floored_scaled_m(scale), cost_ratio=ratio, seed=trial
            )
            # greedy trace after the final drop-2 corresponds to trace[-3]
            assert plan.estimated_cost <= plan.greedy_cost_trace[-3] + 1e-9
            sigma = np.asarray(plan.sigma_m_trace)
            assert np.all(np.diff(sigma) <= 1e-9)

    def test_euclidean_allocation_is_voronoi(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(60, 2))
        targets = make_set(pts)
        plan = plan_placement(targets, euclidean_m, cost_ratio=0.35, seed=0)
        locs = plan.pc_locations
        for i, p in enumerate(pts):
            dists = np.linalg.norm(locs - p, axis=1)
            assert plan.assignment[i] == int(np.argmin(dists))

    def test_fixed_center_survives_and_is_uncharged(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(-0.2, 0.2, size=(12, 2))
        targets = make_set(pts)
        m = floored_scaled_m(4.0)
        plan = plan_placement(
            targets, m, cost_ratio=50.0, pc_fixed=[np.zeros(2)], seed=0
        )
        assert plan.n_pc == 1
        assert plan.fixed_mask[0]
        assert plan.fixed_mask.all()
        assert_allclose(plan.pc_locations[0], 0.0)
        assert_allclose(
            plan.estimated_cost, plan.assigned_m.sum()
        )

    def test_empty_target_set_gets_the_fixed_pcs_only(self):
        # what the pipeline plans when training consumed every target: the
        # fixed preconditioners only, nothing assigned, at no cost
        targets = make_set([[0.5, -0.5]]).without_indices([0])
        centre = np.zeros(2)
        plan = plan_placement(targets, euclidean_m, cost_ratio=50.0, pc_fixed=[centre])
        by_hand = PlacementPlan(
            pc_locations=centre.reshape(1, -1),
            fixed_mask=np.array([True]),
            assignment=np.zeros(0, dtype=int),
            point_indices=np.zeros(0, dtype=int),
            assigned_m=np.zeros(0),
            estimated_cost=0.0,
        )
        assert plan.to_json_dict() == by_hand.to_json_dict()

    def test_sweep_without_a_chargeable_cell_makes_no_m_call(self, monkeypatch):
        # the fixed center serves every target, so the sweep has no cell to
        # move: it runs no descent and keeps its table
        rng = np.random.default_rng(10)
        targets = make_set(rng.uniform(-0.2, 0.2, size=(12, 2)))
        base = floored_scaled_m(4.0)
        calls, runs = [], []

        def counting_m(deltas):
            calls.append(len(deltas))
            return base(deltas)

        real_greedy, real_minimize = placement.greedy_init, placement.minimize

        def watched_greedy(*args):
            out = real_greedy(*args)
            calls.clear()
            return out

        def counting_minimize(*args, **kwargs):
            runs.append(1)
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(placement, "greedy_init", watched_greedy)
        monkeypatch.setattr(placement, "minimize", counting_minimize)
        plan = plan_placement(
            targets, counting_m, cost_ratio=50.0, pc_fixed=[np.zeros(2)], seed=0
        )
        assert plan.fixed_mask.tolist() == [True] and plan.la_iterations == 1
        assert calls == [12]  # the first table; the sweep and the prune reuse it
        assert runs == []

    def test_sweep_recomputes_only_the_moved_columns(self, monkeypatch):
        # each sweep's table is bitwise a fresh one of the moved locations,
        # at one m call per moved column after the last locate
        grid = np.linspace(-1, 1, 7)
        targets = make_set(np.array([[a, b] for a in grid for b in grid]))
        base = iteration_map_m(0.1)
        calls, sweep = [], {"moved": 0, "located": 0}
        checked = []

        def counting_m(deltas):
            calls.append(len(deltas))
            return base(deltas)

        real_locate, real_assign = placement.locate, placement._assign

        def recording_locate(cell, m, box, incumbent, *args):
            sweep["locations"] = incumbent.base  # a row of the planner's array
            before = incumbent.tobytes()
            out = real_locate(cell, m, box, incumbent, *args)
            sweep["moved"] += out[0].tobytes() != before
            sweep["located"] += 1
            calls.clear()
            return out

        def checking_assign(table):
            if sweep["located"]:
                assert calls == [targets.points.shape[0]] * sweep["moved"]
                fresh = placement._metric_table(targets.points, sweep["locations"], base)
                assert table.tobytes() == fresh.tobytes()
                checked.append(sweep["moved"])
            sweep.update(moved=0, located=0)
            return real_assign(table)

        monkeypatch.setattr(placement, "locate", recording_locate)
        monkeypatch.setattr(placement, "_assign", checking_assign)
        plan = plan_placement(targets, counting_m, cost_ratio=30.0, seed=0, n_restarts=2)
        assert len(checked) == plan.la_iterations >= 2
        assert any(checked)

    def test_fixed_locations_from_a_generator(self):
        rng = np.random.default_rng(10)
        targets = make_set(rng.uniform(-0.2, 0.2, size=(12, 2)))
        m = floored_scaled_m(4.0)
        fixed = [np.zeros(2)]
        from_list = plan_placement(targets, m, cost_ratio=50.0, pc_fixed=fixed, seed=0)
        from_generator = plan_placement(
            targets, m, cost_ratio=50.0, pc_fixed=(loc for loc in fixed), seed=0
        )
        assert from_generator.to_json_dict() == from_list.to_json_dict()
        assert from_generator.fixed_mask.tolist() == [True]

    def test_memo_skips_repeated_descents_and_keeps_the_plan(self, monkeypatch):
        grid = np.linspace(-1, 1, 7)
        targets = make_set(np.array([[a, b] for a in grid for b in grid]))
        m = iteration_map_m(0.1)
        real_locate, real_minimize = placement.locate, placement.minimize
        descended, located = [], []

        def counting_minimize(fun, x0, *args, **kwargs):
            cells = kwargs["args"][0]
            descended.extend(
                (cell.tobytes(), start.tobytes())
                for cell, start in zip(cells, np.reshape(x0, (len(cells), -1)))
            )
            return real_minimize(fun, x0, *args, **kwargs)

        def recording_locate(cell, m, box, incumbent, restarts, memo):
            before = len(descended)
            out = real_locate(cell, m, box, incumbent, restarts, memo)
            assert len(descended) == before  # locate starts no descent
            located.append((cell, placement._starts(cell, incumbent, restarts)))
            return out

        monkeypatch.setattr(placement, "minimize", counting_minimize)
        monkeypatch.setattr(placement, "locate", recording_locate)
        plan = plan_placement(targets, m, cost_ratio=30.0, seed=0, n_restarts=2)
        assert plan.la_iterations >= 2
        # each (cell, start) pair descends once per plan; without the memo
        # every distinct start that is not a member would descend each sweep
        assert len(set(descended)) == len(descended)
        unmemoized = sum(
            len({start.tobytes() for start in starts} - {row.tobytes() for row in cell})
            for cell, starts in located
        )
        assert 0 < len(descended) < unmemoized
        # the restarts are drawn from the seed once per located cell, in order
        rng = np.random.default_rng(0)
        for _, starts in located:
            assert_array_equal(starts[2:], rng.uniform(-1, 1, size=(2, 2)))
        # the memo belongs to one call: a second call gives the same plan
        again = plan_placement(targets, m, cost_ratio=30.0, seed=0, n_restarts=2)
        assert again.to_json_dict() == plan.to_json_dict()

    def test_emptied_cell_is_pruned(self, monkeypatch):
        # the first sweep leaves a chargeable preconditioner without a cell;
        # dropping it keeps every assignment and saves one build
        targets = make_set(
            [(-0.7, -0.2), (-0.3, 0.7), (-0.2, -0.8), (0.9, 0.2), (-0.8, -0.8), (-0.1, -0.8)]
        )
        handed_over, real_prune = [], placement._prune

        def watched_prune(table, fixed_mask, assignment, *args):
            handed_over.append((table.shape[1], set(assignment.tolist())))
            return real_prune(table, fixed_mask, assignment, *args)

        monkeypatch.setattr(placement, "_prune", watched_prune)
        plan = plan_placement(
            targets, iteration_map_m(0.65), cost_ratio=19.0, seed=0, n_restarts=0
        )
        ((n_columns, used),) = handed_over
        assert len(used) < n_columns
        assert plan.n_pc == 5
        assert plan.estimated_cost == 115.63169555398927
        assert set(plan.assignment.tolist()) == set(range(plan.n_pc))
        assert np.all(np.diff(plan.sigma_m_trace) <= 0)

    def test_sweep_price_stops_the_sweeps(self):
        grid = np.linspace(-1, 1, 7)
        targets = make_set(np.array([[a, b] for a in grid for b in grid]))
        m = iteration_map_m(0.1)
        calls = []

        def unpayable(total, seconds):
            calls.append((total, seconds))
            return math.inf

        default = plan_placement(targets, m, cost_ratio=30.0, seed=0, n_restarts=2)
        priced = plan_placement(
            targets, m, cost_ratio=30.0, seed=0, sweep_price=unpayable, n_restarts=2
        )
        assert default.la_iterations >= 2
        assert priced.la_iterations == 1
        ((total, seconds),) = calls
        assert total == priced.sigma_m_trace[0] and seconds >= 0

    def test_determinism(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(40, 2))
        targets = make_set(pts)
        m = floored_scaled_m(12.0)
        p1 = plan_placement(targets, m, cost_ratio=20.0, seed=5)
        p2 = plan_placement(targets, m, cost_ratio=20.0, seed=5)
        assert p1.to_json_dict() == p2.to_json_dict()

    def test_plan_serialization_roundtrip(self, tmp_path):
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1, 1, size=(15, 2))
        targets = make_set(pts)
        plan = plan_placement(targets, floored_scaled_m(9.0), cost_ratio=15.0, seed=1)
        path = tmp_path / "plan.json"
        plan.save(path)
        import json

        with open(path) as fh:
            assert json.load(fh) == plan.to_json_dict()
