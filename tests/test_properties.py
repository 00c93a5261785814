"""Hypothesis property tests of invariants the planner relies on."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pcplace.placement import _metric_table, allocate  # noqa: E402
from pcplace.surrogate import IterationMap  # noqa: E402


@st.composite
def instances(draw):
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(1, 20))
    k = draw(st.integers(1, 6))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    points = np.array(draw(st.lists(coord, min_size=n * dims, max_size=n * dims)))
    locations = np.array(draw(st.lists(coord, min_size=k * dims, max_size=k * dims)))
    scale = draw(st.floats(0.5, 20.0))
    return points.reshape(n, dims), locations.reshape(k, dims), scale


@settings(max_examples=60, deadline=None)
@given(instances())
def test_allocate_is_rowwise_first_argmin_of_metric_table(instance):
    points, locations, scale = instance

    def m(deltas):
        # the floor at one iteration makes ties common
        return np.maximum(1.0, scale * np.linalg.norm(deltas, axis=1))

    table = _metric_table(points, locations, m)
    assignment, values = allocate(points, locations, m)
    for i, row in enumerate(table):
        assert assignment[i] == np.flatnonzero(row == row.min())[0]
        assert values[i] == row[assignment[i]]


ITER_MAP = IterationMap(1e-5)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-6, 1.0, exclude_max=True))
def test_alpha_survives_iteration_roundtrip(alpha):
    back = ITER_MAP.alpha_from_iters(ITER_MAP.iters_from_alpha(alpha))
    assert abs(back - alpha) <= 1e-12 * alpha


@settings(max_examples=200, deadline=None)
@given(st.floats(2.0, 1e8))
def test_iterations_survive_alpha_roundtrip(m):
    back = ITER_MAP.iters_from_alpha(ITER_MAP.alpha_from_iters(m))
    assert abs(back - m) <= 1e-12 * m


@pytest.mark.xfail(strict=True, reason="iters_from_alpha cancels below alpha ~ 1e-8")
def test_roundtrip_at_one_iteration():
    # the GP's anchor: alpha_from_iters(1) = 2.5e-11
    alpha = ITER_MAP.alpha_from_iters(1.0)
    back = ITER_MAP.alpha_from_iters(ITER_MAP.iters_from_alpha(alpha))
    assert abs(back - alpha) <= 1e-12 * alpha
