"""Hypothesis property tests of invariants the planner relies on."""

import tempfile

import jsonschema
import numpy as np
import pytest
import scipy.sparse.linalg as spla

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from scipy.optimize import minimize  # noqa: E402

from pcplace.harness import (  # noqa: E402
    CONFIG_SCHEMA,
    ExperimentConfig,
    baseline_mean_based,
    baseline_per_point,
    load_surrogate,
    run_pipeline,
    sample_parameter_set,
    save_surrogate,
)
from pcplace.helmholtz import (  # noqa: E402
    HelmholtzConfig,
    affine_family,
    assemble,
    build_annulus_mesh,
    max_safe_amplitude,
    shape_family,
)
from pcplace.krylov import gmres_left, lu_factor  # noqa: E402
from pcplace.param_space import ParamBox  # noqa: E402
from pcplace.placement import (  # noqa: E402
    _cell_totals,
    _metric_table,
    _value_and_gradient,
    allocate,
    locate,
)
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


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="iters_from_alpha cancels below alpha ~ 1e-8"
)
def test_roundtrip_at_one_iteration():
    # the GP's anchor: alpha_from_iters(1) = 2.5e-11
    alpha = ITER_MAP.alpha_from_iters(1.0)
    back = ITER_MAP.alpha_from_iters(ITER_MAP.iters_from_alpha(alpha))
    assert abs(back - alpha) <= 1e-12 * alpha


ALPHA_AT_ONE_ITERATION = ITER_MAP.alpha_from_iters(1.0)
MIN_GAP = 1e-3


@st.composite
def cusp_cells(draw):
    """A cell, a PSD weight ``W`` and a slope ``c`` of the contraction factor.

    ``W`` is ``A Aᵀ`` scaled to a largest diagonal entry of 1, with ``A`` of
    rank one or full rank, and ``c >= 0.5``, so a finite-difference step
    (1e-8) along some coordinate leaves the one-iteration floor and sees
    the cusp.  Two members are either equal under ``W`` or ``MIN_GAP``
    apart: members a few finite-difference steps apart can pull a descent
    off a member.
    """
    dims = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    rank = draw(st.sampled_from([1, dims]))
    coord = st.floats(-1.0, 1.0, allow_nan=False)
    cell = np.array(draw(st.lists(coord, min_size=n * dims, max_size=n * dims)))
    factor = np.array(draw(st.lists(coord, min_size=dims * rank, max_size=dims * rank)))
    factor = factor.reshape(dims, rank)
    weight = factor @ factor.T
    hypothesis.assume(np.max(np.diag(weight)) > 1e-3)
    weight /= np.max(np.diag(weight))
    cell = cell.reshape(n, dims)
    gaps = (cell[:, None, :] - cell[None, :, :]).reshape(-1, dims)
    gaps = np.einsum("ij,jk,ik->i", gaps, weight, gaps)
    hypothesis.assume(np.all((gaps == 0) | (gaps >= MIN_GAP**2)))
    c = draw(st.floats(0.5, 50.0))
    return cell, weight, c


def _cusp_metric(weight, c):
    """m of the contraction factor c |delta|_W, floored at one iteration."""

    def m(deltas):
        # the cap keeps m moderate (at most 195): a far member costing
        # thousands of iterations can let the first trial step, a long one,
        # pass the line search's sufficient-decrease test
        norm = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", deltas, weight, deltas), 0.0))
        alpha = np.clip(c * norm, ALPHA_AT_ONE_ITERATION, 0.5)
        return np.maximum(1.0, ITER_MAP.iters_from_alpha(alpha))

    return m


def _descent_end(cell, weight, c, member):
    """Where L-BFGS-B, started at ``member``, leaves the cell total of m."""
    box = ParamBox.symmetric_unit(cell.shape[1])
    res = minimize(
        _value_and_gradient, member, args=([cell], _cusp_metric(weight, c), box),
        method="L-BFGS-B", jac=True, bounds=list(zip(box.lo, box.hi)),
    )
    return res.x


def _locate_and_descent_totals(cell, weight, c, member):
    """Cell totals of ``locate``'s pick (``member`` the incumbent) and of the descent end."""
    m = _cusp_metric(weight, c)
    box = ParamBox.symmetric_unit(cell.shape[1])
    pick, _ = locate(cell, m, box, member, np.empty((0, cell.shape[1])))
    candidates = np.stack([pick, _descent_end(cell, weight, c, member)])
    return _cell_totals([cell], candidates[None], m)[0]


@settings(max_examples=100, deadline=None)
@given(cusp_cells(), st.data())
def test_locate_is_no_worse_than_a_descent_from_a_member(instance, data):
    # what the Weber step's member skip needs: scoring every member loses
    # nothing against descending from one.  A descent from a member need
    # not return its start (the two strict xfails below), but it never
    # ends below the best candidate ``locate`` scores.
    cell, weight, c = instance
    member = cell[data.draw(st.integers(0, cell.shape[0] - 1))]
    picked, descended = _locate_and_descent_totals(cell, weight, c, member)
    assert picked <= descended


@pytest.mark.parametrize(
    "cell, weight, c, member, total",
    [
        # the two instances of the strict xfails below
        (
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.0], [1.0, 0.0]],
            np.outer([1.0, 2.0**-23], [1.0, 2.0**-23]), 1.0, 4, 393.98756118182354,
        ),
        ([[0.01171875], [0.0], [0.0], [0.0], [0.0]], [[1.0]], 36.0, 0, 131.42253303338435),
    ],
)
def test_locate_beats_the_descents_that_leave_a_member(cell, weight, c, member, total):
    cell = np.array(cell)
    picked, descended = _locate_and_descent_totals(cell, np.array(weight), c, cell[member])
    assert picked == total
    assert picked < descended


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a finite-difference step stays in the one-iteration floor",
)
def test_descent_leaves_a_member_in_the_floor_band():
    # An instance the search above can draw.  Along y_2 the weight is
    # 2^-46, so the 1e-8 step moves the member's own alpha by about 1e-15,
    # inside the floor (alpha < alpha_from_iters(1), about 2.5e-11): the
    # member shows no slope there and the other members pull it to
    # [1, -3.4e-5], for a gain of 1.1e-9 iterations.
    cell = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.75, 0.0], [1.0, 0.0]])
    weight = np.outer([1.0, 2.0**-23], [1.0, 2.0**-23])
    member = cell[4]
    assert np.array_equal(_descent_end(cell, weight, 1.0, member), member)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the first line search can land near a heavier cluster",
)
def test_descent_leaves_a_lone_member_for_a_heavier_cluster():
    # An instance the search above can draw.  The first trial step from the
    # lone member runs to the box edge, and the backtracking lands near the
    # four coincident members at 0, where the total is far lower (510.7 at
    # the member, 132.9 at the end); the lone member's cusp never comes
    # into play.
    cell = np.array([[0.01171875], [0.0], [0.0], [0.0], [0.0]])
    member = cell[0]
    assert np.array_equal(_descent_end(cell, np.array([[1.0]]), 36.0, member), member)


# A mesh size h of at most 0.0069 makes a mesh past the node cap (110
# rings of 911 nodes at 0.0069); the coarse draws give h of at least 0.034.
H_PAST_THE_CAP = 0.0069
PAST_THE_CAP = {
    "mesh_size": st.floats(0.0, H_PAST_THE_CAP, exclude_min=True),
    "mesh_constant": st.floats(0.0, 1e-3, exclude_min=True),  # h <= 2.9e-3
    "k0": st.floats(100.0, 1e308),  # h <= 6.0e-3, and 0 once k0^-1.5 underflows
}


@st.composite
def tiny_documents(draw):
    """Schema-valid experiment documents on coarse meshes with a few targets.

    One in five asks for a mesh past the node cap instead.
    """
    dims = draw(st.integers(1, 3))
    if draw(st.booleans()):
        eta = st.floats(0.01, 0.99)
        family = {"kind": "affine", "eta": draw(st.lists(eta, min_size=dims, max_size=dims))}
    else:
        decay = draw(st.floats(1.1, 4.0))
        # a share above 1 is unsafe, which ``from_dict`` rejects
        share = draw(st.floats(0.01, 1.2))
        family = {
            "kind": "shape", "n_dims": dims, "amplitude": share * max_safe_amplitude(decay),
            "decay": decay,
        }
    doc = {
        "family": family,
        "k0": draw(st.floats(0.5, 6.0)),
        "n_points": draw(st.integers(1, 6)),
        "sampling": draw(st.sampled_from(["uniform", "halton", "grid"])),
        "seed": draw(st.integers(0, 3)),
        "tol": draw(st.floats(1e-6, 0.9)),
        "mesh_constant": draw(st.floats(0.5, 6.0)),
        "max_iter": draw(st.sampled_from([None, None, None, 1, 2, 5])),
        "cost": {"c_build": draw(st.sampled_from([1e-6, 1e-5, 1e-4])), "c_iter": 1e-6},
    }
    key = draw(st.sampled_from([None] * 12 + list(PAST_THE_CAP)))
    if key is not None:
        doc[key] = draw(PAST_THE_CAP[key])
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tiny_documents())
def test_a_schema_valid_document_is_rejected_or_runs(doc):
    jsonschema.validate(doc, CONFIG_SCHEMA)
    h = doc.get("mesh_size") or doc["mesh_constant"] * doc["k0"] ** -1.5
    if h <= H_PAST_THE_CAP:
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(doc)
        return
    try:
        exp = ExperimentConfig.from_dict(doc)
    except ValueError:
        return
    targets = sample_parameter_set(exp)
    report, surrogate, _ = run_pipeline(exp)
    reports = [report, baseline_mean_based(exp), baseline_per_point(exp)]
    for report in reports:
        assert len(report.per_point) == len(targets)
        iterations = sum(rec["iterations"] for rec in report.per_point)
        assert np.isfinite(report.cost_total)
        assert report.cost_total == report.n_ratio * report.n_pc + iterations
    # `place` refits the GP from the saved pairs: bitwise the trained one
    with tempfile.TemporaryDirectory() as tmp:
        save_surrogate(exp, surrogate, f"{tmp}/surrogate.json")
        loaded = load_surrogate(exp, f"{tmp}/surrogate.json")
    deltas = targets.points - surrogate.ybar
    assert np.array_equal(loaded.expected_iterations(deltas), surrogate.expected_iterations(deltas))


@st.composite
def invariant_centres(draw):
    """A small mesh, a family whose box centre is rotation invariant on it
    (a shape family, or an affine one with equal amplitudes), and targets."""
    dims = draw(st.integers(1, 3))
    cfg = HelmholtzConfig(k0=draw(st.floats(2.0, 8.0)), mesh_constant=draw(st.floats(1.0, 2.0)))
    if draw(st.booleans()):
        family = affine_family([draw(st.floats(0.05, 0.95))] * dims, cfg)
    else:
        decay = draw(st.floats(1.1, 4.0))
        amplitude = draw(st.floats(0.05, 0.9)) * max_safe_amplitude(decay)
        family = shape_family(dims, amplitude, decay, cfg)
    coord = st.floats(-1.0, 1.0)
    n = draw(st.integers(1, 4))
    targets = np.array(draw(st.lists(coord, min_size=n * dims, max_size=n * dims)))
    return cfg, family, targets.reshape(n, dims)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(invariant_centres())
def test_fourier_preconditioner_takes_superlus_iteration_counts(instance):
    cfg, family, targets = instance
    mesh = build_annulus_mesh(cfg)
    centre, _ = assemble(np.zeros(family.n_dims), family, mesh, cfg)
    fourier = lu_factor(centre, period=mesh.n_theta)
    superlu = lu_factor(centre)
    assert not isinstance(fourier.factors, spla.SuperLU)
    assert isinstance(superlu.factors, spla.SuperLU)
    for y in targets:
        a, b = assemble(y, family, mesh, cfg)
        got = gmres_left(fourier, a, b, tol=cfg.tol)
        want = gmres_left(superlu, a, b, tol=cfg.tol)
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
