import json

import jsonschema
import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from pcplace.harness import (
    ExperimentConfig,
    load_surrogate,
    sample_parameter_set,
    save_surrogate,
    train,
)
from pcplace.helmholtz import max_safe_amplitude
from pcplace.krylov import CostPolicy
from pcplace.param_space import (
    ParamBox,
    ParamSet,
    WeightMatrix,
    anisotropy_profile,
    batch_weighted_norm,
)
from pcplace.surrogate import (
    ALPHA_MAX,
    ALPHA_MIN,
    FemSolveOracle,
    GpState,
    GramFactorizationError,
    IterationMap,
    LogRecord,
    SpTracker,
    SurrogatePrior,
    TrainedSurrogate,
    fit_hyperparameters,
    kernel_matrix,
    pair_kernel,
    prior_mean,
    train_surrogate_core,
)


def make_prior(dims=2, b_diag=None, d_diag=None, diam=2.0):
    b = WeightMatrix(np.diag(b_diag if b_diag is not None else np.ones(dims)))
    d = WeightMatrix(np.diag(d_diag if d_diag is not None else np.ones(dims)))
    c1 = 0.0 if not d.diagonal.any() else 1.0
    prof = anisotropy_profile(b, d, c1, 1.0, diam)
    return SurrogatePrior(b, d, prof)


class TestIterationMap:
    def test_reference_values(self):
        im = IterationMap(1e-5)
        assert_allclose(im.iters_from_alpha(0.5), 195.4938, rtol=1e-5)
        assert_allclose(im.iters_from_alpha(0.1), 20.8019, rtol=1e-5)

    def test_small_alpha_limit(self):
        im = IterationMap(1e-5)
        assert_allclose(im.iters_from_alpha(1e-8), 1.351728, rtol=1e-5)
        assert im.iters_from_alpha(1e-12) < im.iters_from_alpha(1e-8)

    def test_strictly_increasing(self):
        im = IterationMap(1e-5)
        alphas = np.linspace(1e-6, 1 - 1e-6, 500)
        vals = im.iters_from_alpha(alphas)
        assert np.all(np.diff(vals) > 0)

    def test_inverse_reference_values(self):
        im = IterationMap(1e-5)
        assert_allclose(im.alpha_from_iters(1.0), 2.5e-11, rtol=1e-6)
        assert_allclose(im.alpha_from_iters(20.8019), 0.1, rtol=1e-4)
        assert_allclose(im.alpha_from_iters(195.4938), 0.5, rtol=1e-5)

    def test_roundtrip_tight(self):
        im = IterationMap(1e-5)
        for m in (1.0, 2.0, 5.0, 20.80, 195.49, 1e4):
            back = im.iters_from_alpha(im.alpha_from_iters(m))
            assert abs(back - m) / m <= 1e-9

    def test_roundtrip_grid(self):
        im = IterationMap(1e-5)
        ms = np.geomspace(1.0, 1e4, 200)
        back = im.iters_from_alpha(im.alpha_from_iters(ms))
        assert np.max(np.abs(back - ms) / ms) <= 1e-9

    def test_domain_errors(self):
        im = IterationMap(1e-5)
        with pytest.raises(ValueError):
            im.iters_from_alpha(0.0)
        with pytest.raises(ValueError):
            im.iters_from_alpha(1.0)
        with pytest.raises(ValueError):
            im.alpha_from_iters(0.0)


class TestPriorMean:
    def test_zero_shift(self):
        assert prior_mean(np.zeros(3), (1.0, 1.0), *2 * [WeightMatrix(np.eye(3))]) == 0.0

    def test_euclidean_case(self):
        b = WeightMatrix(np.eye(2))
        d = WeightMatrix.zero(2)
        assert_allclose(prior_mean(np.array([3.0, 4.0]), (0.0, 1.0), b, d), 5.0)

    def test_sum_of_norms(self):
        b = d = WeightMatrix(np.eye(2))
        assert_allclose(prior_mean(np.array([1.0, 0.0]), (1.0, 1.0), b, d), 2.0)

    def test_rejects_negative_coeffs(self):
        b = WeightMatrix(np.eye(2))
        with pytest.raises(ValueError):
            prior_mean(np.zeros(2), (-1.0, 0.0), b, b)


class TestKernel:
    def test_vanishes_with_zero_argument(self):
        rng = np.random.default_rng(0)
        for d2 in rng.uniform(-2, 2, size=20):
            assert pair_kernel(0.0, d2, 1.3) == 0.0

    def test_orbit_sum_reference(self):
        # four-term orbit sum at d1 = d2 = 1, length 1: 2(1 - e^-2)
        assert_allclose(pair_kernel(1.0, 1.0, 1.0), 2 * (1 - np.exp(-2)), rtol=1e-12)

    def test_joint_negation_symmetry(self):
        rng = np.random.default_rng(1)
        d1, d2 = rng.uniform(-2, 2, size=(2, 50))
        assert_allclose(pair_kernel(-d1, -d2, 0.7), pair_kernel(d1, d2, 0.7))

    def test_kernel_eval_uses_profile_length(self):
        prior = make_prior(2, b_diag=[1.0, 0.25], d_diag=[0.0, 0.0])
        # second dimension has a doubled correlation length
        assert_allclose(prior.profile.corr_lengths, [2.0, 4.0])
        # the pair kernel vanishes at a zero coordinate, so only the
        # second dimension contributes
        v = kernel_matrix([[0.0, 0.3]], [[0.0, -0.4]], prior.profile.corr_lengths)
        assert_allclose(v, [[pair_kernel(0.3, -0.4, 4.0)]])

    def test_matrix_sums_dimensions(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, size=(4, 3))
        y = rng.uniform(-1, 1, size=(5, 3))
        lengths = np.array([2.0, 3.0, 4.0])
        k = kernel_matrix(x, y, lengths)
        manual = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                manual[i, j] = sum(
                    pair_kernel(x[i, d], y[j, d], lengths[d]) for d in range(3)
                )
        assert_allclose(k, manual, atol=1e-14)

    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5, 6, 7, 8, 12])
    def test_matrix_equals_the_broadcast_sum(self, dims):
        # the (rows, train, d) broadcast summed over its last axis, as the
        # kernel was once built; numpy sums an axis of 8 or more pairwise
        rng = np.random.default_rng(dims)
        x = rng.uniform(-1, 1, size=(330, dims))
        y = rng.uniform(-1, 1, size=(20, dims))
        lengths = rng.uniform(0.5, 6.0, size=dims)
        broadcast = pair_kernel(x[:, None, :], y[None, :, :], lengths).sum(axis=2)
        k = kernel_matrix(x, y, lengths)
        if dims < 8:
            assert k.tobytes() == broadcast.tobytes()
        else:
            assert_allclose(k, broadcast, rtol=1e-14)

    def test_gram_plus_jitter_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n, dims = int(rng.integers(2, 12)), int(rng.integers(1, 5))
            deltas = rng.uniform(-1, 1, size=(n, dims))
            lengths = rng.uniform(2.0, 6.0, size=dims)
            gram = kernel_matrix(deltas, deltas, lengths)
            jitter = 1e-10 * max(gram.diagonal().max(), 1.0)
            np.linalg.cholesky(gram + jitter * np.eye(n))


class TestFitHyperparameters:
    def test_recovers_planted_coefficients(self):
        rng = np.random.default_rng(4)
        b = WeightMatrix(np.diag([1.0, 0.3, 0.8]))
        d = WeightMatrix(np.diag([0.5, 1.0, 0.1]))
        deltas = rng.uniform(-1, 1, size=(30, 3))
        targets = prior_mean(deltas, (2.0, 3.0), b, d)
        (c1, c2), degenerate = fit_hyperparameters(deltas, targets, b, d)
        assert not degenerate
        assert abs(c1 - 2.0) / 2.0 <= 1e-8
        assert abs(c2 - 3.0) / 3.0 <= 1e-8

    def test_zero_design_is_degenerate(self):
        b = d = WeightMatrix(np.eye(2))
        coeffs, degenerate = fit_hyperparameters(
            np.zeros((1, 2)), np.array([0.7]), b, d
        )
        assert degenerate
        assert coeffs == (0.0, 0.0)

    def test_zero_d_weight_fits_single_column(self):
        rng = np.random.default_rng(5)
        b = WeightMatrix(np.diag([1.0, 0.25]))
        d = WeightMatrix.zero(2)
        deltas = rng.uniform(-1, 1, size=(12, 2))
        targets = prior_mean(deltas, (0.0, 1.7), b, d)
        (c1, c2), degenerate = fit_hyperparameters(deltas, targets, b, d)
        assert not degenerate
        assert c1 == 0.0
        assert_allclose(c2, 1.7, rtol=1e-10)

    def test_collinear_columns_prefer_b_term(self):
        # identical B and D norms: only the sum of coefficients is
        # identified, and the convention pushes it onto the B term.
        rng = np.random.default_rng(6)
        b = d = WeightMatrix(np.eye(2))
        deltas = rng.uniform(-1, 1, size=(10, 2))
        targets = prior_mean(deltas, (1.0, 1.0), b, d)
        (c1, c2), _ = fit_hyperparameters(deltas, targets, b, d)
        assert c1 == 0.0
        assert_allclose(c2, 2.0, rtol=1e-10)

    def test_nonnegative_under_negative_trend(self):
        b = WeightMatrix(np.eye(1))
        d = WeightMatrix.zero(1)
        deltas = np.array([[0.5], [1.0]])
        targets = np.array([-0.2, -0.4])
        (c1, c2), _ = fit_hyperparameters(deltas, targets, b, d)
        assert c1 == 0.0 and c2 == 0.0


class TestPosterior:
    def test_interpolates_training_targets(self):
        rng = np.random.default_rng(7)
        prior = make_prior(2)
        gp = GpState(prior, coeffs=(0.0, 0.1))
        deltas = rng.uniform(-1, 1, size=(8, 2))
        targets = rng.uniform(0.01, 0.4, size=8)
        for dl, a in zip(deltas, targets):
            gp.add_pair(dl, a)
        mean, var = gp.posterior(deltas)
        assert np.max(np.abs(mean - targets)) <= 1e-6
        assert np.all(var <= 1e-8)

    def test_zero_variance_and_prior_pull_at_origin(self):
        prior = make_prior(2)
        gp = GpState(prior, coeffs=(0.5, 0.5))
        gp.add_pair(np.zeros(2), 2.5e-11)  # origin pin
        gp.add_pair(np.array([0.5, -0.2]), 0.2)
        mean, var = gp.posterior(np.zeros((1, 2)))
        assert var[0] <= 1e-10
        assert abs(mean[0]) <= 1e-12  # kernel vanishes: prior mean rules

    def test_empty_training_set_returns_prior(self):
        prior = make_prior(2)
        gp = GpState(prior, coeffs=(1.0, 1.0))
        pts = np.array([[0.3, 0.4], [-0.1, 0.9]])
        mean, var = gp.posterior(pts)
        assert_allclose(
            mean, prior_mean(pts, (1.0, 1.0), prior.b_weight, prior.d_weight)
        )
        assert np.all(var > 0)

    @pytest.mark.parametrize("dims", [2, 3])
    def test_prior_variance_is_kernel_diagonal(self, dims):
        rng = np.random.default_rng(9)
        prior = make_prior(dims)
        gp = GpState(prior, coeffs=(1.0, 1.0))
        d = rng.uniform(-1, 1, size=(400, dims))
        _, var = gp.posterior(d)  # no training pairs: var is k(d, d)
        diag = kernel_matrix(d, d, prior.profile.corr_lengths).diagonal()
        assert np.array_equal(var, np.maximum(diag, 0.0))

    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("rows", [1, 7, 100])
    def test_mean_is_posterior_mean_bitwise(self, dims, rows):
        rng = np.random.default_rng(10)
        gp = GpState(make_prior(dims), coeffs=(0.3, 0.2))
        gp.add_pair(np.zeros(dims), 2.5e-11)
        for _ in range(12):
            gp.add_pair(rng.uniform(-1, 1, dims), rng.uniform(0.0, 0.5))
        d = rng.uniform(-1, 1, size=(rows, dims))
        assert np.array_equal(gp.mean(d), gp.posterior(d)[0])

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="pair_kernel depends only on |d1| and |d2|, so sign-flip twins "
        "have one kernel row and the Gram matrix is singular up to jitter",
    )
    def test_interpolates_sign_flip_twins(self):
        # the twins also share their prior mean: today both read 0.045, the
        # average, through weights of about +-5e7
        gp = GpState(make_prior(2), coeffs=(0.0, 0.1))
        gp.add_pair(np.zeros(2), IterationMap().alpha_from_iters(1.0))  # origin pin
        twins = np.array([[0.3, 0.2], [-0.3, 0.2]])
        alphas = np.array([0.04, 0.05])
        for delta, alpha in zip(twins, alphas):
            gp.add_pair(delta, alpha)
        assert_allclose(gp.mean(twins), alphas, rtol=0, atol=1e-6)

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(8)
        prior = make_prior(3)
        gp = GpState(prior)
        for _ in range(10):
            gp.add_pair(rng.uniform(-1, 1, 3), rng.uniform(0.0, 0.5))
        _, var = gp.posterior(rng.uniform(-1, 1, size=(50, 3)))
        assert np.all(var >= 0)


class TestJitterEscalation:
    """A failed Cholesky factorization retries at tenfold jitter, three times at most."""

    @staticmethod
    def _gp_and_start_jitter():
        rng = np.random.default_rng(11)
        gp = GpState(make_prior(2), coeffs=(0.3, 0.2))
        for _ in range(6):
            gp.add_pair(rng.uniform(-1, 1, 2), rng.uniform(0.0, 0.5))
        gram = kernel_matrix(gp.deltas, gp.deltas, gp.prior.profile.corr_lengths)
        return gp, 1e-10 * max(float(gram.diagonal().max()), 1.0)

    @staticmethod
    def _cho_factor_failing(monkeypatch, times):
        """Patch ``scipy.linalg.cho_factor`` to raise on its first ``times`` calls."""
        calls, cho_factor = [], scipy.linalg.cho_factor

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) <= times:
                raise scipy.linalg.LinAlgError("not positive definite")
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", failing)
        return calls

    def test_two_failures_leave_the_jitter_at_a_hundredfold(self, monkeypatch):
        gp, start = self._gp_and_start_jitter()
        calls = self._cho_factor_failing(monkeypatch, 2)
        mean, var = gp.posterior(np.random.default_rng(12).uniform(-1, 1, size=(20, 2)))
        assert len(calls) == 3
        assert gp.jitter == start * 10.0 * 10.0
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))

    def test_four_failures_raise_naming_the_last_jitter(self, monkeypatch):
        gp, start = self._gp_and_start_jitter()
        calls = self._cho_factor_failing(monkeypatch, 4)
        last = start * 10.0 * 10.0 * 10.0
        with pytest.raises(GramFactorizationError, match=f"up to jitter {last:.3e}$"):
            gp.mean(np.zeros((1, 2)))
        assert len(calls) == 4


def public_mean(gp: GpState, d: np.ndarray) -> np.ndarray:
    """The posterior mean through the public functions, factored afresh."""
    prior, lengths = gp.prior, gp.prior.profile.corr_lengths
    mu = prior_mean(d, gp.coeffs, prior.b_weight, prior.d_weight)
    if gp.n_train == 0:
        return mu
    gram = kernel_matrix(gp.deltas, gp.deltas, lengths)
    factor = scipy.linalg.cho_factor(gram + gp.jitter * np.eye(gp.n_train), lower=True)
    resid = gp.alphas - prior_mean(gp.deltas, gp.coeffs, prior.b_weight, prior.d_weight)
    return mu + kernel_matrix(d, gp.deltas, lengths) @ scipy.linalg.cho_solve(factor, resid)


class TestMeanState:
    """The mean state a GP builds once per fit, against a fresh build."""

    FAMILIES = {
        "affine": {"kind": "affine", "eta": [0.8, 0.5]},  # D = 0
        "shape": {  # D = B
            "kind": "shape", "n_dims": 2, "amplitude": 0.5 * max_safe_amplitude(2.0),
            "decay": 2.0,
        },
    }

    @staticmethod
    def surrogate(gp: GpState, evaluated=()) -> TrainedSurrogate:
        return TrainedSurrogate(
            gp=gp, ybar=np.zeros(2), m_max=50.0, iter_map=IterationMap(1e-5),
            evaluated=list(evaluated), tau_pc=1.0,
        )

    @staticmethod
    def assert_public(surr: TrainedSurrogate, d: np.ndarray):
        """The posterior, ``expected_iterations`` and ``acquisition`` equal the checked path."""
        fast = surr.gp.mean(d)  # factors the Gram matrix, which sets the jitter
        mean = public_mean(surr.gp, d)
        assert np.array_equal(fast, mean)
        post_mean, var = surr.gp.posterior(d)
        assert np.array_equal(post_mean, mean)
        im = surr.iter_map
        m = np.maximum(1.0, im.iters_from_alpha(np.clip(mean, ALPHA_MIN, ALPHA_MAX)))
        assert np.array_equal(surr.expected_iterations(d), m)
        hi = im.iters_from_alpha(np.clip(mean + var, ALPHA_MIN, ALPHA_MAX))
        lo = im.iters_from_alpha(np.clip(mean - var, ALPHA_MIN, ALPHA_MAX))
        score = np.where(m <= surr.m_max, 0.5 * (hi - lo) / m, -np.inf)
        assert np.array_equal(surr.acquisition(d), score)

    @staticmethod
    def assert_same(a: TrainedSurrogate, b: TrainedSurrogate, d: np.ndarray):
        assert np.array_equal(a.gp.mean(d), b.gp.mean(d))
        for x, y in zip(a.gp.posterior(d), b.gp.posterior(d)):
            assert np.array_equal(x, y)
        assert np.array_equal(a.expected_iterations(d), b.expected_iterations(d))

    @pytest.mark.parametrize("kind", ["affine", "shape"])
    @pytest.mark.parametrize("rows", [1, 500])
    def test_state_follows_every_pair_and_refit(self, kind, rows, tmp_path):
        # the shifts are the config's targets (ybar = 0), after the origin pin
        exp = ExperimentConfig.from_dict(
            {"family": self.FAMILIES[kind], "k0": 8.0, "n_points": 8, "seed": rows}
        )
        prior = exp.build_family(exp.helmholtz_config()).prior
        probe = np.random.default_rng(rows).uniform(-1, 1, (rows, 2))
        deltas = np.vstack([np.zeros(2), sample_parameter_set(exp).points])
        alphas = 0.4 * np.tanh(np.linalg.norm(deltas, axis=1) ** 3)
        alphas[0] = IterationMap(exp.tol).alpha_from_iters(1.0)

        # in training order, evaluated after every step: a state that
        # add_pair or refit_coeffs leaves stale shows in the next check
        incremental = self.surrogate(GpState(prior), evaluated=range(8))
        self.assert_public(incremental, probe)  # no pair: the D term is live for shape
        for delta, alpha in zip(deltas, alphas):
            incremental.gp.add_pair(delta, alpha)
            self.assert_public(incremental, probe)
            coeffs = incremental.gp.coeffs
            degenerate = incremental.gp.refit_coeffs()
            assert degenerate or incremental.gp.coeffs != coeffs
            self.assert_public(incremental, probe)
        assert not degenerate

        fresh = self.surrogate(GpState(prior, incremental.gp.coeffs))
        for delta, alpha in zip(deltas, alphas):
            fresh.gp.add_pair(delta, alpha)
        self.assert_same(incremental, fresh, probe)

        # one refit of the saved pairs is bitwise the refit after every pair
        save_surrogate(exp, incremental, tmp_path / "surrogate.json")
        back = load_surrogate(exp, tmp_path / "surrogate.json")
        self.assert_same(incremental, back, probe)
        self.assert_public(back, probe)


def synthetic_oracle(points, prior, coeffs, ratio=100.0, noise=None):
    """Oracle whose true iteration counts follow the prior mean exactly.

    An iteration costs 1 and the reference build ``ratio``.
    """
    im = IterationMap(1e-5)
    ybar = points.box.center

    class Oracle:
        def build_reference(self):
            return ratio

        def n_ratio(self):
            return ratio

        def solve(self, position):
            delta = points.points[position] - ybar
            alpha = prior_mean(
                delta.reshape(1, -1), coeffs, prior.b_weight, prior.d_weight
            )[0]
            alpha = min(max(alpha, 1e-13), 1 - 1e-9)
            m = max(1.0, im.iters_from_alpha(alpha))
            if noise is not None:
                m += noise(position)
            return m, None

    return Oracle()


class TestTrainingLoop:
    def test_prior_perfect_data_stops_fast(self):
        rng = np.random.default_rng(9)
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(60, 2)))
        prior = make_prior(2, b_diag=[1.0, 0.25], d_diag=[0.0, 0.0])
        oracle = synthetic_oracle(pts, prior, (0.0, 0.02))
        surr = train_surrogate_core(pts, oracle, prior)
        assert not surr.budget_exhausted
        assert len(surr.evaluated) <= 10
        assert surr.sp_history[-1] < 0.01

    def test_single_point_set(self):
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, np.array([[0.4, -0.6]]))
        prior = make_prior(2)
        oracle = synthetic_oracle(pts, prior, (0.0, 0.05))
        surr = train_surrogate_core(pts, oracle, prior)
        assert surr.budget_exhausted
        assert surr.evaluated == [0]

    def test_evaluated_indices_unique_and_within_set(self):
        rng = np.random.default_rng(10)
        box = ParamBox.symmetric_unit(3)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(40, 3)))
        prior = make_prior(3)
        noisy = synthetic_oracle(
            pts, prior, (0.0, 0.03), noise=lambda p: 3.0 * np.sin(7.0 * p)
        )
        surr = train_surrogate_core(pts, noisy, prior)
        assert len(set(surr.evaluated)) == len(surr.evaluated)
        assert set(surr.evaluated) <= set(pts.indices.tolist())

    def test_oracle_ratio_caps_acquisition(self):
        # a ratio of one iteration prices every candidate out after the
        # first solve, so training stops there with m_max the oracle's ratio
        rng = np.random.default_rng(11)
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(30, 2)))
        prior = make_prior(2)
        surr = train_surrogate_core(
            pts, synthetic_oracle(pts, prior, (0.0, 0.05), ratio=1.0), prior
        )
        assert len(surr.evaluated) == 1 and not surr.budget_exhausted
        assert surr.m_max == 1.0
        assert surr.tau_krylov == surr.tau_pc / surr.m_max

    def test_origin_maps_to_one_iteration(self):
        rng = np.random.default_rng(12)
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(25, 2)))
        prior = make_prior(2)
        surr = train_surrogate_core(pts, synthetic_oracle(pts, prior, (0.0, 0.1)), prior)
        assert_allclose(surr.expected_iterations(np.zeros((1, 2)))[0], 1.0)
        assert np.all(surr.expected_iterations(rng.uniform(-1, 1, (40, 2))) >= 1.0)

    def test_interpolates_observed_counts(self):
        rng = np.random.default_rng(13)
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(30, 2)))
        prior = make_prior(2, b_diag=[1.0, 0.5], d_diag=[0.0, 0.0])
        oracle = synthetic_oracle(
            pts, prior, (0.0, 0.08), noise=lambda p: 2.0 * np.cos(3.0 * p)
        )
        surr = train_surrogate_core(pts, oracle, prior)
        # re-solve one evaluated point with the oracle and compare
        pos = list(pts.indices).index(surr.evaluated[-1])
        m_true, _ = oracle.solve(pos)
        delta = pts.points[pos] - surr.ybar
        m_pred = surr.expected_iterations(delta.reshape(1, -1))[0]
        assert abs(m_pred - m_true) <= 0.5

    def test_ray_monotone_for_pure_prior(self):
        prior = make_prior(2)
        gp = GpState(prior, coeffs=(0.0, 0.05))
        surr = TrainedSurrogate(
            gp=gp,
            ybar=np.zeros(2),
            m_max=100.0,
            iter_map=IterationMap(1e-5),
            evaluated=[],
            tau_pc=100.0,
        )
        direction = np.array([0.6, 0.8])
        ts = np.linspace(0.0, 1.0, 30)
        vals = surr.expected_iterations(ts[:, None] * direction)
        assert np.all(np.diff(vals) >= -1e-12)


class TestAcquisition:
    def _surrogate(self):
        rng = np.random.default_rng(14)
        box = ParamBox.symmetric_unit(2)
        pts = ParamSet(box, rng.uniform(-1, 1, size=(30, 2)))
        prior = make_prior(2)
        oracle = synthetic_oracle(
            pts, prior, (0.0, 0.15), noise=lambda p: 4.0 * np.sin(5.0 * p)
        )
        return train_surrogate_core(pts, oracle, prior)

    def test_cap_gives_minus_infinity(self):
        surr = self._surrogate()
        far = np.array([[1.0, 1.0]])
        surr.m_max = 1.0 + 1e-9
        scores = surr.acquisition(far)
        assert scores[0] == -np.inf

    def test_zero_variance_gives_zero(self):
        surr = self._surrogate()
        # at a training input the posterior variance collapses
        delta = surr.gp.deltas[-1].reshape(1, -1)
        surr.m_max = 1e9
        score = surr.acquisition(delta)[0]
        assert 0.0 <= score <= 1e-4

    def test_monotone_in_variance(self):
        # same posterior mean, larger variance must score higher
        prior = make_prior(1)
        gp = GpState(prior, coeffs=(0.0, 0.2))
        surr = TrainedSurrogate(
            gp=gp,
            ybar=np.zeros(1),
            m_max=1e9,
            iter_map=IterationMap(1e-5),
            evaluated=[],
            tau_pc=100.0,
        )
        im = surr.iter_map

        def score(mean, var):
            e = max(1.0, im.iters_from_alpha(mean))
            v = 0.5 * (
                im.iters_from_alpha(min(mean + var, 1 - 1e-9))
                - im.iters_from_alpha(max(mean - var, 1e-14))
            )
            return v / e

        assert score(0.2, 0.05) > score(0.2, 0.01)


class TestSpTracker:
    def test_identical_predictions_agree(self):
        t = SpTracker()
        m = np.array([5.0, 9.0, 30.0])
        stop = t.update(m, m)
        assert t.history == [0.0]
        assert stop

    def test_half_iteration_shift_agrees(self):
        t = SpTracker()
        m = np.full(10, 40.0)
        t.update(m, m + 0.5)
        assert t.history[-1] == 0.0

    def test_half_points_disagree(self):
        t = SpTracker()
        m_old = np.full(10, 50.0)
        m_new = m_old.copy()
        m_new[:5] *= 1.10  # +10% and +5 iterations
        t.update(m_old, m_new)
        assert t.history[-1] == 0.5

    def test_stop_needs_small_trailing_mean(self):
        t = SpTracker(window=3)
        m = np.full(4, 10.0)
        assert not t.update(m, m * 2.0)
        assert not t.update(m, m * 2.0)
        assert not t.update(m, m)
        assert not t.update(m, m)
        assert t.update(m, m)


class TestOracleRatio:
    """``FemSolveOracle.n_ratio`` aggregates every build and solve in its log."""

    LOG = [
        LogRecord(None, None, 0, True, 0.5),
        LogRecord(0, "mean", 4, True, 0.2),
        LogRecord(None, None, 0, True, 0.25),
        LogRecord(1, 0, 6, False, 0.4),
        LogRecord(2, 1, 0, True, 0.0),
    ]

    def _oracle(self, mode):
        policy = CostPolicy(mode=mode, c_build=1e-5, c_iter=1e-6)
        oracle = FemSolveOracle(None, None, None, None, policy)
        oracle.log = list(self.LOG)
        return oracle

    def test_measured_is_mean_build_over_mean_iteration_cost(self):
        mean_build = (0.5 + 0.25) / 2
        per_iteration = (0.2 + 0.4 + 0.0) / (4 + 6 + 0)
        assert self._oracle("measured").n_ratio() == pytest.approx(
            mean_build / per_iteration, rel=1e-15
        )

    def test_synthetic_is_configured_ratio(self):
        assert self._oracle("synthetic").n_ratio() == 1e-5 / 1e-6

    def test_counts_records_appended_later(self):
        oracle = self._oracle("measured")
        before = oracle.n_ratio()
        oracle.log.append(LogRecord(3, 0, 2, True, 0.8))
        assert oracle.n_ratio() == pytest.approx(0.375 / (1.4 / 12), rel=1e-15)
        assert oracle.n_ratio() < before


def constructed_fields(surr: TrainedSurrogate) -> tuple:
    """Every field ``surrogate_from_pairs`` sets, floats and arrays as their bytes."""
    numbers = (surr.m_max, surr.tau_pc, surr.ybar, surr.gp.coeffs, surr.gp.deltas, surr.gp.alphas)
    return (surr.evaluated, surr.iter_map, surr.degenerate_fit, surr.gp.deltas.shape,
            *(np.asarray(v, dtype=float).tobytes() for v in numbers))


class TestSerialization:
    """``save_surrogate`` / ``load_surrogate`` on a synthetic-oracle training run."""

    def test_a_degenerate_first_refit_loads_as_trained(self, tmp_path):
        # the first pick of a 5 x 5 grid is its centre, zero shift: the first
        # refit is degenerate, the final one is not, and both surrogates say so
        exp = ExperimentConfig.from_dict(
            {"family": {"kind": "affine", "eta": [0.8, 0.5]}, "k0": 12.0, "n_points": 25,
             "sampling": "grid"}
        )
        surr, _ = train(exp)
        save_surrogate(exp, surr, tmp_path / "surrogate.json")
        back = load_surrogate(exp, tmp_path / "surrogate.json")
        assert surr.evaluated[0] == 12 and len(surr.evaluated) > 1
        assert not surr.degenerate_fit
        assert constructed_fields(back) == constructed_fields(surr)

    @staticmethod
    def _trained(seed, n_points, eta, noise=None):
        exp = ExperimentConfig.from_dict(
            {"family": {"kind": "affine", "eta": eta}, "k0": 5.0, "n_points": n_points,
             "seed": seed}
        )
        pts = sample_parameter_set(exp)
        prior = exp.build_family(exp.helmholtz_config()).prior
        oracle = synthetic_oracle(pts, prior, (0.0, 0.05), noise=noise)
        return exp, train_surrogate_core(pts, oracle, prior, tol=exp.tol)

    def test_roundtrip_preserves_predictions(self, tmp_path):
        exp, surr = self._trained(15, 25, [0.8, 0.4], noise=lambda p: np.cos(2.0 * p))
        path = tmp_path / "surrogate.json"
        save_surrogate(exp, surr, path)
        back = load_surrogate(exp, path)
        probe = np.random.default_rng(15).uniform(-1, 1, size=(40, 2))
        assert_array_equal(back.expected_iterations(probe), surr.expected_iterations(probe))
        assert back.m_max == surr.m_max
        assert back.evaluated == surr.evaluated
        assert_array_equal(back.gp.prior.profile.corr_lengths, surr.gp.prior.profile.corr_lengths)

    def _load_doctored(self, tmp_path, key, value):
        """``load_surrogate`` on a saved document whose ``key`` is set to ``value``."""
        exp, surr = self._trained(16, 6, [0.5])
        path = tmp_path / "surrogate.json"
        save_surrogate(exp, surr, path)
        doc = json.loads(path.read_text())
        if isinstance(doc[key], list):
            doc[key][-1] = value
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        return load_surrogate(exp, path)

    @pytest.mark.parametrize("key", ["tau_pc", "m_max"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan")])
    def test_load_rejects_a_non_positive_cost(self, tmp_path, key, value):
        with pytest.raises(jsonschema.ValidationError, match=f"'{key}'"):
            self._load_doctored(tmp_path, key, value)

    @pytest.mark.parametrize(
        "key, last", [("train_alphas", a) for a in (float("nan"), 0.0, 1.0, 1.5, -0.2)]
    )
    def test_load_rejects_malformed_training_data(self, tmp_path, key, last):
        # a contraction factor outside (0, 1) has no iteration count
        with pytest.raises(jsonschema.ValidationError, match=f"'{key}'"):
            self._load_doctored(tmp_path, key, last)
