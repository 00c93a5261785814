import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from pcplace.param_space import (
    AnisotropyProfile,
    ParamBox,
    ParamSet,
    WeightMatrix,
    anisotropy_profile,
    batch_weighted_norm,
    weighted_norm,
)


class TestBoxAndSet:
    def test_box_validation(self):
        with pytest.raises(ValueError):
            ParamBox([0.0, 1.0], [1.0, 1.0])
        box = ParamBox.symmetric_unit(3)
        assert box.dims == 3
        assert_allclose(box.center, np.zeros(3))

    def test_set_indices_survive_subsetting(self):
        box = ParamBox.symmetric_unit(2)
        pts = np.array([[0.0, 0.0], [0.5, 0.5], [-1.0, 1.0], [0.2, -0.3]])
        ws = ParamSet(box, pts)
        rest = ws.without_indices([1, 3])
        assert list(rest.indices) == [0, 2]
        assert_allclose(rest.points, pts[[0, 2]])

    def test_set_rejects_outside_points(self):
        box = ParamBox.symmetric_unit(2)
        with pytest.raises(ValueError):
            ParamSet(box, np.array([[0.0, 1.5]]))

    def test_set_rejects_duplicate_indices(self):
        box = ParamBox.symmetric_unit(1)
        with pytest.raises(ValueError):
            ParamSet(box, np.zeros((2, 1)), indices=[0, 0])


class TestWeightedNorm:
    def test_identity_weight_is_euclidean(self):
        m = WeightMatrix(np.eye(2))
        assert_allclose(weighted_norm(np.array([1.0, 2.0]), m), np.sqrt(5.0))

    def test_diagonal_weight(self):
        m = WeightMatrix(np.diag([4.0, 1.0]))
        assert_allclose(weighted_norm(np.array([1.0, 2.0]), m), np.sqrt(8.0))

    def test_zero_vector(self):
        m = WeightMatrix(np.diag([3.0, 7.0, 1.0]))
        assert weighted_norm(np.zeros(3), m) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weighted_norm(np.zeros(3), WeightMatrix(np.eye(2)))

    def test_non_psd_rejected_at_construction(self):
        with pytest.raises(ValueError):
            WeightMatrix(np.diag([1.0, -1.0]))

    def test_triangle_inequality_random_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = rng.integers(1, 6)
            root = rng.standard_normal((dim, dim))
            m = WeightMatrix(root @ root.T)
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            lhs = weighted_norm(a + b, m)
            rhs = weighted_norm(a, m) + weighted_norm(b, m)
            assert lhs <= rhs + 1e-10

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        root = rng.standard_normal((4, 4))
        m = WeightMatrix(root @ root.T)
        deltas = rng.standard_normal((20, 4))
        batch = batch_weighted_norm(deltas, m)
        singles = [weighted_norm(d, m) for d in deltas]
        assert_allclose(batch, singles, atol=1e-12)

    def test_rank_one_weight_accepted(self):
        w = np.array([2.0, 1.0, 0.5])
        m = WeightMatrix(np.outer(w, w))
        delta = np.array([1.0, -1.0, 0.0])
        assert_allclose(weighted_norm(delta, m), abs(w @ delta))


class TestAnisotropyProfile:
    def test_affine_style_lengths(self):
        b = WeightMatrix(np.diag([1.0, 0.25, 0.0625]))
        d = WeightMatrix.zero(3)
        prof = anisotropy_profile(b, d, 0.0, 1.0, 2.0)
        assert_allclose(prof.corr_lengths, [2.0, 4.0, 8.0])

    def test_isotropic(self):
        prof = anisotropy_profile(
            WeightMatrix(np.eye(3)), WeightMatrix(np.eye(3)), 0.5, 0.5, 2.0
        )
        assert_allclose(prof.gamma, np.ones(3))
        assert_allclose(prof.corr_lengths, 2.0 * np.ones(3))

    def test_mixed_weights(self):
        b = WeightMatrix(np.diag([4.0, 1.0]))
        d = WeightMatrix(np.diag([1.0, 4.0]))
        prof = anisotropy_profile(b, d, 1.0, 1.0, 1.0)
        assert_allclose(prof.gamma, [3.0, 3.0])
        assert_allclose(prof.corr_lengths, [1.0, 1.0])

    def test_lengths_never_undercut_diameter(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            diag = rng.uniform(0.1, 5.0, size=4)
            prof = anisotropy_profile(
                WeightMatrix(np.diag(diag)), WeightMatrix.zero(4), 0.0, 1.0, 2.0
            )
            assert np.all(prof.corr_lengths >= prof.domain_diameter - 1e-12)
            assert_allclose(prof.corr_lengths[np.argmax(prof.gamma)], 2.0)

    def test_lengths_derived_from_gamma(self):
        gamma = np.array([0.3, 1.7, 0.9])
        prof = AnisotropyProfile(gamma, 2.5)
        assert_array_equal(prof.corr_lengths, 2.5 * gamma.max() / gamma)
        with pytest.raises(ValueError):
            AnisotropyProfile(np.array([1.0, 0.0]), 2.0)

    def test_dead_dimension_rejected(self):
        b = WeightMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            anisotropy_profile(b, WeightMatrix.zero(2), 0.0, 1.0, 2.0)
