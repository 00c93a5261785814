import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from pcplace.krylov import (
    BreakdownError,
    CostPolicy,
    LuPreconditioner,
    SingularMatrixError,
    SolveReport,
    as_complex_csr,
    contraction_factor,
    gmres_left,
    lu_factor,
)
from pcplace.surrogate import IterationMap


def random_sparse_complex(rng, n, density=0.4):
    """Well-conditioned random complex CSR: identity plus a damped perturbation."""
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = np.eye(n) + 0.3 * np.where(mask, vals, 0.0) / np.sqrt(n)
    return sp.csr_matrix(a)


def _system(kind, k0, y=None):
    """The family's system (A, b) at ``y`` (its box centre by default) and its mesh."""
    from pcplace.helmholtz import (
        HelmholtzConfig,
        affine_family,
        assemble,
        build_annulus_mesh,
        max_safe_amplitude,
        shape_family,
    )

    cfg = HelmholtzConfig(k0=k0)
    mesh = build_annulus_mesh(cfg)
    if kind == "shape":
        family = shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg)
    else:
        family = affine_family({"equal-eta": [0.5, 0.5, 0.5], "unequal-eta": [0.8, 0.5]}[kind], cfg)
    y = np.zeros(family.n_dims) if y is None else y
    return assemble(y, family, mesh, cfg), mesh


def _operator(kind, k0, y=None):
    """The family's operator at ``y`` (its box centre by default) and its mesh."""
    (a, _), mesh = _system(kind, k0, y)
    return a, mesh


class TestLuFactor:
    def test_identity(self):
        pc = lu_factor(sp.eye(5, format="csr"))
        b = np.arange(1.0, 6.0) + 0j
        assert_allclose(pc.apply(b), b, atol=1e-14)

    def test_complex_diagonal(self):
        pc = lu_factor(sp.diags([2.0, 4.0j]))
        assert_allclose(pc.apply(np.array([2.0, 4.0j])), [1.0, 1.0], atol=1e-14)

    def test_against_dense_inverse(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        a += 2 * np.eye(2)
        pc = lu_factor(sp.csr_matrix(a))
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert np.linalg.norm(a @ pc.apply(b) - b) / np.linalg.norm(b) <= 1e-12

    def test_recovers_random_vectors(self):
        rng = np.random.default_rng(1)
        a = random_sparse_complex(rng, 40)
        pc = lu_factor(a)
        for _ in range(5):
            x = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            b = a @ x
            assert np.linalg.norm(pc.apply(b) - x) / np.linalg.norm(x) <= 1e-12

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            lu_factor(sp.csr_matrix(np.zeros((3, 3))))

    def test_records_build_time_and_source(self):
        pc = lu_factor(sp.eye(4, format="csr"))
        assert pc.build_time >= 0.0

    def test_non_finite_pivot_raises(self):
        a = sp.csr_matrix(np.array([[np.inf, 1.0], [1.0, 1.0]], dtype=complex))
        with pytest.raises(SingularMatrixError, match="non-finite pivot"):
            lu_factor(a)

    def test_zero_diagonal_pivots_off_diagonal(self):
        # symmetric mode prefers diagonal pivots; a zero one must be refused
        rng = np.random.default_rng(10)
        a = random_sparse_complex(rng, 40).tolil()
        a.setdiag(0.0)
        a = a.tocsr()
        a.eliminate_zeros()
        assert not np.any(a.diagonal())
        pc = lu_factor(a)
        b = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        assert np.linalg.norm(a @ pc.apply(b) - b) / np.linalg.norm(b) <= 1e-12

    def test_fill_below_colamd_on_desk_mesh(self):
        a, _ = _operator("shape", 20.0)
        colamd = spla.splu(a.tocsc())
        factors = lu_factor(a).factors
        fill = factors.L.nnz + factors.U.nnz
        assert fill < colamd.L.nnz + colamd.U.nnz


def _ring_laplacian(period, shift):
    """Cyclic second difference on one ring of ``period`` nodes, plus ``shift`` I:
    its constant mode has eigenvalue ``shift``."""
    return sp.diags(
        [[-1.0], -np.ones(period - 1), np.full(period, 2.0 + shift), -np.ones(period - 1), [-1.0]],
        [-(period - 1), -1, 0, 1, period - 1],
        format="csr",
    )


def _relative(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


class TestFourierFactors:
    """Rotation-invariant matrices factored in the angular Fourier basis."""

    @pytest.mark.parametrize(
        "kind, k0", [("shape", 8.0), ("shape", 20.0), ("equal-eta", 8.0)]
    )
    def test_agrees_with_superlu(self, kind, k0):
        a, mesh = _operator(kind, k0)
        pc = lu_factor(a, period=mesh.n_theta)
        ref = lu_factor(a)
        assert not isinstance(pc.factors, spla.SuperLU)
        assert isinstance(ref.factors, spla.SuperLU)
        rng = np.random.default_rng(13)
        n = a.shape[0]
        for shape in [(n,), (n, 3)]:
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            x = pc.apply(b)
            assert x.shape == shape
            assert _relative(x, ref.apply(b)) <= 1e-12
            assert np.array_equal(pc.apply(np.asfortranarray(b)), x)

    def test_exact_preconditioner_identity(self):
        a, mesh = _operator("shape", 8.0)
        pc = lu_factor(a, period=mesh.n_theta)
        assert not isinstance(pc.factors, spla.SuperLU)
        b = np.random.default_rng(14).standard_normal(a.shape[0]) + 0j
        rep = gmres_left(pc, a, b, tol=1e-5)
        assert rep.converged and rep.iterations == 1
        assert contraction_factor(pc, a) <= 1e-12

    @pytest.mark.parametrize(
        "case",
        ["unequal-eta centre", "shape off centre", "random", "no period", "period not dividing n",
         "perturbed entry"],
    )
    def test_falls_back_to_superlu(self, case):
        a, mesh = _operator("unequal-eta" if case == "unequal-eta centre" else "shape", 8.0,
                            np.full(2, 0.3) if case == "shape off centre" else None)
        period = mesh.n_theta
        if case == "random":
            a, period = random_sparse_complex(np.random.default_rng(15), 40), 8
        elif case == "no period":
            period = None
        elif case == "period not dividing n":
            period += 1
            assert a.shape[0] % period
        elif case == "perturbed entry":
            a = a.tolil()
            node = 2 * period + 5  # on the third ring, off the scatterer
            a[node, node] += 1e-10 * np.abs(a.toarray()).max()
        pc = lu_factor(a, period=period)
        assert isinstance(pc.factors, spla.SuperLU)

    def test_falls_back_when_the_probe_misses(self):
        # invariant to within 1e-12 max|a|, but its constant mode is 1e-4:
        # the factors of the shift average miss the probe by about 3e-9
        period = 8
        a = _ring_laplacian(period, 1e-4).tolil()
        a[0, 0] += 1e-12
        assert isinstance(lu_factor(a, period=period).factors, spla.SuperLU)
        exact = lu_factor(_ring_laplacian(period, 1e-4), period=period)
        assert not isinstance(exact.factors, spla.SuperLU)

    @pytest.mark.parametrize("stored", [7, 8])
    def test_an_entry_missing_from_its_class_counts_as_zero(self, stored):
        # offset 2 holds 1e-11 at ``stored`` of the 8 nodes: every stored
        # entry lies within 1e-12 max|a| of the class mean, a missing one not
        period = 8
        a = _ring_laplacian(period, 1.0).tolil()
        for i in range(stored):
            a[i, (i + 2) % period] = 1e-11
        pc = lu_factor(a, period=period)
        assert isinstance(pc.factors, spla.SuperLU) == (stored < period)

    def test_fill_counts_the_stored_bands(self):
        a, mesh = _operator("shape", 8.0)
        factors = lu_factor(a, period=mesh.n_theta).factors
        n = a.shape[0]
        # L: unit diagonal and n - 1 multipliers; U: diagonal, two superdiagonals
        assert factors.L.nnz == 2 * n - 1
        assert factors.U.nnz == 3 * n - 3
        assert factors.L.nnz + factors.U.nnz < lu_factor(a).factors.L.nnz

    def test_singular_mode_raises(self):
        with pytest.raises(SingularMatrixError, match="singular Fourier mode"):
            lu_factor(_ring_laplacian(8, 0.0), period=8)


class TestGmresLeft:
    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(2)
        a = random_sparse_complex(rng, 30)
        pc = lu_factor(a)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        rep = gmres_left(pc, a, b, tol=1e-5)
        assert rep.converged
        assert rep.iterations == 1
        assert len(rep.residual_history) == 2

    def test_two_distinct_eigenvalues_two_iterations(self):
        a = sp.diags([2.0, 1.0]).tocsr()
        pc = lu_factor(sp.eye(2, format="csr"))
        b = np.array([1.0, 1.0], dtype=complex)
        rep = gmres_left(pc, a, b, tol=1e-5)
        assert rep.converged
        assert rep.iterations == 2
        assert_allclose(rep.solution, np.linalg.solve(a.toarray(), b), atol=1e-10)

    def test_zero_rhs(self):
        a = sp.eye(4, format="csr")
        pc = lu_factor(a)
        rep = gmres_left(pc, a, np.zeros(4, dtype=complex))
        assert rep.converged
        assert rep.iterations == 0
        assert rep.residual_history == [0.0]
        assert_allclose(rep.solution, 0.0)

    def test_max_iter_reached_is_report_not_error(self):
        rng = np.random.default_rng(3)
        a = random_sparse_complex(rng, 25)
        pc = lu_factor(sp.eye(25, format="csr"))
        b = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        rep = gmres_left(pc, a, b, tol=1e-14, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2

    def test_history_monotone_and_iterations_match(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.integers(5, 60))
            a = random_sparse_complex(rng, n)
            pc = lu_factor(sp.eye(n, format="csr"))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rep = gmres_left(pc, a, b, tol=1e-8)
            hist = np.array(rep.residual_history)
            assert rep.iterations == len(hist) - 1
            assert np.all(np.diff(hist) <= 1e-12)

    def test_storage_grows_with_the_steps(self):
        # spread eigenvalues and an identity preconditioner take dozens of
        # steps, each adding one basis vector and one Hessenberg column
        n = 150
        a = sp.diags(np.linspace(1.0, 200.0, n) * np.exp(0.3j)).tocsr()
        pc = lu_factor(sp.eye(n, format="csr"))
        b = np.ones(n, dtype=complex)
        rep = gmres_left(pc, a, b, tol=1e-10)
        assert rep.converged and rep.iterations > 64
        assert_allclose(rep.solution, b / a.diagonal(), rtol=1e-8)

    def test_default_max_iter_at_k0_40(self):
        # n = 48,972: a basis sized by the default max_iter = n would need
        # about 36 GiB; the solve itself takes a few dozen vectors
        from pcplace.helmholtz import (
            HelmholtzConfig,
            assemble,
            build_annulus_mesh,
            max_safe_amplitude,
            shape_family,
        )

        cfg = HelmholtzConfig(k0=40.0)
        mesh = build_annulus_mesh(cfg)
        family = shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg)
        pc = lu_factor(assemble(np.zeros(2), family, mesh, cfg)[0])
        a, b = assemble(np.ones(2), family, mesh, cfg)
        assert cfg.max_iter is None
        rep = gmres_left(pc, a, b, tol=cfg.tol, max_iter=cfg.max_iter)
        assert rep.converged
        assert rep.true_relative_residual <= 10 * cfg.tol

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n = int(rng.integers(10, 200))
            a = random_sparse_complex(rng, n, density=0.2)
            pc = lu_factor(sp.diags(a.diagonal()).tocsr())
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            tol = 1e-8
            rep = gmres_left(pc, a, b, tol=tol)
            assert rep.converged
            exact = np.linalg.solve(a.toarray(), b)
            err = np.linalg.norm(rep.solution - exact) / np.linalg.norm(exact)
            assert err <= 10 * tol

    def test_lucky_breakdown_converges(self):
        # the rhs is an eigenvector: K_1 is invariant, the residual hits 0
        # at step 1, so the zero Arnoldi norm is a lucky breakdown
        a = sp.csr_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        pc = lu_factor(sp.eye(2, format="csr"))
        b = np.array([1.0, 0.0], dtype=complex)
        rep = gmres_left(pc, a, b, tol=1e-5)
        assert rep.converged and rep.iterations == 1

    def test_breakdown_with_large_residual_raises(self):
        # a nilpotent preconditioner action annihilates the first Krylov
        # vector: the Arnoldi norm vanishes while the recursion residual
        # is still 1, which is a genuine numerical breakdown
        class NilpotentAction:
            def apply(self, vec):
                out = np.zeros_like(np.asarray(vec, dtype=complex))
                out[0] = vec[1]
                return out

            apply_rhs = apply

        a = sp.eye(2, format="csr")
        b = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(BreakdownError):
            gmres_left(NilpotentAction(), a, b, tol=1e-5)

    def test_records_both_residuals(self):
        rng = np.random.default_rng(6)
        a = random_sparse_complex(rng, 20)
        pc = lu_factor(sp.eye(20, format="csr"))
        b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        rep = gmres_left(pc, a, b, tol=1e-6)
        pre_rel = np.linalg.norm(pc.apply(b - a @ rep.solution)) / np.linalg.norm(
            pc.apply(b)
        )
        assert pre_rel <= 1e-5
        assert rep.true_relative_residual <= 1e-4

    def test_non_finite_rhs_raises_at_step_0(self):
        a = sp.eye(3000, format="csr")
        pc = CountingApplies(lu_factor(a))
        b = np.ones(3000, dtype=complex)
        b[7] = np.nan
        with pytest.raises(BreakdownError, match="at step 0"):
            gmres_left(pc, a, b, tol=1e-5)
        assert pc.applies == 0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_non_finite_apply_raises_at_its_step(self):
        # spread eigenvalues take dozens of steps; the third apply returns inf
        n = 3000
        a = sp.diags(np.linspace(1.0, 200.0, n) * np.exp(0.3j)).tocsr()
        pc = CountingApplies(lu_factor(sp.eye(n, format="csr")), poison_at=3)
        with pytest.raises(BreakdownError, match="at step 3"):
            gmres_left(pc, a, np.ones(n, dtype=complex), tol=1e-10)
        assert pc.applies == 3

    def test_memory_follows_the_steps_taken(self):
        # max_iter = n would size a 6.4 GB basis; the solve takes a few dozen
        # steps, and its peak allocation stays a few bases of that many rows
        n = 20_000
        a = sp.diags(np.linspace(1.0, 10.0, n) * np.exp(0.3j)).tocsr()
        pc = lu_factor(sp.eye(n, format="csr"))
        b = np.ones(n, dtype=complex)
        pc.apply_rhs(b)
        tracemalloc.start()
        try:
            rep = gmres_left(pc, a, b, tol=1e-10, max_iter=None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.converged and 20 < rep.iterations < 100
        assert peak <= 4 * (rep.iterations + 1) * n * 16


class CountingApplies:
    """A preconditioner that counts its applies; apply ``poison_at`` returns inf."""

    def __init__(self, pc, poison_at=None):
        self.pc, self.poison_at, self.applies = pc, poison_at, 0

    def apply(self, vec):
        self.applies += 1
        out = self.pc.apply(vec)
        if self.applies == self.poison_at:
            out[0] = np.inf
        return out

    def apply_rhs(self, rhs):
        return self.pc.apply_rhs(rhs)


def _gmres_mgs2(pc, a, b, tol):
    """Reference GMRES: modified Gram-Schmidt with one re-pass, one vector at a
    time.  Returns the iteration count and the recursion residual history."""
    pb = pc.apply_rhs(b)
    beta = np.linalg.norm(pb)
    basis, cos, sin = [pb / beta], [], []
    g = [np.complex128(beta)]
    history = [1.0]
    for j in range(a.shape[0]):
        w = pc.apply(a @ basis[j])
        col = np.zeros(j + 1, dtype=np.complex128)
        for _ in range(2):
            for i in range(j + 1):
                h = np.vdot(basis[i], w)
                col[i] += h
                w -= h * basis[i]
        wnorm = np.linalg.norm(w)
        for i in range(j):
            hi, hi1 = col[i], col[i + 1]
            col[i] = cos[i] * hi + sin[i] * hi1
            col[i + 1] = -np.conj(sin[i]) * hi + cos[i] * hi1
        f = col[j]
        r = np.hypot(abs(f), wnorm)
        cos.append(abs(f) / r)
        sin.append((f / abs(f)) * (wnorm / r))
        g.append(-np.conj(sin[j]) * g[j])
        g[j] = cos[j] * g[j]
        history.append(float(abs(g[j + 1]) / beta))
        if history[-1] <= tol:
            break
        basis.append(w / wnorm)
    return len(history) - 1, history


class TestAgainstMgs2:
    """Classical Gram-Schmidt twice matches the modified Gram-Schmidt it replaced."""

    @staticmethod
    def _assert_same(pc, a, b, tol):
        iterations, history = _gmres_mgs2(pc, a, b, tol)
        rep = gmres_left(pc, a, b, tol=tol)
        assert rep.iterations == iterations
        assert_allclose(rep.residual_history, history, rtol=1e-10, atol=0)

    def test_random_problems(self):
        rng = np.random.default_rng(15)
        for trial in range(24):
            n = int(rng.integers(10, 300))
            a = random_sparse_complex(rng, n, density=0.2)
            if trial % 2:
                pc = lu_factor(sp.diags(a.diagonal()).tocsr())
            else:
                pc = lu_factor(sp.eye(n, format="csr"))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            self._assert_same(pc, a, b, 1e-8)

    def test_desk_mesh_at_a_grid_corner(self):
        (a0, _), mesh = _system("shape", 20.0)
        (a, b), _ = _system("shape", 20.0, np.array([1.0, -1.0]))
        self._assert_same(lu_factor(a0, period=mesh.n_theta), a, b, 1e-5)


class CountingFactors:
    """SuperLU factors that count their solves."""

    def __init__(self, factors):
        self.factors, self.solves = factors, 0

    def solve(self, rhs):
        self.solves += 1
        return self.factors.solve(rhs)


class TestRhsReuse:
    def test_shared_pc_matches_fresh_pc_bitwise(self):
        rng = np.random.default_rng(11)
        a0 = random_sparse_complex(rng, 30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        shared = lu_factor(a0)
        for _ in range(4):
            a = a0 + 0.2 * random_sparse_complex(rng, 30)
            got = gmres_left(shared, a, b.copy(), tol=1e-8)
            want = gmres_left(lu_factor(a0), a, b.copy(), tol=1e-8)
            assert np.array_equal(got.solution, want.solution)
            assert got.residual_history == want.residual_history
            assert got.iterations == want.iterations
            assert got.true_relative_residual == want.true_relative_residual

    def test_one_rhs_solve_per_preconditioner(self):
        rng = np.random.default_rng(12)
        a0 = random_sparse_complex(rng, 30)
        b = rng.standard_normal(30) + 1j * rng.standard_normal(30)
        b[0] = 0.0
        pc = lu_factor(a0)
        pc.factors = counter = CountingFactors(pc.factors)
        iterations = 0
        for _ in range(3):
            a = a0 + 0.2 * random_sparse_complex(rng, 30)
            iterations += gmres_left(pc, a, b.copy(), tol=1e-8).iterations
        assert counter.solves == iterations + 1
        # -0.0 equals 0.0 but is another right-hand side bit for bit
        signed = b.copy()
        signed[0] = -0.0
        iterations += gmres_left(pc, a0, signed, tol=1e-8).iterations
        assert counter.solves == iterations + 2
        assert not pc.apply_rhs(signed).flags.writeable

    def test_as_complex_csr_copies_only_when_needed(self):
        canonical = sp.csr_matrix(np.eye(3, dtype=complex))
        assert as_complex_csr(canonical) is canonical

        real = sp.csr_matrix(np.eye(3))
        out = as_complex_csr(real)
        assert out is not real and out.dtype == np.complex128
        assert real.dtype == np.float64

        # unsorted column indices with a duplicate entry in row 0
        data, indices, indptr = np.array([1.0, 2.0, 3.0 + 0j]), [1, 0, 1], [0, 3, 3]
        raw = sp.csr_matrix((data, indices, indptr), shape=(2, 2))
        out = as_complex_csr(raw)
        assert out is not raw and out.has_canonical_format
        assert_allclose(out.toarray(), [[2.0, 4.0], [0.0, 0.0]])
        assert raw.indices.tolist() == indices and raw.data.tolist() == data.tolist()
        assert raw.indptr.tolist() == indptr


class TestContractionFactor:
    def test_exact_preconditioner_zero(self):
        rng = np.random.default_rng(7)
        a = random_sparse_complex(rng, 15)
        assert contraction_factor(lu_factor(a), a) <= 1e-12

    def test_diagonal_example(self):
        a = sp.diags([1.0, 1.5]).tocsr()
        pc = lu_factor(sp.eye(2, format="csr"))
        assert_allclose(contraction_factor(pc, a), 0.5, atol=1e-12)

    def test_shrinks_with_perturbation(self):
        rng = np.random.default_rng(8)
        a0 = random_sparse_complex(rng, 12)
        pc = lu_factor(a0)
        e = sp.csr_matrix(
            rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        )
        values = [
            contraction_factor(pc, a0 + eps * e) for eps in (0.1, 0.01, 0.001)
        ]
        assert values[0] > values[1] > values[2]

    def test_guard_on_large_matrices(self):
        a = sp.eye(2001, format="csr")
        with pytest.raises(ValueError):
            contraction_factor(lu_factor(sp.eye(2001, format="csr")), a)


class TestElmanBound:
    def test_iterations_never_exceed_bound(self):
        # alpha = |I - PA| < 1 guarantees GMRES reaches tol within
        # ceil(g(alpha)) steps; zero violations allowed.
        rng = np.random.default_rng(9)
        gmap = IterationMap(1e-5)
        tol = 1e-5
        for _ in range(200):
            n = int(rng.integers(4, 100))
            target = rng.uniform(0.05, 0.95)
            r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r *= target / np.linalg.norm(r, 2)
            a = sp.csr_matrix(np.eye(n) + r)
            pc = lu_factor(sp.eye(n, format="csr"))
            alpha = contraction_factor(pc, a)
            assert alpha < 1
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rep = gmres_left(pc, a, b, tol=tol)
            assert rep.converged
            bound = int(np.ceil(gmap.iters_from_alpha(alpha)))
            assert rep.iterations <= bound


def priced_pc():
    return LuPreconditioner(factors=None, build_time=0.028, nnz=41_850)


def priced_solve():
    return SolveReport(
        solution=np.zeros(1, dtype=complex),
        iterations=15,
        converged=True,
        residual_history=[1.0] * 16,
        krylov_time=0.0125,
    )


class TestCostPolicy:
    SYNTHETIC = CostPolicy("synthetic", c_build=1e-5, c_iter=1e-6)
    MEASURED = CostPolicy("measured", c_build=1e-5, c_iter=1e-6)

    def test_synthetic_prices_by_nnz(self):
        pc, rep = priced_pc(), priced_solve()
        p = self.SYNTHETIC
        # bit for bit, multiplied left to right: at 15 iterations
        # c_iter * (nnz * 15) rounds differently
        assert p.build_cost(pc) == 1e-5 * 41_850
        assert p.solve_cost(pc, rep) == 1e-6 * 41_850 * 15
        assert p.stage_cost(3.5, 99.0) == 3.5
        assert p.n_ratio(1.0, 4, 2.0, 30) == 1e-5 / 1e-6

    def test_measured_returns_timings(self):
        pc, rep = priced_pc(), priced_solve()
        p = self.MEASURED
        assert p.build_cost(pc) == 0.028
        assert p.solve_cost(pc, rep) == 0.0125
        assert p.stage_cost(3.5, 99.0) == 99.0
        # mean build cost over mean cost per iteration
        assert_allclose(p.n_ratio(0.12, 4, 0.6, 30), (0.12 / 4) / (0.6 / 30))

    def test_measured_ratio_guarded_at_zero_iterations(self):
        assert self.MEASURED.n_ratio(0.12, 4, 0.6, 0) == (0.12 / 4) / 0.6

    @pytest.mark.parametrize(
        "kwargs",
        [{"mode": "wallclock"}, {"c_build": 0.0}, {"c_iter": -1e-6}],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            CostPolicy(**kwargs)
