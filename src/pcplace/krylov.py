"""Complex sparse linear algebra: LU preconditioners and counted GMRES.

The solver stack is deliberately small: direct factorizations wrapped as
preconditioners, and a full, non-restarted left-preconditioned GMRES whose
iteration count and preconditioned residual history are the quantities the
rest of the package reasons about.  Its Krylov basis is the rows of one
array that grows with the steps it takes, and each step orthogonalizes by
classical Gram-Schmidt twice (CGS2), two matrix-vector products per pass.  A matrix that commutes with a cyclic shift inside blocks of a
given period and couples neighbouring blocks only (an operator on a
rotation-invariant polar mesh) is factored in the angular Fourier basis:
one tridiagonal band per mode, LAPACK ``zgttrf``.  Every other matrix goes to
SuperLU in symmetric mode (minimum degree on A + A^T, diagonal pivots
preferred).  Iteration counts feed the surrogate; ``CostPolicy`` prices
builds and solves from their nnz or their timings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

__all__ = [
    "SingularMatrixError",
    "BreakdownError",
    "LuPreconditioner",
    "SolveReport",
    "CostPolicy",
    "lu_factor",
    "gmres_left",
    "contraction_factor",
]

# Densification guard for the contraction-factor helper.
_DENSE_GUARD = 2000

# SuperLU keeps a diagonal pivot unless it is below this fraction of the
# largest entry in its column; 0.1 gave 5 % more fill on the k0 = 12 affine
# mesh and the same on the desk mesh.
_DIAG_PIVOT_THRESH = 0.01
# SuperLU relaxed supernodes of at most this many columns: 1 keeps the fill
# and solves the small meshes' factors faster than the default of 20.
_RELAX = 1

# A matrix is rotation invariant when every entry, stored or not, lies
# within this fraction of max|a| of its mean over the cyclic shift; its
# Fourier factors are kept only if they solve a probe vector to
# ``_PROBE_TOL`` relative residual.
_INVARIANCE_TOL = 1e-12
_PROBE_TOL = 1e-10

# Rows of the Krylov basis allocated before the first step; the capacity
# doubles whenever a step fills it.
_BASIS_ROWS = 16


class SingularMatrixError(ValueError):
    """The matrix admits no usable LU factorization."""


class BreakdownError(RuntimeError):
    """GMRES produced a zero Arnoldi vector while the residual is large."""


def as_complex_csr(matrix) -> sp.csr_matrix:
    """Square complex CSR, canonical; any other input is copied, not changed."""
    csr = isinstance(matrix, sp.csr_matrix) and matrix.dtype == np.complex128
    if not (csr and matrix.has_canonical_format):
        matrix = sp.csr_matrix(matrix, dtype=np.complex128, copy=True)
        matrix.sum_duplicates()
    if matrix.shape[0] != matrix.shape[1]:
        raise ValueError("matrix must be square")
    return matrix


class FourierFactors:
    """Band LU of a rotation-invariant block matrix in the angular Fourier basis.

    The matrix has ``n_r`` blocks of ``period`` unknowns (rings of angles,
    ring-major).  A DFT along the angle splits it into ``period``
    independent tridiagonal systems in the ring index, one per mode; they
    are stored mode-major as one tridiagonal matrix and factored by
    ``zgttrf``.  ``solve`` is an FFT along the angle, one ``zgttrs`` over
    every mode and column, and an inverse FFT.  ``L`` (unit diagonal and
    multipliers) and ``U`` (three bands) hold the stored factors, so
    ``L.nnz + U.nnz`` is the fill the solve reads; with row interchanges
    their product is not the banded matrix itself.
    """

    def __init__(self, n_r: int, period: int, bands):
        self.n_r, self.period = n_r, period
        *self._bands, info = lapack.zgttrf(*bands)
        if info > 0:
            raise SingularMatrixError(f"singular Fourier mode (zero pivot {info})")
        if not np.all(np.isfinite(self._bands[1])):
            raise SingularMatrixError("non-finite pivot in U factor")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A⁻¹ rhs for an (n,) or (n, k) right-hand side."""
        b = np.asarray(rhs, dtype=np.complex128)
        n_r, period = self.n_r, self.period
        rings = b.reshape(n_r, period, -1)
        # column-major (n, k), mode-major rows: what zgttrs solves in place
        modes = np.empty(rings.shape[::-1], dtype=np.complex128)
        np.fft.fft(rings, axis=1, out=modes.transpose(2, 1, 0))  # out=: NumPy >= 2.0
        x, info = lapack.zgttrs(*self._bands, modes.reshape(len(modes), -1).T, overwrite_b=1)
        if info:
            raise ValueError(f"zgttrs rejected argument {-info}")
        x = x.T.reshape(modes.shape).transpose(2, 1, 0)
        return np.fft.ifft(x, axis=1).reshape(b.shape)

    @property
    def L(self) -> sp.dia_matrix:
        multipliers = self._bands[0]
        return sp.diags([np.ones(len(multipliers) + 1), multipliers], [0, -1])

    @property
    def U(self) -> sp.dia_matrix:
        _, d, du, du2, _ = self._bands
        return sp.diags([d, du, du2], [0, 1, 2])


@dataclass
class LuPreconditioner:
    """Direct factors of a reference matrix, applied as its inverse.

    ``factors`` is a SuperLU object or, for a rotation-invariant matrix,
    its :class:`FourierFactors`; both provide ``solve``, ``L`` and ``U``.
    """

    factors: spla.SuperLU | FourierFactors
    build_time: float
    nnz: int
    _rhs: np.ndarray | None = field(default=None, init=False, repr=False)
    _image: np.ndarray | None = field(default=None, init=False, repr=False)

    def apply(self, rhs: np.ndarray) -> np.ndarray:
        return self.factors.solve(np.asarray(rhs, dtype=np.complex128))

    def apply_rhs(self, rhs: np.ndarray) -> np.ndarray:
        """P b, read-only and reused while b is bitwise the last one."""
        b = np.ascontiguousarray(rhs, dtype=np.complex128)
        bits = b.view(np.uint64)  # -0.0 and 0.0, or two NaNs, differ here
        if self._rhs is None or not np.array_equal(self._rhs, bits):
            self._image = self.apply(b)
            self._image.flags.writeable = False
            self._rhs = bits.copy()
        return self._image


def _fourier_factors(a: sp.csr_matrix, period) -> FourierFactors | None:
    """Fourier factors of ``a`` with blocks of ``period``, or ``None``.

    ``None`` unless ``period`` divides n (n >= 2, which scipy's ``zgttrf``
    wrapper needs), every entry couples
    blocks at most one apart, every entry equals its mean over the cyclic
    shift inside its block to ``_INVARIANCE_TOL`` · max|a|, and the
    factors solve a probe vector to ``_PROBE_TOL``.
    """
    n = a.shape[0]
    if period is None or n < 2 or n % period or not np.all(np.isfinite(a.data)):
        return None
    n_r = n // period
    coo = a.tocoo()
    ring, angle = np.divmod(coo.row, period)
    ring_to, angle_to = np.divmod(coo.col, period)
    step = ring_to - ring
    if np.any(np.abs(step) > 1):
        return None
    # class (ring, ring step, angle offset); its mean over the cyclic shift
    key = (3 * ring + step + 1) * period + (angle_to - angle) % period
    size = 3 * n
    mean = (
        np.bincount(key, coo.data.real, size) + 1j * np.bincount(key, coo.data.imag, size)
    ) / period
    tol = _INVARIANCE_TOL * np.max(np.abs(coo.data), initial=0.0)
    partial = np.bincount(key, minlength=size) < period  # its other entries are 0
    if not (
        np.max(np.abs(coo.data - mean[key]), initial=0.0) <= tol
        and np.max(np.abs(mean[partial]), initial=0.0) <= tol
    ):
        return None
    # mode k's band, Σ over offsets of mean · e^{2πik·offset/period}, laid out
    # (mode, ring step, ring); the slots of rings -1 and n_r hold exact zeros,
    # which decouple the modes once the rows are taken mode-major
    band = period * np.fft.ifft(mean.reshape(n_r, 3, period), axis=-1).transpose(2, 1, 0)
    sub, diag, sup = (band[:, j].ravel() for j in range(3))
    factors = FourierFactors(n_r, period, (sub[1:], diag, sup[:-1]))
    probe = np.array([1.0, 1j]) @ np.random.default_rng(0).standard_normal((2, n))
    residual = a @ factors.solve(probe) - probe
    if np.linalg.norm(residual) > _PROBE_TOL * np.linalg.norm(probe):
        return None
    return factors


def lu_factor(matrix, period: int | None = None) -> LuPreconditioner:
    """Factor a square complex sparse matrix for use as a preconditioner.

    With ``period``, a matrix of blocks of ``period`` unknowns that is
    invariant under the cyclic shift inside every block and couples
    neighbouring blocks only is factored in the angular Fourier basis
    (:class:`FourierFactors`).  Every other matrix, and one whose Fourier
    factors miss the probe, is factored by SuperLU.  A singular matrix or
    a non-finite pivot raises :class:`SingularMatrixError` on either path.
    """
    a = as_complex_csr(matrix)
    start = time.perf_counter()
    factors = _fourier_factors(a, period) or _superlu(a)
    elapsed = time.perf_counter() - start
    return LuPreconditioner(factors=factors, build_time=elapsed, nnz=a.nnz)


def _superlu(a: sp.csr_matrix) -> spla.SuperLU:
    try:
        # symmetric mode: the Helmholtz matrices are structurally symmetric
        # with a nonzero diagonal, so ordering A + A^T and keeping diagonal
        # pivots cuts the fill by about a quarter against COLAMD
        factors = spla.splu(
            a.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=_DIAG_PIVOT_THRESH,
            relax=_RELAX,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise SingularMatrixError(str(exc)) from exc
    if not np.all(np.isfinite(factors.U.diagonal())):
        raise SingularMatrixError("non-finite pivot in U factor")
    return factors


@dataclass
class SolveReport:
    """Outcome of one preconditioned GMRES solve."""

    solution: np.ndarray
    iterations: int
    converged: bool
    residual_history: list[float]
    krylov_time: float
    true_relative_residual: float = np.nan


def _givens(f: complex, g: float) -> tuple[float, complex]:
    """Rotation (c real, s complex) zeroing g against f; g is real here."""
    if f == 0:
        return 0.0, 1.0 + 0.0j
    r = math.hypot(abs(f), g)
    c = abs(f) / r
    s = (f / abs(f)) * (g / r)
    return c, s


def gmres_left(
    pc: LuPreconditioner,
    matrix,
    rhs: np.ndarray,
    tol: float = 1e-5,
    max_iter: int | None = None,
) -> SolveReport:
    """Full (non-restarted) GMRES on the left-preconditioned system.

    Solves P A x = P b with P the action of ``pc`` and stops when the
    preconditioned relative residual |P(b - A x_m)| / |P b| drops to
    ``tol``.  The residual history holds the relative residuals from the
    rotation recursion, entry 0 being 1.0, so the iteration count equals
    ``len(history) - 1``.  Hitting ``max_iter`` returns an unconverged
    report; a vanishing Arnoldi norm with a large residual, or a
    non-finite |P b| or Arnoldi norm, raises :class:`BreakdownError`.
    ``pc`` provides ``apply`` and ``apply_rhs`` (P b, which may be cached
    and is never written to).

    The Krylov basis is the rows of one C-contiguous array whose capacity
    doubles when a step fills it, so memory follows the steps taken, not
    ``max_iter`` (up to n).  Each step orthogonalizes by classical
    Gram-Schmidt twice (CGS2): two passes of two matrix-vector products
    that update the output of ``pc.apply`` in place.  The Hessenberg
    columns, the Givens rotations and the rotated right-hand side g are
    Python scalars.
    """
    a = as_complex_csr(matrix)
    b = np.asarray(rhs, dtype=np.complex128)
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError("right-hand side does not match the matrix")
    if not 0 < tol < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    if max_iter is None:
        max_iter = n
    max_iter = min(max_iter, n)

    start = time.perf_counter()
    pb = pc.apply_rhs(b)
    beta = float(np.linalg.norm(pb))
    if not math.isfinite(beta):
        raise BreakdownError(f"non-finite norm {beta} of P b at step 0")
    if beta == 0.0:
        return SolveReport(
            solution=np.zeros(n, dtype=np.complex128),
            iterations=0,
            converged=True,
            residual_history=[0.0],
            krylov_time=time.perf_counter() - start,
            true_relative_residual=0.0,
        )

    basis = np.empty((min(max_iter + 1, _BASIS_ROWS), n), dtype=np.complex128)
    np.divide(pb, beta, out=basis[0])
    cols = []  # column j of the rotated Hessenberg matrix, rows 0..j
    cos, sin = [], []
    g = [complex(beta)]
    history = [1.0]

    steps = 0
    breakdown = False
    for j in range(max_iter):
        w = pc.apply(a @ basis[j])
        # Classical Gram-Schmidt with one unconditional re-pass ("twice is
        # enough"): the preconditioned operators here cluster near the
        # identity and a second pass keeps the recursion residual
        # trustworthy.  A pass is h = V^H w, then w -= V h, as two numpy
        # matrix-vector products on the basis rows; conj(V @ conj(w))
        # copies one vector, where V.conj() @ w would copy V.  (SciPy's
        # zgemv runs a second OpenBLAS thread pool beside numpy's: with
        # two BLAS threads it made criterion 9's mean-based run 3-6x slower.)
        v = basis[: j + 1]
        h = np.conj(v @ np.conj(w))
        w -= h @ v
        h2 = np.conj(v @ np.conj(w))
        w -= h2 @ v
        col = (h + h2).tolist()
        wnorm = float(np.linalg.norm(w))
        if not math.isfinite(wnorm):
            raise BreakdownError(f"non-finite Arnoldi norm {wnorm} at step {j + 1}")

        # Apply accumulated rotations to the new column, then a fresh one
        # that zeroes its subdiagonal entry wnorm.
        for i in range(j):
            hi, hi1 = col[i], col[i + 1]
            col[i] = cos[i] * hi + sin[i] * hi1
            col[i + 1] = -sin[i].conjugate() * hi + cos[i] * hi1
        c, s = _givens(col[j], wnorm)
        cos.append(c)
        sin.append(s)
        col[j] = c * col[j] + s * wnorm
        cols.append(col)
        g.append(-s.conjugate() * g[j])
        g[j] = c * g[j]

        steps = j + 1
        rel = abs(g[j + 1]) / beta
        history.append(rel)
        if rel <= tol:
            break
        if wnorm <= 1e-14 * beta:
            breakdown = True
            break
        if steps == len(basis):
            grown = np.empty((min(2 * steps, max_iter + 1), n), dtype=np.complex128)
            grown[:steps] = basis
            basis = grown
        np.divide(w, wnorm, out=basis[steps])

    converged = history[-1] <= tol
    if breakdown and not converged:
        raise BreakdownError(
            f"Arnoldi norm vanished at step {steps} with relative residual "
            f"{history[-1]:.3e} > tol {tol:.1e}"
        )

    # Back-substitute the small triangular system for the minimizer.
    y = [0j] * steps
    for i in range(steps - 1, -1, -1):
        y[i] = (g[i] - sum(cols[k][i] * y[k] for k in range(i + 1, steps))) / cols[i][i]
    x = np.array(y, dtype=np.complex128) @ basis[:steps]
    elapsed = time.perf_counter() - start

    residual = b - a @ x
    bnorm = float(np.linalg.norm(b))
    true_rel = float(np.linalg.norm(residual)) / bnorm
    return SolveReport(
        solution=x,
        iterations=steps,
        converged=converged,
        residual_history=history,
        krylov_time=elapsed,
        true_relative_residual=true_rel,
    )


def contraction_factor(pc: LuPreconditioner, matrix) -> float:
    """Spectral norm of I - P A, computed densely (test helper, small n)."""
    a = as_complex_csr(matrix)
    n = a.shape[0]
    if n > _DENSE_GUARD:
        raise ValueError(f"dense contraction factor limited to n <= {_DENSE_GUARD}")
    pa = pc.apply(a.toarray())
    return float(np.linalg.norm(np.eye(n) - pa, 2))


@dataclass(frozen=True)
class CostPolicy:
    """How solver costs are priced during training and execution.

    ``synthetic`` prices a preconditioner build at ``c_build * nnz`` and a
    Krylov iteration at ``c_iter * nnz`` of the factored matrix, giving
    machine-independent, reproducible cost bookkeeping; ``measured`` uses
    the wall-clock seconds the solver stack recorded.
    """

    mode: str = "synthetic"
    c_build: float = 1e-4
    c_iter: float = 1e-6

    def __post_init__(self):
        if self.mode not in ("measured", "synthetic"):
            raise ValueError("mode must be 'measured' or 'synthetic'")
        if self.c_build <= 0 or self.c_iter <= 0:
            raise ValueError("cost constants must be positive")

    def build_cost(self, pc: LuPreconditioner) -> float:
        """Cost of building ``pc``."""
        if self.mode == "synthetic":
            return self.c_build * pc.nnz
        return pc.build_time

    def solve_cost(self, pc: LuPreconditioner, report: SolveReport) -> float:
        """Cost of the GMRES solve ``report`` preconditioned by ``pc``."""
        if self.mode == "synthetic":
            return self.c_iter * pc.nnz * report.iterations
        return report.krylov_time

    def stage_cost(self, modeled: float, wall: float) -> float:
        """Cost of a whole stage: its modeled cost, or the one its wall time gives."""
        return modeled if self.mode == "synthetic" else wall

    def n_ratio(
        self, build_total: float, n_builds: int, solve_total: float, iterations: float
    ) -> float:
        """Break-even iteration count: one build expressed in iterations.

        Synthetic mode gives the configured ``c_build / c_iter``; measured
        mode divides the mean build cost by the mean cost per iteration.
        """
        if self.mode == "synthetic":
            return self.c_build / self.c_iter
        return (build_total / n_builds) / (solve_total / max(iterations, 1))
