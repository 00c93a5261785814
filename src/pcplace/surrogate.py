"""Gray-box GP surrogate for preconditioned GMRES iteration counts.

The number of iterations needed to solve a system at parameter point y with
a preconditioner built at yhat is modeled through a contraction factor
alpha(y - yhat) in (0, 1): an Elman-type convergence bound turns alpha into
an iteration count

    m = log(tol) / log(2 sqrt(alpha) / (1 + alpha)),

and a Gaussian process learns alpha as a function of the parameter shift.
Prior knowledge enters twice: the prior mean is a pair of weighted norms of
the shift (whose weights come from the problem family), and the kernel is a
sum of per-dimension symmetrized linear-times-exponential kernels whose
correlation lengths encode dimension importance.  Training is active:
points are picked by a variance-per-cost acquisition rule, capped at the
break-even iteration count, and stops under a stabilizing-predictions
criterion.
"""

from __future__ import annotations

import functools
import json
import operator
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import helmholtz
from .krylov import BreakdownError, SingularMatrixError, gmres_left, lu_factor
from .param_space import (
    AnisotropyProfile,
    ParamSet,
    SurrogatePrior,
    WeightMatrix,
    _row_norms,
    batch_weighted_norm,
)

__all__ = [
    "IterationMap",
    "GramFactorizationError",
    "GpState",
    "SpTracker",
    "TrainedSurrogate",
    "prior_mean",
    "kernel_matrix",
    "fit_hyperparameters",
    "train_surrogate_core",
]

# Posterior alpha is clamped into this open interval before the iteration
# map is applied; runaway predictions then yield very large iteration
# counts instead of domain errors.
ALPHA_MIN = 1e-14
ALPHA_MAX = 1.0 - 1e-9


class GramFactorizationError(RuntimeError):
    """Gram matrix stayed indefinite after jitter escalation."""


@dataclass(frozen=True)
class IterationMap:
    """Bijection between contraction factors in (0,1) and iteration counts.

    The roundtrip holds to relative 1e-12 for alpha in [1e-6, 1) and m in
    [2, 1e8].  ``iters_from_alpha`` cancels where (1-s)^2/(1+a) is near 1,
    so it loses digits below alpha of about 1e-8, the GP's one-iteration
    anchor included (strict xfail
    ``tests/test_properties.py::test_roundtrip_at_one_iteration``).
    """

    tol: float = 1e-5

    def __post_init__(self):
        if not 0 < self.tol < 1:
            raise ValueError("tolerance must lie in (0, 1)")

    def iters_from_alpha(self, alpha):
        """Iterations guaranteed to reach ``tol`` at contraction ``alpha``."""
        a = np.asarray(alpha, dtype=float)
        if np.any(a <= 0) or np.any(a >= 1):
            raise ValueError("contraction factor must lie strictly in (0, 1)")
        out = _iterations(a, self.tol)
        return float(out) if np.isscalar(alpha) else out

    def alpha_from_iters(self, m):
        """Inverse map: the contraction factor whose bound equals ``m``."""
        marr = np.asarray(m, dtype=float)
        if np.any(marr <= 0):
            raise ValueError("iteration count must be positive")
        t = np.log(self.tol) / marr
        c = np.exp(t)
        one_minus_c2 = -np.expm1(2 * t)
        s = c / (1 + np.sqrt(one_minus_c2))
        out = s * s
        return float(out) if np.isscalar(m) else out


def _iterations(a: np.ndarray, tol: float) -> np.ndarray:
    """The arithmetic of ``IterationMap.iters_from_alpha``, without its domain check."""
    s = np.sqrt(a)
    # rate = 2 s / (1 + a) = 1 - (1 - s)^2 / (1 + a)
    return np.log(tol) / np.log1p(-((1 - s) ** 2) / (1 + a))


def prior_mean(
    deltas: np.ndarray,
    coeffs: tuple[float, float],
    b_weight: WeightMatrix,
    d_weight: WeightMatrix,
) -> np.ndarray:
    """c1 * |delta|_D + c2 * |delta|_B, elementwise over rows of ``deltas``.

    c1 scales the gradient-coefficient norm (D), c2 the scalar-coefficient
    norm (B); both must be nonnegative.
    """
    c1, c2 = coeffs
    if c1 < 0 or c2 < 0:
        raise ValueError("hyperparameters must be nonnegative")
    d = np.atleast_2d(np.asarray(deltas, dtype=float))
    if d.shape[1] != b_weight.dims or d.shape[1] != d_weight.dims:
        raise ValueError("delta dimension does not match the weight matrix")
    out = _prior_rows(d, c1, c2, b_weight.entries, d_weight.entries)
    return out if np.asarray(deltas).ndim > 1 else float(out[0])


def _prior_rows(d, c1, c2, b_entries, d_entries) -> np.ndarray:
    """The arithmetic of ``prior_mean`` on the rows of ``d``, without its checks.

    ``d_entries`` None skips the D term, which is bitwise neutral where
    that term is zero: c1 * 0 + x = x.
    """
    out = c2 * _row_norms(d, b_entries)
    return out if d_entries is None else c1 * _row_norms(d, d_entries) + out


def pair_kernel(d1, d2, length):
    """Orbit-symmetrized linear times exponential kernel on one dimension.

    Summing the product kernel over coordinated sign flips of both
    arguments gives 2*d1*d2*(exp(-|d1-d2|/l) - exp(-|d1+d2|/l)): zero
    whenever either argument is zero, growing with |d|, and invariant
    under joint negation.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    # x / -l is bitwise -x / l, one pass over the grid fewer
    scale = -np.asarray(length, dtype=float)
    return 2.0 * d1 * d2 * (np.exp(np.abs(d1 - d2) / scale) - np.exp(np.abs(d1 + d2) / scale))


def kernel_matrix(
    x_deltas: np.ndarray, y_deltas: np.ndarray, corr_lengths: np.ndarray
) -> np.ndarray:
    """Full kernel: per-dimension kernels summed over dimensions.

    Each dimension adds one (rows, train) grid, in dimension order, so no
    (rows, train, d) broadcast is built.  Up to seven dimensions this is
    bitwise the sum over such a broadcast's last axis; from eight on,
    numpy sums that axis pairwise and the two differ in the last bits.
    """
    x = np.atleast_2d(np.asarray(x_deltas, dtype=float))
    y = np.atleast_2d(np.asarray(y_deltas, dtype=float))
    lengths = np.broadcast_to(np.asarray(corr_lengths, dtype=float), x.shape[1:])
    return _kernel_rows(x, y.T, lengths)


def _kernel_rows(x: np.ndarray, columns, lengths) -> np.ndarray:
    """The arithmetic of ``kernel_matrix`` against training columns, one per dimension."""
    out = pair_kernel(x[:, :1], columns[0], lengths[0])
    for j in range(1, x.shape[1]):
        out += pair_kernel(x[:, j : j + 1], columns[j], lengths[j])
    return out


def fit_hyperparameters(
    deltas: np.ndarray,
    alphas: np.ndarray,
    b_weight: WeightMatrix,
    d_weight: WeightMatrix,
) -> tuple[tuple[float, float], bool]:
    """Least-squares fit of the prior-mean coefficients to observed alphas.

    The model is linear in (c1, c2) over the design columns
    (|delta|_D, |delta|_B), so the minimizer is closed-form; negativity is
    resolved by picking the best of the single-column and zero fits.
    Returns ``((c1, c2), degenerate)`` where ``degenerate`` flags an
    all-zero design (no usable information; coefficients default to 0).
    """
    d = np.atleast_2d(np.asarray(deltas, dtype=float))
    a = np.asarray(alphas, dtype=float)
    if d.shape[0] != a.size or d.shape[0] < 1:
        raise ValueError("need matching, nonempty training pairs")
    u = batch_weighted_norm(d, d_weight)
    v = batch_weighted_norm(d, b_weight)
    if not u.any() and not v.any():
        return (0.0, 0.0), True

    suu, svv, suv = float(u @ u), float(v @ v), float(u @ v)
    sua, sva = float(u @ a), float(v @ a)
    candidates: list[tuple[float, float]] = []
    det = suu * svv - suv * suv
    if det > 1e-12 * max(suu * svv, 1e-300):
        c1 = (svv * sua - suv * sva) / det
        c2 = (suu * sva - suv * sua) / det
        if c1 >= 0 and c2 >= 0:
            candidates.append((c1, c2))
    if svv > 0:
        candidates.append((0.0, max(0.0, sva / svv)))
    if suu > 0:
        candidates.append((max(0.0, sua / suu), 0.0))
    candidates.append((0.0, 0.0))

    def sse(c):
        resid = c[0] * u + c[1] * v - a
        return float(resid @ resid)

    errs = [sse(c) for c in candidates]
    best = min(errs)
    # Ties (collinear columns) resolve to the earliest candidate, which
    # prefers the full fit, then the B-column-only fit.
    pick = next(c for c, e in zip(candidates, errs) if e <= best + 1e-12 * (1 + best))
    return (float(pick[0]), float(pick[1])), False


class _Fit(NamedTuple):
    """What a ``GpState``'s posterior holds fixed between two fits."""

    d_entries: np.ndarray | None  # None where the D term is zero
    columns: np.ndarray  # training shifts, one contiguous row per dimension
    lengths: tuple[float, ...]
    factor: tuple | None  # jittered Gram Cholesky factor; None before any pair
    weights: np.ndarray | None  # None before any pair


class GpState:
    """Gaussian process over contraction factors on parameter shifts.

    Training inputs are shifts delta = y - ybar; the kernel and the prior
    mean see shifts only, which bakes translation invariance into the
    surrogate.  Everything the posterior holds fixed is one fit (``_Fit``),
    built on first use and dropped by ``add_pair`` and ``refit_coeffs``:
    the jittered Cholesky factor of the Gram matrix (jitter starts at 1e-10
    of its largest diagonal and escalates tenfold at most three times), the
    weights, the training columns and lengths, and D unless its term is
    zero.  ``mean`` and ``posterior`` share one evaluation of the posterior
    mean, so their means agree bitwise; ``posterior`` adds the variance from
    the same cross-kernel.
    """

    def __init__(self, prior: SurrogatePrior, coeffs: tuple[float, float] = (1.0, 1.0)):
        self.prior = prior
        self.coeffs = (float(coeffs[0]), float(coeffs[1]))
        self.deltas = np.empty((0, prior.dims))
        self.alphas = np.empty(0)
        self.jitter: float = 0.0
        self._fit: _Fit | None = None

    @property
    def n_train(self) -> int:
        return self.deltas.shape[0]

    def add_pair(self, delta: np.ndarray, alpha: float) -> None:
        delta = np.asarray(delta, dtype=float).reshape(1, -1)
        if delta.shape[1] != self.prior.dims:
            raise ValueError("shift dimension does not match the prior")
        self.deltas = np.vstack([self.deltas, delta])
        self.alphas = np.append(self.alphas, float(alpha))
        self._fit = None

    def refit_coeffs(self) -> bool:
        """MSE-fit the prior coefficients to the current pairs."""
        coeffs, degenerate = fit_hyperparameters(
            self.deltas, self.alphas, self.prior.b_weight, self.prior.d_weight
        )
        if not degenerate:
            self.coeffs = (float(coeffs[0]), float(coeffs[1]))
            self._fit = None
        return degenerate

    def _fitted(self) -> _Fit:
        """The current fit; the Gram matrix is factored and solved here only."""
        if self._fit is None:
            prior = self.prior
            # checks the coefficients, which the fit's users skip
            mu = prior_mean(self.deltas, self.coeffs, prior.b_weight, prior.d_weight)
            factor = weights = None
            if self.n_train:
                gram = kernel_matrix(self.deltas, self.deltas, prior.profile.corr_lengths)
                jitter = 1e-10 * max(float(gram.diagonal().max()), 1.0)
                for _ in range(4):
                    try:
                        factor = scipy.linalg.cho_factor(
                            gram + jitter * np.eye(self.n_train), lower=True
                        )
                        break
                    except scipy.linalg.LinAlgError:
                        jitter *= 10.0
                else:
                    raise GramFactorizationError(
                        f"Cholesky failed up to jitter {jitter / 10.0:.3e}"
                    )
                self.jitter = jitter
                weights = scipy.linalg.cho_solve(factor, self.alphas - mu)
            d_entries = prior.d_weight.entries
            self._fit = _Fit(
                d_entries if self.coeffs[0] and d_entries.any() else None,
                self.deltas.T.copy(),
                tuple(float(v) for v in prior.profile.corr_lengths),
                factor,
                weights,
            )
        return self._fit

    def _mean_and_cross(self, d: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Posterior mean at the rows of ``d`` and their cross-kernel (``None`` untrained)."""
        fit = self._fitted()
        c1, c2 = self.coeffs
        mu = _prior_rows(d, c1, c2, self.prior.b_weight.entries, fit.d_entries)
        if fit.weights is None:
            return mu, None
        k_cross = _kernel_rows(d, fit.columns, fit.lengths)
        return mu + k_cross @ fit.weights, k_cross

    def mean(self, deltas: np.ndarray) -> np.ndarray:
        """Posterior mean of alpha at the given shifts, without the variance."""
        return self._mean_and_cross(np.atleast_2d(np.asarray(deltas, dtype=float)))[0]

    def posterior(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of alpha at the given shifts."""
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        mean, k_cross = self._mean_and_cross(d)
        k_self = pair_kernel(d, d, self.prior.profile.corr_lengths).sum(axis=1)
        if k_cross is None:
            return mean, np.maximum(k_self, 0.0)
        back = scipy.linalg.cho_solve(self._fitted().factor, k_cross.T)
        var = k_self - np.einsum("ij,ji->i", k_cross, back)
        return mean, np.maximum(var, 0.0)


SP_REL_THRESHOLD = 0.01
SP_ABS_THRESHOLD = 1.0


@dataclass
class SpTracker:
    """Stabilizing-predictions stopping rule on iteration-count surfaces.

    Two consecutive surrogates *agree* at a point when their predictions
    differ by less than ``SP_REL_THRESHOLD`` (1%) relatively or by less than
    ``SP_ABS_THRESHOLD`` (one iteration) absolutely; training stops once the
    mean disagree ratio over the last ``window`` updates falls below 1%.
    """

    window: int = 5
    history: list[float] = field(default_factory=list)

    def update(self, m_old: np.ndarray, m_new: np.ndarray) -> bool:
        old = np.asarray(m_old, dtype=float)
        new = np.asarray(m_new, dtype=float)
        if old.shape != new.shape:
            raise ValueError("prediction vectors must cover the same points")
        diff = np.abs(new - old)
        disagree = (diff >= SP_REL_THRESHOLD * np.abs(old)) & (diff >= SP_ABS_THRESHOLD)
        self.history.append(float(np.mean(disagree)) if old.size else 0.0)
        return self.should_stop

    @property
    def should_stop(self) -> bool:
        if not self.history:
            return False
        tail = self.history[-self.window :]
        return float(np.mean(tail)) < SP_REL_THRESHOLD


@dataclass
class TrainedSurrogate:
    """Frozen result of surrogate training.

    ``expected_iterations`` is the translation-invariant iteration-count
    estimate over parameter shifts; ``m_max`` is the break-even count (one
    preconditioner build expressed in iterations) realized during training.
    """

    gp: GpState
    ybar: np.ndarray
    m_max: float
    iter_map: IterationMap
    evaluated: list[int]
    tau_pc: float
    budget_exhausted: bool = False
    sp_history: list[float] = field(default_factory=list)
    prediction_trace: list[tuple[int, float, float]] = field(default_factory=list)
    solutions: dict[int, np.ndarray] = field(default_factory=dict)
    train_wall_time: float = 0.0
    degenerate_fit: bool = False

    @property
    def tau_krylov(self) -> float:
        """Cost of one Krylov iteration: the reference build over ``m_max``."""
        return self.tau_pc / self.m_max

    def _iterations_at(self, alpha: np.ndarray) -> np.ndarray:
        """The one alpha → iterations path: clip into the map's domain, skip its check."""
        return _iterations(np.clip(alpha, ALPHA_MIN, ALPHA_MAX), self.iter_map.tol)

    def expected_iterations(self, deltas: np.ndarray) -> np.ndarray:
        """Estimated GMRES iterations for the given parameter shifts (>= 1).

        The planner's metric: the GP's posterior mean, without the variance,
        mapped to iterations.
        """
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        m = np.maximum(1.0, self._iterations_at(self.gp.mean(d)))
        return m if np.asarray(deltas).ndim > 1 else float(m[0])

    def acquisition(self, deltas: np.ndarray) -> np.ndarray:
        """Variance-to-cost score, -inf above the break-even cap ``m_max``.

        The variance of the mapped iteration count is approximated with a
        symmetric stencil stepped by the *variance* of alpha (not its
        standard deviation), with the stencil arguments clamped into the
        valid contraction range.
        """
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        mean, var = self.gp.posterior(d)
        e_g = np.maximum(1.0, self._iterations_at(mean))
        v_g = 0.5 * (self._iterations_at(mean + var) - self._iterations_at(mean - var))
        return np.where(e_g <= self.m_max, v_g / e_g, -np.inf)

    def to_json_dict(self) -> dict:
        prior = self.gp.prior
        return {
            "format_version": 1,
            "tol": self.iter_map.tol,
            "ybar": self.ybar.tolist(),
            "m_max": self.m_max,
            "tau_pc": self.tau_pc,
            "tau_krylov": self.tau_krylov,
            "coeffs": list(self.gp.coeffs),
            "train_deltas": self.gp.deltas.tolist(),
            "train_alphas": self.gp.alphas.tolist(),
            "b_weight": prior.b_weight.entries.tolist(),
            "d_weight": prior.d_weight.entries.tolist(),
            "gamma": prior.profile.gamma.tolist(),
            "corr_lengths": prior.profile.corr_lengths.tolist(),
            "domain_diameter": prior.profile.domain_diameter,
            "evaluated": [int(i) for i in self.evaluated],
            "budget_exhausted": self.budget_exhausted,
            "sp_history": self.sp_history,
            "degenerate_fit": self.degenerate_fit,
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "TrainedSurrogate":
        if doc.get("format_version") != 1:
            raise ValueError("unsupported surrogate document version")
        # tau_krylov = tau_pc / m_max prices the planner's sweeps
        for key in ("tau_pc", "m_max"):
            if not float(doc[key]) > 0:
                raise ValueError(f"surrogate document needs a positive '{key}'")
        profile = AnisotropyProfile(np.asarray(doc["gamma"]), float(doc["domain_diameter"]))
        prior = SurrogatePrior(
            WeightMatrix(np.asarray(doc["b_weight"])),
            WeightMatrix(np.asarray(doc["d_weight"])),
            profile,
        )
        ybar = np.asarray(doc["ybar"], dtype=float)
        if ybar.shape != (prior.dims,):
            raise ValueError(f"surrogate document needs a 'ybar' of {prior.dims} entries")
        alphas = np.asarray(doc["train_alphas"], dtype=float)
        # a contraction factor outside (0, 1) has no iteration count
        if alphas.ndim != 1 or not ((alphas > 0) & (alphas < 1)).all():
            raise ValueError("surrogate document needs 'train_alphas' in (0, 1)")
        if len(doc["train_deltas"]) != alphas.size:
            raise ValueError("surrogate document needs one 'train_deltas' row per alpha")
        gp = GpState(prior, tuple(doc["coeffs"]))
        for delta, alpha in zip(doc["train_deltas"], alphas):
            delta = np.asarray(delta, dtype=float)
            if delta.shape != ybar.shape or not np.isfinite(delta).all():
                raise ValueError(
                    f"surrogate document needs finite 'train_deltas' of {prior.dims} entries"
                )
            gp.add_pair(delta, alpha)
        return cls(
            gp=gp,
            ybar=ybar,
            m_max=float(doc["m_max"]),
            iter_map=IterationMap(float(doc["tol"])),
            evaluated=[int(i) for i in doc["evaluated"]],
            tau_pc=float(doc["tau_pc"]),
            budget_exhausted=bool(doc["budget_exhausted"]),
            sp_history=list(doc.get("sp_history", [])),
            degenerate_fit=bool(doc.get("degenerate_fit", False)),
        )

    @classmethod
    def load(cls, path) -> "TrainedSurrogate":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def train_surrogate_core(
    points: ParamSet,
    oracle,
    prior: SurrogatePrior,
    tol: float = 1e-5,
    sp_window: int = 5,
) -> TrainedSurrogate:
    """Active-learning loop against an abstract solve oracle.

    The oracle supplies ``build_reference() -> tau_pc`` (builds the
    reference preconditioner at the set's box center and reports its
    cost), ``solve(position) -> (iterations, solution)`` for a row of
    ``points`` solved with that preconditioner, and ``n_ratio()``, the
    break-even iteration count realized over every build and solve so far.
    That count caps each round's acquisition and becomes ``m_max``.
    Training seeds the GP with the origin pin and the point of smallest
    unit-coefficient prior mean, then alternates acquisition, solve,
    hyperparameter refit and a stabilizing-predictions check.
    """
    if len(points) == 0:
        raise ValueError("cannot train on an empty parameter set")
    start = time.perf_counter()
    iter_map = IterationMap(tol)
    ybar = points.box.center
    deltas_all = points.points - ybar

    gp = GpState(prior, coeffs=(1.0, 1.0))
    # Origin pin: zero shift costs exactly one iteration.  The kernel
    # vanishes at the origin so this pair is inert but keeps the training
    # set honest about m(0) = 1.
    gp.add_pair(np.zeros(points.box.dims), iter_map.alpha_from_iters(1.0))

    tau_pc = float(oracle.build_reference())
    evaluated_pos: list[int] = []
    solutions = {}

    def solve(pos: int) -> float:
        m, solution = oracle.solve(pos)
        evaluated_pos.append(pos)
        if solution is not None:
            solutions[int(points.indices[pos])] = solution
        gp.add_pair(deltas_all[pos], iter_map.alpha_from_iters(m))
        return float(m)

    mu_unit = prior_mean(deltas_all, (1.0, 1.0), prior.b_weight, prior.d_weight)
    solve(int(np.argmin(mu_unit)))
    degenerate = gp.refit_coeffs()

    surrogate = TrainedSurrogate(
        gp=gp,
        ybar=ybar,
        m_max=oracle.n_ratio(),
        iter_map=iter_map,
        evaluated=[],
        tau_pc=tau_pc,
        degenerate_fit=degenerate,
    )
    tracker = SpTracker(window=sp_window)
    prev_m = surrogate.expected_iterations(deltas_all)
    trace: list[tuple[int, float, float]] = []

    budget_exhausted = False
    while True:
        remaining = np.setdiff1d(np.arange(len(points)), evaluated_pos)
        if remaining.size == 0:
            budget_exhausted = True
            break
        scores = surrogate.acquisition(deltas_all[remaining])
        if not np.any(np.isfinite(scores)):
            # Every candidate is expected to cost more than building its
            # own preconditioner; further training cannot pay off.
            break
        pick = int(remaining[int(np.argmax(scores))])
        predicted = float(surrogate.expected_iterations(deltas_all[[pick]])[0])

        m_i = solve(pick)
        surrogate.m_max = oracle.n_ratio()
        degenerate = gp.refit_coeffs() or degenerate
        trace.append((int(points.indices[pick]), predicted, m_i))

        new_m = surrogate.expected_iterations(deltas_all)
        stop = tracker.update(prev_m, new_m)
        prev_m = new_m
        if stop:
            break

    surrogate.evaluated = [int(points.indices[p]) for p in evaluated_pos]
    surrogate.budget_exhausted = budget_exhausted
    surrogate.sp_history = tracker.history
    surrogate.prediction_trace = trace
    surrogate.solutions = solutions
    surrogate.degenerate_fit = degenerate
    surrogate.train_wall_time = time.perf_counter() - start
    return surrogate


def _running_total(costs) -> float:
    """Left-to-right float sum, as a running total adds.

    From Python 3.12 ``sum`` compensates float rounding, which would move
    reported costs in their last bits.
    """
    return functools.reduce(operator.add, costs, 0.0)


class LogRecord(NamedTuple):
    """One preconditioner build or GMRES solve in a ``FemSolveOracle`` log."""

    position: int | None  # row of the target set solved; None for a build
    pc: object  # the solve's per-point preconditioner label; None for a build
    iterations: int
    converged: bool
    cost: float  # priced by the oracle's cost policy
    error: Exception | None = None  # what stopped a failed build or solve


class FemSolveOracle:
    """Every preconditioner build and GMRES solve of one experiment.

    It carries the experiment's problem: the target set, the family, its
    mesh and solver config, and the cost policy that prices each build and
    solve.  ``build`` factors the operator at a parameter point and ``run``
    solves one target with a given preconditioner; each call appends one
    ``LogRecord`` to ``log``, in call order.  A build whose assembly or
    factorization raises, or a solve whose assembly or GMRES raises, is
    logged as unconverged, with its error, at no cost, and the run goes on.
    ``build_reference`` and ``solve`` are the training oracle on top of
    them; a failed training build or solve raises its error.
    """

    def __init__(self, points: ParamSet, family, mesh, cfg, cost_policy):
        self.points = points
        self.family = family
        self.mesh = mesh
        self.cfg = cfg
        self.policy = cost_policy
        self.reference_pc = None
        self.log: list[LogRecord] = []

    def build(self, y):
        """Factor the operator at ``y`` into a preconditioner.

        The period is the mesh's ring length, so an operator that is
        invariant under the mesh's rotation by one angular step is factored
        in the angular Fourier basis.  Returns ``None`` when the build failed.
        """
        try:
            matrix, _ = helmholtz.assemble(y, self.family, self.mesh, self.cfg)
            pc = lu_factor(matrix, period=self.mesh.n_theta)
        except (helmholtz.DegenerateMapError, SingularMatrixError) as exc:
            self.log.append(LogRecord(None, None, 0, False, 0.0, exc))
            return None
        self.log.append(LogRecord(None, None, 0, True, self.policy.build_cost(pc)))
        return pc

    def run(self, position: int, pc, label, error=None):
        """Solve the target at ``position`` with ``pc``, logged under ``label``.

        ``error`` is that of a failed build this solve stands in for: the
        solve's record carries it.  Returns the solve's report, or ``None``
        when the solve failed.
        """
        y = self.points.points[position]
        try:
            matrix, rhs = helmholtz.assemble(y, self.family, self.mesh, self.cfg)
            report = gmres_left(pc, matrix, rhs, tol=self.cfg.tol, max_iter=self.cfg.max_iter)
        except (helmholtz.DegenerateMapError, BreakdownError) as exc:
            self.fail(position, label, exc)
            return None
        cost = self.policy.solve_cost(pc, report)
        self.log.append(
            LogRecord(position, label, report.iterations, report.converged, cost, error)
        )
        return report

    def fail(self, position: int, label, error):
        """Log the target at ``position`` as unsolved, with ``error``, at no cost."""
        self.log.append(LogRecord(position, label, 0, False, 0.0, error))

    def build_reference(self) -> float:
        """Build the training preconditioner at the box center; return its cost."""
        self.reference_pc = self.build(self.points.box.center)
        if self.reference_pc is None:
            raise self.log[-1].error
        return self.log[-1].cost

    def solve(self, position: int):
        """Training solve with the reference preconditioner."""
        report = self.run(position, self.reference_pc, "mean")
        if report is None:
            raise self.log[-1].error
        return report.iterations, report.solution

    def n_ratio(self) -> float:
        """Break-even iteration count realized over every build and solve logged."""
        builds = [r.cost for r in self.log if r.position is None and r.error is None]
        solves = [r for r in self.log if r.position is not None]
        return self.policy.n_ratio(
            _running_total(builds),
            len(builds),
            _running_total(r.cost for r in solves),
            sum(r.iterations for r in solves),
        )
