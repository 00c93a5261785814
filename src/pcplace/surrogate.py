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

import json
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import helmholtz
from .krylov import gmres_left, lu_factor
from .param_space import (
    AnisotropyProfile,
    ParamSet,
    WeightMatrix,
    batch_weighted_norm,
)

__all__ = [
    "IterationMap",
    "SurrogatePrior",
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

    Both directions are evaluated in cancellation-free forms so the
    roundtrip is tight (relative 1e-12 over the useful range).
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
        s = np.sqrt(a)
        # rate = 2 s / (1 + a) = 1 - (1 - s)^2 / (1 + a)
        out = np.log(self.tol) / np.log1p(-((1 - s) ** 2) / (1 + a))
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


@dataclass(frozen=True)
class SurrogatePrior:
    """Weighted-norm prior structure shared by mean and kernel."""

    b_weight: WeightMatrix
    d_weight: WeightMatrix
    profile: AnisotropyProfile

    def __post_init__(self):
        if not (
            self.b_weight.dims == self.d_weight.dims == self.profile.dims
        ):
            raise ValueError("prior components must share a dimension")

    @property
    def dims(self) -> int:
        return self.b_weight.dims


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
    out = c1 * batch_weighted_norm(d, d_weight) + c2 * batch_weighted_norm(d, b_weight)
    return out if np.asarray(deltas).ndim > 1 else float(out[0])


def pair_kernel(d1, d2, length):
    """Orbit-symmetrized linear times exponential kernel on one dimension.

    Summing the product kernel over coordinated sign flips of both
    arguments gives 2*d1*d2*(exp(-|d1-d2|/l) - exp(-|d1+d2|/l)): zero
    whenever either argument is zero, growing with |d|, and invariant
    under joint negation.
    """
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    return (
        2.0
        * d1
        * d2
        * (np.exp(-np.abs(d1 - d2) / length) - np.exp(-np.abs(d1 + d2) / length))
    )


def kernel_matrix(
    x_deltas: np.ndarray, y_deltas: np.ndarray, corr_lengths: np.ndarray
) -> np.ndarray:
    """Full kernel: per-dimension kernels summed over dimensions."""
    x = np.atleast_2d(np.asarray(x_deltas, dtype=float))[:, None, :]
    y = np.atleast_2d(np.asarray(y_deltas, dtype=float))[None, :, :]
    terms = pair_kernel(x, y, np.asarray(corr_lengths, dtype=float))
    return terms.sum(axis=2)


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


class GpState:
    """Gaussian process over contraction factors on parameter shifts.

    Training inputs are shifts delta = y - ybar; the kernel and the prior
    mean see shifts only, which bakes translation invariance into the
    surrogate.  The Gram factorization is cached and refreshed when points
    are added; jitter starts at 1e-10 of the largest Gram diagonal and
    escalates tenfold at most three times.
    """

    def __init__(self, prior: SurrogatePrior, coeffs: tuple[float, float] = (1.0, 1.0)):
        self.prior = prior
        self.coeffs = (float(coeffs[0]), float(coeffs[1]))
        self.deltas = np.empty((0, prior.dims))
        self.alphas = np.empty(0)
        self.jitter: float = 0.0
        self._factor = None
        self._weights = None

    @property
    def n_train(self) -> int:
        return self.deltas.shape[0]

    def add_pair(self, delta: np.ndarray, alpha: float) -> None:
        delta = np.asarray(delta, dtype=float).reshape(1, -1)
        if delta.shape[1] != self.prior.dims:
            raise ValueError("shift dimension does not match the prior")
        self.deltas = np.vstack([self.deltas, delta])
        self.alphas = np.append(self.alphas, float(alpha))
        self._factor = None
        self._weights = None

    def set_coeffs(self, coeffs: tuple[float, float]) -> None:
        self.coeffs = (float(coeffs[0]), float(coeffs[1]))
        self._weights = None

    def refit_coeffs(self) -> bool:
        """MSE-fit the prior coefficients to the current pairs."""
        coeffs, degenerate = fit_hyperparameters(
            self.deltas, self.alphas, self.prior.b_weight, self.prior.d_weight
        )
        if not degenerate:
            self.set_coeffs(coeffs)
        return degenerate

    def _prior_at(self, deltas) -> np.ndarray:
        return prior_mean(
            np.atleast_2d(deltas), self.coeffs, self.prior.b_weight, self.prior.d_weight
        )

    def _ensure_factor(self):
        if self._factor is not None:
            return
        gram = kernel_matrix(
            self.deltas, self.deltas, self.prior.profile.corr_lengths
        )
        diag_peak = float(gram.diagonal().max()) if gram.size else 0.0
        base = 1e-10 * max(diag_peak, 1.0)
        jitter = base
        for _ in range(4):
            try:
                self._factor = scipy.linalg.cho_factor(
                    gram + jitter * np.eye(gram.shape[0]), lower=True
                )
                self.jitter = jitter
                return
            except scipy.linalg.LinAlgError:
                jitter *= 10.0
        raise GramFactorizationError(
            f"Cholesky failed up to jitter {jitter / 10.0:.3e}"
        )

    def _ensure_weights(self):
        self._ensure_factor()
        if self._weights is None:
            resid = self.alphas - self._prior_at(self.deltas)
            self._weights = scipy.linalg.cho_solve(self._factor, resid)

    def mean(self, deltas: np.ndarray) -> np.ndarray:
        """Posterior mean of alpha at the given shifts, without the variance."""
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        mu = self._prior_at(d)
        if self.n_train == 0:
            return mu
        self._ensure_weights()
        k_cross = kernel_matrix(d, self.deltas, self.prior.profile.corr_lengths)
        return mu + k_cross @ self._weights

    def posterior(self, deltas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance of alpha at the given shifts."""
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        lengths = self.prior.profile.corr_lengths
        mu = self._prior_at(d)
        k_self = pair_kernel(d, d, lengths).sum(axis=1)
        if self.n_train == 0:
            return mu, np.maximum(k_self, 0.0)
        self._ensure_weights()
        k_cross = kernel_matrix(d, self.deltas, lengths)
        mean = mu + k_cross @ self._weights
        back = scipy.linalg.cho_solve(self._factor, k_cross.T)
        var = k_self - np.einsum("ij,ji->i", k_cross, back)
        return mean, np.maximum(var, 0.0)


@dataclass
class SpTracker:
    """Stabilizing-predictions stopping rule on iteration-count surfaces.

    Two consecutive surrogates *agree* at a point when their predictions
    differ by less than 1% relatively or by less than one iteration
    absolutely; training stops once the trailing mean of the disagree
    ratio falls below 1%.
    """

    window: int = 5
    rel_threshold: float = 0.01
    abs_threshold: float = 1.0
    history: list[float] = field(default_factory=list)

    def update(self, m_old: np.ndarray, m_new: np.ndarray) -> bool:
        old = np.asarray(m_old, dtype=float)
        new = np.asarray(m_new, dtype=float)
        if old.shape != new.shape:
            raise ValueError("prediction vectors must cover the same points")
        diff = np.abs(new - old)
        disagree = (diff >= self.rel_threshold * np.abs(old)) & (
            diff >= self.abs_threshold
        )
        self.history.append(float(np.mean(disagree)) if old.size else 0.0)
        return self.should_stop

    @property
    def should_stop(self) -> bool:
        if not self.history:
            return False
        tail = self.history[-self.window :]
        return float(np.mean(tail)) < self.rel_threshold


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
    tau_krylov: float
    budget_exhausted: bool = False
    sp_history: list[float] = field(default_factory=list)
    prediction_trace: list[tuple[int, float, float]] = field(default_factory=list)
    solutions: dict[int, np.ndarray] = field(default_factory=dict)
    train_wall_time: float = 0.0
    train_iterations: float = 0.0
    degenerate_fit: bool = False

    def expected_iterations(self, deltas: np.ndarray) -> np.ndarray:
        """Estimated GMRES iterations for the given parameter shifts (>= 1)."""
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        alpha = np.clip(self.gp.mean(d), ALPHA_MIN, ALPHA_MAX)
        m = np.maximum(1.0, self.iter_map.iters_from_alpha(alpha))
        return m if np.asarray(deltas).ndim > 1 else float(m[0])

    def iterations_at(self, points: np.ndarray) -> np.ndarray:
        """Convenience: iterations for absolute points against ``ybar``."""
        return self.expected_iterations(np.atleast_2d(points) - self.ybar)

    def acquisition(self, deltas: np.ndarray, m_max: float | None = None) -> np.ndarray:
        """Variance-to-cost score, -inf above the break-even cap.

        The variance of the mapped iteration count is approximated with a
        symmetric stencil stepped by the *variance* of alpha (not its
        standard deviation), with the stencil arguments clamped into the
        valid contraction range.
        """
        cap = self.m_max if m_max is None else m_max
        d = np.atleast_2d(np.asarray(deltas, dtype=float))
        mean, var = self.gp.posterior(d)
        mid = np.clip(mean, ALPHA_MIN, ALPHA_MAX)
        hi = np.clip(mean + var, ALPHA_MIN, ALPHA_MAX)
        lo = np.clip(mean - var, ALPHA_MIN, ALPHA_MAX)
        e_g = np.maximum(1.0, self.iter_map.iters_from_alpha(mid))
        v_g = 0.5 * (
            self.iter_map.iters_from_alpha(hi) - self.iter_map.iters_from_alpha(lo)
        )
        return np.where(e_g <= cap, v_g / e_g, -np.inf)

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
        profile = AnisotropyProfile(
            np.asarray(doc["gamma"]),
            np.asarray(doc["corr_lengths"]),
            float(doc["domain_diameter"]),
        )
        prior = SurrogatePrior(
            WeightMatrix(np.asarray(doc["b_weight"])),
            WeightMatrix(np.asarray(doc["d_weight"])),
            profile,
        )
        gp = GpState(prior, tuple(doc["coeffs"]))
        for delta, alpha in zip(doc["train_deltas"], doc["train_alphas"]):
            gp.add_pair(np.asarray(delta), alpha)
        return cls(
            gp=gp,
            ybar=np.asarray(doc["ybar"], dtype=float),
            m_max=float(doc["m_max"]),
            iter_map=IterationMap(float(doc["tol"])),
            evaluated=[int(i) for i in doc["evaluated"]],
            tau_pc=float(doc["tau_pc"]),
            tau_krylov=float(doc["tau_krylov"]),
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
    reference preconditioner at the set's box center and reports its cost)
    and ``solve(position) -> (iterations, tau, solution)`` for a row of
    ``points`` solved with that preconditioner.  Training seeds the GP
    with the origin pin and the point of smallest unit-coefficient prior
    mean, then alternates acquisition, solve, hyperparameter refit and a
    stabilizing-predictions check.
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

    mu_unit = prior_mean(deltas_all, (1.0, 1.0), prior.b_weight, prior.d_weight)
    first_pos = int(np.argmin(mu_unit))
    m_first, tau_first, sol_first = oracle.solve(first_pos)
    evaluated_pos = [first_pos]
    solutions = {}
    if sol_first is not None:
        solutions[int(points.indices[first_pos])] = sol_first
    gp.add_pair(deltas_all[first_pos], iter_map.alpha_from_iters(m_first))
    tau_tot, m_tot = float(tau_first), float(m_first)
    degenerate = gp.refit_coeffs()

    surrogate = TrainedSurrogate(
        gp=gp,
        ybar=ybar,
        m_max=tau_pc / (tau_tot / m_tot),
        iter_map=iter_map,
        evaluated=[],
        tau_pc=tau_pc,
        tau_krylov=tau_tot / m_tot,
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
        m_max = tau_pc / (tau_tot / m_tot)
        scores = surrogate.acquisition(deltas_all[remaining], m_max)
        if not np.any(np.isfinite(scores)):
            # Every candidate is expected to cost more than building its
            # own preconditioner; further training cannot pay off.
            break
        pick = int(remaining[int(np.argmax(scores))])
        predicted = float(surrogate.expected_iterations(deltas_all[[pick]])[0])

        m_i, tau_i, sol_i = oracle.solve(pick)
        evaluated_pos.append(pick)
        if sol_i is not None:
            solutions[int(points.indices[pick])] = sol_i
        gp.add_pair(deltas_all[pick], iter_map.alpha_from_iters(m_i))
        tau_tot += float(tau_i)
        m_tot += float(m_i)
        degenerate = gp.refit_coeffs() or degenerate
        trace.append((int(points.indices[pick]), predicted, float(m_i)))

        new_m = surrogate.expected_iterations(deltas_all)
        stop = tracker.update(prev_m, new_m)
        prev_m = new_m
        if stop:
            break

    surrogate.m_max = tau_pc / (tau_tot / m_tot)
    surrogate.tau_krylov = tau_tot / m_tot
    surrogate.train_iterations = m_tot
    surrogate.evaluated = [int(points.indices[p]) for p in evaluated_pos]
    surrogate.budget_exhausted = budget_exhausted
    surrogate.sp_history = tracker.history
    surrogate.prediction_trace = trace
    surrogate.solutions = solutions
    surrogate.degenerate_fit = degenerate
    surrogate.train_wall_time = time.perf_counter() - start
    return surrogate


class LogRecord(NamedTuple):
    """One preconditioner build or GMRES solve in a ``FemSolveOracle`` log."""

    position: int | None  # row of the target set solved; None for a build
    pc: object  # the solve's per-point preconditioner label; None for a build
    iterations: int
    converged: bool
    cost: float  # priced by the oracle's cost policy


class FemSolveOracle:
    """Every preconditioner build and GMRES solve of one experiment.

    It carries the experiment's problem: the target set, the family, its
    mesh and solver config, and the cost policy that prices each build and
    solve.  ``build`` factors the operator at a parameter point and ``run``
    solves one target with a given preconditioner; each call appends one
    ``LogRecord`` to ``log``, in call order.  ``build_reference`` and
    ``solve`` are the training oracle on top of them.
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
        """Factor the operator at ``y`` into a preconditioner."""
        matrix, _ = helmholtz.assemble(y, self.family, self.mesh, self.cfg)
        pc = lu_factor(matrix, source_param=y)
        self.log.append(LogRecord(None, None, 0, True, self.policy.build_cost(pc)))
        return pc

    def run(self, position: int, pc, label):
        """Solve the target at ``position`` with ``pc``, logged under ``label``."""
        y = self.points.points[position]
        matrix, rhs = helmholtz.assemble(y, self.family, self.mesh, self.cfg)
        report = gmres_left(pc, matrix, rhs, tol=self.cfg.tol, max_iter=self.cfg.max_iter)
        cost = self.policy.solve_cost(pc, report)
        self.log.append(LogRecord(position, label, report.iterations, report.converged, cost))
        return report

    def build_reference(self) -> float:
        """Build the training preconditioner at the box center; return its cost."""
        self.reference_pc = self.build(self.points.box.center)
        return self.log[-1].cost

    def solve(self, position: int):
        """Training solve with the reference preconditioner."""
        report = self.run(position, self.reference_pc, "mean")
        return report.iterations, self.log[-1].cost, report.solution
