"""Parameter-space geometry: boxes, point sets, weighted norms and anisotropy.

The iteration-count surrogate measures distances in parameter space with
weighted l2 norms.  The problem families in ``helmholtz`` assemble their
weight matrices (diagonal for an affine coefficient expansion, rank-one for
a parameterized boundary) into a ``SurrogatePrior``; the weights also drive
the per-dimension correlation lengths of the surrogate kernel: the more a
dimension matters, the shorter its length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ParamBox",
    "ParamSet",
    "WeightMatrix",
    "AnisotropyProfile",
    "SurrogatePrior",
    "weighted_norm",
    "anisotropy_profile",
]

# Relative eigenvalue floor used for the positive-semidefiniteness check.
# An eigenvalue floor (rather than Cholesky) tolerates the rank-one weight
# matrices of the shape family.
_PSD_FLOOR = 1e-10


@dataclass(frozen=True)
class ParamBox:
    """Axis-aligned closed box prod_i [lo_i, hi_i] in R^N."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if lo.size < 1:
            raise ValueError("box needs at least one dimension")
        if not np.all(lo < hi):
            raise ValueError("every interval must satisfy lo < hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def symmetric_unit(cls, dims: int) -> "ParamBox":
        """[-1, 1]^dims, the domain of both built-in problem families."""
        return cls(-np.ones(dims), np.ones(dims))

    @property
    def dims(self) -> int:
        return self.lo.size

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def contains(self, points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo - tol) & (pts <= self.hi + tol), axis=1)

    def clip(self, point: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(point, dtype=float), self.lo, self.hi)


@dataclass(frozen=True)
class ParamSet:
    """Finite ordered collection of points in a box, with stable indices.

    Indices survive subsetting, so points evaluated during surrogate
    training keep their identity when the remainder is handed to the
    placement stage.
    """

    box: ParamBox
    points: np.ndarray
    indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[1] != self.box.dims:
            raise ValueError("point dimension does not match box")
        if not np.all(self.box.contains(pts)):
            raise ValueError("every point must lie inside the box")
        idx = self.indices
        if idx is None:
            idx = np.arange(pts.shape[0])
        idx = np.asarray(idx, dtype=int)
        if idx.shape != (pts.shape[0],) or len(np.unique(idx)) != idx.size:
            raise ValueError("indices must be unique and match the point count")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return self.points.shape[0]

    def subset(self, keep: np.ndarray) -> "ParamSet":
        """Subset by positions, preserving the original indices."""
        keep = np.asarray(keep)
        return ParamSet(self.box, self.points[keep], self.indices[keep])

    def without_indices(self, consumed) -> "ParamSet":
        """Drop the points whose stable index is in ``consumed``."""
        mask = ~np.isin(self.indices, np.asarray(list(consumed), dtype=int))
        return self.subset(np.flatnonzero(mask))


@dataclass(frozen=True)
class WeightMatrix:
    """Symmetric positive-semidefinite weight for a parameter-space norm."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.entries, dtype=float))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("weight matrix must be square")
        scale = np.linalg.norm(m)
        if scale > 0 and np.max(np.abs(m - m.T)) > 1e-12 * scale:
            raise ValueError("weight matrix must be symmetric")
        m = 0.5 * (m + m.T)
        if scale > 0:
            eigs = np.linalg.eigvalsh(m)
            if eigs.min() < -_PSD_FLOOR * scale:
                raise ValueError(
                    f"weight matrix is not positive semidefinite "
                    f"(min eigenvalue {eigs.min():.3e})"
                )
        object.__setattr__(self, "entries", m)

    @classmethod
    def zero(cls, dims: int) -> "WeightMatrix":
        return cls(np.zeros((dims, dims)))

    @property
    def dims(self) -> int:
        return self.entries.shape[0]

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries)

    def normalized(self) -> "WeightMatrix":
        """Scale to unit maximum diagonal (no-op on the zero matrix)."""
        peak = self.diagonal.max() if self.dims else 0.0
        if peak <= 0:
            return self
        return WeightMatrix(self.entries / peak)


@dataclass(frozen=True)
class AnisotropyProfile:
    """Per-dimension importance weights and kernel correlation lengths.

    corr_lengths[i] = domain_diameter * max_j gamma[j] / gamma[i], so the
    most important dimension gets the diameter of the computational domain
    as its length and less important dimensions get longer ones.
    """

    gamma: np.ndarray
    domain_diameter: float
    corr_lengths: np.ndarray = field(init=False)

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gamma, dtype=float))
        if self.domain_diameter <= 0:
            raise ValueError("domain diameter must be positive")
        if np.any(g <= 0):
            raise ValueError("gamma must be positive")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "corr_lengths", self.domain_diameter * g.max() / g)

    @property
    def dims(self) -> int:
        return self.gamma.size


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


def weighted_norm(delta: np.ndarray, weight: WeightMatrix) -> float:
    """sqrt(delta^T M delta) for a positive-semidefinite weight M."""
    d = np.asarray(delta, dtype=float)
    if d.ndim != 1 or d.size != weight.dims:
        raise ValueError("delta dimension does not match the weight matrix")
    q = float(d @ weight.entries @ d)
    scale = float(np.linalg.norm(weight.entries)) * float(d @ d)
    if q < -_PSD_FLOOR * max(scale, 1.0):
        raise ValueError("negative quadratic form: weight matrix is not PSD")
    return np.sqrt(max(q, 0.0))


def batch_weighted_norm(deltas: np.ndarray, weight: WeightMatrix) -> np.ndarray:
    """Vectorized ``weighted_norm`` over rows of ``deltas``."""
    d = np.atleast_2d(np.asarray(deltas, dtype=float))
    if d.shape[1] != weight.dims:
        raise ValueError("delta dimension does not match the weight matrix")
    return _row_norms(d, weight.entries)


def _row_norms(d: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The arithmetic of ``batch_weighted_norm``, without its checks."""
    return np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", d, entries, d), 0.0))


def anisotropy_profile(
    b_weight: WeightMatrix,
    d_weight: WeightMatrix,
    c1: float,
    c2: float,
    domain_diameter: float,
) -> AnisotropyProfile:
    """Importance weights gamma_j = c1*sqrt(D_jj) + c2*sqrt(B_jj) and lengths.

    A dimension with gamma_j = 0 has no influence on the operator and must
    be dropped by the caller; an infinite correlation length is not a
    usable stand-in.
    """
    if b_weight.dims != d_weight.dims:
        raise ValueError("weight matrices must share a dimension")
    if c1 < 0 or c2 < 0 or c1 + c2 <= 0:
        raise ValueError("coefficients must be nonnegative with positive sum")
    gamma = c1 * np.sqrt(d_weight.diagonal) + c2 * np.sqrt(b_weight.diagonal)
    if np.any(gamma <= 0):
        dead = np.flatnonzero(gamma <= 0).tolist()
        raise ValueError(f"dimensions {dead} carry no weight; drop them first")
    return AnisotropyProfile(gamma, domain_diameter)
