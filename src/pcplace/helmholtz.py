"""2D Helmholtz scattering benchmarks on an annulus, discretized with P1.

Two parameterized families of complex symmetric systems are provided:

* ``affine``: unit annulus with a piecewise (angular-sector) refractive
  index, affine in the parameters and mollified to 1 near the outer
  boundary;
* ``shape``: a star-shaped scatterer whose boundary radius is a Fourier
  expansion in the parameters; the problem is pulled back onto the
  reference annulus, turning boundary variation into smoothly varying
  matrix-valued diffusion and scalar refraction coefficients.

The outer boundary carries a first-order absorbing (Robin) condition and a
plane-wave excitation; the scatterer is sound-soft (homogeneous Dirichlet).
Meshes are structured polar grids refined as h ~ k0^(-3/2) against the
pollution effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.special import zeta

from .param_space import SurrogatePrior, WeightMatrix, anisotropy_profile

__all__ = [
    "DegenerateMapError",
    "HelmholtzConfig",
    "AnnulusMesh",
    "ProblemFamily",
    "Assembler",
    "build_annulus_mesh",
    "mollifier",
    "mollifier_radial",
    "affine_refractive_index",
    "boundary_radius",
    "max_safe_amplitude",
    "domain_map",
    "pullback_coefficients",
    "assemble",
    "assemble_operator",
    "incident_rhs",
    "apply_sound_soft",
    "affine_family",
    "shape_family",
    "save_mesh",
]


# Propagation direction of the incident plane wave, whose amplitude is 1.
INCIDENT_DIRECTION = (1.0, 0.0)


class DegenerateMapError(ValueError):
    """The domain map lost invertibility at a quadrature point."""


@dataclass(frozen=True)
class HelmholtzConfig:
    """Wavenumber and solver settings.

    The geometry is fixed, like the incident wave: the scatterer's nominal
    radius ``r_in``, the mollifier cutoff ``r_mol`` and the outer radius
    ``r_out`` are class constants, not fields.
    """

    r_in: ClassVar[float] = 0.25
    r_mol: ClassVar[float] = 0.9
    r_out: ClassVar[float] = 1.0

    k0: float
    tol: float = 1e-5
    mesh_constant: float = 2.5
    mesh_size: float | None = None
    max_iter: int | None = None

    def __post_init__(self):
        if self.k0 <= 0:
            raise ValueError("wavenumber must be positive")
        if not 0 < self.tol < 1:
            raise ValueError("GMRES tolerance must lie in (0, 1)")
        if self.h > self.r_out - self.r_in:
            source = "mesh_size" if self.mesh_size is not None else "k0 and mesh_constant"
            raise ValueError(
                f"mesh size h={self.h:.3g} (from {source}) is too coarse for the annulus"
            )

    @property
    def h(self) -> float:
        """Target mesh size, explicit or the anti-pollution rule."""
        if self.mesh_size is not None:
            return self.mesh_size
        return self.mesh_constant * self.k0 ** (-1.5)

    @property
    def grad_mollifier_bound(self) -> float:
        """Sup-norm of the mollifier gradient, 1 / (r_mol - r_in)."""
        return 1.0 / (self.r_mol - self.r_in)


@dataclass
class AnnulusMesh:
    """Structured polar triangulation of the reference annulus.

    The mesh keeps no size of its own (``cfg.h`` is its target).
    Precomputed element geometry (areas, P1 gradients, quadrature points,
    outer-edge data) is carried along.  The quadrature points are the edge
    midpoints, and the two triangles of an interior edge hold bitwise
    equal copies of its midpoint.  The first ``assemble`` call caches an
    ``Assembler`` on the mesh, so repeated assembly over parameter values
    forms a precomputed combination (``affine``) or evaluates the
    coefficients once per edge and scatters once (``shape``).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    inner_boundary: np.ndarray
    outer_boundary: np.ndarray
    # element geometry
    areas: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    grads: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    quad_points: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    outer_edges: np.ndarray = field(repr=False, default=None)  # type: ignore[assignment]
    # filled by the first ``assemble`` call on this mesh
    _assembler: "Assembler | None" = field(
        init=False, repr=False, compare=False, default=None
    )

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_theta(self) -> int:
        """Nodes per ring: nodes are ring-major, the inner ring first."""
        return self.inner_boundary.shape[0]


# P1 basis values at the three edge-midpoint quadrature nodes (rows:
# midpoints of edges 01, 12, 20; columns: vertices), weights 1/3 each.
_QUAD_PHI = np.array(
    [
        [0.5, 0.5, 0.0],
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.5],
    ]
)


def build_annulus_mesh(cfg: HelmholtzConfig) -> AnnulusMesh:
    """Triangulate the annulus with max edge length <= 1.5 h.

    Nodes lie on ``n_r`` rings of ``n_theta`` angles, ring-major, and each
    quad between two rings splits into two counterclockwise triangles. The
    element geometry is computed from contiguous per-vertex columns
    (``x[t0]``, ``y[t0]``, ... for the corner columns ``t0``, ``t1``,
    ``t2``), each formula with the operands and order it has on
    ``nodes[triangles]``, so the arrays are that gather's bit for bit.
    """
    h = cfg.h
    span = cfg.r_out - cfg.r_in
    n_r = int(np.ceil(span / h)) + 1
    n_theta = max(int(np.ceil(2 * np.pi * cfg.r_out / h)), 8)

    radii = np.linspace(cfg.r_in, cfg.r_out, n_r)
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    x = np.outer(radii, np.cos(thetas)).ravel()
    y = np.outer(radii, np.sin(thetas)).ravel()
    nodes = np.column_stack([x, y])
    # quad (ir, it) has corners a = (ir, it), b = (ir, it + 1),
    # c = (ir + 1, it + 1) and d = (ir + 1, it), angles taken mod n_theta
    ring = np.arange(n_theta)
    base = n_theta * np.arange(n_r - 1)[:, None]
    a = (base + ring).ravel()
    b = (base + np.roll(ring, -1)).ravel()
    c = b + n_theta
    d = a + n_theta
    # split each quad along the a-c diagonal: triangles (a, d, c), then (a, c, b)
    t0, t1, t2 = np.concatenate([a, a]), np.concatenate([d, c]), np.concatenate([c, b])
    triangles = np.column_stack([t0, t1, t2])

    xs, ys = (x[t0], x[t1], x[t2]), (y[t0], y[t1], y[t2])
    det2 = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (ys[1] - ys[0]) * (xs[2] - xs[0])
    if np.any(det2 <= 0):
        raise RuntimeError("negatively oriented element in structured mesh")
    areas = 0.5 * det2

    grads = np.empty((triangles.shape[0], 3, 2))
    quad_points = np.empty_like(grads)
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        # P1 gradients: rotate opposite edges by 90 degrees over twice the area
        np.divide(-(ys[k] - ys[j]), det2, out=grads[:, i, 0])
        np.divide(xs[k] - xs[j], det2, out=grads[:, i, 1])
        # quadrature node i is the midpoint of edge (i, j); the sum
        # commutes, so both triangles of an edge get the same bits, which
        # the shape assembler relies on
        np.multiply(0.5, xs[i] + xs[j], out=quad_points[:, i, 0])
        np.multiply(0.5, ys[i] + ys[j], out=quad_points[:, i, 1])

    outer_ring = (n_r - 1) * n_theta + ring
    outer_edges = np.column_stack([outer_ring, np.roll(outer_ring, -1)])

    return AnnulusMesh(
        nodes=nodes,
        triangles=triangles,
        inner_boundary=ring,
        outer_boundary=outer_ring,
        areas=areas,
        grads=grads,
        quad_points=quad_points,
        outer_edges=outer_edges,
    )


def mollifier_radial(r, cfg: HelmholtzConfig):
    """Radial cutoff: 1 at the scatterer, 0 from r_mol outward, clamped."""
    raw = (np.asarray(r, dtype=float) - cfg.r_mol) / (cfg.r_in - cfg.r_mol)
    return np.clip(raw, 0.0, 1.0)


def mollifier(points, cfg: HelmholtzConfig):
    """Mollifier evaluated at 2D points (last axis of length 2)."""
    r = np.linalg.norm(np.asarray(points, dtype=float), axis=-1)
    return mollifier_radial(r, cfg)


def _mollifier_radial_deriv(r, cfg: HelmholtzConfig):
    active = (np.asarray(r) > cfg.r_in) & (np.asarray(r) < cfg.r_mol)
    return np.where(active, 1.0 / (cfg.r_in - cfg.r_mol), 0.0)


@dataclass(frozen=True)
class ProblemFamily:
    """A parameterized family of Helmholtz systems and its surrogate prior.

    ``prior`` holds the weights B and D that bound the parameter
    sensitivity of the scalar and matrix coefficients (normalized to unit
    peak diagonal; the absolute scale is absorbed by the prior-mean
    hyperparameters) and the kernel correlation lengths derived from them.
    D is zero for ``affine`` and equal to B for ``shape``, so
    ``fit_hyperparameters`` never takes its two-column branch for the
    built-in families.
    """

    kind: str
    n_dims: int
    prior: SurrogatePrior
    eta: np.ndarray | None = None
    amplitude: float | None = None
    decay: float | None = None


def affine_family(eta, cfg: HelmholtzConfig) -> ProblemFamily:
    """Sector-wise affine refractive index with amplitudes ``eta``."""
    e = np.atleast_1d(np.asarray(eta, dtype=float))
    if np.any(e <= 0):
        raise ValueError("affine amplitudes must be positive")
    if e.max() >= 1.0:
        raise ValueError("amplitudes must stay below 1 to keep n positive")
    # diag(eta_i^2): the mollifier-dependent constant of the sensitivity
    # bound is absorbed by the prior-mean coefficients
    b = WeightMatrix(np.diag(e**2)).normalized()
    d = WeightMatrix.zero(e.size)
    prior = SurrogatePrior(b, d, anisotropy_profile(b, d, 0.0, 1.0, 2.0 * cfg.r_out))
    return ProblemFamily(kind="affine", n_dims=e.size, prior=prior, eta=e)


def max_safe_amplitude(decay: float) -> float:
    """Largest mode amplitude keeping the boundary curve non-intersecting.

    The Fourier modes come in sine/cosine pairs with common algebraic
    decay, so the total displacement is bounded by
    amp * (1 + sqrt(2) * (zeta(decay) - 1)); the bound keeps it below the
    nominal radius.
    """
    if decay <= 1:
        raise ValueError("decay exponent must exceed 1 for a summable series")
    return HelmholtzConfig.r_in / (1.0 + np.sqrt(2.0) * (zeta(decay) - 1.0))


def _check_amplitude(amplitude: float, decay: float) -> None:
    """Reject a shape amplitude outside (0, ``max_safe_amplitude(decay)``)."""
    cap = max_safe_amplitude(decay)
    if not 0 < amplitude < cap:
        raise ValueError(
            f"amplitude {amplitude:.4g} must stay below {cap:.4g} "
            f"for decay {decay:g}"
        )


def shape_family(
    n_dims: int, amplitude: float, decay: float, cfg: HelmholtzConfig
) -> ProblemFamily:
    """Star-shaped scatterer with Fourier boundary modes, pulled back."""
    _check_amplitude(amplitude, decay)
    if n_dims < 1:
        raise ValueError("need at least one mode")
    w = _mode_norms(n_dims, amplitude, decay, cfg.grad_mollifier_bound)
    b = WeightMatrix(np.outer(w, w)).normalized()
    prior = SurrogatePrior(b, b, anisotropy_profile(b, b, 1.0, 1.0, 2.0 * cfg.r_out))
    return ProblemFamily(
        kind="shape", n_dims=n_dims, prior=prior, amplitude=amplitude, decay=decay
    )


def _angles(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    return np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2.0 * np.pi)


def _sectors(theta, n_dims: int) -> np.ndarray:
    """Index of the angular sector (of ``n_dims`` equal ones) holding theta."""
    return np.minimum((theta * n_dims / (2.0 * np.pi)).astype(int), n_dims - 1)


def _affine_index(y, eta, sector, chi):
    return 1.0 + chi * (eta * (y - 1.0) / 2.0)[sector]


def affine_refractive_index(y, points, family: ProblemFamily, cfg: HelmholtzConfig):
    """n(y, x) = 1 + indicator-sector * mollifier * eta_i * (y_i - 1)/2."""
    if family.kind != "affine":
        raise ValueError("refractive index applies to the affine family")
    pts = np.asarray(points, dtype=float)
    sector = _sectors(_angles(pts), family.n_dims)
    return _affine_index(
        np.asarray(y, dtype=float), family.eta, sector, mollifier(pts, cfg)
    )


def _mode_spec(n_dims: int, amplitude: float, decay: float):
    """Coefficients, frequencies and sine flags of the boundary modes.

    Mode j has frequency f_j = j/2 for even j (a sine) and (j-1)/2 for
    odd j (a cosine; mode 1 is the constant), and coefficient
    amplitude * (f_j + 1)^-decay.
    """
    j = np.arange(1, n_dims + 1)
    freq = (j - j % 2) / 2.0
    # float_power calls C pow per element; numpy's AVX-512 loop for ``**``
    # can be an ulp off it (3.0 ** -1.3)
    return amplitude * np.float_power(freq + 1.0, -decay), freq, j % 2 == 0


def _mode_norms(n_dims: int, amplitude: float, decay: float, grad_chi_inf: float):
    """W^{1,inf} bounds of the boundary-displacement modes.

    Mode 1 is the constant radial inflation; even/odd modes j >= 2 are the
    Fourier sine/cosine pair with algebraic decay alpha = ``decay``:

        j = 1      : 2 * amp * |grad chi|_inf
        j even     : ((j+2)/2)^-alpha * amp * (1 + |grad chi|_inf + j/2)
        j odd, > 1 : ((j+1)/2)^-alpha * amp * (1 + |grad chi|_inf + (j-1)/2)
    """
    coef, freq, _ = _mode_spec(n_dims, amplitude, decay)
    norms = coef * (1.0 + grad_chi_inf + freq)
    norms[0] = 2.0 * amplitude * grad_chi_inf
    return norms


def _mode_tables(theta, n_dims: int, amplitude: float, decay: float):
    """Values and theta-derivatives of the boundary modes at ``theta``."""
    coef, freq, sine = _mode_spec(n_dims, amplitude, decay)
    phase = np.asarray(theta, dtype=float)[..., None] * freq
    sin, cos = np.sin(phase), np.cos(phase)
    vals = coef * np.where(sine, sin, cos)
    derivs = coef * freq * np.where(sine, cos, -sin)
    derivs[..., 0] = 0.0  # the constant mode; the product gives -0.0
    return vals, derivs


def boundary_radius(y, theta, family: ProblemFamily, cfg: HelmholtzConfig):
    """Parameterized scatterer radius r(y, theta)."""
    vals, _ = _mode_tables(theta, family.n_dims, family.amplitude, family.decay)
    return cfg.r_in + vals @ np.asarray(y, dtype=float)


def domain_map(y, points, family: ProblemFamily, cfg: HelmholtzConfig):
    """Radial displacement map and its analytic Jacobian.

    Phi(y, x) = x + chi(|x|) * s(theta) * x/|x| with s the parameter
    combination of the boundary modes; the displacement dies at r_mol so
    the outer boundary stays fixed.  Returns (Phi, Jacobian) with shapes
    (..., 2) and (..., 2, 2).
    """
    if family.kind != "shape":
        raise ValueError("domain map applies to the shape family")
    y = np.asarray(y, dtype=float)
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r == 0):
        raise ValueError("domain map is undefined at the origin")
    theta = _angles(pts)
    vals, derivs = _mode_tables(theta, family.n_dims, family.amplitude, family.decay)
    s = vals @ y
    s_prime = derivs @ y
    chi = mollifier_radial(r, cfg)
    chi_prime = _mollifier_radial_deriv(r, cfg)

    e_r = pts / r[..., None]
    e_t = np.stack([-e_r[..., 1], e_r[..., 0]], axis=-1)
    phi = pts + (chi * s)[..., None] * e_r

    rr = np.einsum("...i,...j->...ij", e_r, e_r)
    rt = np.einsum("...i,...j->...ij", e_r, e_t)
    tt = np.einsum("...i,...j->...ij", e_t, e_t)
    eye = np.broadcast_to(np.eye(2), rr.shape)
    jac = (
        eye
        + (chi_prime * s)[..., None, None] * rr
        + (chi * s_prime / r)[..., None, None] * rt
        + (chi * s / r)[..., None, None] * tt
    )
    return phi, jac


class _PolarFrame(NamedTuple):
    """The y-independent factors of the shape pull-back at fixed points.

    ``cc``, ``ss``, ``cs`` and ``c2`` are cos^2, sin^2, cos*sin and
    cos^2 - sin^2 of the polar angle; ``chi_r`` is chi(r)/r, ``chi_prime``
    the radial mollifier derivative; ``modes`` and ``mode_derivs`` hold the
    boundary modes and their theta-derivatives, one column per parameter.
    """

    cc: np.ndarray
    ss: np.ndarray
    cs: np.ndarray
    c2: np.ndarray
    chi_r: np.ndarray
    chi_prime: np.ndarray
    modes: np.ndarray
    mode_derivs: np.ndarray


def _polar_frame(points, family: ProblemFamily, cfg: HelmholtzConfig) -> _PolarFrame:
    pts = np.asarray(points, dtype=float)
    r = np.linalg.norm(pts, axis=-1)
    if np.any(r == 0):
        raise ValueError("domain map is undefined at the origin")
    cos = pts[..., 0] / r
    sin = pts[..., 1] / r
    modes, mode_derivs = _mode_tables(
        _angles(pts), family.n_dims, family.amplitude, family.decay
    )
    return _PolarFrame(
        cc=cos * cos,
        ss=sin * sin,
        cs=cos * sin,
        c2=cos * cos - sin * sin,
        chi_r=mollifier_radial(r, cfg) / r,
        chi_prime=_mollifier_radial_deriv(r, cfg),
        modes=modes,
        mode_derivs=mode_derivs,
    )


def _pullback(y: np.ndarray, frame: _PolarFrame):
    """Closed-form A = J^-1 J^-T det J and det J of the radial map.

    In the polar frame Q = [e_r e_t] the Jacobian of ``domain_map`` is
    J = Q [[1+a, b], [0, 1+c]] Q^T with a = chi' s, b = chi s'/r and
    c = chi s/r.  Hence det J = (1+a)(1+c) and A = Q M Q^T with
    M = [[(1+c)/(1+a) + b^2/det J, -b/(1+c)], [-b/(1+c), (1+a)/(1+c)]].
    Returns the entries (A_00, A_01, A_11) and det J.

    With M's entries m_rr, m_rt, m_tt, the frame's cc = cos^2, ss = sin^2,
    cs = cos sin, c2 = cc - ss and twist = 2 m_rt cs, the entries of A are
    A_00 = m_rr cc - twist + m_tt ss, A_11 = m_rr ss + twist + m_tt cc and
    A_01 = (m_rr - m_tt) cs + m_rt c2, each summed left to right.  The
    steps write in place into operands no later step reads: 8 arrays of
    one value per point instead of 29, which on a large mesh are each a
    fresh allocation to page in.
    """
    s = frame.modes @ y
    ja = frame.chi_prime * s
    ja += 1.0
    jc = np.multiply(frame.chi_r, s, out=s)
    jc += 1.0
    b = frame.mode_derivs @ y
    b *= frame.chi_r
    det = ja * jc
    if np.any(det <= 1e-12):
        raise DegenerateMapError(
            f"domain map degenerates (min det {np.min(det):.3e})"
        )
    m_rr = jc / ja
    t = b * b
    t /= det
    m_rr += t
    m_rt = np.divide(b, jc, out=b)
    np.negative(m_rt, out=m_rt)
    m_tt = np.divide(ja, jc, out=ja)
    twist = np.multiply(m_rt, 2.0, out=t)
    twist *= frame.cs
    a00 = m_rr * frame.cc
    a00 -= twist
    a11 = m_rr * frame.ss
    a11 += twist
    a01 = np.subtract(m_rr, m_tt, out=m_rr)
    a01 *= frame.cs
    a00 += np.multiply(m_tt, frame.ss, out=twist)
    a11 += np.multiply(m_tt, frame.cc, out=twist)
    a01 += np.multiply(m_rt, frame.c2, out=twist)
    return a00, a01, a11, det


def pullback_coefficients(y, points, family: ProblemFamily, cfg: HelmholtzConfig):
    """Diffusion matrix and refraction scalar of the pulled-back problem.

    A = J^-1 J^-T det(J) and n = det(J) with J the domain-map Jacobian;
    A is symmetric positive definite wherever the map is orientation
    preserving.
    """
    if family.kind != "shape":
        raise ValueError("domain map applies to the shape family")
    pts = np.asarray(points, dtype=float)
    frame = _polar_frame(pts.reshape(-1, 2), family, cfg)
    a00, a01, a11, det = (
        v.reshape(pts.shape[:-1]) for v in _pullback(np.asarray(y, dtype=float), frame)
    )
    a = np.stack([np.stack([a00, a01], -1), np.stack([a01, a11], -1)], -2)
    return a, det


# The entries r <= c of a symmetric element matrix, the diagonal first:
# (0,0), (1,1), (2,2), (0,1), (1,2), (0,2).  Entries 3, 4 and 5 join the
# vertices of edges 01, 12 and 20, which hold quadrature nodes 0, 1 and 2.
_ENTRY_ROW = np.array([0, 1, 2, 0, 1, 0])
_ENTRY_COL = np.array([0, 1, 2, 1, 2, 2])
# P1 mass contributions of the three quadrature nodes: row q holds those
# entries of phi_q phi_q^T, so _MASS_TEMPLATE.T @ (weight * coefficient)
# gives the element mass matrices.
_MASS_TEMPLATE = np.einsum("qi,qj->qij", _QUAD_PHI, _QUAD_PHI)[:, _ENTRY_ROW, _ENTRY_COL]


def _dirichlet_selection(indptr, indices, nodes, n: int):
    """Entries of a CSR pattern left after eliminating ``nodes``.

    Row and column elimination keeps the entries coupling two free nodes
    and the diagonal entries of the eliminated ones.  Returns the kept
    entry positions, the reduced ``indptr`` and the positions of the
    eliminated nodes' diagonals in the reduced data.
    """
    fixed = np.zeros(n, dtype=bool)
    fixed[nodes] = True
    rows = np.repeat(np.arange(n), np.diff(indptr))
    diagonal = fixed[rows] & (rows == indices)
    kept = np.flatnonzero((~fixed[rows] & ~fixed[indices]) | diagonal)
    if np.count_nonzero(diagonal) != np.count_nonzero(fixed):
        raise ValueError("every Dirichlet node needs a stored diagonal entry")
    reduced_indptr = np.zeros(n + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(rows[kept], minlength=n), out=reduced_indptr[1:])
    return kept, reduced_indptr, np.flatnonzero(diagonal[kept])


class Assembler:
    """The scattering system of one (family, mesh, cfg) at any parameter y.

    Everything independent of y is computed once: the CSR pattern, the
    index scattering the 6 entries r <= c of every element matrix into the
    pattern's upper triangle and the gather mirroring that triangle onto
    the whole pattern, the Robin block, the Dirichlet elimination of the
    scatterer nodes and the incident right-hand side.  The element
    matrices are symmetric, so the system is symmetric by construction.

    An ``affine`` system is affine in y, so its values are scattered once
    too, as d_0 + sum_j y_j d_j: d_0 is the system with refraction
    1 - chi eta_j / 2 in sector j, and d_j holds the -k0^2 mass of
    chi eta_j / 2 in sector j, on that sector's entries only.  A call forms
    that combination.  A ``shape`` system is nonlinear in y: the polar
    frame and mode tables at the mesh edges' midpoints, where the
    quadrature nodes lie, and the per-element gradient products are
    precomputed.  A call evaluates the pull-back once per edge, sums it
    per element, forms the element matrices and scatters them.
    """

    def __init__(self, family: ProblemFamily, mesh: AnnulusMesh, cfg: HelmholtzConfig):
        # No reference to ``mesh``: the mesh caches its assembler, and a
        # cycle would hold both until the cyclic garbage collector runs.
        self.family = family
        self.cfg = cfg
        # Arrays run over elements along their last axis: quadrature data
        # is (3, m) and element matrix entries are (6, m).
        m = mesh.n_triangles
        n = mesh.n_nodes
        self._shape = (n, n)
        self._weights = mesh.areas / 3.0

        # Upper-triangle keys r * n + c (r <= c) of the element entries,
        # and the full CSR pattern, in canonical order
        tri = mesh.triangles.T.astype(np.int64)
        rows, cols = tri[_ENTRY_ROW], tri[_ENTRY_COL]
        upper, slot = np.unique(
            np.minimum(rows, cols) * n + np.maximum(rows, cols), return_inverse=True
        )
        self._slot = slot.ravel()
        upper_rows, upper_cols = np.divmod(upper, n)
        off_diagonal = upper_rows != upper_cols
        keys = np.sort(np.concatenate([upper, (upper_cols * n + upper_rows)[off_diagonal]]))
        key_rows, key_cols = np.divmod(keys, n)
        self._mirror = np.searchsorted(
            upper, np.minimum(key_rows, key_cols) * n + np.maximum(key_rows, key_cols)
        )
        indptr = np.searchsorted(keys, np.arange(n + 1) * n)
        pattern = sp.csr_matrix((np.zeros(keys.size), key_cols, indptr), shape=(n, n))
        self._indptr, self._indices = pattern.indptr, pattern.indices

        # Robin boundary mass on the outer polygon, exact for P1
        edges = mesh.outer_edges.astype(np.int64)
        robin_keys = np.repeat(edges, 2, axis=1) * n + np.tile(edges, (1, 2))
        lengths = np.linalg.norm(
            mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1
        )
        block = np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
        self._robin = 1j * np.bincount(
            np.searchsorted(keys, robin_keys.ravel()),
            weights=((-cfg.k0 * lengths)[:, None, None] * block).ravel(),
            minlength=keys.size,
        )

        self._kept, self._reduced_indptr, self._fixed_diagonal = _dirichlet_selection(
            self._indptr, self._indices, mesh.inner_boundary, n
        )
        self._reduced_indices = self._indices[self._kept]
        self._rhs = incident_rhs(mesh, cfg)
        self._rhs[mesh.inner_boundary] = 0.0

        if family.kind == "affine":
            qp = mesh.quad_points.transpose(1, 0, 2).reshape(-1, 2)
            sector = _sectors(_angles(qp), family.n_dims).reshape(3, m)
            half = mollifier(qp, cfg).reshape(3, m) * (family.eta / 2.0)[sector]
            stiffness = (
                np.einsum("tik,tjk->tij", mesh.grads, mesh.grads)
                * mesh.areas[:, None, None]
            )[:, _ENTRY_ROW, _ENTRY_COL].T
            self._base = self._robin + self._scatter(stiffness, 1.0 - half)
            self._sector_terms = []
            for j in range(family.n_dims):
                term = self._scatter(0.0, np.where(sector == j, half, 0.0))
                entries = np.flatnonzero(term)
                self._sector_terms.append((entries, term[entries]))
        else:
            # Quadrature node q is the midpoint of the edge of entry 3 + q,
            # and both triangles of an edge hold it bit for bit (see
            # build_annulus_mesh), so the pull-back runs once per edge and
            # ``_edge`` (3, m) maps the quadrature nodes to the edges.
            edge_of_slot = np.cumsum(off_diagonal) - 1
            self._edge = edge_of_slot[slot.reshape(6, m)[3:]]
            midpoints = np.empty((np.count_nonzero(off_diagonal), 2))
            midpoints[self._edge] = mesh.quad_points.transpose(1, 0, 2)
            self._frame = _polar_frame(midpoints, family, cfg)
            gx, gy = mesh.grads[:, :, 0].T, mesh.grads[:, :, 1].T

            def products(u, v):
                return self._weights * u[_ENTRY_ROW] * v[_ENTRY_COL]

            # w g_i^T S g_j for S = [[s00, s01], [s01, s11]] is
            # s00 * xx + s01 * (xy + yx) + s11 * yy
            self._grad_products = (
                products(gx, gx),
                products(gx, gy) + products(gy, gx),
                products(gy, gy),
            )

    def _scatter(self, stiffness, refraction) -> np.ndarray:
        """Stiffness - k0^2 mass on the full pattern, without the Robin mass.

        ``stiffness`` holds the element entries (6, m) and ``refraction``
        the coefficient at the quadrature nodes (3, m), which is weighted in
        place: callers pass a temporary.  The element entries sum into the
        upper triangle, which is then mirrored.  The products are formed in
        place, since each fresh (6, m) array is a large allocation.
        """
        refraction *= self._weights
        values = _MASS_TEMPLATE.T @ refraction
        values *= self.cfg.k0**2
        np.subtract(stiffness, values, out=values)
        return np.bincount(self._slot, weights=values.ravel())[self._mirror]

    def _data(self, y) -> np.ndarray:
        """Values on the full pattern: stiffness - k0^2 mass - i k0 Robin mass."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.family.n_dims,):
            raise ValueError("parameter dimension does not match the family")
        if self.family.kind == "affine":
            data = self._base.copy()
            for y_j, (entries, values) in zip(y, self._sector_terms):
                data[entries] += y_j * values
            return data
        a00, a01, a11, det = _pullback(y, self._frame)
        xx, xy, yy = self._grad_products
        edge = self._edge
        stiffness = (
            a00[edge].sum(axis=0) * xx
            + a01[edge].sum(axis=0) * xy
            + a11[edge].sum(axis=0) * yy
        )
        return self._robin + self._scatter(stiffness, det[edge])

    def operator(self, y) -> sp.csr_matrix:
        """The system before the Dirichlet elimination."""
        return sp.csr_matrix(
            (self._data(y), self._indices.copy(), self._indptr.copy()),
            shape=self._shape,
        )

    def __call__(self, y) -> tuple[sp.csr_matrix, np.ndarray]:
        """System matrix and right-hand side with the scatterer eliminated."""
        data = self._data(y)[self._kept]
        data[self._fixed_diagonal] = 1.0
        # copied index arrays: an in-place edit of one matrix (sorting,
        # pruning) must not reach the pattern every later call shares
        matrix = sp.csr_matrix(
            (data, self._reduced_indices.copy(), self._reduced_indptr.copy()),
            shape=self._shape,
        )
        return matrix, self._rhs.copy()


def _assembler(
    family: ProblemFamily, mesh: AnnulusMesh, cfg: HelmholtzConfig
) -> Assembler:
    """The mesh's cached assembler, rebuilt when family or cfg changes."""
    asm = mesh._assembler
    if asm is None or asm.family is not family or asm.cfg != cfg:
        asm = mesh._assembler = Assembler(family, mesh, cfg)
    return asm


def assemble_operator(
    y, family: ProblemFamily, mesh: AnnulusMesh, cfg: HelmholtzConfig
) -> sp.csr_matrix:
    """Stiffness - k0^2 Mass - i k0 BoundaryMass, no essential conditions."""
    return _assembler(family, mesh, cfg).operator(y)


def incident_rhs(mesh: AnnulusMesh, cfg: HelmholtzConfig) -> np.ndarray:
    """Plane-wave excitation integral over the outer boundary.

    Assembles int_Gamma (d_normal - i k0) u_in * phi with
    u_in = exp(i k0 d.x), d = ``INCIDENT_DIRECTION``, using 2-point Gauss
    per polygon edge.
    """
    rhs = np.zeros(mesh.n_nodes, dtype=np.complex128)
    d = np.asarray(INCIDENT_DIRECTION)
    pa = mesh.nodes[mesh.outer_edges[:, 0]]
    pb = mesh.nodes[mesh.outer_edges[:, 1]]
    tangent = pb - pa
    lengths = np.linalg.norm(tangent, axis=1)
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]]) / lengths[:, None]

    gauss = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
    for xi in gauss:
        x_q = pa + xi * tangent
        u_in = np.exp(1j * cfg.k0 * (x_q @ d))
        data = 1j * cfg.k0 * ((normal @ d) - 1.0) * u_in
        w_q = 0.5 * lengths
        np.add.at(rhs, mesh.outer_edges[:, 0], w_q * data * (1.0 - xi))
        np.add.at(rhs, mesh.outer_edges[:, 1], w_q * data * xi)
    return rhs


def apply_sound_soft(
    system: sp.csr_matrix,
    rhs: np.ndarray,
    mesh: AnnulusMesh,
    values: np.ndarray | float = 0.0,
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose Dirichlet data on the scatterer by row/column elimination."""
    nodes = mesh.inner_boundary
    n = mesh.n_nodes
    system = sp.csr_matrix(system, dtype=np.complex128)
    system.sum_duplicates()
    vals = np.broadcast_to(np.asarray(values, dtype=np.complex128), nodes.shape)
    lift = np.zeros(n, dtype=np.complex128)
    lift[nodes] = vals
    rhs = rhs - system @ lift
    rhs[nodes] = vals
    kept, indptr, diagonal = _dirichlet_selection(
        system.indptr, system.indices, nodes, n
    )
    data = system.data[kept]
    data[diagonal] = 1.0
    return sp.csr_matrix((data, system.indices[kept], indptr), shape=(n, n)), rhs


def assemble(
    y, family: ProblemFamily, mesh: AnnulusMesh, cfg: HelmholtzConfig
) -> tuple[sp.csr_matrix, np.ndarray]:
    """Full scattering system at parameter y: operator, excitation, BC.

    Reuses the ``Assembler`` cached on ``mesh``, built at the first call
    for this family and cfg.
    """
    return _assembler(family, mesh, cfg)(y)


def save_mesh(path, mesh: AnnulusMesh) -> None:
    """Plain-text node/element export for external visualization."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {mesh.n_nodes}\n")
        for x, y in mesh.nodes:
            fh.write(f"{x:.17g} {y:.17g}\n")
        fh.write(f"triangles {mesh.n_triangles}\n")
        for a, b, c in mesh.triangles:
            fh.write(f"{a} {b} {c}\n")
        fh.write(f"inner {' '.join(map(str, mesh.inner_boundary))}\n")
        fh.write(f"outer {' '.join(map(str, mesh.outer_boundary))}\n")
