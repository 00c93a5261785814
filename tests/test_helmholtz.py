import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from pcplace.helmholtz import (
    _QUAD_PHI,
    DegenerateMapError,
    INCIDENT_DIRECTION,
    AnnulusMesh,
    HelmholtzConfig,
    _mode_norms,
    _mode_tables,
    affine_family,
    affine_refractive_index,
    apply_sound_soft,
    assemble,
    assemble_operator,
    boundary_radius,
    build_annulus_mesh,
    domain_map,
    incident_rhs,
    max_safe_amplitude,
    mollifier,
    pullback_coefficients,
    save_mesh,
    shape_family,
)
from pcplace.krylov import gmres_left, lu_factor


def mass_matrix(mesh):
    """Unit-coefficient P1 mass matrix (independent quadrature identity)."""
    from pcplace.helmholtz import _QUAD_PHI

    w = mesh.areas / 3.0
    phi_outer = np.einsum("qi,qj->qij", _QUAD_PHI, _QUAD_PHI)
    me = np.einsum("t,qij->tij", w, phi_outer)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    n = mesh.n_nodes
    return sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def reference_mesh(cfg):
    """The structured mesh built by slicing ``nodes[triangles]``, quad by quad."""
    h = cfg.h
    n_r = int(np.ceil((cfg.r_out - cfg.r_in) / h)) + 1
    n_theta = max(int(np.ceil(2 * np.pi * cfg.r_out / h)), 8)
    radii = np.linspace(cfg.r_in, cfg.r_out, n_r)
    thetas = 2 * np.pi * np.arange(n_theta) / n_theta
    rr, tt = np.meshgrid(radii, thetas, indexing="ij")
    nodes = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])

    def nid(ir, it):
        return ir * n_theta + np.mod(it, n_theta)

    ir = np.repeat(np.arange(n_r - 1), n_theta)
    it = np.tile(np.arange(n_theta), n_r - 1)
    a, b, c, d = nid(ir, it), nid(ir, it + 1), nid(ir + 1, it + 1), nid(ir + 1, it)
    triangles = np.vstack([np.column_stack([a, d, c]), np.column_stack([a, c, b])])

    p = nodes[triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det2 = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    grads = np.empty((triangles.shape[0], 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        edge = p[:, k] - p[:, j]
        grads[:, i, 0] = -edge[:, 1] / det2
        grads[:, i, 1] = edge[:, 0] / det2
    quad_points = np.stack(
        [0.5 * (p[:, 0] + p[:, 1]), 0.5 * (p[:, 1] + p[:, 2]), 0.5 * (p[:, 2] + p[:, 0])],
        axis=1,
    )
    outer_ring = (n_r - 1) * n_theta + np.arange(n_theta)
    return AnnulusMesh(
        nodes=nodes,
        triangles=triangles,
        inner_boundary=np.arange(n_theta),
        outer_boundary=outer_ring,
        areas=0.5 * det2,
        grads=grads,
        quad_points=quad_points,
        outer_edges=np.column_stack([outer_ring, np.roll(outer_ring, -1)]),
    )


MESH_ARRAYS = (
    "nodes", "triangles", "inner_boundary", "outer_boundary",
    "areas", "grads", "quad_points", "outer_edges",
)


class TestMesh:
    def test_nodes_inside_annulus(self):
        cfg = HelmholtzConfig(k0=5.0)
        mesh = build_annulus_mesh(cfg)
        radii = np.linalg.norm(mesh.nodes, axis=1)
        assert radii.min() >= cfg.r_in - 1e-12
        assert radii.max() <= cfg.r_out + 1e-12

    def test_inner_boundary_radius_exact(self):
        cfg = HelmholtzConfig(k0=8.0)
        mesh = build_annulus_mesh(cfg)
        radii = np.linalg.norm(mesh.nodes[mesh.inner_boundary], axis=1)
        assert np.max(np.abs(radii - cfg.r_in)) <= 1e-12
        outer = np.linalg.norm(mesh.nodes[mesh.outer_boundary], axis=1)
        assert np.max(np.abs(outer - cfg.r_out)) <= 1e-12

    def test_refinement_quadruples_triangles(self):
        coarse = build_annulus_mesh(HelmholtzConfig(k0=5.0, mesh_size=0.1))
        fine = build_annulus_mesh(HelmholtzConfig(k0=5.0, mesh_size=0.05))
        ratio = fine.n_triangles / coarse.n_triangles
        assert 3.5 <= ratio <= 4.5

    def test_max_edge_bounded(self):
        cfg = HelmholtzConfig(k0=6.0)
        mesh = build_annulus_mesh(cfg)
        p = mesh.nodes[mesh.triangles]
        edges = np.concatenate(
            [p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]]
        )
        assert np.linalg.norm(edges, axis=1).max() <= 1.5 * cfg.h + 1e-12

    def test_positive_orientation(self):
        mesh = build_annulus_mesh(HelmholtzConfig(k0=5.0))
        assert np.all(mesh.areas > 0)

    def test_boundary_sets_disjoint(self):
        mesh = build_annulus_mesh(HelmholtzConfig(k0=5.0))
        assert not set(mesh.inner_boundary) & set(mesh.outer_boundary)

    def test_too_coarse_raises(self):
        with pytest.raises(ValueError):
            build_annulus_mesh(HelmholtzConfig(k0=5.0, mesh_size=2.0))

    @pytest.mark.parametrize(
        "k0, mesh_size",
        # the three benchmark workloads' meshes, a large one and explicit sizes
        [(20.0, None), (12.0, None), (8.0, None), (40.0, None),
         (5.0, 0.1), (5.0, 0.05), (5.0, 0.74)],
    )
    def test_matches_the_reference_builder_bitwise(self, k0, mesh_size):
        cfg = HelmholtzConfig(k0=k0, mesh_size=mesh_size)
        mesh, ref = build_annulus_mesh(cfg), reference_mesh(cfg)
        for name in MESH_ARRAYS:
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert np.array_equal(got, want), name
            assert got.tobytes() == want.tobytes(), name  # signed zeros too

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(0.02, 0.749))
    def test_is_a_conforming_triangulation_of_the_annulus(self, mesh_size):
        cfg = HelmholtzConfig(k0=5.0, mesh_size=mesh_size)
        mesh = build_annulus_mesh(cfg)
        n = mesh.n_nodes
        heads = mesh.triangles.ravel()
        tails = np.roll(mesh.triangles, -1, axis=1).ravel()
        edges, reversed_edges = heads * n + tails, tails * n + heads
        # no edge twice in one orientation: an edge whose reverse is also
        # there lies in exactly two triangles, oppositely oriented
        assert np.unique(edges).size == edges.size
        boundary = np.sort(edges[~np.isin(reversed_edges, edges)])
        inner, outer = mesh.inner_boundary, mesh.outer_boundary
        rings = np.concatenate([outer * n + np.roll(outer, -1), np.roll(inner, -1) * n + inner])
        assert np.array_equal(boundary, np.sort(rings))
        assert np.array_equal(mesh.outer_edges[:, 0] * n + mesh.outer_edges[:, 1],
                              outer * n + np.roll(outer, -1))

        lengths = np.linalg.norm(mesh.nodes[tails] - mesh.nodes[heads], axis=1)
        assert lengths.max() <= 1.5 * cfg.h
        # every quad between rings r and r' has area sin(2 pi / n_theta)(r'^2 - r^2) / 2
        n_theta = inner.size
        area = n_theta / 2 * np.sin(2 * np.pi / n_theta) * (cfg.r_out**2 - cfg.r_in**2)
        assert abs(mesh.areas.sum() - area) <= 1e-12 * area

    @pytest.mark.parametrize("k0, mesh_size", [(5.0, 0.2), (20.0, None)])
    def test_the_triangles_of_an_edge_share_its_midpoint_bitwise(self, k0, mesh_size):
        # the shape assembler evaluates the pull-back once per edge, on the
        # quadrature node of either triangle; node i is the midpoint of
        # edge (i, i + 1 mod 3)
        mesh = build_annulus_mesh(HelmholtzConfig(k0=k0, mesh_size=mesh_size))
        tri = mesh.triangles
        ends = np.stack([tri, np.roll(tri, -1, axis=1)])
        keys = (ends.min(axis=0) * mesh.n_nodes + ends.max(axis=0)).ravel()
        points = mesh.quad_points.reshape(-1, 2)
        order = np.argsort(keys, kind="stable")
        keys, points = keys[order], points[order]
        first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
        group = np.cumsum(np.r_[True, keys[1:] != keys[:-1]]) - 1
        assert np.array_equal(points.view(np.uint64), points[first[group]].view(np.uint64))
        # Euler's formula on the annulus: V - E + F = 0
        assert first.size == mesh.n_nodes + mesh.n_triangles

    def test_export(self, tmp_path):
        mesh = build_annulus_mesh(HelmholtzConfig(k0=5.0))
        path = tmp_path / "mesh.txt"
        save_mesh(path, mesh)
        text = path.read_text().splitlines()
        assert text[0] == f"nodes {mesh.n_nodes}"
        assert f"triangles {mesh.n_triangles}" in text


class TestMollifier:
    CFG = HelmholtzConfig(k0=5.0)

    def test_one_at_scatterer(self):
        assert_allclose(mollifier(np.array([0.25, 0.0]), self.CFG), 1.0)

    def test_zero_from_rmol_outward(self):
        assert_allclose(mollifier(np.array([0.0, 0.9]), self.CFG), 0.0)
        assert_allclose(mollifier(np.array([0.95, 0.0]), self.CFG), 0.0)

    def test_linear_midpoint(self):
        assert_allclose(mollifier(np.array([0.575, 0.0]), self.CFG), 0.5)

    def test_range(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(500, 2))
        vals = mollifier(pts, self.CFG)
        assert np.all((vals >= 0) & (vals <= 1))


class TestAffineIndex:
    CFG = HelmholtzConfig(k0=5.0)

    def test_unit_at_reference_corner(self):
        fam = affine_family([0.25, 0.25], self.CFG)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.7, 0.7, size=(200, 2))
        pts = pts[np.linalg.norm(pts, axis=1) >= 0.25]
        vals = affine_refractive_index(np.ones(2), pts, fam, self.CFG)
        assert_allclose(vals, 1.0)

    def test_unit_outside_mollifier(self):
        fam = affine_family([0.5, 0.5], self.CFG)
        pts = np.array([[0.95, 0.0], [0.0, -0.92], [0.65, 0.65]])
        vals = affine_refractive_index(np.array([-1.0, 1.0]), pts, fam, self.CFG)
        assert_allclose(vals, 1.0)

    def test_sector_example(self):
        fam = affine_family([0.25, 0.25], self.CFG)
        x = np.array([[0.5, 0.0]])
        chi = (0.5 - 0.9) / (0.25 - 0.9)
        expected = 1.0 + chi * 0.25 * (-1.0 - 1.0) / 2.0
        val = affine_refractive_index(np.array([-1.0, 1.0]), x, fam, self.CFG)
        assert_allclose(val[0], expected, rtol=1e-12)
        assert_allclose(val[0], 0.84615, rtol=1e-4)

    def test_lower_bound_positive(self):
        fam = affine_family([0.25, 0.5, 0.75], self.CFG)
        rng = np.random.default_rng(2)
        for _ in range(50):
            y = rng.uniform(-1, 1, 3)
            pts = rng.uniform(-1, 1, size=(100, 2))
            vals = affine_refractive_index(y, pts, fam, self.CFG)
            assert np.all(vals >= 1.0 - 0.75 - 1e-12)
            assert np.all(vals > 0)

    def test_amplitude_validation(self):
        with pytest.raises(ValueError):
            affine_family([0.25, 1.0], self.CFG)
        with pytest.raises(ValueError):
            affine_family([-0.1], self.CFG)


class TestShapeGeometry:
    CFG = HelmholtzConfig(k0=5.0)

    def test_amplitude_caps(self):
        assert_allclose(max_safe_amplitude(2.0), 0.130748, rtol=1e-5)
        assert_allclose(max_safe_amplitude(3.0), 0.194439, rtol=1e-5)

    def test_first_mode_constant(self):
        fam = shape_family(3, 0.1, 2.0, self.CFG)
        thetas = np.linspace(0, 2 * np.pi, 50)
        mode_1 = boundary_radius([1.0, 0.0, 0.0], thetas, fam, self.CFG) - self.CFG.r_in
        assert_allclose(mode_1, 0.1)

    def test_amplitude_over_cap_rejected(self):
        with pytest.raises(ValueError):
            shape_family(3, 0.2, 2.0, self.CFG)

    def test_radius_positive_over_parameter_box(self):
        rng = np.random.default_rng(3)
        for decay in (2.0, 3.0):
            amp = 0.999 * max_safe_amplitude(decay)
            fam = shape_family(10, amp, decay, self.CFG)
            thetas = np.linspace(0, 2 * np.pi, 720, endpoint=False)
            for _ in range(20):
                y = rng.uniform(-1, 1, 10)
                assert np.all(boundary_radius(y, thetas, fam, self.CFG) > 0)

    def test_map_identity_at_origin(self):
        fam = shape_family(4, 0.1, 2.0, self.CFG)
        x = np.array([0.5, 0.3])
        phi, jac = domain_map(np.zeros(4), x, fam, self.CFG)
        assert_allclose(phi, x)
        assert_allclose(jac, np.eye(2))

    def test_map_fixed_outside_mollifier(self):
        fam = shape_family(4, 0.1, 2.0, self.CFG)
        rng = np.random.default_rng(4)
        y = rng.uniform(-1, 1, 4)
        for r in (0.9, 0.95, 1.0):
            x = np.array([r * np.cos(1.1), r * np.sin(1.1)])
            phi, jac = domain_map(y, x, fam, self.CFG)
            assert_allclose(phi, x, atol=1e-15)
            assert_allclose(jac, np.eye(2), atol=1e-15)

    def test_jacobian_matches_finite_differences(self):
        fam = shape_family(5, 0.8 * max_safe_amplitude(2.0), 2.0, self.CFG)
        rng = np.random.default_rng(5)
        step = 1e-5
        for _ in range(25):
            y = rng.uniform(-1, 1, 5)
            r = rng.uniform(0.3, 0.85)
            th = rng.uniform(0, 2 * np.pi)
            x = np.array([r * np.cos(th), r * np.sin(th)])
            _, jac = domain_map(y, x, fam, self.CFG)
            fd = np.zeros((2, 2))
            for k in range(2):
                xp, xm = x.copy(), x.copy()
                xp[k] += step
                xm[k] -= step
                fd[:, k] = (
                    domain_map(y, xp, fam, self.CFG)[0]
                    - domain_map(y, xm, fam, self.CFG)[0]
                ) / (2 * step)
            assert np.max(np.abs(fd - jac)) <= 1e-6


class TestAffineWeight:
    CFG = HelmholtzConfig(k0=5.0)

    def weight(self, eta):
        return affine_family(eta, self.CFG).prior.b_weight

    def test_unit_amplitudes(self):
        assert_allclose(self.weight([0.5, 0.5]).entries, np.eye(2))

    def test_squares_amplitudes(self):
        m = self.weight([0.5, 0.25, 0.125])
        assert_allclose(m.diagonal, [1.0, 0.25, 0.0625])
        assert_allclose(m.entries, np.diag(m.diagonal))

    def test_single_mode(self):
        # normalized to unit peak diagonal: diag(0.3^2) / 0.3^2
        assert_allclose(self.weight([0.3]).entries, [[1.0]])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            affine_family([0.5, 0.0], self.CFG)

    def test_d_weight_zero_for_affine_and_b_for_shape(self):
        assert not affine_family([0.5, 0.25], self.CFG).prior.d_weight.entries.any()
        prior = shape_family(3, 0.1, 2.0, self.CFG).prior
        assert prior.d_weight is prior.b_weight


class TestShapeModeNorms:
    # grad-chi bound of the mollifier on the annulus r_in=0.25, r_mol=0.9:
    # 1 / 0.65.
    GRAD = 1.0 / 0.65

    def test_reference_values(self):
        norms = _mode_norms(3, 1.0, 2.0, self.GRAD)
        assert_allclose(norms[0], 2 * self.GRAD)  # 3.07692...
        assert_allclose(norms[0], 3.076923, rtol=1e-6)
        assert_allclose(norms[1], 0.25 * (1 + self.GRAD + 1.0))  # 0.884615...
        assert_allclose(norms[1], 0.884615, rtol=1e-6)
        assert_allclose(norms[2], 0.25 * (1 + self.GRAD + 1.0))
        assert_allclose(norms[2], 0.884615, rtol=1e-6)

    def test_decreasing_within_parity(self):
        norms = _mode_norms(25, 0.5, 2.5, self.GRAD)
        evens = norms[1::2]  # j = 2, 4, ...
        odds = norms[2::2]  # j = 3, 5, ...
        assert np.all(np.diff(evens) < 0)
        assert np.all(np.diff(odds) < 0)

    def test_positive(self):
        assert np.all(_mode_norms(10, 0.1, 3.0, self.GRAD) > 0)

    def test_norms_bound_the_mode_tables(self):
        # modes 2..9 have integer frequencies up to 4, so this grid holds
        # every peak of each mode and of its derivative
        thetas = 2 * np.pi * np.arange(1440) / 1440
        for amp, decay in ((0.05, 2.0), (0.1, 2.5), (0.01, 3.7), (0.12, 1.3)):
            vals, derivs = _mode_tables(thetas, 9, amp, decay)
            norms = _mode_norms(9, amp, decay, self.GRAD)
            peaks = (1 + self.GRAD) * np.abs(vals).max(axis=0) + np.abs(derivs).max(axis=0)
            assert_allclose(norms[1:], peaks[1:], rtol=1e-15, atol=0)
            assert norms[0] == 2 * amp * self.GRAD


def test_geometry_is_not_a_setting():
    with pytest.raises(TypeError):
        HelmholtzConfig(k0=5.0, r_in=0.3)


class TestPullback:
    CFG = HelmholtzConfig(k0=5.0)

    def test_identity_at_origin(self):
        fam = shape_family(3, 0.1, 2.0, self.CFG)
        a, n = pullback_coefficients(np.zeros(3), np.array([0.4, 0.2]), fam, self.CFG)
        assert_allclose(a, np.eye(2))
        assert_allclose(n, 1.0)

    def test_symmetric_positive_definite(self):
        fam = shape_family(4, 0.9 * max_safe_amplitude(2.0), 2.0, self.CFG)
        rng = np.random.default_rng(6)
        y = rng.uniform(-1, 1, 4)
        pts = rng.uniform(-0.8, 0.8, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) >= 0.26]
        a, n = pullback_coefficients(y, pts, fam, self.CFG)
        assert np.max(np.abs(a - np.swapaxes(a, -1, -2))) <= 1e-12
        assert np.all(n > 0)
        assert np.all(np.linalg.eigvalsh(a) > 0)

    def test_eigenvalues_are_singular_value_ratios(self):
        # A = J^-1 J^-T det J has eigenvalues sigma2/sigma1 and
        # sigma1/sigma2; the dense SVD of J is the oracle.
        fam = shape_family(4, 0.9 * max_safe_amplitude(2.0), 2.0, self.CFG)
        rng = np.random.default_rng(7)
        y = rng.uniform(-1, 1, 4)
        for _ in range(20):
            r = rng.uniform(0.3, 0.85)
            th = rng.uniform(0, 2 * np.pi)
            x = np.array([r * np.cos(th), r * np.sin(th)])
            _, jac = domain_map(y, x, fam, self.CFG)
            a, _ = pullback_coefficients(y, x, fam, self.CFG)
            sv = np.linalg.svd(jac, compute_uv=False)
            expected = np.sort([sv[0] / sv[1], sv[1] / sv[0]])
            assert_allclose(np.sort(np.linalg.eigvalsh(a)), expected, rtol=1e-10)

    def test_closed_form_matches_explicit_inverse(self):
        fam = shape_family(5, 0.9 * max_safe_amplitude(2.0), 2.0, self.CFG)
        rng = np.random.default_rng(10)
        r = rng.uniform(0.26, 1.0, 400)
        th = rng.uniform(0, 2 * np.pi, 400)
        x = np.column_stack([r * np.cos(th), r * np.sin(th)])
        for _ in range(10):
            y = rng.uniform(-1, 1, 5)
            _, jac = domain_map(y, x, fam, self.CFG)
            det = np.linalg.det(jac)
            inv = np.linalg.inv(jac)
            expected = inv @ np.swapaxes(inv, -1, -2) * det[:, None, None]
            a, n = pullback_coefficients(y, x, fam, self.CFG)
            assert np.max(np.abs(a - expected)) <= 1e-13
            assert np.max(np.abs(n - det)) <= 1e-13


def reference_system(y, fam, mesh, cfg):
    """Element-by-element assembly with explicit inverses, as a dict of entries."""
    entries = {}

    def add(i, j, v):
        entries[(i, j)] = entries.get((i, j), 0.0) + v

    for t, tri in enumerate(mesh.triangles):
        qp = mesh.quad_points[t]
        if fam.kind == "affine":
            coef = [(np.eye(2), n) for n in affine_refractive_index(y, qp, fam, cfg)]
        else:
            _, jacs = domain_map(y, qp, fam, cfg)
            coef = []
            for jac in jacs:
                inv = np.linalg.inv(jac)
                det = np.linalg.det(jac)
                coef.append((inv @ inv.T * det, det))
        w = mesh.areas[t] / 3.0
        g = mesh.grads[t]
        for i in range(3):
            for j in range(3):
                v = sum(
                    w * (g[i] @ a @ g[j] - cfg.k0**2 * n * phi[i] * phi[j])
                    for phi, (a, n) in zip(_QUAD_PHI, coef)
                )
                add(tri[i], tri[j], v)
    for a, b in mesh.outer_edges:
        length = np.linalg.norm(mesh.nodes[b] - mesh.nodes[a])
        for i, j, c in ((a, a, 2), (b, b, 2), (a, b, 1), (b, a, 1)):
            add(i, j, -1j * cfg.k0 * length * c / 6.0)
    fixed = set(mesh.inner_boundary.tolist())
    return {
        (i, j): 1.0 if i in fixed else v
        for (i, j), v in entries.items()
        if (i not in fixed and j not in fixed) or i == j
    }


class TestAssembly:
    def test_matches_element_loop_reference(self):
        cfg = HelmholtzConfig(k0=5.0, mesh_size=0.2)
        mesh = build_annulus_mesh(cfg)
        rng = np.random.default_rng(12)
        families = [
            affine_family([0.6, 0.3, 0.8], cfg),
            shape_family(3, 0.9 * max_safe_amplitude(2.0), 2.0, cfg),
        ]
        for fam in families:
            for y in [np.zeros(fam.n_dims), *rng.uniform(-1, 1, (3, fam.n_dims))]:
                a, b = assemble(y, fam, mesh, cfg)
                ref = reference_system(y, fam, mesh, cfg)
                coo = a.tocoo()
                assert a.nnz == len(ref)
                assert set(zip(coo.row.tolist(), coo.col.tolist())) == set(ref)
                expected = np.array([ref[(i, j)] for i, j in zip(coo.row, coo.col)])
                scale = np.max(np.abs(expected))
                assert np.max(np.abs(coo.data - expected)) <= 1e-13 * scale
                rhs = incident_rhs(mesh, cfg)
                rhs[mesh.inner_boundary] = 0.0
                assert np.array_equal(b, rhs)

    def test_reused_mesh_follows_family_and_cfg(self):
        cfg = HelmholtzConfig(k0=5.0, mesh_size=0.2)
        other_cfg = HelmholtzConfig(k0=7.0, mesh_size=0.2)
        mesh = build_annulus_mesh(cfg)
        y = np.array([0.4, -0.3])
        shape = shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg)
        calls = [
            (affine_family([0.5, 0.5], cfg), cfg),
            (affine_family([0.8, 0.2], cfg), cfg),
            (shape, cfg),
            (shape, other_cfg),
        ]
        for fam, c in calls:
            a, b = assemble(y, fam, mesh, c)
            a_fresh, b_fresh = assemble(y, fam, build_annulus_mesh(cfg), c)
            assert (a != a_fresh).nnz == 0
            assert np.array_equal(b, b_fresh)

    def test_cached_assembler_dies_with_its_mesh(self):
        # no reference cycle: dropping the mesh frees the cached data at
        # once, without waiting for the cyclic garbage collector
        import gc
        import weakref

        cfg = HelmholtzConfig(k0=5.0, mesh_size=0.2)
        mesh = build_annulus_mesh(cfg)
        fam = affine_family([0.5, 0.5], cfg)
        assemble(np.zeros(2), fam, mesh, cfg)
        ref = weakref.ref(mesh._assembler)
        gc.disable()
        try:
            del mesh
            assert ref() is None
        finally:
            gc.enable()

    def test_assemble_raises_on_degenerate_map(self):
        cfg = HelmholtzConfig(k0=5.0)
        mesh = build_annulus_mesh(cfg)
        fam = shape_family(2, 0.9 * max_safe_amplitude(2.0), 2.0, cfg)
        with pytest.raises(DegenerateMapError):
            assemble(np.array([-8.0, 0.0]), fam, mesh, cfg)

    def test_mass_total_equals_area(self):
        cfg = HelmholtzConfig(k0=5.0, mesh_size=0.1)
        mesh = build_annulus_mesh(cfg)
        total = mass_matrix(mesh).sum()
        area = np.pi * (1 - 1 / 16)
        assert abs(total - area) <= 2.0 * cfg.h**2

    def test_system_complex_symmetric(self):
        # exactly: the upper triangle is scattered once and mirrored
        cfg = HelmholtzConfig(k0=6.0)
        mesh = build_annulus_mesh(cfg)
        families = [
            affine_family([0.25, 0.25], cfg),
            shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg),
        ]
        for fam in families:
            y = np.array([0.3, -0.4])
            for a in (assemble(y, fam, mesh, cfg)[0], assemble_operator(y, fam, mesh, cfg)):
                assert (a != a.T).nnz == 0
                assert np.abs(a.diagonal().imag).max() > 0  # Robin term present

    def test_dirichlet_rows_eliminated(self):
        cfg = HelmholtzConfig(k0=6.0)
        mesh = build_annulus_mesh(cfg)
        fam = affine_family([0.25], cfg)
        a, b = assemble(np.array([0.1]), fam, mesh, cfg)
        sub = a[mesh.inner_boundary][:, mesh.inner_boundary].toarray()
        assert_allclose(sub, np.eye(len(mesh.inner_boundary)))
        assert_allclose(b[mesh.inner_boundary], 0.0)

    def test_manufactured_plane_wave_second_order(self):
        # u* = exp(i k0 d.x) solves the PDE with unit coefficients; feeding
        # its Robin and Dirichlet data must reproduce it at order ~2 in L2.
        k0 = 5.0
        errs, hs = [], []
        for h in (0.15, 0.075, 0.0375, 0.01875):
            cfg = HelmholtzConfig(k0=k0, mesh_size=h)
            mesh = build_annulus_mesh(cfg)
            fam = affine_family(np.array([0.25, 0.25]), cfg)
            system = assemble_operator(np.ones(2), fam, mesh, cfg)
            rhs = incident_rhs(mesh, cfg)
            u_star = np.exp(1j * k0 * (mesh.nodes @ np.asarray(INCIDENT_DIRECTION)))
            system, rhs = apply_sound_soft(
                system, rhs, mesh, values=u_star[mesh.inner_boundary]
            )
            u_h = spla.spsolve(system.tocsc(), rhs)
            err = u_h - u_star
            m = mass_matrix(mesh)
            errs.append(float(np.sqrt(abs(np.vdot(err, m @ err)))))
            hs.append(h)
        rate = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert rate >= 1.8

    def test_exact_preconditioner_consistency_both_families(self):
        cfg = HelmholtzConfig(k0=8.0)
        mesh = build_annulus_mesh(cfg)
        rng = np.random.default_rng(8)
        families = [
            affine_family([0.25, 0.25], cfg),
            shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg),
        ]
        for fam in families:
            y = rng.uniform(-1, 1, fam.n_dims)
            a, b = assemble(y, fam, mesh, cfg)
            pc = lu_factor(a)
            rep = gmres_left(pc, a, b, tol=1e-5)
            assert rep.converged and rep.iterations == 1

    def test_operator_continuous_in_parameter(self):
        cfg = HelmholtzConfig(k0=6.0)
        mesh = build_annulus_mesh(cfg)
        fam = shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg)
        y0 = np.array([0.3, -0.2])
        a0, _ = assemble(y0, fam, mesh, cfg)
        gaps = []
        for eps in (0.1, 0.01, 0.001):
            a_eps, _ = assemble(y0 + eps, fam, mesh, cfg)
            gaps.append(spla.norm(a_eps - a0, "fro"))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 2e-2 * gaps[0]

    def test_degenerate_map_raises(self):
        cfg = HelmholtzConfig(k0=5.0)
        fam = shape_family(2, 0.9 * max_safe_amplitude(2.0), 2.0, cfg)
        # force a degenerate configuration by leaving the parameter box
        bad_y = np.array([-8.0, 0.0])
        with pytest.raises(DegenerateMapError):
            pullback_coefficients(bad_y, np.array([0.5, 0.0]), fam, cfg)


def scattered_affine_system(y, fam, mesh, cfg):
    """An affine system at ``y`` by the element scatter, with each entry's scale.

    The element matrices of the refractive index at ``y`` and the Robin
    block are summed into the CSR pattern and the scatterer eliminated, as
    the assembler did before it precomputed the affine combination.  The
    scale of an entry is the sum of the magnitudes of the terms it adds up.
    """
    index = affine_refractive_index(y, mesh.quad_points, fam, cfg)
    stiffness = np.einsum("tik,tjk->tij", mesh.grads, mesh.grads) * mesh.areas[:, None, None]
    mass = cfg.k0**2 * np.einsum("t,tq,qi,qj->tij", mesh.areas / 3.0, index, _QUAD_PHI, _QUAD_PHI)
    tri, edges = mesh.triangles, mesh.outer_edges
    lengths = np.linalg.norm(mesh.nodes[edges[:, 1]] - mesh.nodes[edges[:, 0]], axis=1)
    robin = -1j * cfg.k0 * lengths[:, None] * np.array([2.0, 1.0, 1.0, 2.0]) / 6.0
    rows = np.concatenate([np.repeat(tri, 3, axis=1).ravel(), edges[:, [0, 0, 1, 1]].ravel()])
    cols = np.concatenate([np.tile(tri, 3).ravel(), edges[:, [0, 1, 0, 1]].ravel()])
    shape = (mesh.n_nodes, mesh.n_nodes)

    def eliminated(values):
        matrix = sp.coo_matrix((values, (rows, cols)), shape=shape).tocsr()
        return apply_sound_soft(matrix, incident_rhs(mesh, cfg), mesh)

    system, rhs = eliminated(np.concatenate([(stiffness - mass).ravel(), robin.ravel()]))
    scale, _ = eliminated(
        np.concatenate([(np.abs(stiffness) + np.abs(mass)).ravel(), np.abs(robin).ravel()])
    )
    return system, rhs, scale


class TestAffineCombination:
    """The affine family's precomputed d_0 + sum_j y_j d_j against the scatter."""

    CFG = HelmholtzConfig(k0=4.0, mesh_size=0.2)
    ETA = [0.6, 0.3, 0.8, 0.45]

    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
    def test_matches_the_element_scatter(self, n_dims):
        import itertools

        mesh = build_annulus_mesh(self.CFG)
        fam = affine_family(self.ETA[:n_dims], self.CFG)
        rng = np.random.default_rng(n_dims)
        corners = np.array(list(itertools.product([-1.0, 1.0], repeat=n_dims)))
        inner = mesh.inner_boundary
        rhs = incident_rhs(mesh, self.CFG)
        rhs[inner] = 0.0
        for y in [np.zeros(n_dims), *corners, *rng.uniform(-1, 1, (3, n_dims))]:
            a, b = assemble(y, fam, mesh, self.CFG)
            ref, ref_rhs, scale = scattered_affine_system(y, fam, mesh, self.CFG)
            assert np.array_equal(a.indptr, ref.indptr)
            assert np.array_equal(a.indices, ref.indices)
            assert np.all(np.abs(a.data - ref.data) <= 4 * np.finfo(float).eps * scale.data.real)
            # the scatterer's rows are exact identity rows
            assert np.array_equal(np.diff(a.indptr)[inner], np.ones(inner.size))
            assert np.array_equal(a.indices[a.indptr[inner]], inner)
            assert np.array_equal(a.data[a.indptr[inner]], np.ones(inner.size))
            assert np.array_equal(b, rhs)
            assert np.array_equal(ref_rhs, rhs)
