"""How far can one LU preconditioner carry you in parameter space?

We assemble the shape-parameterized Helmholtz system at the parameter-box
center, factor it once, and then solve at increasingly distant parameter
points with that single preconditioner.  The GMRES iteration count is the
whole story: 1 iteration at the center, growing with the shift.  That
growth curve is exactly what the surrogate in demo 03 learns.
"""

import numpy as np

from pcplace import HelmholtzConfig, build_annulus_mesh, gmres_left, lu_factor
from pcplace.helmholtz import assemble, max_safe_amplitude, shape_family

cfg = HelmholtzConfig(k0=15.0)
mesh = build_annulus_mesh(cfg)
family = shape_family(2, 0.5 * max_safe_amplitude(2.0), 2.0, cfg)
print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_triangles} triangles (k0 = {cfg.k0})")

# one preconditioner at the center of [-1, 1]^2
center = np.zeros(2)
matrix, rhs = assemble(center, family, mesh, cfg)
pc = lu_factor(matrix)
print(f"LU factors built in {pc.build_time * 1e3:.1f} ms, nnz = {pc.nnz}")

print("\n shift along the diagonal | GMRES iterations | preconditioned residual")
for t in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0):
    y = t * np.ones(2)
    matrix, rhs = assemble(y, family, mesh, cfg)
    report = gmres_left(pc, matrix, rhs, tol=1e-5)
    print(
        f"   |y| = {np.linalg.norm(y):4.2f}            "
        f"|      {report.iterations:3d}         "
        f"|  {report.residual_history[-1]:.2e}"
    )

# the residual history is monotone: full GMRES minimizes at every step
matrix, rhs = assemble(np.array([1.0, -1.0]), family, mesh, cfg)
report = gmres_left(pc, matrix, rhs, tol=1e-5)
print("\nresidual history at the far corner:")
print("  " + "  ".join(f"{r:.1e}" for r in report.residual_history))
