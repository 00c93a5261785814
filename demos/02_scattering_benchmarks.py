"""The two built-in Helmholtz benchmark families, up close.

Family "affine": the scatterer is the unit-radius-0.25 disc; the medium's
refractive index varies per angular sector, linearly in each parameter,
and is mollified back to 1 near the absorbing outer boundary.

Family "shape": the scatterer boundary itself is parameterized by Fourier
modes with algebraically decaying amplitudes; the problem is pulled back
to the reference annulus, so parameter changes become smoothly varying
diffusion/refraction coefficients on a fixed mesh.
"""

import numpy as np

from pcplace import HelmholtzConfig, build_annulus_mesh
from pcplace.helmholtz import (
    affine_family,
    affine_refractive_index,
    boundary_radius,
    max_safe_amplitude,
    mollifier,
    pullback_coefficients,
    save_mesh,
    shape_family,
)

cfg = HelmholtzConfig(k0=10.0)
mesh = build_annulus_mesh(cfg)
print(f"reference annulus: {mesh.n_nodes} nodes, h = {cfg.h:.3f}")
save_mesh("demo_mesh.txt", mesh)
print("mesh exported to demo_mesh.txt (plain node/element text)")

# the mollifier confines every parameter effect to the scatterer's vicinity
for r in (0.25, 0.5, 0.75, 0.9, 1.0):
    print(f"  mollifier at |x| = {r:.2f}: {mollifier(np.array([r, 0.0]), cfg):.3f}")

# affine family: refractive index per sector
fam_a = affine_family([0.25, 0.25], cfg)
y = np.array([-1.0, 1.0])
probes = np.array([[0.5, 0.0], [-0.5, 0.0], [0.0, 0.95]])
print("\naffine family, y =", y)
for x, n in zip(probes, affine_refractive_index(y, probes, fam_a, cfg)):
    print(f"  n at {x}: {n:.5f}")

# shape family: the boundary radius and the amplitude safety cap
amp_cap = max_safe_amplitude(2.0)
print(f"\nshape family cap: amplitude < {amp_cap:.5f} keeps the boundary simple")
fam_s = shape_family(4, 0.5 * amp_cap, 2.0, cfg)
thetas = np.linspace(0, 2 * np.pi, 8, endpoint=False)
radii = boundary_radius(np.array([1.0, -1.0, 0.5, 0.5]), thetas, fam_s, cfg)
print("  boundary radius samples:", np.round(radii, 4))

# the pullback turns the moving boundary into matrix-valued diffusion
a_coef, n_coef = pullback_coefficients(
    np.array([1.0, -1.0, 0.5, 0.5]), np.array([0.4, 0.1]), fam_s, cfg
)
print("  pullback diffusion at (0.4, 0.1):\n", np.round(a_coef, 4))
print("  pullback refraction:", round(float(n_coef), 4))

# anisotropy metadata drives the surrogate: mode 1 dominates, so its
# kernel correlation length is the domain diameter and later modes relax
print("\nkernel correlation lengths (shape family):", np.round(fam_s.prior.profile.corr_lengths, 2))
