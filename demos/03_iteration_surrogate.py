"""Training the gray-box iteration surrogate with active learning.

The surrogate models the GMRES contraction factor as a Gaussian process
over parameter shifts, wrapped by the Elman-type map between contraction
factors and iteration counts.  Training points are real solves with the
mean-based preconditioner, picked by a variance-per-cost acquisition rule
and stopped by stabilizing predictions: once consecutive surrogates agree
on 99% of the targets, more solves are not worth their cost.
"""

import numpy as np

from pcplace import ExperimentConfig
from pcplace.harness import train
from pcplace.helmholtz import assemble, max_safe_amplitude
from pcplace.krylov import gmres_left

exp = ExperimentConfig.from_dict(
    {
        "family": {
            "kind": "shape",
            "n_dims": 2,
            "amplitude": 0.5 * max_safe_amplitude(2.0),
            "decay": 2.0,
        },
        "k0": 12.0,
        "n_points": 60,
        "seed": 42,
    }
)
surrogate, oracle = train(exp)
family, mesh, cfg = oracle.family, oracle.mesh, oracle.cfg
print(
    f"trained with {len(surrogate.evaluated)} solves out of {len(oracle.points)} targets"
)
print(f"break-even iteration count m_max = {surrogate.m_max:.1f}")
print("disagree-ratio trace:", [round(v, 3) for v in surrogate.sp_history])
print("fitted prior coefficients:", np.round(surrogate.gp.coeffs, 4))

# sanity: the surrogate against fresh ground truth
rng = np.random.default_rng(0)
holdout = rng.uniform(-1, 1, size=(8, 2))
print("\n      y          true m   predicted m")
for y in holdout:
    matrix, rhs = assemble(y, family, mesh, cfg)
    rep = gmres_left(oracle.reference_pc, matrix, rhs, tol=cfg.tol)
    pred = float(surrogate.expected_iterations((y - surrogate.ybar).reshape(1, -1))[0])
    print(f"  [{y[0]: .2f}, {y[1]: .2f}]   {rep.iterations:5d}   {pred:10.2f}")

print("\nzero shift always predicts one iteration:",
      float(surrogate.expected_iterations(np.zeros((1, 2)))[0]))
