"""Preconditioner placement for parameterized complex linear systems.

Solving A(y) u = b for many parameter values y is dominated by either
preconditioner builds or Krylov iterations.  This package learns a
surrogate for the GMRES iteration count of LU-preconditioned solves as a
function of the parameter shift, then places a near-optimal set of
preconditioners in parameter space by greedy initialization and
location-allocation.  Two Helmholtz scattering benchmark families
(parametric refractive index, parametric scatterer shape) are built in.
"""

from .harness import (
    ExperimentConfig,
    RunReport,
    baseline_mean_based,
    baseline_per_point,
    emit_report,
    load_report,
    run_pipeline,
    sample_parameter_set,
)
from .helmholtz import (
    AnnulusMesh,
    HelmholtzConfig,
    ProblemFamily,
    affine_family,
    assemble,
    build_annulus_mesh,
    max_safe_amplitude,
    shape_family,
)
from .krylov import (
    CostPolicy,
    LuPreconditioner,
    SolveReport,
    contraction_factor,
    gmres_left,
    lu_factor,
)
from .param_space import AnisotropyProfile, ParamBox, ParamSet, SurrogatePrior, WeightMatrix
from .placement import PlacementPlan, allocate, locate, plan_placement
from .surrogate import (
    GpState,
    IterationMap,
    SpTracker,
    TrainedSurrogate,
    train_surrogate_core,
)

__version__ = "0.1.0"
