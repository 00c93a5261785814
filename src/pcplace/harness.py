"""Experiment pipeline: configuration, end-to-end runs, baselines, reports.

A run is driven by a single JSON config document (validated against
``CONFIG_SCHEMA``).  The pipeline trains the iteration surrogate on the
target set, plans preconditioner placement for the not-yet-solved targets,
executes every remaining solve with its assigned preconditioner, and emits
a report whose cost accounting uses iteration units: one preconditioner
build counts as the realized break-even iteration count.  In synthetic
cost mode all reported times are modeled, so reports are byte-identical
across machines and runs with the same seed.
"""

from __future__ import annotations

import csv
import functools
import json
import operator
import time
from dataclasses import dataclass, field, fields, replace

import jsonschema
import numpy as np

# assemble, lu_factor and gmres_left are unused here but stay importable:
# the traced benchmark (bench/spans.py) wraps them at this module too
from .helmholtz import (  # noqa: F401
    HelmholtzConfig,
    ProblemFamily,
    affine_family,
    assemble,
    build_annulus_mesh,
    shape_family,
)
from .krylov import CostPolicy, gmres_left, lu_factor  # noqa: F401
from .param_space import ParamBox, ParamSet
from .placement import PlacementPlan, plan_placement
from .surrogate import (
    FemSolveOracle,
    SurrogatePrior,
    TrainedSurrogate,
    train_surrogate_core,
)

__all__ = [
    "CONFIG_SCHEMA",
    "CSV_HEADER",
    "ExperimentConfig",
    "RunReport",
    "sample_parameter_set",
    "train",
    "place",
    "run_pipeline",
    "baseline_mean_based",
    "baseline_per_point",
    "emit_report",
    "load_report",
]

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["family", "k0", "n_points"],
    "additionalProperties": False,
    "properties": {
        "family": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["affine", "shape"]},
                "eta": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                "n_dims": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "decay": {"type": "number", "exclusiveMinimum": 1},
            },
        },
        "k0": {"type": "number", "exclusiveMinimum": 0},
        "n_points": {"type": "integer", "minimum": 1},
        "sampling": {"enum": ["uniform", "halton", "grid"]},
        "seed": {"type": "integer", "minimum": 0},
        "tol": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "mesh_constant": {"type": "number", "exclusiveMinimum": 0},
        "mesh_size": {"type": ["number", "null"], "exclusiveMinimum": 0},
        "max_iter": {"type": ["integer", "null"], "minimum": 1},
        "cost": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["synthetic", "measured"]},
                "c_build": {"type": "number", "exclusiveMinimum": 0},
                "c_iter": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "sp_window": {"type": "integer", "minimum": 1},
        "placement": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "la_max_iter": {"type": "integer", "minimum": 1},
                "rel_improvement_floor": {"type": "number", "minimum": 0},
                "n_restarts": {"type": "integer", "minimum": 0},
                "kappa": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output_dir": {"type": "string"},
    },
}

CSV_HEADER = (
    "N,t_train,t_l_al,t_exec,N_pc,it_av,cost_total,cost_mean_based,cost_per_point"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one JSON document)."""

    family_kind: str
    n_dims: int
    k0: float
    n_points: int
    eta: tuple[float, ...] | None = None
    amplitude: float | None = None
    decay: float | None = None
    sampling: str = "uniform"
    seed: int = 0
    tol: float = 1e-5
    mesh_constant: float = 2.5
    mesh_size: float | None = None
    max_iter: int | None = None
    cost_mode: str = "synthetic"
    c_build: float = 1e-4
    c_iter: float = 1e-6
    sp_window: int = 5
    la_max_iter: int = 50
    rel_improvement_floor: float = 1e-4
    n_restarts: int = 5
    kappa: float = 1.0
    output_dir: str = "pcplace_out"

    def __post_init__(self):
        if self.family_kind not in ("affine", "shape"):
            raise ValueError("family kind must be 'affine' or 'shape'")
        if self.family_kind == "affine":
            if not self.eta or len(self.eta) != self.n_dims:
                raise ValueError("affine family needs one eta per dimension")
        else:
            if self.amplitude is None or self.decay is None:
                raise ValueError("shape family needs amplitude and decay")
        if self.sampling == "grid" and self.n_dims > 3:
            raise ValueError("grid sampling is offered for up to 3 dimensions")
        if self.n_points < 1:
            raise ValueError("need at least one target point")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        jsonschema.validate(doc, CONFIG_SCHEMA)
        fam = doc["family"]
        kind = fam["kind"]
        if kind == "affine":
            if "eta" not in fam:
                raise ValueError("affine family config needs 'eta'")
            n_dims = len(fam["eta"])
            eta = tuple(float(v) for v in fam["eta"])
            amplitude = decay = None
        else:
            for key in ("n_dims", "amplitude", "decay"):
                if key not in fam:
                    raise ValueError(f"shape family config needs '{key}'")
            n_dims = int(fam["n_dims"])
            eta = None
            amplitude = float(fam["amplitude"])
            decay = float(fam["decay"])
        cost = doc.get("cost", {})
        placement = doc.get("placement", {})
        return cls(
            family_kind=kind,
            n_dims=n_dims,
            k0=float(doc["k0"]),
            n_points=int(doc["n_points"]),
            eta=eta,
            amplitude=amplitude,
            decay=decay,
            sampling=doc.get("sampling", "uniform"),
            seed=int(doc.get("seed", 0)),
            tol=float(doc.get("tol", 1e-5)),
            mesh_constant=float(doc.get("mesh_constant", 2.5)),
            mesh_size=doc.get("mesh_size"),
            max_iter=doc.get("max_iter"),
            cost_mode=cost.get("mode", "synthetic"),
            c_build=float(cost.get("c_build", 1e-4)),
            c_iter=float(cost.get("c_iter", 1e-6)),
            sp_window=int(doc.get("sp_window", 5)),
            la_max_iter=int(placement.get("la_max_iter", 50)),
            rel_improvement_floor=float(placement.get("rel_improvement_floor", 1e-4)),
            n_restarts=int(placement.get("n_restarts", 5)),
            kappa=float(placement.get("kappa", 1.0)),
            output_dir=doc.get("output_dir", "pcplace_out"),
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def with_overrides(self, seed=None, cost_mode=None, output_dir=None):
        updates = {}
        if seed is not None:
            updates["seed"] = int(seed)
        if cost_mode is not None:
            updates["cost_mode"] = cost_mode
        if output_dir is not None:
            updates["output_dir"] = output_dir
        return replace(self, **updates) if updates else self

    # problem construction -------------------------------------------------

    def helmholtz_config(self) -> HelmholtzConfig:
        return HelmholtzConfig(
            k0=self.k0,
            tol=self.tol,
            mesh_constant=self.mesh_constant,
            mesh_size=self.mesh_size,
            max_iter=self.max_iter,
        )

    def build_family(self, cfg: HelmholtzConfig) -> ProblemFamily:
        if self.family_kind == "affine":
            return affine_family(np.asarray(self.eta), cfg)
        return shape_family(self.n_dims, self.amplitude, self.decay, cfg)

    def cost_policy(self) -> CostPolicy:
        return CostPolicy(mode=self.cost_mode, c_build=self.c_build, c_iter=self.c_iter)


def sample_parameter_set(exp: ExperimentConfig) -> ParamSet:
    """Deterministic target set in [-1, 1]^N per the config's sampling rule.

    ``uniform`` draws i.i.d. points with the config seed, ``halton`` is
    the seeded low-discrepancy alternative, and ``grid`` builds a tensor
    grid with round(n_points^(1/N)) nodes per dimension (so the realized
    count is the nearest perfect power).
    """
    box = ParamBox.symmetric_unit(exp.n_dims)
    if exp.sampling == "uniform":
        rng = np.random.default_rng(exp.seed)
        pts = rng.uniform(-1.0, 1.0, size=(exp.n_points, exp.n_dims))
    elif exp.sampling == "halton":
        from scipy.stats import qmc

        sampler = qmc.Halton(d=exp.n_dims, scramble=True, seed=exp.seed)
        pts = 2.0 * sampler.random(exp.n_points) - 1.0
    else:
        per_dim = max(2, round(exp.n_points ** (1.0 / exp.n_dims)))
        axes = [np.linspace(-1.0, 1.0, per_dim)] * exp.n_dims
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
    return ParamSet(box, pts)


@dataclass
class RunReport:
    """Outcome of one strategy run (pipeline or baseline)."""

    label: str
    n_dims: int
    k0: float
    n_points: int
    seed: int
    cost_mode: str
    n_ratio: float
    t_train: float
    t_l_al: float
    t_exec: float
    n_pc: int
    it_av: float
    cost_total: float
    cost_mean_based: float | None = None
    cost_per_point: float | None = None
    cost_mean_based_estimated: bool = False
    degraded: bool = False
    m_max: float | None = None
    per_point: list[dict] = field(default_factory=list)
    pc_locations: list[list[float]] = field(default_factory=list)
    pc_fixed_mask: list[bool] = field(default_factory=list)
    disagree_trace: list[float] = field(default_factory=list)
    rmse_trace: list[float] = field(default_factory=list)
    greedy_cost_trace: list[float] = field(default_factory=list)
    sigma_m_trace: list[float] = field(default_factory=list)
    m_grid: dict | None = None
    wall_seconds: float | None = None

    @property
    def t_tot(self) -> float:
        return self.t_train + self.t_l_al + self.t_exec

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(format_version=1, t_tot=self.t_tot)
        if self.cost_mode != "measured" or self.wall_seconds is None:
            del doc["wall_seconds"]
        return _jsonify(doc)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunReport":
        if doc.get("format_version") != 1:
            raise ValueError("unsupported report document version")
        return cls(
            **{k: v for k, v in doc.items() if k not in ("format_version", "t_tot")}
        )


def _jsonify(obj):
    """Recursively coerce numpy scalars/arrays into plain JSON values."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _running_rmse(trace) -> list[float]:
    """Running one-step-ahead RMSE of surrogate predictions vs. measurements."""
    out, sq = [], 0.0
    for k, (_, predicted, measured) in enumerate(trace, start=1):
        sq += (predicted - measured) ** 2
        out.append(float(np.sqrt(sq / k)))
    return out


def _m_grid(surrogate: TrainedSurrogate, box: ParamBox, resolution: int = 41):
    """Surrogate iteration counts on a plotting grid (2D families only)."""
    if box.dims != 2:
        return None
    axis = np.linspace(-1.0, 1.0, resolution)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    deltas = np.column_stack([xx.ravel(), yy.ravel()])
    vals = surrogate.expected_iterations(deltas)
    return {
        "axis": axis.tolist(),
        "values": vals.reshape(resolution, resolution).tolist(),
    }


def _oracle(exp: ExperimentConfig) -> FemSolveOracle:
    """The experiment's problem (targets, family, mesh, cost policy), built once."""
    cfg = exp.helmholtz_config()
    return FemSolveOracle(
        sample_parameter_set(exp),
        exp.build_family(cfg),
        build_annulus_mesh(cfg),
        cfg,
        exp.cost_policy(),
    )


def train(exp: ExperimentConfig) -> tuple[TrainedSurrogate, FemSolveOracle]:
    """Train the iteration surrogate on the experiment's targets.

    Returns the surrogate and the oracle that ran its solves; the oracle
    keeps the reference preconditioner and the per-position solve log.
    """
    oracle = _oracle(exp)
    family = oracle.family
    prior = SurrogatePrior(family.b_weight, family.d_weight, family.profile)
    surrogate = train_surrogate_core(
        oracle.points, oracle, prior, tol=oracle.cfg.tol, sp_window=exp.sp_window
    )
    return surrogate, oracle


def place(
    exp: ExperimentConfig, surrogate: TrainedSurrogate, remaining: ParamSet
) -> PlacementPlan:
    """Plan preconditioners for ``remaining``, with the mean one as fixed.

    With nothing left to solve the plan holds the mean preconditioner only.
    """
    if len(remaining) == 0:
        return PlacementPlan(
            pc_locations=surrogate.ybar.reshape(1, -1),
            fixed_mask=np.array([True]),
            assignment=np.zeros(0, dtype=int),
            point_indices=np.zeros(0, dtype=int),
            assigned_m=np.zeros(0),
            estimated_cost=0.0,
        )
    return plan_placement(
        remaining,
        surrogate.expected_iterations,
        cost_ratio=surrogate.m_max,
        pc_fixed=[surrogate.ybar],
        seed=exp.seed,
        mode=exp.cost_mode,
        tau_krylov=surrogate.tau_krylov,
        la_max_iter=exp.la_max_iter,
        rel_improvement_floor=exp.rel_improvement_floor,
        time_gain_kappa=exp.kappa,
        n_restarts=exp.n_restarts,
    )


def _running_total(costs) -> float:
    """Left-to-right float sum, as a running total adds.

    From Python 3.12 ``sum`` compensates float rounding, which would move
    reported costs in their last bits.
    """
    return functools.reduce(operator.add, costs, 0.0)


def _realized_ratio(oracle: FemSolveOracle) -> float:
    """Break-even iteration count realized over every build and solve logged."""
    builds = [r.cost for r in oracle.log if r.position is None]
    solves = [r for r in oracle.log if r.position is not None]
    return oracle.policy.n_ratio(
        _running_total(builds),
        len(builds),
        _running_total(r.cost for r in solves),
        sum(r.iterations for r in solves),
    )


def _report(
    exp: ExperimentConfig, label: str, oracle: FemSolveOracle, n_train: int, n_ratio: float,
    **values,
) -> RunReport:
    """A strategy's report, with its solves and costs read off the oracle's log.

    The first ``n_train`` log records are surrogate training, the rest are
    execution.  Every build in the log costs ``n_ratio`` iterations and
    every solve the iterations it took.
    """
    targets, log = oracle.points, oracle.log
    solves = [(k, r) for k, r in enumerate(log) if r.position is not None]
    per_point = [
        {
            "index": int(targets.indices[r.position]),
            "y": targets.points[r.position].tolist(),
            "phase": "train" if k < n_train else "exec",
            "pc": r.pc,
            "iterations": float(r.iterations) if k < n_train else int(r.iterations),
            "converged": bool(r.converged),
        }
        for k, r in solves
    ]
    exec_iters = [r.iterations for k, r in solves if k >= n_train]
    n_pc = len(log) - len(solves)
    return RunReport(
        label=label,
        n_dims=exp.n_dims,
        k0=exp.k0,
        n_points=exp.n_points,
        seed=exp.seed,
        cost_mode=exp.cost_mode,
        n_ratio=n_ratio,
        n_pc=n_pc,
        it_av=float(np.mean(exec_iters)) if exec_iters else 0.0,
        cost_total=n_ratio * n_pc + float(sum(r.iterations for _, r in solves)),
        degraded=not all(r.converged for _, r in solves),
        per_point=sorted(per_point, key=lambda rec: rec["index"]),
        **values,
    )


def run_pipeline(exp: ExperimentConfig) -> tuple[RunReport, TrainedSurrogate, PlacementPlan]:
    """Train, place, execute; solve every target exactly once.

    Training solves count: points consumed by the surrogate keep their
    mean-preconditioner solutions, the placement stage covers the rest,
    and the report accounts for every preconditioner build (the
    mean-based one included) plus every iteration.
    """
    wall_start = time.perf_counter()
    surrogate, oracle = train(exp)
    targets, policy = oracle.points, oracle.policy
    n_train = len(oracle.log)
    n_ratio = surrogate.m_max
    t_train = policy.stage_cost(
        surrogate.tau_pc + surrogate.tau_krylov * surrogate.train_iterations,
        surrogate.train_wall_time,
    )

    remaining = targets.without_indices(surrogate.evaluated)
    la_start = time.perf_counter()
    plan = place(exp, surrogate, remaining)
    t_l_al = policy.stage_cost(0.0, time.perf_counter() - la_start)

    # execution: build the planned preconditioners, solve every remaining
    # target with its assigned one
    index_to_position = {int(idx): pos for pos, idx in enumerate(targets.indices)}
    for k in range(plan.n_pc):
        if plan.fixed_mask[k]:
            pc = oracle.reference_pc
        else:
            pc = oracle.build(plan.pc_locations[k])
        for pos in np.flatnonzero(plan.assignment == k):
            oracle.run(index_to_position[int(plan.point_indices[pos])], pc, int(k))

    # baseline estimates: the per-point cost assumes one iteration per
    # target (exact LU); the mean-based cost uses measured counts where
    # available and the surrogate elsewhere
    est = surrogate.train_iterations
    if len(remaining):
        est += float(np.sum(surrogate.iterations_at(remaining.points)))

    report = _report(
        exp, "pipeline", oracle, n_train, n_ratio,
        t_train=t_train,
        t_l_al=t_l_al,
        t_exec=_running_total(r.cost for r in oracle.log[n_train:]),
        cost_mean_based=n_ratio * 1 + est,
        cost_per_point=len(targets) * (n_ratio + 1.0),
        cost_mean_based_estimated=True,
        m_max=surrogate.m_max,
        pc_locations=plan.pc_locations.tolist(),
        pc_fixed_mask=plan.fixed_mask.tolist(),
        disagree_trace=list(surrogate.sp_history),
        rmse_trace=_running_rmse(surrogate.prediction_trace),
        greedy_cost_trace=list(plan.greedy_cost_trace),
        sigma_m_trace=list(plan.sigma_m_trace),
        m_grid=_m_grid(surrogate, targets.box),
        wall_seconds=time.perf_counter() - wall_start,
    )
    return report, surrogate, plan


def baseline_mean_based(exp: ExperimentConfig) -> RunReport:
    """One preconditioner at the box center, reused for every target."""
    wall_start = time.perf_counter()
    oracle = _oracle(exp)
    targets = oracle.points
    pc = oracle.build(targets.box.center)
    for pos in range(len(targets)):
        oracle.run(pos, pc, "mean")

    n_ratio = _realized_ratio(oracle)
    build, *solves = oracle.log
    report = _report(
        exp, "mean_based", oracle, 0, n_ratio,
        t_train=0.0,
        t_l_al=0.0,
        t_exec=build.cost + _running_total(r.cost for r in solves),
        cost_per_point=len(targets) * (n_ratio + 1.0),
        pc_locations=[targets.box.center.tolist()],
        pc_fixed_mask=[True],
        wall_seconds=time.perf_counter() - wall_start,
    )
    report.cost_mean_based = report.cost_total
    return report


def baseline_per_point(exp: ExperimentConfig) -> RunReport:
    """One preconditioner per target, built at the target itself."""
    wall_start = time.perf_counter()
    oracle = _oracle(exp)
    targets = oracle.points
    # one target at a time, build then solve: the order fixes t_exec's sum
    for pos, y in enumerate(targets.points):
        oracle.run(pos, oracle.build(y), pos)

    report = _report(
        exp, "per_point", oracle, 0, _realized_ratio(oracle),
        t_train=0.0,
        t_l_al=0.0,
        t_exec=_running_total(r.cost for r in oracle.log),
        pc_locations=targets.points.tolist(),
        pc_fixed_mask=[False] * len(targets),
        wall_seconds=time.perf_counter() - wall_start,
    )
    report.cost_per_point = report.cost_total
    return report


def emit_report(report: RunReport, fmt: str, path) -> None:
    """Write a report as JSON (full detail) or CSV (summary row)."""
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER.split(","))
            writer.writerow(
                [
                    report.n_dims,
                    report.t_train,
                    report.t_l_al,
                    report.t_exec,
                    report.n_pc,
                    report.it_av,
                    report.cost_total,
                    "" if report.cost_mean_based is None else report.cost_mean_based,
                    "" if report.cost_per_point is None else report.cost_per_point,
                ]
            )
    else:
        raise ValueError("format must be 'json' or 'csv'")


def load_report(path) -> RunReport:
    with open(path, encoding="utf-8") as fh:
        return RunReport.from_json_dict(json.load(fh))
