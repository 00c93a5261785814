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
import json
import math
import time
from dataclasses import dataclass, field, fields

import jsonschema
import numpy as np

# assemble, lu_factor and gmres_left are unused here but stay importable:
# the traced benchmark (bench/spans.py) wraps them at this module too
from .helmholtz import (  # noqa: F401
    HelmholtzConfig,
    ProblemFamily,
    _check_amplitude,
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
    IterationMap,
    TrainedSurrogate,
    _origin_pinned_gp,
    _running_total,
    train_surrogate_core,
)

__all__ = [
    "CONFIG_SCHEMA",
    "SURROGATE_SCHEMA",
    "CSV_HEADER",
    "ExperimentConfig",
    "RunReport",
    "sample_parameter_set",
    "train",
    "place",
    "save_surrogate",
    "load_surrogate",
    "run_pipeline",
    "baseline_mean_based",
    "baseline_per_point",
    "emit_report",
    "load_report",
]

# Placement tabulates m for every target against every preconditioner, and
# with cheap enough builds every target gets its own: N^2 doubles, 800 MB here.
# The cap holds for the realized count, which grid sampling rounds.
_MAX_POINTS = 10_000

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
                    "items": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                    "minItems": 1,
                },
                "n_dims": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
                "decay": {"type": "number", "exclusiveMinimum": 1},
            },
        },
        "k0": {"type": "number", "exclusiveMinimum": 0},
        "n_points": {"type": "integer", "minimum": 1, "maximum": _MAX_POINTS},
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

_NUMBER = jsonschema.Draft202012Validator.TYPE_CHECKER


def _is_finite_number(checker, x) -> bool:
    """A JSON number that reads as a finite float.

    JSON has no NaN or infinities, but Python's json module reads them; it
    also reads an integer of 400 digits as an int that no float can hold.
    """
    if not _NUMBER.is_type(x, "number"):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_FINITE = _NUMBER.redefine("number", _is_finite_number).redefine(
    "integer", lambda checker, x: _NUMBER.is_type(x, "integer") and -(2**63) <= x < 2**63
)  # an integer must fit the signed 64 bits that numpy sizes and seeds take
_Validator = jsonschema.validators.extend(jsonschema.Draft202012Validator, type_checker=_FINITE)
# built once: jsonschema.validate checks the schema itself on every call
_VALIDATOR = _Validator(CONFIG_SCHEMA)


def _validate(validator, doc) -> None:
    """Raise ``doc``'s most relevant schema error, as jsonschema.validate does."""
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    if error is not None:
        raise error


# (CSV column, RunReport field) of the summary row
_CSV_COLUMNS = (
    ("N", "n_dims"),
    ("t_train", "t_train"),
    ("t_l_al", "t_l_al"),
    ("t_exec", "t_exec"),
    ("N_pc", "n_pc"),
    ("it_av", "it_av"),
    ("cost_total", "cost_total"),
    ("cost_mean_based", "cost_mean_based"),
    ("cost_per_point", "cost_per_point"),
)
CSV_HEADER = ",".join(column for column, _ in _CSV_COLUMNS)


# config keys cast on reading, so that e.g. "k0": 20 reads as 20.0
_CASTS = {
    **dict.fromkeys(
        ("n_dims", "n_points", "seed", "sp_window", "la_max_iter", "n_restarts"), int
    ),
    **dict.fromkeys(
        ("k0", "amplitude", "decay", "tol", "mesh_constant", "c_build", "c_iter",
         "rel_improvement_floor", "kappa"),
        float,
    ),
    "eta": lambda eta: tuple(float(v) for v in eta),
}


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
            _check_amplitude(self.amplitude, self.decay)
        self.helmholtz_config()  # rejects a mesh too coarse to build
        if self.sampling == "grid":
            if self.n_dims > 3:
                raise ValueError("grid sampling is offered for up to 3 dimensions")
            if (realized := _grid_nodes(self.n_points, self.n_dims) ** self.n_dims) > _MAX_POINTS:
                raise ValueError(
                    f"grid sampling rounds 'n_points' {self.n_points} to {realized} targets, "
                    f"more than the {_MAX_POINTS} allowed"
                )
        if self.n_points < 1:
            raise ValueError("need at least one target point")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        _validate(_VALIDATOR, doc)
        fam = doc["family"]
        kind = fam["kind"]
        required = ("eta",) if kind == "affine" else ("n_dims", "amplitude", "decay")
        for key in required:
            if key not in fam:
                raise ValueError(f"{kind} family config needs '{key}'")
        for key in fam:
            if key not in ("kind", *required):
                raise ValueError(f"{kind} family config does not take '{key}'")
        # flatten the sections; a key the document leaves out keeps its default
        flat = {k: v for k, v in doc.items() if k not in ("family", "cost", "placement")}
        flat.update({key: fam[key] for key in required}, family_kind=kind)
        flat.update(doc.get("placement", {}))
        flat.update(
            ("cost_mode" if k == "mode" else k, v) for k, v in doc.get("cost", {}).items()
        )
        if kind == "affine":
            flat["n_dims"] = len(fam["eta"])
        return cls(**{k: _CASTS[k](v) if k in _CASTS else v for k, v in flat.items()})

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


# Training reads every config field but the placement section's and the
# output directory, which `place` may change.  surrogate.json holds those
# fields and what training measured; the config rebuilds everything else.
_TRAINED_ON = tuple(
    f.name for f in fields(ExperimentConfig)
    if f.name not in (*CONFIG_SCHEMA["properties"]["placement"]["properties"], "output_dir")
)
SURROGATE_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["format_version", "trained_on", "evaluated", "train_alphas", "m_max", "tau_pc"],
    # the keys `place` reads; the others are written for the reader
    "properties": {
        "format_version": {"const": 2},
        "trained_on": {"type": "object", "required": list(_TRAINED_ON),
                       "propertyNames": {"enum": list(_TRAINED_ON)}},
        # target indices in training order, one per train alpha
        "evaluated": {"type": "array", "items": {"type": "integer", "minimum": 0},
                      "minItems": 1, "uniqueItems": True},
        "train_alphas": {"type": "array", "items": {
            "type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}},
        "m_max": {"type": "number", "exclusiveMinimum": 0},
        "tau_pc": {"type": "number", "exclusiveMinimum": 0},
    },
}
_SURROGATE_VALIDATOR = _Validator(SURROGATE_SCHEMA)


def _grid_nodes(n_points: int, n_dims: int) -> int:
    """Nodes per dimension of the tensor grid that stands for ``n_points`` targets."""
    return max(2, round(n_points ** (1.0 / n_dims)))


def sample_parameter_set(exp: ExperimentConfig) -> ParamSet:
    """Deterministic target set in [-1, 1]^N per the config's sampling rule.

    ``uniform`` draws i.i.d. points with the config seed, ``halton`` is
    the seeded low-discrepancy alternative, and ``grid`` builds a tensor
    grid with round(n_points^(1/N)) nodes per dimension, at least 2 (so
    the realized count is the nearest perfect power).
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
        axes = [np.linspace(-1.0, 1.0, _grid_nodes(exp.n_points, exp.n_dims))] * exp.n_dims
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
    return obj.item() if isinstance(obj, np.generic) else obj


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
    surrogate = train_surrogate_core(
        oracle.points, oracle, oracle.family.prior, tol=oracle.cfg.tol,
        sp_window=exp.sp_window,
    )
    return surrogate, oracle


def save_surrogate(exp: ExperimentConfig, surrogate: TrainedSurrogate, path) -> None:
    """Write what training on ``exp`` measured, with the config fields it read."""
    doc = {
        "format_version": 2,
        "trained_on": {name: getattr(exp, name) for name in _TRAINED_ON},
        "train_alphas": surrogate.gp.alphas[1:],  # the pairs after the origin pin
        **{key: getattr(surrogate, key) for key in (
            "evaluated", "m_max", "tau_pc", "budget_exhausted", "sp_history", "degenerate_fit")},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_jsonify(doc), fh, indent=1, sort_keys=True)


def load_surrogate(exp: ExperimentConfig, path) -> TrainedSurrogate:
    """Rebuild the surrogate ``save_surrogate`` wrote after training on ``exp``.

    The GP is rebuilt pair by pair as training built it and refit once, which
    is bitwise training's last refit: a refit is a function of the pairs, and
    a pair set is degenerate only if all its subsets are.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("format_version") != 2:
        raise ValueError("surrogate document is not of 'format_version' 2: retrain it")
    _validate(_SURROGATE_VALIDATOR, doc)
    for name in _TRAINED_ON:
        if doc["trained_on"][name] != (value := _jsonify(getattr(exp, name))):
            raise ValueError(
                f"surrogate was trained with '{name}' {doc['trained_on'][name]!r}, not the "
                f"config's {value!r}: retrain it, or place with the training config"
            )
    evaluated, alphas = [int(i) for i in doc["evaluated"]], doc["train_alphas"]
    if len(alphas) != len(evaluated):
        raise ValueError("surrogate document needs one 'train_alphas' entry per 'evaluated' one")
    targets = sample_parameter_set(exp)
    if max(evaluated) >= len(targets):
        raise ValueError(f"surrogate's 'evaluated' exceeds the config's {len(targets)} targets")
    iter_map, ybar = IterationMap(exp.tol), targets.box.center
    gp = _origin_pinned_gp(exp.build_family(exp.helmholtz_config()).prior, iter_map)
    for index, alpha in zip(evaluated, alphas):
        gp.add_pair(targets.points[index] - ybar, alpha)
    return TrainedSurrogate(
        gp=gp, ybar=ybar, m_max=float(doc["m_max"]), iter_map=iter_map, evaluated=evaluated,
        tau_pc=float(doc["tau_pc"]), degenerate_fit=gp.refit_coeffs(),
    )


def place(
    exp: ExperimentConfig, surrogate: TrainedSurrogate, targets: ParamSet
) -> PlacementPlan:
    """Plan preconditioners for the ``targets`` training left unsolved, the mean one fixed.

    With nothing left to solve the plan holds the mean preconditioner only.
    """
    policy = exp.cost_policy()
    return plan_placement(
        targets.without_indices(surrogate.evaluated),
        surrogate.expected_iterations,
        cost_ratio=surrogate.m_max,
        pc_fixed=[surrogate.ybar],
        seed=exp.seed,
        # a sweep must gain a share of the total (modeled costs) or its own
        # wall time in iterations, scaled by kappa (measured costs)
        sweep_price=lambda total, seconds: policy.stage_cost(
            exp.rel_improvement_floor * max(total, 1.0),
            exp.kappa * seconds / surrogate.tau_krylov,
        ),
        la_max_iter=exp.la_max_iter,
        n_restarts=exp.n_restarts,
    )


def _run_plan(
    exp: ExperimentConfig, label: str, oracle: FemSolveOracle, wall_start: float, plan,
    n_train: int = 0, n_ratio: float | None = None, t_train: float = 0.0, t_l_al: float = 0.0,
    **values,
) -> RunReport:
    """Run a strategy's ``plan`` on its oracle and report it off the oracle's log alone.

    ``plan`` is ``FemSolveOracle.execute``'s five arguments; the report's
    locations and fixed mask are the ones that ran.  The first ``n_train``
    log records are surrogate training, the rest are execution: ``t_exec``
    is the running total of the records logged before the plan ran (the
    mean-based reference build) plus that of the plan's own.  Every build
    in the log costs ``n_ratio`` iterations (by default the break-even count
    the oracle realized) and every solve the iterations it took; a failed
    build costs nothing.  The record of a failed solve, or of a solve
    standing in for a failed build, carries the error, the report is then
    degraded, and ``it_av`` leaves that record out.  ``wall_seconds`` spans
    the strategy from ``wall_start``.
    """
    n_before = len(oracle.log)
    oracle.execute(*plan)
    targets, log = oracle.points, oracle.log
    if n_ratio is None:
        n_ratio = oracle.n_ratio()
    solves = [(k, r) for k, r in enumerate(log) if r.position is not None]
    per_point = [
        {
            "index": int(targets.indices[r.position]),
            "y": targets.points[r.position].tolist(),
            "phase": "train" if k < n_train else "exec",
            "pc": r.pc,
            "iterations": int(r.iterations),
            "converged": bool(r.converged),
            **({} if r.error is None else {"error": f"{type(r.error).__name__}: {r.error}"}),
        }
        for k, r in solves
    ]
    exec_iters = [r.iterations for k, r in solves if k >= n_train and r.error is None]
    n_pc = sum(r.position is None and r.error is None for r in log)
    return RunReport(
        label=label,
        n_dims=exp.n_dims,
        k0=exp.k0,
        n_points=len(targets),
        seed=exp.seed,
        cost_mode=exp.cost_mode,
        n_ratio=n_ratio,
        t_train=t_train,
        t_l_al=t_l_al,
        t_exec=_running_total(r.cost for r in log[n_train:n_before])
        + _running_total(r.cost for r in log[n_before:]),
        n_pc=n_pc,
        it_av=float(np.mean(exec_iters)) if exec_iters else 0.0,
        cost_total=n_ratio * n_pc + float(sum(r.iterations for _, r in solves)),
        cost_per_point=n_ratio * len(targets) + float(len(targets)),  # 1 build, 1 iteration each
        degraded=not all(r.converged and r.error is None for r in log),
        per_point=sorted(per_point, key=lambda rec: rec["index"]),
        pc_locations=np.asarray(plan[0]).tolist(),
        pc_fixed_mask=np.asarray(plan[1]).tolist(),
        **values,
        wall_seconds=time.perf_counter() - wall_start,
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
    training = list(oracle.log)
    t_train = oracle.policy.stage_cost(
        _running_total(r.cost for r in training), surrogate.train_wall_time
    )

    la_start = time.perf_counter()
    plan = place(exp, surrogate, oracle.points)
    t_l_al = oracle.policy.stage_cost(0.0, time.perf_counter() - la_start)

    # the mean-based estimate takes measured counts where available; the
    # planner's first greedy cost is the surrogate's sum over the rest
    est = float(sum(r.iterations for r in training if r.position is not None))
    if plan.greedy_cost_trace:
        est += plan.greedy_cost_trace[0]

    # the targets' stable indices are their rows, so the plan's are positions
    report = _run_plan(
        exp, "pipeline", oracle, wall_start,
        (plan.pc_locations, plan.fixed_mask, plan.assignment, plan.point_indices,
         range(plan.n_pc)),
        n_train=len(training),
        n_ratio=surrogate.m_max,
        t_train=t_train,
        t_l_al=t_l_al,
        cost_mean_based=surrogate.m_max + est,
        cost_mean_based_estimated=True,
        m_max=surrogate.m_max,
        disagree_trace=list(surrogate.sp_history),
        rmse_trace=_running_rmse(surrogate.prediction_trace),
        greedy_cost_trace=list(plan.greedy_cost_trace),
        sigma_m_trace=list(plan.sigma_m_trace),
        m_grid=_m_grid(surrogate, oracle.points.box),
    )
    return report, surrogate, plan


def baseline_mean_based(exp: ExperimentConfig) -> RunReport:
    """One preconditioner at the box center, reused for every target."""
    wall_start = time.perf_counter()
    oracle = _oracle(exp)
    targets = oracle.points
    oracle.build_reference()
    n = len(targets)
    report = _run_plan(exp, "mean_based", oracle, wall_start, (
        [targets.box.center], [True], np.zeros(n, dtype=int), range(n), ["mean"]))
    report.cost_mean_based = report.cost_total
    return report


def baseline_per_point(exp: ExperimentConfig) -> RunReport:
    """One preconditioner per target, built at the target itself."""
    wall_start = time.perf_counter()
    oracle = _oracle(exp)
    targets = oracle.points
    # one target at a time, build then solve: the order fixes t_exec's sum;
    # with no reference preconditioner, a failed build fails its target
    n = len(targets)
    report = _run_plan(exp, "per_point", oracle, wall_start, (
        targets.points, np.zeros(n, dtype=bool), np.arange(n), range(n), range(n)))
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
            row = (getattr(report, name) for _, name in _CSV_COLUMNS)
            writer.writerow(CSV_HEADER.split(","))
            writer.writerow("" if v is None else v for v in row)
    else:
        raise ValueError("format must be 'json' or 'csv'")


def load_report(path) -> RunReport:
    with open(path, encoding="utf-8") as fh:
        return RunReport.from_json_dict(json.load(fh))
