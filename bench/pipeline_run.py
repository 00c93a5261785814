"""One benchmark run of a workload: repeated ``run_pipeline`` calls in one process.

Usage: python3 bench/pipeline_run.py --workload NAME --seed N --seconds S
       --trace 0|1 [--trace-out PATH]

The process makes a warm-up call, then timed calls on the same config
(untraced ones, or untraced and traced in turn with ``--trace 1``) until
``--seconds`` have passed.  Before each call it times the public set-up
calls.  It checks every report against the inputs and prints one JSON
object as its last line.  An exception raised by the pipeline is caught
and recorded, not re-raised, so a failing config yields a call with
``error`` set.  ``peak_rss_mb`` is this process's ``ru_maxrss`` after the
timed calls, which is why every run gets its own process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import benchenv

benchenv.use_checkout_sources()

import numpy as np  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

from pcplace import harness  # noqa: E402
from pcplace.harness import ExperimentConfig, sample_parameter_set  # noqa: E402
from pcplace.helmholtz import assemble, build_annulus_mesh  # noqa: E402
from pcplace.krylov import lu_factor  # noqa: E402
from calibrate import Kernel, Sampler  # noqa: E402
from workloads import config_doc  # noqa: E402

# A training solution meets the preconditioned residual bound tol; its
# error against a direct solve is at most cond(PA) * tol.  Measured: at most
# 0.99 * tol on every listed workload, so a factor 10 leaves a wide margin.
SOLUTION_TOL_FACTOR = 10.0

# Set-up timings taken before each call; their median over the run is setup_s.
SETUP_REPS = 7


def report_sha256(report) -> str:
    """Hash of the report exactly as ``emit_report(..., "json")`` writes it."""
    text = json.dumps(report.to_json_dict(), indent=1, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def output_checks(report, targets) -> dict[str, bool]:
    """Check the report against the inputs; every entry must be true."""
    indices = sorted(int(r["index"]) for r in report.per_point)
    iterations = sum(float(r["iterations"]) for r in report.per_point)
    return {
        "every_target_once": indices == sorted(int(i) for i in targets.indices),
        "cost_identity": bool(
            np.isclose(
                report.cost_total,
                report.n_ratio * report.n_pc + iterations,
                rtol=1e-12,
                atol=0.0,
            )
        ),
    }


def solution_check(exp, surrogate, problem) -> dict[str, bool]:
    """Training solutions against a direct solve (one spsolve per solution)."""
    family, mesh, cfg, targets = problem
    errors = []
    for idx, sol in surrogate.solutions.items():
        pos = int(np.flatnonzero(targets.indices == idx)[0])
        matrix, rhs = assemble(targets.points[pos], family, mesh, cfg)
        direct = spla.spsolve(matrix.tocsc(), rhs)
        errors.append(np.linalg.norm(sol - direct) / np.linalg.norm(direct))
    return {
        "training_solutions": bool(
            errors and max(errors) <= SOLUTION_TOL_FACTOR * exp.tol
        )
    }


def trace_checks(layers: dict, report) -> dict[str, bool]:
    """Traced counts must equal the report; a wrapper at a dead site reads 0."""
    iterations = sum(float(r["iterations"]) for r in report.per_point)
    return {
        "gmres_calls_eq_n_points": layers["krylov.gmres.calls"] == report.n_points,
        "gmres_iterations_eq_report": layers["krylov.gmres.iterations"] == iterations,
        "lu_factor_calls_eq_n_pc": layers["krylov.lu_factor.calls"] == report.n_pc,
    }


def load_shape(problem) -> dict:
    """Size of the system at the box center and the fill of its LU factors."""
    family, mesh, cfg, targets = problem
    matrix, _ = assemble(targets.box.center, family, mesh, cfg)
    pc = lu_factor(matrix)
    return {
        "n": int(matrix.shape[0]),
        "nnz": int(matrix.nnz),
        "lu_fill": int(pc.factors.L.nnz + pc.factors.U.nnz),
    }


def time_setup(doc: dict, sampler: Sampler) -> float:
    """Wall time of the set-up calls ``run_pipeline`` makes before its first
    solve, less the time ``sampler`` spent meanwhile."""
    spent = sampler.spent
    start = time.perf_counter()
    exp = ExperimentConfig.from_dict(doc)
    cfg = exp.helmholtz_config()
    exp.build_family(cfg)
    build_annulus_mesh(cfg)
    sample_parameter_set(exp)
    return time.perf_counter() - start - (sampler.spent - spent)


def timed_call(exp, recorder, sampler: Sampler):
    """One ``run_pipeline`` call; an exception is recorded, not raised.

    The time returned excludes what ``sampler`` spent during the call.
    """
    if recorder is not None:
        recorder.install()
    error = None
    spent = sampler.spent
    start = time.perf_counter()
    try:
        report, surrogate, _ = harness.run_pipeline(exp)
    except Exception as exc:  # any failure is this call's result, not a crash
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "where": f"{Path(frame.filename).name}:{frame.lineno} in {frame.name}",
        }
        report = surrogate = None
    wall = time.perf_counter() - start - (sampler.spent - spent)
    if recorder is not None:
        recorder.uninstall()
    return wall, report, surrogate, error


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="stop starting calls once this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    doc = config_doc(args.workload, args.seed)
    exp = ExperimentConfig.from_dict(doc)
    cfg = exp.helmholtz_config()
    problem = (exp.build_family(cfg), build_annulus_mesh(cfg), cfg,
               sample_parameter_set(exp))
    kernel = Kernel()
    with Sampler(kernel) as sampler:
        time_setup(doc, sampler)  # the first set-up pays for lazy imports

    # Call 0 warms up; then untraced calls, or untraced and traced in turn.
    modes = [False, True] if args.trace else [False]
    calls: list[dict] = []
    checks: dict[str, bool] = {}
    layers: list[dict] = []
    records: list[dict] = []
    first_surrogate = {}  # by kind: untraced, traced
    began = time.perf_counter()
    longest = 0.0
    while True:
        i = len(calls)
        traced = i > 0 and modes[(i - 1) % len(modes)]
        recorder = None
        if traced:
            from spans import Recorder

            recorder = Recorder(run_id=f"{args.workload}/{args.seed}/{i}")
        # Set-up samples are too short to correct on their own; they take
        # the speed measured over the block, which the call dominates.
        with Sampler(kernel) as sampler:
            setup_s = [time_setup(doc, sampler) for _ in range(SETUP_REPS)]
            wall, report, surrogate, error = timed_call(exp, recorder, sampler)
        longest = max(longest, wall)
        call = {"warmup": i == 0, "trace": traced, "wall_s": wall, "error": error,
                "solved": 0, "setup_s": setup_s, "speed": sampler.speed(),
                "n_samples": len(sampler.samples)}
        calls.append(call)
        if report is not None:
            call["solved"] = sum(bool(r["converged"]) for r in report.per_point)
            call["model_cost"] = report.cost_total
            call["n_pc"] = report.n_pc
            call["report_sha256"] = report_sha256(report)
            for name, ok in output_checks(report, problem[3]).items():
                checks[name] = checks.get(name, True) and ok
            first_surrogate.setdefault(traced, surrogate)
        if recorder is not None:
            records = recorder.to_records()
            from spans import layer_metrics

            layers.append(layer_metrics(records, exp.n_points))
            if report is not None:
                for name, ok in trace_checks(layers[-1], report).items():
                    checks[name] = checks.get(name, True) and ok
        del report, surrogate, recorder
        if i == 0:  # later calls add allocator growth, not the program's peak
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if error is not None:
            break  # a failing config fails the same way every time
        elapsed = time.perf_counter() - began
        if i >= len(modes) and elapsed + longest > args.seconds:
            break

    # spsolve on every training point takes up to 2.5 s (23 solutions on
    # desk-shape), so once per kind: the calls of a run repeat one problem.
    for surrogate in first_surrogate.values():
        for name, ok in solution_check(exp, surrogate, problem).items():
            checks[name] = checks.get(name, True) and ok
    if layers:
        names = layers[0].keys()
        layers = {name: median(m[name] for m in layers) for name in names}
        if args.trace_out:  # the spans of the last traced call
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                for rec in records:
                    fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "n_points": exp.n_points,
        "calls": calls,
        "peak_rss_mb": None if any(c["error"] for c in calls) else peak_rss_mb,
        "layers": layers or None,
        "checks": checks,
        "load": load_shape(problem),
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
