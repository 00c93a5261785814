"""pcplace benchmark: whole-pipeline throughput, set-up time, memory, plan cost.

Usage (from the repository root):

    python3 bench/run.py --workload desk-shape --seed 0 --seconds 35 --trace 0

A run measures one workload on the config made from ``--seed``, in one
fresh process (bench/pipeline_run.py): a warm-up ``run_pipeline`` call,
then timed calls until ``--seconds`` have passed, with the public set-up
calls timed before each.  Times are corrected for the machine's speed,
sampled during each call (calibrate.py).  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced calls and reports the per-layer metrics of BENCHMARK.json instead.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import benchenv

HERE = Path(__file__).resolve().parent
CHILD = HERE / "pipeline_run.py"
TRACE_DIR = benchenv.ROOT / ".bench_out"
REFERENCE = HERE / "reference_reports.json"

# Every result must be printed within this many seconds of the start.
TOTAL_BUDGET_S = 170.0


def _spec() -> dict:
    with open(benchenv.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def provenance() -> dict:
    import numpy as np
    import scipy

    sha = None  # the benchmark also runs from a plain export
    if (benchenv.ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=benchenv.ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((benchenv.SRC / "pcplace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": benchenv.THREADS,
    }


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              timeout: float) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(TRACE_DIR / f"trace-{workload}.jsonl")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"run {workload}/{seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(run: dict, corrected: bool = True) -> dict:
    """End-to-end metrics from the untraced calls of one run.

    Times are medians over the run.  With ``corrected`` each call's times
    are multiplied by the machine's speed sampled during it (calibrate.py);
    without, they are as measured.
    """
    def scale(call):
        return call["speed"] if corrected else 1.0

    untraced = [c for c in run["calls"] if not c["trace"]]
    if any(c["error"] is not None for c in untraced):
        targets_per_s = 0.0
    else:
        timed = [c for c in untraced if not c["warmup"]]
        targets_per_s = median(c["solved"] / (c["wall_s"] * scale(c)) for c in timed)
    ok = [c for c in untraced if c["error"] is None]
    return {
        "targets_per_s": targets_per_s,
        "setup_s": median(t * scale(c) for c in run["calls"] for t in c["setup_s"]),
        "peak_rss_mb": run["peak_rss_mb"],
        "model_cost": median(c["model_cost"] for c in ok) if ok else None,
    }


def per_layer(run: dict) -> dict:
    """Per-layer medians over the traced calls, and the tracing overhead."""
    out = dict(run["layers"] or {})
    walls = {mode: [c["wall_s"] * c["speed"] for c in run["calls"]
                    if c["trace"] == mode and not c["warmup"] and c["error"] is None]
             for mode in (False, True)}
    out["trace.overhead_s"] = (median(walls[True]) - median(walls[False])
                               if walls[True] and walls[False] else None)
    return out


def compare_reports(run: dict) -> list[str]:
    """Report hashes against the recorded reference; printed, never gated."""
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)
    except FileNotFoundError:
        reference = {}
    want = reference.get(run["workload"], {}).get(str(run["seed"]))
    lines = []
    for sha in sorted({c["report_sha256"] for c in run["calls"] if "report_sha256" in c}):
        if want is None:
            status = "no reference"
        elif want == sha:
            status = "unchanged"
        else:
            status = f"CHANGED (reference {want[:12]})"
        lines.append(f"report {run['workload']}/{run['seed']} {sha[:12]} {status}")
    return lines


def main(argv=None) -> int:
    began = time.perf_counter()
    ap = argparse.ArgumentParser(description="pcplace benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    benchenv.use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(sorted(WORKLOADS))}")
    spec = _spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # The child stops starting calls after --seconds; what it does after
    # (checks, load shape) must still fit in the budget.
    seconds = min(args.seconds, TOTAL_BUDGET_S - 60.0)
    run = run_child(args.workload, args.seed, seconds, bool(args.trace),
                    TOTAL_BUDGET_S - (time.perf_counter() - began))

    untraced = [c for c in run["calls"] if not c["trace"]]
    attempted = run["n_points"] * len(untraced)
    failed = sum(run["n_points"] - c["solved"] for c in untraced)
    failed_checks = sorted(name for name, ok in run["checks"].items() if not ok)

    e2e = end_to_end(run)
    e2e["fail_frac"] = failed / attempted
    units["fail_frac"] = "ratio"
    info = {"provenance": provenance(),
            "load": {"seed": args.seed, **run["load"]},
            "calls": [{k: c.get(k) for k in ("warmup", "trace", "wall_s", "speed",
                                             "n_samples", "solved", "n_pc", "error")}
                      for c in run["calls"]]}
    print("# " + json.dumps(info))
    raw = end_to_end(run, corrected=False)
    print("# as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()
                                        if v is not None))
    for line in compare_reports(run):
        print("# " + line)
    for c in run["calls"]:
        if c["error"] is not None:
            err = c["error"]
            print(f"# error {args.workload}/{args.seed} at {err['where']}: "
                  f"{err['type']}: {err['message']}")
            break
    for name in failed_checks:
        print(f"# check failed: {name}")

    if args.trace:
        wanted = [m["name"] for m in spec["per_layer"]]
        values = per_layer(run)
    else:
        wanted = [m["name"] for m in spec["end_to_end"]]
        values = e2e
        for name, value in e2e.items():
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{args.workload} {name} {shown} {units[name]}")
    metrics = {name: {"value": values.get(name), "unit": units[name]} for name in wanted}
    print(json.dumps({"correct": not failed_checks, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
