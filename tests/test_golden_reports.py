"""Synthetic-mode reports compared byte for byte with committed copies.

The JSON files under ``tests/data/`` were written by ``emit_report`` from
``run_pipeline`` and from both baselines on the configs below.  In
synthetic cost mode a report depends only on its config, so any change to
assembly, solvers, the surrogate, placement or cost accounting that alters
a number shows up here.  After a change that is meant to alter reports,
regenerate them with

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]

which prints, for each file it rewrites, the top-level fields that
changed (and whether a field's values changed or only their JSON types),
and say in the change log why they moved.
"""

from __future__ import annotations

import copy
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from pcplace import placement
from pcplace.harness import (
    ExperimentConfig,
    baseline_mean_based,
    baseline_per_point,
    emit_report,
    run_pipeline,
)
from pcplace.helmholtz import max_safe_amplitude

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).parents[1] / "bench"

GOLDEN_CONFIGS = {
    # cheap builds: the planner places several preconditioners
    "golden_affine": {
        "family": {"kind": "affine", "eta": [0.8, 0.6]},
        "k0": 10.0,
        "n_points": 36,
        "sampling": "grid",
        "seed": 5,
        "placement": {"n_restarts": 0},
        "cost": {"mode": "synthetic", "c_build": 1e-5, "c_iter": 1e-6},
    },
    # the shape pull-back with seeded uniform targets
    "golden_shape": {
        "family": {
            "kind": "shape",
            "n_dims": 2,
            "amplitude": 0.5 * max_safe_amplitude(2.0),
            "decay": 2.0,
        },
        "k0": 8.0,
        "n_points": 20,
        "seed": 3,
        "cost": {"mode": "synthetic", "c_build": 1e-5, "c_iter": 1e-6},
    },
}

STRATEGIES = {
    "": lambda exp: run_pipeline(exp)[0],
    "_mean_based": baseline_mean_based,
    "_per_point": baseline_per_point,
}

# golden file stem -> (config name, strategy)
GOLDEN_REPORTS = {
    config + suffix: (config, strategy)
    for config in GOLDEN_CONFIGS
    for suffix, strategy in STRATEGIES.items()
}


def _write(name: str, path) -> None:
    config, strategy = GOLDEN_REPORTS[name]
    report = strategy(ExperimentConfig.from_dict(GOLDEN_CONFIGS[config]))
    emit_report(report, "json", path)


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_golden_bytes(name, tmp_path):
    fresh = tmp_path / f"{name}.json"
    _write(name, fresh)
    assert fresh.read_bytes() == (DATA / f"{name}.json").read_bytes()


# sha256 of the seed-0 pipeline report of each benchmark workload
WORKLOAD_REPORTS = {
    "desk-shape": "42515e8d4cc2e36afb2422422d1ad1a7a5cfbe57ab095c7c38540bda9748f39a",
    "affine-place": "a017b12ca0f0bb7bd24376aafdf9018a9eeb4e9d5ec3efc37189e6bef0a1b538",
    "many-targets": "35eb31c75d271ec3401314e80918263b6faf6454138896d8128f06dbfd7a1a71",
}


@pytest.mark.parametrize("workload", sorted(WORKLOAD_REPORTS))
def test_benchmark_workload_report_hash(workload, tmp_path):
    """The benchmark's workloads keep their seed-0 reports byte for byte.

    The configs come from ``bench/workloads.py``, loaded from its file and
    not changed.  A change that is meant to alter a workload's report
    updates its hash here, with the reason in the change log, and the
    benchmark's reference hashes with the next change to ``bench/``.
    """
    spec = importlib.util.spec_from_file_location("workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    exp = ExperimentConfig.from_dict(workloads.config_doc(workload, 0))
    path = tmp_path / f"{workload}.json"
    emit_report(run_pipeline(exp)[0], "json", path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WORKLOAD_REPORTS[workload]


def test_kappa_prices_sweeps_only_in_measured_mode(tmp_path):
    # kappa scales a sweep's wall time; modeled costs never read it, so a
    # price no sweep could pay leaves the synthetic report as it was
    doc = copy.deepcopy(GOLDEN_CONFIGS["golden_affine"])
    doc["placement"]["kappa"] = 1e30
    report, _, plan = run_pipeline(ExperimentConfig.from_dict(doc))
    fresh = tmp_path / "golden_affine.json"
    emit_report(report, "json", fresh)
    assert fresh.read_bytes() == (DATA / "golden_affine.json").read_bytes()
    assert plan.la_iterations == 2


def test_a_sweep_runs_at_most_one_descent_per_start_slot(monkeypatch):
    # the Weber step descends all cells together, once per start slot (the
    # incumbent, the centroid and each restart), however many cells move;
    # locate finds every descent of its cell already done
    runs, sweeps, located = [], [], []
    real_minimize, real_descend = placement.minimize, placement._descend
    real_locate = placement.locate

    def counting_minimize(*args, **kwargs):
        runs.append(1)
        return real_minimize(*args, **kwargs)

    def counting_descend(cells, *args):
        before = len(runs)
        real_descend(cells, *args)
        sweeps.append((len(cells), len(runs) - before))

    def counting_locate(*args):
        before = len(sweeps)
        out = real_locate(*args)
        located.extend(n_runs for _, n_runs in sweeps[before:])
        del sweeps[before:]
        return out

    monkeypatch.setattr(placement, "minimize", counting_minimize)
    monkeypatch.setattr(placement, "_descend", counting_descend)
    monkeypatch.setattr(placement, "locate", counting_locate)
    doc = GOLDEN_CONFIGS["golden_affine"]
    _, _, plan = run_pipeline(ExperimentConfig.from_dict(doc))
    assert len(sweeps) == plan.la_iterations
    assert located and not any(located)
    slots = 2 + doc["placement"]["n_restarts"]
    assert all(n_runs <= slots < n_cells for n_cells, n_runs in sweeps)
    assert runs


def _load(name: str) -> dict:
    return json.loads((DATA / f"{name}.json").read_text())


@pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
def test_strategies_share_one_ratio(config):
    pipeline, mean_based, per_point = (
        _load(config + suffix) for suffix in STRATEGIES
    )
    assert pipeline["n_ratio"] == mean_based["n_ratio"] == per_point["n_ratio"]
    assert pipeline["m_max"] == pipeline["n_ratio"]
    assert pipeline["cost_per_point"] == per_point["cost_total"]
    for doc in (pipeline, mean_based, per_point):
        assert all(type(rec["iterations"]) is int for rec in doc["per_point"])


def changed_fields(old: dict, new: dict) -> list[str]:
    """Top-level fields whose JSON text differs, each marked values or types.

    A field whose values compare equal but print differently (``8.0``
    against ``8``) changed its types only.
    """
    out = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key), new.get(key)
        if json.dumps(before) != json.dumps(after):
            out.append(f"{key} ({'types only' if before == after else 'values'})")
    return out


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for key in sys.argv[1:] or sorted(GOLDEN_REPORTS):
        path = DATA / f"{key}.json"
        old = _load(key) if path.exists() else {}
        _write(key, path)
        print(f"wrote {path}: {', '.join(changed_fields(old, _load(key))) or 'unchanged'}")
