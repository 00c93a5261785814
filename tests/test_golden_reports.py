"""Synthetic-mode reports compared byte for byte with committed copies.

The JSON files under ``tests/data/`` were written by ``emit_report`` from
``run_pipeline`` and from both baselines on the configs below.  In
synthetic cost mode a report depends only on its config, so any change to
assembly, solvers, the surrogate, placement or cost accounting that alters
a number shows up here.  After a change that is meant to alter reports,
regenerate them with

    PYTHONPATH=src python tests/test_golden_reports.py [NAME ...]

and say in the change log why they moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from pcplace.harness import (
    ExperimentConfig,
    baseline_mean_based,
    baseline_per_point,
    emit_report,
    run_pipeline,
)
from pcplace.helmholtz import max_safe_amplitude

DATA = Path(__file__).parent / "data"

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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for key in sys.argv[1:] or sorted(GOLDEN_REPORTS):
        _write(key, DATA / f"{key}.json")
        print(f"wrote {DATA / f'{key}.json'}")
