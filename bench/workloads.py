"""Benchmark workloads: each is one ``run_pipeline`` config built from a seed.

Every config runs in synthetic cost mode, so the plan, the iteration counts
and the report depend only on the config; wall-clock time is the only thing
that varies between two runs of one seed.  See README.md for why each
workload exists and which layer it stresses.

The listed workloads use grid targets, and no random ``locate`` restarts
where PCs are placed.  With seeded targets or restarts their plans changed
with the seed (PC count, training length, location-allocation sweeps) and
one run's wall time by up to 4x, so the seed is written into these configs
but does not change the plan.  ``scale-k0-40`` draws its targets from it.
"""

from __future__ import annotations

from pcplace.helmholtz import max_safe_amplitude

_DESK_FAMILY = {
    "kind": "shape",
    "n_dims": 2,
    "amplitude": 0.5 * max_safe_amplitude(2.0),
    "decay": 2.0,
}


def _desk_shape(seed: int) -> dict:
    return {
        "family": dict(_DESK_FAMILY),
        "k0": 20.0,
        "n_points": 64,
        "sampling": "grid",
        "seed": seed,
        "placement": {"n_restarts": 0},
        "cost": {"mode": "synthetic", "c_build": 1e-4, "c_iter": 1e-6},
    }


def _affine_place(seed: int) -> dict:
    return {
        "family": {"kind": "affine", "eta": [0.8, 0.5]},
        "k0": 12.0,
        "n_points": 100,
        "sampling": "grid",
        "seed": seed,
        "placement": {"n_restarts": 0},
        "cost": {"mode": "synthetic", "c_build": 1e-5, "c_iter": 1e-6},
    }


def _many_targets(seed: int) -> dict:
    return {
        "family": {"kind": "affine", "eta": [0.5, 0.5, 0.5]},
        "k0": 8.0,
        "n_points": 729,
        "sampling": "grid",
        "seed": seed,
        "cost": {"mode": "synthetic", "c_build": 1e-4, "c_iter": 1e-6},
    }


def _scale_k0_40(seed: int) -> dict:
    # No max_iter: the default GMRES basis is what this workload measures.
    return {
        "family": dict(_DESK_FAMILY),
        "k0": 40.0,
        "n_points": 10,
        "seed": seed,
        "cost": {"mode": "synthetic", "c_build": 1e-4, "c_iter": 1e-6},
    }


WORKLOADS = {
    "desk-shape": _desk_shape,
    "affine-place": _affine_place,
    "many-targets": _many_targets,
    "scale-k0-40": _scale_k0_40,
}


def config_doc(workload: str, seed: int) -> dict:
    """The JSON config document of ``workload`` for ``seed``."""
    return WORKLOADS[workload](seed)
