import functools
import importlib.util
import json
import operator
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import scipy.sparse as sp
from numpy.testing import assert_allclose

from pcplace import harness, helmholtz, krylov, surrogate
from pcplace.cli import main as cli_main
from pcplace.harness import (
    CONFIG_SCHEMA,
    CSV_HEADER,
    ExperimentConfig,
    RunReport,
    baseline_mean_based,
    baseline_per_point,
    emit_report,
    load_report,
    run_pipeline,
    sample_parameter_set,
)
from pcplace.helmholtz import max_safe_amplitude
from test_golden_reports import GOLDEN_CONFIGS


def small_affine_config(**overrides):
    doc = {
        "family": {"kind": "affine", "eta": [0.25, 0.25]},
        "k0": 8.0,
        "n_points": 20,
        "seed": 7,
        "cost": {"mode": "synthetic", "c_build": 1e-4, "c_iter": 1e-6},
    }
    doc.update(overrides)
    return ExperimentConfig.from_dict(doc)


# the desk fixture's shape family
SHAPE = {"kind": "shape", "n_dims": 2, "amplitude": 0.5 * max_safe_amplitude(2.0), "decay": 2.0}


def _lu_shifted(matrix, **kwargs):
    """Factor A + 0.05 mean|diag A| I: an inexact preconditioner for A."""
    shift = 0.05 * np.mean(np.abs(matrix.diagonal()))
    eye = sp.identity(matrix.shape[0], format="csr")
    return krylov.lu_factor(matrix + shift * eye, **kwargs)


@pytest.fixture
def inexact_pcs(monkeypatch):
    """Every preconditioner the oracle builds is the shifted, inexact one."""
    monkeypatch.setattr(surrogate, "lu_factor", _lu_shifted)


@pytest.fixture
def oracles(monkeypatch):
    """The oracles the strategies create, in creation order."""
    made, make = [], harness._oracle

    def capture(exp):
        made.append(make(exp))
        return made[-1]

    monkeypatch.setattr(harness, "_oracle", capture)
    return made


def typed_keys(schema, kind, path=()):
    """Each ``kind``-typed key of ``schema`` (an array's, for its items), as a key path."""
    for key, sub in schema.get("properties", {}).items():
        for types in (sub.get("type", ()), sub.get("items", {}).get("type", ())):
            if kind in ([types] if isinstance(types, str) else types):
                yield (*path, key)
        yield from typed_keys(sub, kind, (*path, key))


def _set_key(keys, value):
    """A minimal valid config document with ``value`` at the key path ``keys``."""
    doc = {"family": {"kind": "affine", "eta": [0.5]}, "k0": 5.0, "n_points": 3}
    if keys[-1] in ("amplitude", "decay", "n_dims"):
        doc["family"] = {"kind": "shape", "n_dims": 1, "amplitude": 0.1, "decay": 2.0}
    *sections, key = keys
    node = doc
    for section in sections:
        node = node.setdefault(section, {})
    node[key] = [value] if key == "eta" else value
    return doc


class TestConfig:
    def test_schema_rejects_unknown_keys(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict(
                {"family": {"kind": "affine", "eta": [0.2]}, "k0": 5, "n_points": 1,
                 "bogus": True}
            )

    def test_schema_rejects_bad_kind(self):
        with pytest.raises(Exception):
            ExperimentConfig.from_dict(
                {"family": {"kind": "other"}, "k0": 5, "n_points": 1}
            )

    def test_schema_is_valid_2020_12(self):
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize(
        "doc",
        [
            {"family": {"kind": "affine", "eta": [0.2]}, "k0": -1, "n_points": 0},
            {"family": {"kind": "affine", "eta": []}, "k0": 5, "n_points": 1,
             "cost": {"mode": "exact"}},
        ],
    )
    def test_schema_errors_match_jsonschema_validate(self, doc):
        with pytest.raises(jsonschema.ValidationError) as want:
            jsonschema.validate(doc, CONFIG_SCHEMA)
        with pytest.raises(jsonschema.ValidationError) as got:
            ExperimentConfig.from_dict(doc)
        assert str(got.value) == str(want.value)

    def test_schema_rejects_eta_of_one(self):
        with pytest.raises(jsonschema.ValidationError, match="maximum"):
            ExperimentConfig.from_dict(
                {"family": {"kind": "affine", "eta": [1.0]}, "k0": 5, "n_points": 1}
            )

    @pytest.mark.parametrize(
        "family, key",
        [
            ({"kind": "affine", "eta": [0.5, 0.5], "n_dims": 3}, "n_dims"),
            ({"kind": "affine", "eta": [0.5], "amplitude": 0.1}, "amplitude"),
            ({"kind": "affine", "eta": [0.5], "decay": 2}, "decay"),
            ({"kind": "shape", "n_dims": 2, "amplitude": 0.1, "decay": 2, "eta": [0.5]},
             "eta"),
        ],
    )
    def test_family_keys_of_the_other_kind_rejected(self, family, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            ExperimentConfig.from_dict({"family": family, "k0": 5, "n_points": 1})

    def test_affine_requires_eta(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"family": {"kind": "affine"}, "k0": 5, "n_points": 1}
            )

    def test_shape_requires_amplitude(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {"family": {"kind": "shape", "n_dims": 2, "decay": 2.0},
                 "k0": 5, "n_points": 1}
            )

    def test_amplitude_cap_enforced_at_build(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {
                    "kind": "shape",
                    "n_dims": 2,
                    "amplitude": 0.99 * max_safe_amplitude(2.0),
                    "decay": 2.0,
                },
                "k0": 5,
                "n_points": 1,
            }
        )
        exp.build_family(exp.helmholtz_config())
        with pytest.raises(ValueError, match="amplitude"):
            ExperimentConfig.from_dict(
                {
                    "family": {
                        "kind": "shape",
                        "n_dims": 2,
                        "amplitude": 1.5 * max_safe_amplitude(2.0),
                        "decay": 2.0,
                    },
                    "k0": 5,
                    "n_points": 1,
                }
            )

    @pytest.mark.parametrize(
        "family, required",
        [
            ({"kind": "affine", "eta": [0.5, 0.75]},
             dict(family_kind="affine", n_dims=2, eta=(0.5, 0.75))),
            ({"kind": "shape", "n_dims": 3, "amplitude": 0.1, "decay": 2},
             dict(family_kind="shape", n_dims=3, amplitude=0.1, decay=2.0)),
        ],
    )
    def test_minimal_document_takes_field_defaults(self, family, required):
        exp = ExperimentConfig.from_dict({"family": family, "k0": 20, "n_points": 4})
        assert exp == ExperimentConfig(k0=20.0, n_points=4, **required)
        # numbers are cast: the report shows k0 as 20.0, not 20
        assert repr(exp) == repr(ExperimentConfig(k0=20.0, n_points=4, **required))

    def test_every_key_reaches_its_field(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.3]},
                "k0": 6,
                "n_points": 3,
                "sampling": "halton",
                "seed": 2,
                "tol": 1e-6,
                "mesh_constant": 3,
                "mesh_size": 0.2,
                "max_iter": 40,
                "cost": {"mode": "measured", "c_build": 2e-4, "c_iter": 3e-6},
                "sp_window": 4,
                "placement": {
                    "la_max_iter": 7,
                    "rel_improvement_floor": 0,
                    "n_restarts": 1,
                    "kappa": 2,
                },
                "output_dir": "out",
            }
        )
        expected = ExperimentConfig(
            family_kind="affine", n_dims=1, k0=6.0, n_points=3, eta=(0.3,),
            sampling="halton", seed=2, tol=1e-6, mesh_constant=3.0, mesh_size=0.2,
            max_iter=40, cost_mode="measured", c_build=2e-4, c_iter=3e-6, sp_window=4,
            la_max_iter=7, rel_improvement_floor=0.0, n_restarts=1, kappa=2.0,
            output_dir="out",
        )
        assert repr(exp) == repr(expected)

    def test_overrides_replace_only_given_values(self, tmp_path):
        # training records every config field it read, so the surrogate
        # shows which values reached the config
        doc = {
            "family": {"kind": "affine", "eta": [0.25]},
            "k0": 5.0,
            "n_points": 5,
            "seed": 7,
            "cost": {"c_iter": 2e-6},
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        moved = tmp_path / "moved"
        overrides = ["--seed", "3", "--out", str(moved), "--cost-mode", "measured"]
        assert cli_main(["train", "--config", str(path), *overrides]) == 0
        assert not (tmp_path / "out").exists()
        assert cli_main(["train", "--config", str(path)]) == 0
        given, overridden = (
            json.loads((out / "surrogate.json").read_text())["trained_on"]
            for out in (tmp_path / "out", moved)
        )
        assert (given["seed"], given["cost_mode"], given["c_iter"]) == (7, "synthetic", 2e-6)
        assert overridden == {**given, "seed": 3, "cost_mode": "measured"}

    # 10**400 is an integer literal too large for a float
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10**400],
        ids=["nan", "inf", "-inf", "10**400"],
    )
    @pytest.mark.parametrize("keys", list(typed_keys(CONFIG_SCHEMA, "number")), ids="-".join)
    def test_non_finite_numbers_fail_before_the_output_directory(
        self, tmp_path, capsys, keys, value
    ):
        self._fails_before_the_output_directory(tmp_path, capsys, keys, value)

    # numpy takes sizes and seeds as signed 64-bit integers
    @pytest.mark.parametrize("value", [10**400, 2**63], ids=["10**400", "2**63"])
    @pytest.mark.parametrize("keys", list(typed_keys(CONFIG_SCHEMA, "integer")), ids="-".join)
    def test_integers_beyond_64_bits_fail_before_the_output_directory(
        self, tmp_path, capsys, keys, value
    ):
        err = self._fails_before_the_output_directory(tmp_path, capsys, keys, value)
        assert "is not of type 'integer'" in err

    def test_integers_of_64_bits_pass(self):
        assert ExperimentConfig.from_dict(_set_key(("seed",), 2**63 - 1)).seed == 2**63 - 1

    # a count no memory holds must fail validation, not inside numpy
    @pytest.mark.parametrize("excess", [1, 2**62], ids=["1", "2**62"])
    def test_n_points_past_its_maximum_fails_before_the_output_directory(
        self, tmp_path, capsys, excess
    ):
        cap = CONFIG_SCHEMA["properties"]["n_points"]["maximum"]
        assert ExperimentConfig.from_dict(_set_key(("n_points",), cap)).n_points == cap
        err = self._fails_before_the_output_directory(
            tmp_path, capsys, ("n_points",), cap + excess
        )
        assert f"is greater than the maximum of {cap}" in err

    def test_grid_past_the_cap_fails_before_the_output_directory(self, tmp_path, capsys):
        # 3-dim grids round n_points to a cube: 9261 is 21^3, 10000 becomes 22^3 = 10648
        def grid(n_points):
            return {"family": {"kind": "affine", "eta": [0.5] * 3}, "k0": 5.0,
                    "n_points": n_points, "sampling": "grid"}

        assert ExperimentConfig.from_dict(grid(9261)).n_points == 9261
        with pytest.raises(ValueError, match="'n_points' 10000 to 10648 targets"):
            ExperimentConfig.from_dict(grid(10_000))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**grid(10_000), "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "'n_points'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_the_mesh_cap_binds_on_the_node_count(self):
        cap = helmholtz._MAX_MESH_NODES
        # h 0.00692 gives 110 rings of 908 nodes, 99,880 in all; h 0.0069 gives 110 of 911
        below = ExperimentConfig.from_dict(_set_key(("mesh_size",), 0.00692))
        assert below.helmholtz_config().rings == (110, 908) and 110 * 908 <= cap
        with pytest.raises(ValueError, match=rf"\(from mesh_size\) .* more than {cap} nodes"):
            ExperimentConfig.from_dict(_set_key(("mesh_size",), 0.0069))

    # schema-valid, each asking for gigabytes; the mesh must not be built
    @pytest.mark.parametrize(
        "change, key",
        [({"k0": 20.0, "mesh_constant": 1e-9}, "k0 and mesh_constant"),
         ({"family": SHAPE, "k0": 2000.0}, "k0 and mesh_constant"),
         ({"family": SHAPE, "mesh_size": 1e-4}, "mesh_size")],
        ids=["mesh_constant", "k0", "mesh_size"],
    )
    def test_a_mesh_past_the_cap_fails_before_the_output_directory(
        self, tmp_path, capsys, monkeypatch, change, key
    ):
        def unbuilt(cfg):
            raise AssertionError(f"built a mesh at h={cfg.h}")

        monkeypatch.setattr(helmholtz, "build_annulus_mesh", unbuilt)
        monkeypatch.setattr(harness, "build_annulus_mesh", unbuilt)
        doc = {**_set_key(("k0",), 20.0), **change, "output_dir": str(tmp_path / "out")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"(from {key}) makes a mesh of more than {helmholtz._MAX_MESH_NODES} nodes" in err
        assert not (tmp_path / "out").exists()

    # a family forms d x d weight matrices: none may be built past the cap
    @pytest.mark.parametrize(
        "key, message", [("n_dims", "is greater than the maximum of"), ("eta", "is too long")]
    )
    def test_a_dimension_past_the_cap_fails_before_the_output_directory(
        self, tmp_path, capsys, monkeypatch, key, message
    ):
        def unbuilt(*args):
            raise AssertionError("built a family")

        for name in ("shape_family", "affine_family"):
            monkeypatch.setattr(helmholtz, name, unbuilt)
            monkeypatch.setattr(harness, name, unbuilt)
        cap = harness._MAX_DIMS

        def doc(dims):
            doc = _set_key(("family", key), dims)
            if key == "eta":
                doc["family"]["eta"] = [0.5] * dims
            return doc

        assert ExperimentConfig.from_dict(doc(cap)).n_dims == cap
        with pytest.raises(jsonschema.ValidationError, match=f"'{key}'"):
            ExperimentConfig.from_dict(doc(cap + 1))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**doc(cap + 1), "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _fails_before_the_output_directory(tmp_path, capsys, keys, value):
        """``from_dict`` and ``pcplace run`` reject ``value`` at ``keys``, naming the key."""
        doc, key = _set_key(keys, value), keys[-1]
        with pytest.raises(jsonschema.ValidationError, match=f"'{key}'"):
            ExperimentConfig.from_dict(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**doc, "output_dir": str(tmp_path / "out")}))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert not (tmp_path / "out").exists()
        return err


class TestSampling:
    def test_seed_reproducibility(self):
        exp = small_affine_config(n_points=200)
        w1 = sample_parameter_set(exp)
        w2 = sample_parameter_set(exp)
        assert_allclose(w1.points, w2.points)

    def test_bounds(self):
        exp = small_affine_config(n_points=500)
        pts = sample_parameter_set(exp).points
        assert pts.min() >= -1.0 and pts.max() <= 1.0

    def test_mean_shrinks_with_sample_size(self):
        exp = small_affine_config(n_points=1000)
        pts = sample_parameter_set(exp).points
        assert np.all(np.abs(pts.mean(axis=0)) < 0.1)

    def test_halton_option(self):
        doc = {
            "family": {"kind": "affine", "eta": [0.25] * 4},
            "k0": 5.0,
            "n_points": 128,
            "sampling": "halton",
            "seed": 3,
        }
        exp = ExperimentConfig.from_dict(doc)
        a = sample_parameter_set(exp).points
        b = sample_parameter_set(exp).points
        assert_allclose(a, b)
        assert a.shape == (128, 4)
        assert a.min() >= -1.0 and a.max() <= 1.0
        # low-discrepancy: per-dimension means are tighter than the i.i.d.
        # standard error at this sample size
        assert np.all(np.abs(a.mean(axis=0)) < 0.05)

    def test_grid_option(self):
        doc = {
            "family": {"kind": "affine", "eta": [0.25, 0.25]},
            "k0": 5.0,
            "n_points": 100,
            "sampling": "grid",
        }
        pts = sample_parameter_set(ExperimentConfig.from_dict(doc)).points
        assert pts.shape == (100, 2)  # 10 x 10 tensor grid
        assert len(np.unique(pts[:, 0])) == 10

    def test_grid_dimension_guard(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(
                {
                    "family": {"kind": "affine", "eta": [0.2, 0.2, 0.2, 0.2]},
                    "k0": 5.0,
                    "n_points": 16,
                    "sampling": "grid",
                }
            )


class TestPipeline:
    def test_smoke_covers_every_point_once(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.25]},
                "k0": 5.0,
                "n_points": 4,
                "seed": 3,
            }
        )
        report, surrogate, plan = run_pipeline(exp)
        indices = sorted(rec["index"] for rec in report.per_point)
        assert indices == [0, 1, 2, 3]
        phases = {rec["index"]: rec["phase"] for rec in report.per_point}
        n_train = sum(1 for p in phases.values() if p == "train")
        n_exec = sum(1 for p in phases.values() if p == "exec")
        assert n_train + n_exec == 4
        assert n_train == len(surrogate.evaluated)
        assert not report.degraded
        assert report.t_tot == report.t_train + report.t_l_al + report.t_exec

    def test_disagree_trace_bookkeeping(self):
        exp = small_affine_config(n_points=25)
        report, surrogate, _ = run_pipeline(exp)
        # one SP entry per training point beyond the origin pin and the
        # first mandatory evaluation
        assert len(report.disagree_trace) == len(surrogate.evaluated) - 1
        assert len(report.rmse_trace) == len(surrogate.evaluated) - 1
        # conservation of work on a non-trivial instance
        indices = [rec["index"] for rec in report.per_point]
        assert sorted(indices) == list(range(25))

    def test_single_point_instance(self):
        # training consumes the only target; nothing is left to place and
        # the mean preconditioner is the whole strategy
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.25]},
                "k0": 5.0,
                "n_points": 1,
                "seed": 0,
            }
        )
        report, surrogate, plan = run_pipeline(exp)
        assert surrogate.budget_exhausted
        assert report.n_pc == 1
        assert len(report.per_point) == 1
        assert report.per_point[0]["phase"] == "train"
        assert plan.n_pc == 1 and plan.fixed_mask[0]

    def test_unconverged_solves_flag_degraded_run(self):
        exp = small_affine_config(n_points=6, max_iter=1)
        report, _, _ = run_pipeline(exp)
        assert report.degraded
        assert any(not rec["converged"] for rec in report.per_point)

    def test_a_failed_execution_solve_degrades_only_its_point(self, monkeypatch):
        exp = small_affine_config()
        clean, _, _ = run_pipeline(exp)
        # the oracle calls gmres_left once per solve, in the report's phase
        # order: training first, then execution
        phases = [rec["phase"] for rec in sorted(clean.per_point, key=lambda r: r["index"])]
        n_train = phases.count("train")
        calls = []

        def failing_gmres(*args, **kwargs):
            calls.append(None)
            if len(calls) == n_train + 3:
                raise krylov.BreakdownError("zero Arnoldi vector")
            return krylov.gmres_left(*args, **kwargs)

        monkeypatch.setattr(surrogate, "gmres_left", failing_gmres)
        report, _, _ = run_pipeline(exp)
        assert not clean.degraded and report.degraded
        failed = [rec for rec in report.per_point if "error" in rec]
        assert len(failed) == 1
        assert failed[0]["error"] == "BreakdownError: zero Arnoldi vector"
        assert failed[0]["phase"] == "exec"
        assert not failed[0]["converged"] and failed[0]["iterations"] == 0
        others = [rec for rec in clean.per_point if rec["index"] != failed[0]["index"]]
        assert [rec for rec in report.per_point if "error" not in rec] == others
        solved = [rec["iterations"] for rec in others if rec["phase"] == "exec"]
        assert report.it_av == np.mean(solved)

    def test_a_failed_training_solve_raises(self, monkeypatch):
        def failing_gmres(*args, **kwargs):
            raise krylov.BreakdownError("zero Arnoldi vector")

        monkeypatch.setattr(surrogate, "gmres_left", failing_gmres)
        with pytest.raises(krylov.BreakdownError):
            run_pipeline(small_affine_config(n_points=6))

    def test_measured_cost_mode_smoke(self):
        exp = small_affine_config(
            n_points=6, cost={"mode": "measured", "c_build": 1e-4, "c_iter": 1e-6}
        )
        report, surrogate, _ = run_pipeline(exp)
        assert report.cost_mode == "measured"
        assert report.n_ratio > 0
        assert report.t_tot > 0
        assert "wall_seconds" in report.to_json_dict()

    def test_measured_sweep_price_is_scaled_wall_time(self, monkeypatch):
        prices, plan_placement = [], harness.plan_placement

        def recording_plan(*args, sweep_price, **kwargs):
            prices.append(sweep_price)
            return plan_placement(*args, sweep_price=sweep_price, **kwargs)

        monkeypatch.setattr(harness, "plan_placement", recording_plan)
        exp = small_affine_config(
            n_points=12,
            cost={"mode": "measured", "c_build": 1e-4, "c_iter": 1e-6},
            placement={"kappa": 1e30},
        )
        _, surrogate, plan = run_pipeline(exp)
        assert plan.la_iterations == 1
        (price,) = prices
        assert price(1e9, 0.5) == 1e30 * 0.5 / surrogate.tau_krylov
        # modeled costs price a sweep by the total alone, whatever kappa is
        synthetic = replace(exp, cost_mode="synthetic")
        harness.place(synthetic, surrogate, sample_parameter_set(exp))
        assert prices[1](250.0, 0.5) == 1e-4 * 250.0

    def test_pipeline_never_worse_than_baselines(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {
                    "kind": "shape",
                    "n_dims": 2,
                    "amplitude": 0.5 * max_safe_amplitude(2.0),
                    "decay": 2.0,
                },
                "k0": 10.0,
                "n_points": 30,
                "seed": 2,
            }
        )
        report, _, _ = run_pipeline(exp)
        mean_report = baseline_mean_based(exp)
        assert report.cost_total <= mean_report.cost_total + 1e-9
        assert report.cost_total <= report.cost_per_point + 1e-9

    def test_cheap_preconditioners_beat_mean_based_strictly(self):
        # with a small build cost the planner can afford preconditioners
        # and must strictly undercut single-preconditioner execution
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.5, 0.5]},
                "k0": 10.0,
                "n_points": 50,
                "seed": 1,
                "cost": {"mode": "synthetic", "c_build": 1e-5, "c_iter": 1e-6},
            }
        )
        report, _, plan = run_pipeline(exp)
        mean_report = baseline_mean_based(exp)
        assert report.cost_total < mean_report.cost_total
        assert report.n_pc > 1

    def test_byte_identical_reports_synthetic_mode(self):
        exp = small_affine_config()
        a = json.dumps(run_pipeline(exp)[0].to_json_dict(), sort_keys=True)
        b = json.dumps(run_pipeline(exp)[0].to_json_dict(), sort_keys=True)
        assert a == b


class TestBaselines:
    def test_mean_based_shape(self):
        exp = small_affine_config(n_points=10)
        report = baseline_mean_based(exp)
        assert report.n_pc == 1
        assert report.cost_total == report.cost_mean_based
        assert len(report.per_point) == 10
        assert report.t_tot == report.t_exec

    def test_mean_based_center_member_takes_one_iteration(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.25, 0.25]},
                "k0": 6.0,
                "n_points": 9,
                "sampling": "grid",  # 3x3 grid contains the center
            }
        )
        report = baseline_mean_based(exp)
        center = [r for r in report.per_point if np.allclose(r["y"], 0.0)]
        assert len(center) == 1
        assert center[0]["iterations"] == 1

    def test_mean_based_iterations_grow_with_amplitude(self):
        def shape_cfg(amplitude):
            return ExperimentConfig.from_dict(
                {
                    "family": {
                        "kind": "shape",
                        "n_dims": 2,
                        "amplitude": amplitude,
                        "decay": 2.0,
                    },
                    "k0": 10.0,
                    "n_points": 12,
                    "seed": 4,
                }
            )

        small = baseline_mean_based(shape_cfg(0.25 * max_safe_amplitude(2.0)))
        large = baseline_mean_based(shape_cfg(0.9 * max_safe_amplitude(2.0)))
        assert large.it_av > small.it_av

    def test_per_point_unit_iterations_and_linear_cost(self):
        exp6 = small_affine_config(n_points=6, k0=6.0)
        exp12 = small_affine_config(n_points=12, k0=6.0)
        r6 = baseline_per_point(exp6)
        r12 = baseline_per_point(exp12)
        assert r6.it_av == 1.0 and r12.it_av == 1.0
        assert_allclose(r6.cost_total, 6 * (r6.n_ratio + 1.0))
        assert_allclose(r12.cost_total, 2 * r6.cost_total)

    @pytest.mark.parametrize(
        "strategy", [run_pipeline, baseline_mean_based, baseline_per_point]
    )
    def test_costs_count_realized_targets(self, strategy):
        # a 2-dim grid of 20 requested points realizes 4 x 4 = 16 targets
        exp = small_affine_config(n_points=20, sampling="grid")
        report = strategy(exp)
        if isinstance(report, tuple):
            report = report[0]
        assert len(report.per_point) == report.n_points == 16
        assert len(report.pc_fixed_mask) == len(report.pc_locations)
        assert report.cost_per_point == 16 * (report.n_ratio + 1.0)
        iterations = sum(r["iterations"] for r in report.per_point)
        assert report.cost_total == pytest.approx(
            report.n_ratio * report.n_pc + iterations, rel=1e-12
        )

    @pytest.mark.parametrize("strategy", [run_pipeline, baseline_mean_based])
    def test_cost_per_point_estimate_is_per_point_cost(self, strategy):
        # at 47 targets and ratio 1e-5 / 1e-6, 47 * (n_ratio + 1) rounds
        # differently from the per-point ledger's n_ratio * 47 + 47
        exp = small_affine_config(
            n_points=47, k0=6.0, cost={"mode": "synthetic", "c_build": 1e-5, "c_iter": 1e-6}
        )
        report = strategy(exp)
        if isinstance(report, tuple):
            report = report[0]
        assert report.cost_per_point == baseline_per_point(exp).cost_total

    def test_mean_based_unconverged_solves_flag_degraded_run(self):
        report = baseline_mean_based(small_affine_config(n_points=6, max_iter=1))
        assert report.degraded
        assert any(not rec["converged"] for rec in report.per_point)

    def test_per_point_unconverged_solves_flag_degraded_run(self, inexact_pcs):
        report = baseline_per_point(small_affine_config(n_points=6, max_iter=1))
        assert report.degraded
        assert any(not rec["converged"] for rec in report.per_point)


class TestLedger:
    """Every strategy builds and solves through one oracle and reports off its log."""

    @pytest.mark.parametrize("mode", ["synthetic", "measured"])
    @pytest.mark.parametrize(
        "strategy", [run_pipeline, baseline_mean_based, baseline_per_point]
    )
    def test_cost_identity_with_inexact_preconditioners(
        self, strategy, mode, inexact_pcs, oracles
    ):
        exp = small_affine_config(
            n_points=16,
            sampling="grid",
            cost={"mode": mode, "c_build": 1e-5, "c_iter": 1e-6},
        )
        report = strategy(exp)
        if isinstance(report, tuple):
            report = report[0]
        iterations = [r["iterations"] for r in report.per_point]
        # the shifted factors are inexact, so solves take real iterations
        assert max(iterations) > 1
        assert report.cost_total == pytest.approx(
            report.n_ratio * report.n_pc + sum(iterations), rel=1e-12
        )
        (oracle,) = oracles
        solves = [r for r in oracle.log if r.position is not None]
        assert len(oracle.log) - len(solves) == report.n_pc
        assert sorted(r.position for r in solves) == list(range(16))
        assert sum(r.iterations for r in solves) == sum(iterations)


class TestLedgerOrder:
    """Each strategy's log order, which fixes its summed costs bit for bit."""

    EXP = ExperimentConfig.from_dict(GOLDEN_CONFIGS["golden_affine"])
    BUILD = (None, None)

    @staticmethod
    def _order(oracle):
        return [(r.position, r.pc) for r in oracle.log]

    def test_pipeline_builds_each_pc_then_solves_its_targets(self, oracles):
        _, surrogate, plan = run_pipeline(self.EXP)
        training = [self.BUILD] + [(i, "mean") for i in surrogate.evaluated]
        execution = []
        for k in range(plan.n_pc):
            execution += [] if plan.fixed_mask[k] else [self.BUILD]
            execution += [(int(i), k) for i in plan.point_indices[plan.assignment == k]]
        assert plan.fixed_mask.tolist().count(False) > 0  # premise: placed PCs are built
        assert self._order(*oracles) == training + execution

    def test_mean_based_builds_once_then_solves_in_row_order(self, oracles):
        baseline_mean_based(self.EXP)
        n = len(sample_parameter_set(self.EXP))
        assert self._order(*oracles) == [self.BUILD] + [(i, "mean") for i in range(n)]

    def test_per_point_alternates_build_and_solve(self, oracles):
        baseline_per_point(self.EXP)
        n = len(sample_parameter_set(self.EXP))
        assert self._order(*oracles) == [rec for i in range(n) for rec in (self.BUILD, (i, i))]


@pytest.fixture
def executed(monkeypatch):
    """Each ``FemSolveOracle.execute`` call: the log length before it, and its plan."""
    calls, execute = [], surrogate.FemSolveOracle.execute

    def spy(self, *plan):
        calls.append((len(self.log), plan))
        return execute(self, *plan)

    monkeypatch.setattr(surrogate.FemSolveOracle, "execute", spy)
    return calls


def _running_total(records):
    return functools.reduce(operator.add, (r.cost for r in records), 0.0)


class TestRunPlan:
    """Each strategy hands one plan to one runner, which reports what ran."""

    EXP = ExperimentConfig.from_dict(GOLDEN_CONFIGS["golden_affine"])
    STRATEGIES = [run_pipeline, baseline_mean_based, baseline_per_point]

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_the_report_holds_the_locations_and_mask_that_ran(self, strategy, executed):
        out = strategy(self.EXP)
        report = out[0] if isinstance(out, tuple) else out
        ((_, (locations, fixed_mask, *_)),) = executed
        assert report.pc_locations == [[float(v) for v in loc] for loc in locations]
        assert report.pc_fixed_mask == [bool(m) for m in fixed_mask]

    # call 2 of lu_factor is the pipeline's first placed build, call 3 the
    # per-point baseline's third.  "skewed" prices in synthetic mode, where
    # the plans do not read the prices, a build at 1 and a solve at 2^-53:
    # then 1 + 2^-53 rounds back to 1, and summing in another order shows
    @pytest.mark.parametrize(
        "strategy, mode, failing",
        [(strategy, mode, None)
         for strategy in STRATEGIES for mode in ("synthetic", "measured", "skewed")]
        + [(run_pipeline, "skewed", 2), (baseline_per_point, "skewed", 3)],
        ids=[f"{name}-{mode}" for name in ("pipeline", "mean", "per-point")
             for mode in ("synthetic", "measured", "skewed")]
        + ["pipeline-failed-build", "per-point-failed-build"],
    )
    def test_t_exec_is_the_records_after_training_bit_for_bit(
        self, strategy, mode, failing, executed, oracles, monkeypatch
    ):
        if failing:
            monkeypatch.setattr(surrogate, "lu_factor", _lu_failing_on(failing))
        if mode == "skewed":
            monkeypatch.setattr(krylov.CostPolicy, "build_cost", lambda self, pc: 1.0)
            monkeypatch.setattr(krylov.CostPolicy, "solve_cost", lambda self, pc, rep: 2.0**-53)
            mode = "synthetic"
        out = strategy(replace(self.EXP, cost_mode=mode))
        report = out[0] if isinstance(out, tuple) else out
        assert report.degraded == bool(failing)
        (oracle,), ((n_before, _),) = oracles, executed
        log = oracle.log
        # the rule: the records after training but before the plan ran (only
        # the mean-based reference build), then the plan's own records
        n_train = 1 + len(out[1].evaluated) if isinstance(out, tuple) else 0
        t_exec = _running_total(log[n_train:n_before]) + _running_total(log[n_before:])
        assert report.t_exec == t_exec
        # which is each strategy's own sum
        if strategy is run_pipeline:
            assert n_before == n_train and t_exec == _running_total(log[n_train:])
        elif strategy is baseline_mean_based:
            assert n_before == 1 and t_exec == log[0].cost + _running_total(log[1:])
        else:
            assert n_before == 0 and t_exec == _running_total(log)


def _lu_failing_on(call):
    """An ``lu_factor`` whose ``call``-th call (1-based) raises."""
    calls = []

    def lu(matrix, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise krylov.SingularMatrixError("zero pivot")
        return krylov.lu_factor(matrix, **kwargs)

    return lu


class TestBuildFailures:
    """A failed placed build degrades its cell; the rest of the run goes on."""

    EXP = ExperimentConfig.from_dict(GOLDEN_CONFIGS["golden_affine"])

    def test_a_failed_placed_build_falls_back_to_the_reference_pc(self, monkeypatch):
        clean, _, clean_plan = run_pipeline(self.EXP)
        # call 1 builds the reference preconditioner, call 2 the first placed one
        monkeypatch.setattr(surrogate, "lu_factor", _lu_failing_on(2))
        report, _, plan = run_pipeline(self.EXP)
        assert plan.pc_locations.tobytes() == clean_plan.pc_locations.tobytes()
        cell = plan.fixed_mask.tolist().index(False)
        assert not clean.degraded and report.degraded
        assert report.n_pc == clean.n_pc - 1

        failed = [rec for rec in report.per_point if "error" in rec]
        assert [rec["index"] for rec in failed] == [
            rec["index"] for rec in clean.per_point if rec["pc"] == cell
        ]
        assert {rec["error"] for rec in failed} == {"SingularMatrixError: zero pivot"}
        assert {rec["pc"] for rec in failed} == {cell}
        # solved with the reference preconditioner, as mean-based solves them
        mean_based = {rec["index"]: rec for rec in baseline_mean_based(self.EXP).per_point}
        for rec in failed:
            assert rec["converged"]
            assert rec["iterations"] == mean_based[rec["index"]]["iterations"]
        others = [rec for rec in clean.per_point if rec["pc"] != cell]
        assert [rec for rec in report.per_point if "error" not in rec] == others

        assert report.cost_total == report.n_ratio * report.n_pc + sum(
            rec["iterations"] for rec in report.per_point
        )
        assert report.it_av == np.mean(
            [rec["iterations"] for rec in others if rec["phase"] == "exec"]
        )

    def test_a_failed_per_point_build_fails_its_target(self, monkeypatch):
        clean = baseline_per_point(self.EXP)
        monkeypatch.setattr(surrogate, "lu_factor", _lu_failing_on(3))
        report = baseline_per_point(self.EXP)
        assert not clean.degraded and report.degraded
        assert report.n_pc == clean.n_pc - 1
        failed = [rec for rec in report.per_point if "error" in rec]
        assert len(failed) == 1
        assert failed[0]["index"] == sample_parameter_set(self.EXP).indices[2]
        assert failed[0]["error"] == "SingularMatrixError: zero pivot"
        assert not failed[0]["converged"] and failed[0]["iterations"] == 0
        others = [rec for rec in clean.per_point if rec["index"] != failed[0]["index"]]
        assert [rec for rec in report.per_point if "error" not in rec] == others
        assert report.cost_total == report.n_ratio * report.n_pc + sum(
            rec["iterations"] for rec in report.per_point
        )

    @pytest.mark.parametrize(
        "kind, stem, site, error",
        [("per-point", "per_point", "lu_factor", krylov.SingularMatrixError("zero pivot")),
         ("mean", "mean_based", "gmres_left", krylov.BreakdownError("zero Arnoldi vector"))],
        ids=["no-build", "no-solve"],
    )
    def test_a_measured_run_with_nothing_to_price_is_degraded(
        self, tmp_path, monkeypatch, kind, stem, site, error
    ):
        # with no successful build, or no successful solve, measured mode
        # has no mean cost to divide by: n_ratio and the costs it prices are NaN
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(surrogate, site, fail)
        doc = {"family": {"kind": "affine", "eta": [0.25]}, "k0": 5.0, "n_points": 3,
               "cost": {"mode": "measured"}, "output_dir": str(tmp_path)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["baseline", "--config", str(path), "--kind", kind]) == 2
        report = load_report(tmp_path / f"report_{stem}.json")
        assert report.degraded and np.isnan(report.n_ratio) and np.isnan(report.cost_total)
        assert [rec["error"] for rec in report.per_point] == [
            f"{type(error).__name__}: {error}"] * 3

    @pytest.mark.parametrize("strategy", [run_pipeline, baseline_mean_based])
    def test_a_failed_reference_build_raises(self, strategy, monkeypatch):
        monkeypatch.setattr(surrogate, "lu_factor", _lu_failing_on(1))
        with pytest.raises(krylov.SingularMatrixError):
            strategy(small_affine_config(n_points=6))


class TestReports:
    def _report(self):
        exp = ExperimentConfig.from_dict(
            {
                "family": {"kind": "affine", "eta": [0.25]},
                "k0": 5.0,
                "n_points": 5,
                "seed": 9,
            }
        )
        return run_pipeline(exp)[0]

    def test_json_roundtrip(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        back = load_report(path)
        assert back.to_json_dict() == report.to_json_dict()

    def test_csv_header_exact(self, tmp_path):
        report = self._report()
        path = tmp_path / "report.csv"
        emit_report(report, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self._report(), "xml", tmp_path / "r.xml")


class TestCli:
    def _config_file(self, tmp_path, n_points=5, name="config.json", **changes):
        doc = {
            "family": {"kind": "affine", "eta": [0.25]},
            "k0": 5.0,
            "n_points": n_points,
            "seed": 11,
            "output_dir": str(tmp_path / "out"),
            **changes,
        }
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        code = cli_main(["run", "--config", str(cfg)])
        assert code == 0
        out = tmp_path / "out"
        assert (out / "report_pipeline.json").exists()
        assert (out / "report_pipeline.csv").exists()
        assert (out / "surrogate.json").exists()
        assert (out / "plan.json").exists()

    def test_train_then_place(self, tmp_path):
        cfg = self._config_file(tmp_path, n_points=8)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        assert cli_main(["place", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "plan.json").exists()

    @staticmethod
    def _affine_place(tmp_path):
        """The affine-place benchmark workload's seed-0 config: the planner places 9 PCs."""
        bench = Path(__file__).parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", bench)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(workloads.config_doc("affine-place", 0)))
        return path

    @pytest.mark.parametrize("config", ["one-target", "affine-place"])
    def test_train_then_place_writes_runs_plan(self, tmp_path, config):
        # one target: training consumes it, and the plan holds the mean PC only
        if config == "one-target":
            cfg = self._config_file(tmp_path, n_points=1)
        else:
            cfg = self._affine_place(tmp_path)
        ran, placed = tmp_path / "ran", tmp_path / "placed"
        assert cli_main(["run", "--config", str(cfg), "--out", str(ran)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--out", str(placed)]) == 0
        assert cli_main(["place", "--config", str(cfg), "--out", str(placed)]) == 0
        plan = (ran / "plan.json").read_bytes()
        assert (placed / "plan.json").read_bytes() == plan
        n_pc = len(json.loads(plan)["pc_locations"])
        assert n_pc == (1 if config == "one-target" else 9)

    def _place_doctored(self, tmp_path, capsys, key, doctor):
        """``place`` on a trained surrogate edited by ``doctor``: exits 1 naming ``key``."""
        cfg = self._config_file(tmp_path, n_points=8)
        assert cli_main(["train", "--config", str(cfg)]) == 0
        doc = json.loads((tmp_path / "out" / "surrogate.json").read_text())
        doctor(doc)
        doctored = tmp_path / "doctored.json"
        doctored.write_text(json.dumps(doc))
        capsys.readouterr()
        code = cli_main(["place", "--config", str(cfg), "--surrogate", str(doctored)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert not (tmp_path / "out" / "plan.json").exists()
        return err

    @pytest.mark.parametrize("key", ["tau_pc", "m_max"])
    def test_place_rejects_a_surrogate_with_a_zero_cost(self, tmp_path, capsys, key):
        # tau_pc / m_max prices the planner's sweeps, so a zero would divide by zero
        self._place_doctored(tmp_path, capsys, key, lambda doc: doc.update({key: 0.0}))

    @pytest.mark.parametrize("key, last", [("train_alphas", a) for a in (1.5, -0.2, float("nan"))])
    def test_place_rejects_a_surrogate_with_malformed_training_data(
        self, tmp_path, capsys, key, last
    ):
        # an alpha outside (0, 1) has no iteration count, yet the planner
        # would return a plan for it
        def doctor(doc):
            doc[key][-1] = last

        self._place_doctored(tmp_path, capsys, key, doctor)

    @pytest.mark.parametrize(
        "key, change",
        [
            ("evaluated", lambda doc: doc["evaluated"][:-1] + [99]),
            ("evaluated", lambda doc: doc["evaluated"][:-1] + doc["evaluated"][:1]),
            ("train_alphas", lambda doc: doc["train_alphas"][:-1]),
            ("m_max", lambda doc: float("nan")),
            ("tau_pc", lambda doc: float("nan")),
            ("m_max", lambda doc: 10**400),
            ("format_version", lambda doc: 1),
        ],
        ids=["evaluated-99", "evaluated-repeated", "alphas-short", "m_max-nan", "tau_pc-nan",
             "m_max-10**400", "version-1"],
    )
    def test_place_rejects_a_doctored_surrogate(self, tmp_path, capsys, key, change):
        # 99 names a target the 8-target config lacks; a surrogate of an
        # older format must be trained again
        doctor = lambda doc: doc.update({key: change(doc)})  # noqa: E731
        err = self._place_doctored(tmp_path, capsys, key, doctor)
        assert key != "format_version" or "retrain" in err

    def test_place_rejects_an_evaluated_index_beyond_64_bits(self, tmp_path, capsys):
        # the schema rejects it, before any index is compared with the targets
        def doctor(doc):
            doc["evaluated"][-1] = 10**400

        err = self._place_doctored(tmp_path, capsys, "evaluated", doctor)
        assert "is not of type 'integer'" in err

    def test_place_rejects_a_surrogate_trained_on_another_config(self, tmp_path, capsys):
        trained = self._config_file(
            tmp_path, n_points=8, family={"kind": "affine", "eta": [0.25, 0.5]}
        )
        assert cli_main(["train", "--config", str(trained)]) == 0
        surrogate = str(tmp_path / "out" / "surrogate.json")
        # placement settings and the output directory may differ
        moved = self._config_file(
            tmp_path, n_points=8, name="moved.json", family={"kind": "affine", "eta": [0.25, 0.5]},
            placement={"n_restarts": 0, "kappa": 2.0}, output_dir=str(tmp_path / "moved"),
        )
        assert cli_main(["place", "--config", str(moved), "--surrogate", surrogate]) == 0
        other = self._config_file(
            tmp_path, n_points=30, name="other.json", family={"kind": "affine", "eta": [0.9, 0.9]},
            k0=9.0, tol=0.01, output_dir=str(tmp_path / "other"),
        )
        capsys.readouterr()
        assert cli_main(["place", "--config", str(other), "--surrogate", surrogate]) == 1
        err = capsys.readouterr().err
        # k0 is the first training field, in field order, that differs
        assert "'k0'" in err and "'eta'" not in err
        assert not (tmp_path / "other" / "plan.json").exists()

    def test_baseline_and_report_conversion(self, tmp_path):
        cfg = self._config_file(tmp_path)
        assert cli_main(["baseline", "--config", str(cfg), "--kind", "mean"]) == 0
        src = tmp_path / "out" / "report_mean_based.json"
        dst = tmp_path / "out" / "converted.csv"
        assert cli_main(
            ["report", "--in", str(src), "--format", "csv", "--out", str(dst)]
        ) == 0
        assert dst.read_text().splitlines()[0] == CSV_HEADER

    def test_eta_of_one_fails_before_the_output_directory(self, tmp_path, capsys):
        doc = {
            "family": {"kind": "affine", "eta": [1.0]},
            "k0": 5.0,
            "n_points": 5,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "change, key",
        [
            ({"mesh_size": 10.0}, "mesh_size"),
            ({"k0": 1e-3}, "k0"),
            ({"family": {"kind": "shape", "n_dims": 2, "amplitude": 0.9, "decay": 2.0}},
             "amplitude"),
        ],
    )
    def test_unbuildable_config_fails_before_the_output_directory(
        self, tmp_path, capsys, change, key
    ):
        # schema-valid, but the mesh or the family cannot be built
        doc = {
            "family": {"kind": "affine", "eta": [0.5]},
            "k0": 5.0,
            "n_points": 5,
            "output_dir": str(tmp_path / "out"),
            **change,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not (tmp_path / "out").exists()

    def test_a_negative_seed_fails_before_the_output_directory(self, tmp_path, capsys):
        cfg = self._config_file(tmp_path)
        assert cli_main(["run", "--config", str(cfg), "--seed", "-1"]) == 1
        assert "'seed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_error(self, tmp_path, capsys):
        code = cli_main(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_degraded_run_exits_two(self, tmp_path):
        doc = {
            "family": {"kind": "affine", "eta": [0.25]},
            "k0": 5.0,
            "n_points": 5,
            "seed": 11,
            "max_iter": 1,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path)]) == 2
