"""Command-line interface for running the preconditioner-placement pipeline.

Subcommands:
  train     train the iteration surrogate, save it as JSON
  place     plan preconditioner placement from a saved surrogate
  run       full pipeline (train, place, execute) with reports
  baseline  mean-based and/or per-point baseline runs
  report    convert a JSON report to CSV (or re-emit JSON)

Exit codes: 0 success, 2 degraded (some solve missed its tolerance or
failed), 1 error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .harness import (
    ExperimentConfig,
    baseline_mean_based,
    baseline_per_point,
    emit_report,
    load_report,
    load_surrogate,
    place,
    run_pipeline,
    sample_parameter_set,
    save_surrogate,
    train,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="override output directory")
    parser.add_argument("--cost-mode", help="override cost mode: synthetic or measured")


def _load_config(args) -> tuple[ExperimentConfig, Path]:
    """The config with the command line's overrides, schema-checked, and its output directory."""
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):  # anything else fails the schema as it stands
        overrides = {"seed": args.seed, "output_dir": args.out}
        doc.update((k, v) for k, v in overrides.items() if v is not None)
        if args.cost_mode is not None and isinstance(doc.get("cost", {}), dict):
            doc["cost"] = {**doc.get("cost", {}), "mode": args.cost_mode}
    exp = ExperimentConfig.from_dict(doc)
    out = Path(exp.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return exp, out


def _cmd_train(args) -> int:
    exp, out = _load_config(args)
    surrogate, oracle = train(exp)
    path = out / "surrogate.json"
    save_surrogate(exp, surrogate, path)
    print(
        f"trained on {len(surrogate.evaluated)} of {len(oracle.points)} points, "
        f"m_max={surrogate.m_max:.2f} -> {path}"
    )
    return 0


def _cmd_place(args) -> int:
    exp, out = _load_config(args)
    surrogate = load_surrogate(exp, args.surrogate or out / "surrogate.json")
    plan = place(exp, surrogate, sample_parameter_set(exp))
    path = out / "plan.json"
    plan.save(path)
    print(
        f"placed {plan.n_pc} preconditioners "
        f"(cost {plan.estimated_cost:.1f} iteration units) -> {path}"
    )
    return 0


def _cmd_run(args) -> int:
    exp, out = _load_config(args)
    report, surrogate, plan = run_pipeline(exp)
    save_surrogate(exp, surrogate, out / "surrogate.json")
    plan.save(out / "plan.json")
    emit_report(report, "json", out / "report_pipeline.json")
    emit_report(report, "csv", out / "report_pipeline.csv")
    print(
        f"pipeline: N_pc={report.n_pc} it_av={report.it_av:.2f} "
        f"cost={report.cost_total:.1f} -> {out}/report_pipeline.json"
    )
    return 2 if report.degraded else 0


def _cmd_baseline(args) -> int:
    exp, out = _load_config(args)
    kinds = ["mean", "per-point"] if args.kind == "both" else [args.kind]
    degraded = False
    for kind in kinds:
        if kind == "mean":
            report = baseline_mean_based(exp)
            stem = "report_mean_based"
        else:
            report = baseline_per_point(exp)
            stem = "report_per_point"
        emit_report(report, "json", out / f"{stem}.json")
        emit_report(report, "csv", out / f"{stem}.csv")
        degraded = degraded or report.degraded
        print(
            f"{report.label}: N_pc={report.n_pc} it_av={report.it_av:.2f} "
            f"cost={report.cost_total:.1f} -> {out}/{stem}.json"
        )
    return 2 if degraded else 0


def _cmd_report(args) -> int:
    report = load_report(args.infile)
    emit_report(report, args.format, args.outfile)
    print(f"wrote {args.format} report -> {args.outfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcplace",
        description="preconditioner placement for parameterized linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train the iteration surrogate")
    _add_common(p_train)
    p_train.set_defaults(func=_cmd_train)

    p_place = sub.add_parser("place", help="plan placement from a saved surrogate")
    _add_common(p_place)
    p_place.add_argument(
        "--surrogate", default=None, help="surrogate JSON (default: <out>/surrogate.json)"
    )
    p_place.set_defaults(func=_cmd_place)

    p_run = sub.add_parser("run", help="full train/place/execute pipeline")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_base = sub.add_parser("baseline", help="run reference strategies")
    _add_common(p_base)
    p_base.add_argument(
        "--kind", choices=["mean", "per-point", "both"], default="both"
    )
    p_base.set_defaults(func=_cmd_baseline)

    p_rep = sub.add_parser("report", help="convert a saved JSON report")
    p_rep.add_argument("--in", dest="infile", required=True)
    p_rep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_rep.add_argument("--out", dest="outfile", required=True)
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a one-line error, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
