"""Span recorder for the traced benchmark run, installed from outside ``src``.

The recorder swaps timing wrappers in at the import sites the program
resolves at call time (module attributes and class methods), keeps every
span in memory and derives the per-layer metrics once the run has ended.
Nothing in the package is edited: uninstalling restores the originals.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import pcplace.harness as harness
import pcplace.helmholtz as helmholtz
import pcplace.krylov as krylov
import pcplace.placement as placement
import pcplace.surrogate as surrogate


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    counts: dict = field(default_factory=dict)


def _gmres_counts(out, args, index):
    return {
        "iterations": out.iterations,
        "converged": bool(out.converged),
        "pc": getattr(args[0], "_bench_pc", None),
    }


def _lu_counts(out, args, index):
    out._bench_pc = index  # lets the GMRES spans name their preconditioner
    return {"fill": out.factors.L.nnz + out.factors.U.nnz, "pc": index}


def _rows(out, args, index):
    deltas = args[1]
    return {"rows": len(deltas) if getattr(deltas, "ndim", 1) > 1 else 1}


def _greedy_counts(out, args, index):
    _, fixed_mask, trace = out
    return {"inserted": len(trace) - 1, "kept": int((~fixed_mask).sum())}


def _plan_counts(out, args, index):
    return {"la_iterations": out.la_iterations, "n_pc": out.n_pc}


# (span name, owner, attribute, count extractor).  ``owner`` is a module or
# a class; a function reached through several import sites gets one wrapper
# installed at each of them.  Extractors read counts off return values.
_SITES = [
    ("harness.run_pipeline", harness, "run_pipeline", None),
    ("helmholtz.assemble", harness, "assemble", None),
    ("helmholtz.assemble", helmholtz, "assemble", None),
    ("helmholtz.assemble_operator", helmholtz, "assemble_operator", None),
    ("helmholtz.incident_rhs", helmholtz, "incident_rhs", None),
    ("helmholtz.apply_sound_soft", helmholtz, "apply_sound_soft", None),
    ("krylov.lu_factor", harness, "lu_factor", _lu_counts),
    ("krylov.lu_factor", surrogate, "lu_factor", _lu_counts),
    ("krylov.lu_apply", krylov.LuPreconditioner, "apply", None),
    ("krylov.gmres", harness, "gmres_left", _gmres_counts),
    ("krylov.gmres", surrogate, "gmres_left", _gmres_counts),
    ("surrogate.train", harness, "train_surrogate_core",
     lambda out, args, index: {"solves": len(out.evaluated)}),
    ("surrogate.oracle_solve", surrogate.FemSolveOracle, "solve", None),
    ("surrogate.posterior", surrogate.GpState, "posterior", _rows),
    ("surrogate.expected_iterations", surrogate.TrainedSurrogate,
     "expected_iterations", _rows),
    ("surrogate.acquisition", surrogate.TrainedSurrogate, "acquisition", _rows),
    ("placement.plan", harness, "plan_placement", _plan_counts),
    ("placement.greedy", placement, "greedy_init", _greedy_counts),
    ("placement.allocate", placement, "allocate", None),
    ("placement.locate", placement, "locate",
     lambda out, args, index: {"improved": bool(out[1])}),
    ("placement.lbfgs", placement, "minimize",
     lambda out, args, index: {"nfev": int(out.nfev)}),
]


class Recorder:
    """Collects spans from wrapped calls; one recorder per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent, self.run_id)
            self._stack.append(index)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(out, args, index)
            return out

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, owner, attr, counter in _SITES:
            original = owner.__dict__[attr]
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(name, original, counter)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def to_records(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": s.run_id,
                **s.counts,
            }
            for s in self.spans
        ]


def layer_metrics(records: list[dict], n_points: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, from its span records."""
    by_name: dict[str, list[dict]] = {}
    own = [r["end"] - r["start"] for r in records]
    for r in records:
        if r["parent"] is not None:
            own[r["parent"]] -= r["end"] - r["start"]
    self_s: dict[str, float] = {}
    for r, t in zip(records, own):
        by_name.setdefault(r["name"], []).append(r)
        self_s[r["name"]] = self_s.get(r["name"], 0.0) + t

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, key):  # a call that raised has no counts
        return sum(r.get(key, 0) for r in by_name.get(name, []))

    def ratio(num, den):
        return num / den if den else 0.0

    gmres = by_name.get("krylov.gmres", [])
    built = {r.get("pc") for r in by_name.get("krylov.lu_factor", [])}
    used = {r.get("pc") for r in gmres} & built
    m = {
        "helmholtz.assemble.calls": calls("helmholtz.assemble"),
        "helmholtz.assemble.per_target": ratio(calls("helmholtz.assemble"), n_points),
        "krylov.lu_factor.calls": calls("krylov.lu_factor"),
        "krylov.lu_factor.fill": ratio(total("krylov.lu_factor", "fill"), calls("krylov.lu_factor")),
        "krylov.lu_apply.calls": calls("krylov.lu_apply"),
        "krylov.gmres.calls": len(gmres),
        "krylov.gmres.iterations": total("krylov.gmres", "iterations"),
        "krylov.gmres.converged_ratio": ratio(total("krylov.gmres", "converged"), len(gmres)),
        "krylov.pc.used_ratio": ratio(len(used), len(built)),
        "surrogate.posterior.calls": calls("surrogate.posterior"),
        "surrogate.posterior.rows": total("surrogate.posterior", "rows"),
        "surrogate.expected_iterations.calls": calls("surrogate.expected_iterations"),
        "surrogate.acquisition.calls": calls("surrogate.acquisition"),
        "surrogate.train.solves": total("surrogate.train", "solves"),
        "surrogate.oracle_solve.calls": calls("surrogate.oracle_solve"),
        "placement.locate.calls": calls("placement.locate"),
        "placement.locate.improved_ratio": ratio(
            total("placement.locate", "improved"), calls("placement.locate")
        ),
        "placement.lbfgs.runs": calls("placement.lbfgs"),
        "placement.lbfgs.nfev": total("placement.lbfgs", "nfev"),
        "placement.allocate.calls": calls("placement.allocate"),
        "placement.greedy.kept_ratio": ratio(
            total("placement.greedy", "kept"), total("placement.greedy", "inserted")
        ),
        "placement.plan.la_iterations": total("placement.plan", "la_iterations"),
        "placement.plan.n_pc": total("placement.plan", "n_pc"),
    }
    for name in {site[0] for site in _SITES}:
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    return m
