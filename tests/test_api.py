"""Every exported name resolves, and so does every name the demos import.

The demos' imports are read with ``ast``: a stale export or a demo that
imports a deleted function fails here in milliseconds.  Each demo is also
run once, so a changed signature it calls fails too.  The traced
benchmark's wrapped names must resolve, and a golden run must reach each
of them.  Every export needs a caller other than the tests.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pcplace
from pcplace import harness
from pcplace.harness import ExperimentConfig
from test_golden_reports import GOLDEN_CONFIGS

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    f"pcplace.{path.stem}"
    for path in (ROOT / "src" / "pcplace").glob("*.py")
    if not path.stem.startswith("_")
)
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _package_imports():
    """(module, name) of every ``from pcplace... import name`` in the package
    root's own imports."""
    tree = ast.parse(Path(pcplace.__file__).read_text(encoding="utf-8"))
    return [
        (f"pcplace.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing


def test_package_exports_resolve():
    assert _package_imports()
    for module, name in _package_imports():
        assert hasattr(importlib.import_module(module), name), (module, name)
        assert hasattr(pcplace, name), name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(encoding="utf-8"))
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "pcplace"
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert not missing


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # from an empty directory: demos 02 and 05 write their outputs to the cwd
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _load_spans(monkeypatch):
    """The traced benchmark's span recorder, ``bench/spans.py``."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    return spans


# Exports that only the tests use, kept as the references they compare with.
REFERENCE_ONLY = {
    "domain_map": "the explicit map and Jacobian the closed-form pull-back is checked against",
    "contraction_factor": "the dense |I - PA| the Elman-bound tests measure",
    "weighted_norm": "the one-shift norm batch_weighted_norm is checked against",
}


def _used_names(node, with_strings):
    """Names and attributes read under ``node``, and its strings if asked."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif with_strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def test_every_export_has_a_caller():
    # src counts by name, outside the definition itself; demos and bench
    # also by string, as the traced benchmark names the sites it wraps
    src = [
        (path.stem, node, _used_names(node, False))
        for path in (ROOT / "src" / "pcplace").glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    outside = set()
    for path in [*DEMOS, *(ROOT / "bench").glob("*.py")]:
        outside |= _used_names(ast.parse(path.read_text(encoding="utf-8")), True)
    uncalled = []
    for module in MODULES:
        stem = module.rsplit(".", 1)[1]
        for name in getattr(importlib.import_module(module), "__all__", []):
            called = name in outside or any(
                name in used
                for other, node, used in src
                if not (other == stem and _defines(node, name))
            )
            if not called:
                uncalled.append(name)
    assert sorted(uncalled) == sorted(REFERENCE_ONLY)


def test_traced_benchmark_sites_resolve(monkeypatch):
    # the traced benchmark wraps each site through ``owner.__dict__[attr]``,
    # so a name must stay defined or imported at exactly that owner
    spans = _load_spans(monkeypatch)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in spans._SITES
        if attr not in owner.__dict__
    ]
    assert not missing


# Traced names that a pipeline run no longer reaches, with the reason.
UNREACHED_SITES = {
    "helmholtz.assemble_operator": "still defined, but the per-mesh Assembler does not call it",
    "helmholtz.apply_sound_soft": "still defined, but the per-mesh Assembler does not call it",
}


def test_golden_run_reaches_every_traced_site(monkeypatch):
    # a refactor that routes around a traced name would otherwise show up
    # only as a zero per-layer metric in the traced benchmark
    spans = _load_spans(monkeypatch)
    recorder = spans.Recorder("golden_affine")
    recorder.install()
    try:
        harness.run_pipeline(ExperimentConfig.from_dict(GOLDEN_CONFIGS["golden_affine"]))
    finally:
        recorder.uninstall()
    recorded = {span.name for span in recorder.spans}
    assert {name for name, *_ in spans._SITES} - recorded == set(UNREACHED_SITES)
