"""Every exported name resolves, and so does every name the demos import.

The demos are read with ``ast``, not run: a stale export or a demo that
imports a deleted function fails here in milliseconds.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import pcplace

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


def test_traced_benchmark_sites_resolve(monkeypatch):
    # the traced benchmark wraps each site through ``owner.__dict__[attr]``,
    # so a name must stay defined or imported at exactly that owner
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "spans", spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owner, attr, _ in spans._SITES
        if attr not in owner.__dict__
    ]
    assert not missing
