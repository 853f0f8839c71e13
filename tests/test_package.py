"""The package's export surface and its imports."""

import ast
import importlib
from pathlib import Path

import streamci

MODULES = ("statutil", "model", "optim", "infer", "harness")
PACKAGE = Path(streamci.__file__).resolve().parent


def test_exports_resolve():
    # `import streamci` gives the harness entry points; every other name is
    # imported from its module, and each module's __all__ names only what exists.
    assert sorted(streamci.__all__) == ["ExperimentConfig", "aggregate", "expansion_residuals", "run_grid"]
    for name in MODULES:
        module = importlib.import_module(f"streamci.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"streamci.{name}.__all__ names missing {attr!r}"
    for attr in streamci.__all__:
        assert hasattr(streamci, attr)


def _unused_imports(source: str) -> list[str]:
    """The names an import in source binds that nothing in it reads and its
    __all__ does not list (__future__ imports aside)."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(set(imported) - used)


def test_unused_import_check_sees_orphans():
    source = "from __future__ import annotations\nimport os, sys\nfrom .a import B, C as D\n__all__ = ['B']\nsys.exit()\n"
    assert _unused_imports(source) == ["D", "os"]


def test_no_unused_imports():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _unused_imports(path.read_text()) == [], path.name
