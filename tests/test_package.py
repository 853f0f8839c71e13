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


def _unread_locals(source: str) -> list[str]:
    """function.name of every local name a function in source assigns
    (a target or a nested def) and never reads, in its body or its closures;
    `_` and names it declares global or nonlocal aside."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # Its own body's bindings: nested defs bind their names here, but
        # their bodies are theirs.
        stack, stored, shared = list(fn.body), set(), set()
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stored.add(node.name)
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
            stack.extend(ast.iter_child_nodes(node))
        read = {node.id for node in ast.walk(fn) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        found.extend(f"{fn.name}.{name}" for name in sorted(stored - read - shared - {"_"}))
    return found


def test_no_unread_locals():
    source = (
        "def f(a):\n    b, _ = a\n    c = 1\n    def g():\n        return b\n    def h():\n        d = 2\n"
        "    global e\n    e = 3\n    return g\n"
    )
    assert _unread_locals(source) == ["f.c", "f.h", "h.d"]
    for path in sorted(PACKAGE.glob("*.py")):
        assert _unread_locals(path.read_text()) == [], path.name


def _private_names(tree: ast.Module) -> list[str]:
    """The names that tree's module-level defs, classes and assignments bind
    with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(tree: ast.Module) -> set[str]:
    """Every name tree reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_private_name_is_read():
    tree = ast.parse("_A = 1\n_B, C = 2, 3\n__all__ = []\ndef _f():\n    return _A\nclass _K:\n    pass\nx = m._K\n")
    assert sorted(set(_private_names(tree)) - _reads(tree)) == ["_B", "_f"]
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    for name, tree in trees.items():
        assert [n for n in _private_names(tree) if n not in read] == [], name


def _defines(node: ast.stmt, name: str) -> bool:
    """Whether the module-level statement node defines name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name == name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == name for t in targets)


def _unread_exports(trees: dict[str, ast.Module]) -> list[str]:
    """module.name of every name in the __all__ of a module of trees that no
    other module reads and that its own module reads only in its definition."""
    found = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_reads(other) for m, other in trees.items() if m != module))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                for name in ast.literal_eval(node.value):
                    own = set().union(*(_reads(n) for n in tree.body if not _defines(n, name)))
                    if name not in elsewhere | own:
                        found.append(f"{module}.{name}")
    return found


def test_every_export_is_needed():
    # The north star keeps only the public names that the harness, the CLI
    # and the acceptance tests need: each name in a layer's __all__ is read
    # by another module of the package or by its own module outside its
    # definition, or is imported by tests/test_acceptance.py.
    source = "__all__ = ['f', 'g', 'h', 'K']\ndef f():\n    return f()\ndef g():\n    return K\nh = 1\nclass K:\n    pass\n"
    trees = {"a": ast.parse(source), "b": ast.parse("from .a import g\ng()\n")}
    assert _unread_exports(trees) == ["a.f", "a.h"]
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    imported = {
        f"{node.module.removeprefix('streamci.')}.{alias.name}"
        for node in acceptance.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("streamci.")
        for alias in node.names
    }
    unread = [name for name in _unread_exports(trees) if name.split(".")[0] in MODULES]
    assert [name for name in unread if name not in imported] == []


def _openblas_uses(tree: ast.Module) -> list[str]:
    """What in tree imports ctypes or names OpenBLAS's handle (_openblas,
    _OpenBlas): bare, as an attribute, an imported name or a definition."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names if alias.name.split(".")[0] == "ctypes")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes":
            found.append(node.module)
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if name in ("_openblas", "_OpenBlas"):
            found.append(name)
    return found


def test_only_statutil_calls_into_openblas():
    # statutil owns numpy's OpenBLAS: its handle, the thread count's reader
    # and setters, and the joining product. Every other module goes through
    # those, so deleting the handle is a change to statutil alone.
    source = "import ctypes\nfrom ctypes import CDLL\nfrom .statutil import _openblas\ns._OpenBlas()\n_openblas().get()\n"
    assert _openblas_uses(ast.parse(source)) == ["ctypes", "ctypes", "_openblas", "_OpenBlas", "_openblas"]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "statutil":
            assert _openblas_uses(ast.parse(path.read_text())) == [], path.name


def _named(tree: ast.Module, names: tuple[str, ...]) -> list[str]:
    """Each of names that tree names: bare, as an attribute, an imported
    name or a definition."""
    found = (getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(tree))
    return [name for name in found if name in names]


def test_only_statutil_and_harness_handle_blas_thread_counts():
    # The harness owns the process's OpenBLAS thread count: it reads it for
    # the pool's Wald fits and pins each worker to one thread. No other
    # layer sizes anything by it, so dropping the count touches statutil and
    # harness alone.
    names = ("_blas_thread_count", "_blas_threads", "_set_blas_threads")
    source = "from .statutil import _blas_threads as b\ns._set_blas_threads(1)\ndef _blas_thread_count():\n    pass\n"
    assert sorted(_named(ast.parse(source), names)) == sorted(names)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem not in ("statutil", "harness"):
            assert _named(ast.parse(path.read_text()), names) == [], path.name
