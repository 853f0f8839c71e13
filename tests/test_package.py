"""The package's export surface."""

import importlib

import streamci

MODULES = ("statutil", "model", "optim", "infer", "harness")


def test_exports_resolve():
    # `import streamci` gives the harness entry points; every other name is
    # imported from its module, and each module's __all__ names only what exists.
    assert sorted(streamci.__all__) == ["ExperimentConfig", "aggregate", "expansion_residual", "run_grid"]
    for name in MODULES:
        module = importlib.import_module(f"streamci.{name}")
        for attr in getattr(module, "__all__", ()):
            assert hasattr(module, attr), f"streamci.{name}.__all__ names missing {attr!r}"
    for attr in streamci.__all__:
        assert hasattr(streamci, attr)
