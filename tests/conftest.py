"""Shared test configuration.

Registers the acceptance marker, pins a deterministic hypothesis profile,
provides the fixture that runs numpy's OpenBLAS at two threads, and prints
a one-line PASS/FAIL per acceptance criterion at the end of the run so the
desk-scale reproduction status is readable at a glance.
"""

import pytest
from hypothesis import HealthCheck, settings

from streamci.statutil import _blas_thread_count, _blas_threads, _openblas

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads for the test, yielding its handle;
    None where no OpenBLAS is found, whose stand-in stays at one thread."""
    with _blas_threads(2):
        yield _openblas() if _blas_thread_count() == 2 else None


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance: desk-scale quantitative acceptance criterion"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for outcome, label in (("passed", "PASS"), ("failed", "FAIL")):
        for rep in terminalreporter.stats.get(outcome, []):
            if getattr(rep, "when", None) != "call":
                continue
            if "test_acceptance.py" in rep.nodeid:
                lines.append((rep.nodeid.split("::")[-1], label))
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for name, label in sorted(lines):
            terminalreporter.write_line(f"{label}  {name}")
