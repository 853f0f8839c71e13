"""Byte-identity of the golden fixture: every algorithm on both models
(bench/golden.py) must reproduce the stored raw and summary CSVs. Also a
short traced benchmark run, which must still attach to the program."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_fixture_is_byte_identical():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "golden.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_bench_tracer_runs():
    # The benchmark's layer tracer patches harness internals (the pool task,
    # the writers' path argument); a refactor that breaks it would pass the
    # untraced benchmark unnoticed.
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "sweep-logistic-d20", "--tiny",
         "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert '"correct": true' in done.stdout.splitlines()[-1], done.stdout
