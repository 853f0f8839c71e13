"""Byte-identity of the golden fixture: every algorithm on both models
(bench/golden.py) must reproduce the stored raw and summary CSVs. Also a
short traced benchmark run, which must still attach to the program, and a
traced pooled run, which must write the untraced run's bytes."""

import subprocess
import sys
import time
from pathlib import Path

from streamci.cli import run_cli

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


def test_bench_tracer_pool_path(tmp_path, monkeypatch):
    # Two replications under --threads 2 are two pool tasks, so the tracer's
    # pool path (its pool class, the blocks that carry worker spans back, the
    # span merge) runs, which the one-replication tiny run above never does.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    def argv(out):
        return ["--model", "logistic", "--d", "5", "--t", "200", "--cov", "identity", "--algo", "sgd",
                "--c", "0.5", "--reps", "2", "--threads", "2", "--out", str(out)]

    assert run_cli(argv(tmp_path / "plain.csv")) == 0
    tracer = layertrace.Tracer().install()
    try:
        start = time.perf_counter()
        assert run_cli(argv(tmp_path / "traced.csv")) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = layertrace.layer_metrics(tracer, wall_s)
    assert metrics["harness.pool.tasks"][0] == 2
    assert metrics["infer.wald.calls"][0] == 2
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
