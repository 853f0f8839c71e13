"""Byte-identity of the golden fixture: every algorithm on both models
(bench/golden.py) must reproduce the stored raw and summary CSVs, and every
seed-0 benchmark call, three edge-case grids and a small expansion-residual
diagnostic its stored reference. Also a short traced benchmark run, which
must still attach to the program, and traced runs, which must write the
untraced run's bytes."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

import streamci.harness as harness
from streamci.cli import run_cli
from streamci.harness import ROLE_HULC_U, STREAM_SPACING, _blas_threads
from streamci.infer import hulc_batch_count
from streamci.optim import ALGORITHM_NAMES
from streamci.statutil import RngStream

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


def test_plugin_traced_once_per_replication(tmp_path, monkeypatch):
    # infer.plugin_interval builds the plug-in intervals of every c of a
    # replication in one call, so its span, and with it the plug-in's share
    # of the run under infer.plugin, is one per replication.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    def argv(out):
        return ["--model", "linear", "--d", "5", "--t", "400", "--cov", "identity", "--algo", "asgd",
                "--methods", "plugin", "--c", "0.1,0.5,2.0", "--reps", "2", "--out", str(out)]

    assert run_cli(argv(tmp_path / "plain.csv")) == 0
    tracer = layertrace.Tracer().install()
    try:
        start = time.perf_counter()
        assert run_cli(argv(tmp_path / "traced.csv")) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    assert sum(1 for span in tracer.spans if span[0] == "infer.plugin_interval") == 2
    assert layertrace.layer_metrics(tracer, wall_s)["infer.plugin.busy_s"][0] > 0.0
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_workloads_match_seed0_references(tmp_path, monkeypatch):
    """Every seed-0 call of the benchmark's workloads writes the raw and
    summary bytes of its stored reference, compared as bytes: the
    benchmark's own check falls back to a 1e-9 relative float comparison.
    The calls are bench/run.py's, with one worker, as they were recorded.
    The references were recorded with OpenBLAS at 2 threads (the seed
    entry of bench/trajectory.json), and the Wald fits' matrix products
    round differently under another count, so the calls run at 2."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import oracle
    import run as bench_run
    from streamci import cli

    changed = []
    for workload in bench_run.WORKLOADS:
        calls = bench_run.workload_calls(workload, cli, ALGORITHM_NAMES, seed=0, work=tmp_path, threads=1)
        reference = oracle.load_reference(workload, 0, [call.name for call in calls])
        assert reference is not None, workload
        for call in calls:
            with _blas_threads(2):
                assert run_cli(call.argv) == 0
            for path, want in zip(call.outputs(tmp_path)[:2], reference[call.name]):
                if path.read_bytes() != want:
                    changed.append(f"{workload}/{path.name}")
    assert changed == []


# Calls whose cases no seed-0 workload has, recorded under tests/data/ with
# OpenBLAS at 2 threads: two stream lengths (configs sorted by t), a logistic
# cell in which 3 of the 4 Wald fits are unavailable, and an alpha above 1/2
# at which HulC draws a single bucket, as long as the plug-in pass, on
# replications 1 and 3.
EDGE_GRIDS = {
    "edge_two_lengths": ["--model", "linear", "--d", "3", "--t", "400,200", "--cov", "identity", "--algo", "sgd",
                         "--c", "0.3", "--reps", "2", "--seed", "5"],
    "edge_wald_unavailable": ["--model", "logistic", "--d", "20", "--t", "60", "--cov", "identity", "--algo", "sgd",
                              "--c", "0.5", "--reps", "4", "--seed", "5", "--methods", "wald,hulc,tstat"],
    "edge_single_bucket": ["--model", "linear", "--d", "3", "--t", "300", "--cov", "identity", "--algo", "asgd",
                           "--c", "0.5,2.0", "--reps", "4", "--seed", "4", "--alpha", "0.9",
                           "--methods", "wald,plugin,hulc"],
}


@pytest.mark.parametrize("name", sorted(EDGE_GRIDS))
def test_edge_grids_match_reference(tmp_path, name):
    with _blas_threads(2):
        assert run_cli(EDGE_GRIDS[name] + ["--out", str(tmp_path / f"{name}.csv")]) == 0
    raw, summary = ((ROOT / "tests" / "data" / f"{name}{suffix}.csv").read_bytes() for suffix in ("", "_summary"))
    assert (tmp_path / f"{name}.csv").read_bytes() == raw
    assert (tmp_path / f"{name}_summary.csv").read_bytes() == summary
    if name == "edge_wald_unavailable":
        assert raw.count(b",,,,1\n") == 3 * 20  # three unavailable Wald blocks of d=20 rows
        assert summary.count(b",1\n") == 3 * 20  # n_wald_available 1 on every line
    if name == "edge_single_bucket":
        # A single bucket is the whole stream, so its HulC center is the
        # plug-in pass's asgd average, bit for bit; two buckets give another.
        draws = [RngStream(4, rep * STREAM_SPACING + ROLE_HULC_U).uniform() for rep in range(4)]
        single = [str(rep) for rep, u in enumerate(draws) if hulc_batch_count(0.9, float(u)) == 1]
        assert single == ["1", "3"]
        fields = [line.split(",") for line in raw.decode().splitlines()[1:]]
        # (c, rep, k) -> center, per method.
        centers = {m: {(f[5], f[6], f[8]): f[11] for f in fields if f[7] == m} for m in ("hulc", "plugin")}
        assert len(centers["hulc"]) == 2 * 4 * 3
        for key, center in centers["hulc"].items():
            assert (center == centers["plugin"][key]) == (key[1] in single), key


def test_pooled_unavailable_wald_fits_match_reference(tmp_path, monkeypatch):
    # Two workers, one Wald slot between them (two CPUs, fits at two BLAS
    # threads); 3 of the 4 fits raise inside the slot. The pool still
    # finishes, with the serial run's bytes.
    monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
    name = "edge_wald_unavailable"
    with _blas_threads(2):
        assert run_cli(EDGE_GRIDS[name] + ["--threads", "2", "--out", str(tmp_path / f"{name}.csv")]) == 0
    for suffix in ("", "_summary"):
        reference = (ROOT / "tests" / "data" / f"{name}{suffix}.csv").read_bytes()
        assert (tmp_path / f"{name}{suffix}.csv").read_bytes() == reference


def test_bench_tracer_times_the_result_path(tmp_path, monkeypatch):
    # The tracer finds aggregate and the writers by name and reads the
    # writers' path argument for harness.write.bytes; if either stops
    # matching, the result path's per-layer metrics read 0.
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layertrace

    out = tmp_path / "rows.csv"
    argv = ["--model", "linear", "--d", "3", "--t", "200", "--cov", "identity", "--algo", "asgd", "--c", "0.5,0.1",
            "--reps", "2", "--out", str(out)]
    tracer = layertrace.Tracer().install()
    try:
        start = time.perf_counter()
        assert run_cli(argv) == 0
        wall_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert [names.count(n) for n in ("harness.aggregate", "harness.write_rows_csv", "harness.write_summary_csv")] == [
        1, 1, 1]
    written = sum(p.stat().st_size for p in (out, tmp_path / "rows_summary.csv", tmp_path / "rows.csv.manifest.json"))
    assert layertrace.layer_metrics(tracer, wall_s)["harness.write.bytes"][0] == written > 0


def test_expansion_residuals_match_reference(tmp_path):
    """The --diagnostic expansion-residual CSV of a small linear cell writes
    the bytes of tests/data/expansion_residual_linear_d5.csv. It was
    recorded with OpenBLAS at 2 threads, as the workloads' references were,
    so the call runs at 2."""
    out = tmp_path / "residual.csv"
    argv = ["--model", "linear", "--d", "5", "--t", "2000", "--cov", "toeplitz", "--algo", "asgd", "--c", "0.5",
            "--reps", "10", "--seed", "0", "--diagnostic", "expansion-residual", "--out", str(out)]
    with _blas_threads(2):
        assert run_cli(argv) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "expansion_residual_linear_d5.csv").read_bytes()
