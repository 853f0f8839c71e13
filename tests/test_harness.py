"""Experiment harness: config validation, replication determinism, degenerate
streams with known exact answers, aggregation arithmetic, and the CLI."""

import itertools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import streamci.harness as harness
import streamci.infer as infer
import streamci.statutil as statutil
from streamci.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNWRITABLE, default_c_grid, run_cli
from streamci.harness import (
    RAW_HEADER,
    RESIDUAL_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    ResultBlock,
    ResultRow,
    Summary,
    SummaryBlock,
    Table,
    _chunk_rows,
    _rep_chunks,
    _sample_reps,
    aggregate,
    expansion_residuals,
    nonfinite_counts,
    run_grid,
    write_residuals_csv,
    write_manifest,
    write_rows_csv,
    write_summary_csv,
)
from streamci.infer import hulc_interval
from streamci.model import CovarianceKind, DataPoint, Dataset, ModelKind, loss_grad, make_theta_star, population_hessian
from streamci.optim import ALGORITHM_NAMES, AlgorithmKind, PolynomialStep, advance, init_state, run_lanes
from streamci.statutil import _openblas

INF, NAN = float("inf"), float("nan")
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def _cfg(**overrides):
    base = dict(
        model=ModelKind.LINEAR,
        d=2,
        t=60,
        cov=CovarianceKind.IDENTITY,
        algorithm=AlgorithmKind("asgd"),
        c_grid=(0.5,),
        reps=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _rows(blocks):
    """The ResultRows of a list of result blocks, in order."""
    return list(Table(blocks))


def _noiseless_dataset(d, n, seed):
    """Linear stream with responses built by the same per-row dot product the
    gradient evaluates, so residuals at theta_star are exactly zero."""
    theta_star = make_theta_star(d)
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    y = np.array([float(X[i] @ theta_star) for i in range(n)])
    return Dataset(X, y), theta_star


class TestExperimentConfig:
    def test_minimum_stream_length(self):
        # alpha = 0.05 needs up to 6 buckets of >= 10 points each.
        with pytest.raises(ValueError):
            _cfg(t=59)
        assert _cfg(t=60).t == 60

    def test_string_fields_coerce(self):
        cfg = _cfg(model="logistic", cov="toeplitz", algorithm="sgd", c_grid=[1, 0.5])
        assert cfg.model is ModelKind.LOGISTIC
        assert cfg.cov is CovarianceKind.TOEPLITZ
        assert cfg.algorithm == AlgorithmKind("sgd")
        assert cfg.c_grid == (1.0, 0.5)

    def test_methods_canonical_order_and_dedup(self):
        cfg = _cfg(methods=("tstat", "hulc", "hulc"))
        assert cfg.methods == ("hulc", "tstat")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            _cfg(methods=("hulc", "bootstrap"))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"d": 1},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"gamma": 0.5},
            {"gamma": 1.0},
            {"c_grid": ()},
            {"c_grid": (0.5, -1.0)},
            {"c_grid": (NAN,)},
            {"c_grid": (INF,)},
            # The default methods include the t interval, which needs B >= 2.
            {"alpha": 0.9},
            {"reps": 0},
            {"base_seed": -1},
            # A repeated c would only repeat rows; the plug-in alone gives
            # no rows on any algorithm but asgd.
            {"c_grid": (0.5, 0.5)},
            {"algorithm": "sgd", "methods": ("plugin",)},
            {"methods": ()},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            _cfg(**overrides)

    def test_alpha_above_half_needs_no_t_interval(self):
        # At alpha <= 1/2 HulC draws B >= 2; above it B may be 1, which
        # HulC alone allows and the t interval does not (test above).
        assert _cfg(alpha=0.5).alpha == 0.5
        assert _cfg(alpha=0.9, methods=("wald", "plugin", "hulc")).alpha == 0.9


class TestReplication:
    def test_noiseless_stream_collapses_every_method(self, monkeypatch):
        d = 3
        data, theta_star = _noiseless_dataset(d, 60, seed=41)
        monkeypatch.setattr(harness, "_initial_iterates", lambda cfg, X, y, runs: theta_star)
        rows = _rows(_chunk_rows(_cfg(d=d), [0], data.X, data.y))
        by_method = {}
        for r in rows:
            by_method.setdefault(r.method, []).append(r)
        assert set(by_method) == {"wald", "plugin", "hulc", "tstat"}
        for method in ("plugin", "hulc", "tstat"):
            for r in by_method[method]:
                assert r.width == 0.0 and r.covered == 1
        for r in by_method["wald"]:
            assert r.width <= 1e-8
            assert abs(r.center - theta_star[r.k - 1]) <= 1e-8

    def test_replication_is_deterministic(self):
        cfg = _cfg()
        first = _rows(_chunk_rows(cfg, [3], *_sample_reps(cfg, [3])))
        assert first == _rows(_chunk_rows(cfg, [3], *_sample_reps(cfg, [3])))

    def test_dataset_keyed_by_rep_not_c(self):
        cfg = _cfg(c_grid=(0.1, 0.9))
        a = _sample_reps(cfg, [1])
        b = _sample_reps(cfg, [1])
        other = _sample_reps(cfg, [2])
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[0], other[0])

    def test_collinear_stream_marks_sandwiches_unavailable(self):
        n = 60
        X = np.ones((n, 2))
        y = np.random.default_rng(42).standard_normal(n)
        cfg = _cfg()
        rows = _rows(_chunk_rows(cfg, [0], X, y))
        status = {r.method: r.unavailable for r in rows}
        assert status == {"wald": True, "plugin": True, "hulc": False, "tstat": False}
        for r in rows:
            if r.unavailable:
                assert r.covered is None and r.width is None and r.center is None
        # Every c of the replication shares the singular J sum, so the
        # plug-in is unavailable for each.
        rows = _rows(_chunk_rows(replace(cfg, c_grid=(0.5, 2.0)), [0], X, y))
        status = {(r.c, r.method): r.unavailable for r in rows}
        assert status == {
            (c, method): method in ("wald", "plugin") for c in (0.5, 2.0) for method in harness.METHOD_ORDER
        }

    def test_newton_cap_marks_only_wald_unavailable(self, monkeypatch):
        # A logistic Wald fit whose Newton iteration stops short of the
        # gradient tolerance is unavailable; every other block keeps its bits.
        cfg = _cfg(model=ModelKind.LOGISTIC, d=3, t=200, c_grid=(0.5, 2.0))
        data = _sample_reps(cfg, [0, 1])
        plain = _chunk_rows(cfg, [0, 1], *data)
        monkeypatch.setattr(infer, "NEWTON_MAX_ITER", 1)
        capped = _chunk_rows(cfg, [0, 1], *data)
        assert [b.head for b in capped] == [b.head for b in plain]
        assert {b.head[7] for b in plain} == set(harness.METHOD_ORDER)
        for before, after in zip(plain, capped):
            if after.head[7] == "wald":
                assert before.covered is not None and after.covered is None
            else:
                assert [col.tobytes() for col in after[1:]] == [col.tobytes() for col in before[1:]]

    def test_plugin_needs_averaged_sgd(self):
        cfg = _cfg(algorithm=AlgorithmKind("sgd"))
        rows = _rows(_chunk_rows(cfg, [0], *_sample_reps(cfg, [0])))
        assert "plugin" not in {r.method for r in rows}


def _worker_blas_threads(_):
    return _openblas().get()


def _worker_thread_count(_):
    return len(os.listdir("/proc/self/task"))


def _failing_task(task):
    raise RuntimeError("task failed")


def _worker_wald_setup(_):
    return harness._wald_slots is not None, harness._wald_threads


class TestRunGrid:
    def test_worker_count_does_not_change_rows(self, tmp_path, monkeypatch, two_blas_threads):
        # reps=7 splits unevenly into replication chunks (3+2+2 at 3 workers,
        # which a 3-CPU count lets start).
        # In the logistic cell the Newton Wald's Hessian product rounds
        # differently with one BLAS thread than with two (at this t and d),
        # so the workers must fit it with the caller's count.
        cells = (
            (_cfg(c_grid=(0.1, 0.5), reps=4), (1, 2)),
            (_cfg(c_grid=(0.1, 0.5), reps=7), (1, 2, 3)),
            (_cfg(model=ModelKind.LOGISTIC, d=20, t=3000, algorithm=AlgorithmKind("implicit-avg"), reps=3),
             (1, 2, 3)),
        )
        monkeypatch.setattr(harness, "_cpu_count", lambda: 3)
        for i, (cfg, threads) in enumerate(cells):
            outputs = []
            for n in threads:
                path = tmp_path / f"{i}-{n}.csv"
                write_rows_csv(run_grid([cfg], threads=n), str(path))
                outputs.append(path.read_bytes())
            assert all(out == outputs[0] for out in outputs)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch, two_blas_threads):
        # A forked worker inherits this process's count; a spawned or
        # forkserver one starts at OpenBLAS's default until the initializer
        # sets it. Under every start method the workers read one thread
        # outside their Wald fits, and the rows are the serial path's.
        if two_blas_threads is None:
            pytest.skip("no OpenBLAS thread setter found")
        get = two_blas_threads.get
        seen = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.append(get())
                seen.extend(super().map(_worker_blas_threads, range(4)))
                return super().map(fn, *iterables, **kwargs)

        cfg = _cfg(reps=2)
        serial = list(run_grid([cfg], threads=1))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        for context in [multiprocessing.get_context(m) for m in ("fork", "spawn", "forkserver")]:
            monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: context)
            seen.clear()
            assert list(run_grid([cfg], threads=2)) == serial, context.get_start_method()
            assert seen == [1] * 5, context.get_start_method()
        assert get() == 2
        # The count is restored when a task raises, too.
        monkeypatch.setattr(harness, "_replication_task", _failing_task)
        with pytest.raises(RuntimeError, match="task failed"):
            run_grid([_cfg(reps=2)], threads=2)
        assert get() == 2

    def test_forked_workers_start_no_blas_threads(self, monkeypatch, two_blas_threads):
        # OpenBLAS stops its helper threads at a fork, and setting a count
        # starts them again, to spin on the CPUs the workers step on. A
        # forked worker already runs one thread, so its initializer must
        # leave the count alone and the worker stay single-threaded. A
        # spawned or forkserver worker starts with OpenBLAS's default helper
        # thread, which its initializer joins after setting one thread.
        if two_blas_threads is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS's thread setter and /proc/self/task")
        counts = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                counts.extend(super().map(_worker_thread_count, range(4)))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        for context in [multiprocessing.get_context(m) for m in ("fork", "spawn", "forkserver")]:
            monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: context)
            counts.clear()
            run_grid([_cfg(reps=2)], threads=2)
            assert counts == [1] * 4, context.get_start_method()

    def test_forked_workers_form_plugin_sums_on_one_thread(self, tmp_path, monkeypatch, two_blas_threads):
        # A pool worker runs one BLAS thread, so its plug-in intervals form
        # their sums inline: a worker stepping a chunk of three c values
        # runs one thread throughout. In this process, at two BLAS threads,
        # the same chunk's sums run on two threads.
        if two_blas_threads is None or not os.path.isdir("/proc/self/task"):
            pytest.skip("needs OpenBLAS's thread setter and /proc/self/task")
        ordered_outer_sum = infer._ordered_outer_sum

        def counting(*args, **kwargs):
            with open(tmp_path / f"{os.getpid()}.txt", "a") as handle:
                handle.write(f"{len(os.listdir('/proc/self/task'))} {threading.get_ident()}\n")
            return ordered_outer_sum(*args, **kwargs)

        def records():
            paths = list(tmp_path.glob("*.txt"))
            found = {path.stem: [line.split() for line in path.read_text().splitlines()] for path in paths}
            for path in paths:
                path.unlink()
            return found

        cfg = _cfg(d=5, c_grid=(0.1, 0.5, 2.0), reps=2, methods=("plugin",))
        monkeypatch.setattr(infer, "_ordered_outer_sum", counting)
        serial = list(run_grid([cfg], threads=1))
        assert len({ident for _, ident in records()[str(os.getpid())]}) == 2
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        context = multiprocessing.get_context("fork")
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: context)
        assert list(run_grid([cfg], threads=2)) == serial
        workers = records()
        assert len(workers) == 2 and str(os.getpid()) not in workers
        # One replication each: its linear J and three V sums.
        assert all([count for count, _ in lines] == ["1"] * 4 for lines in workers.values())

    def test_serial_run_joins_blas_helpers_at_the_current_count(self, monkeypatch):
        # The serial path fits Wald at the current thread count: it sets no
        # count, and each threaded product of the sampler (z @ chol.T and
        # X @ theta_star) and of the linear Wald fit (X'X, X'y, X theta_hat
        # and the V product) joins OpenBLAS's helper threads. A one-pass
        # plug-in interval looks up no count: it forms its sums inline.
        calls = []
        fake = statutil._OpenBlas(get=lambda: calls.append("get") or 2, set=lambda n: calls.append(("set", n)),
                                  shutdown=lambda: calls.append("shutdown") or 0)
        sample_dataset, wald_offline = harness.sample_dataset, harness.wald_offline

        def sample(*args):
            calls.append("sample")
            return sample_dataset(*args)

        def wald(*args):
            calls.append("wald")
            return wald_offline(*args)

        for module in (statutil, harness, infer):
            monkeypatch.setattr(module, "_openblas", lambda: fake)
        monkeypatch.setattr(harness, "sample_dataset", sample)
        monkeypatch.setattr(harness, "wald_offline", wald)
        rows = list(run_grid([_cfg(reps=2)], threads=1))
        assert "wald" in {row.method for row in rows}
        assert calls == ["sample", *["shutdown"] * 2] * 2 + ["wald", *["shutdown"] * 4] * 2

    @staticmethod
    def _idle_cpu_seconds() -> float:
        """CPU time this process uses, over all its threads, while its main
        thread sleeps for 0.2 s."""
        start = time.process_time()
        time.sleep(0.2)
        return time.process_time() - start

    def test_serial_run_leaves_no_blas_helper_spinning(self, two_blas_threads):
        # At d=100 the sampler's and the Wald fit's products are large
        # enough for OpenBLAS to wake its helper thread, which, left alone,
        # spins for about 0.1 s after its last job; the serial path joins it.
        if not sys.platform.startswith("linux") or two_blas_threads is None or two_blas_threads.shutdown is None:
            pytest.skip("needs Linux and OpenBLAS's thread setter and blas_thread_shutdown_")
        run_grid([_cfg(d=100, t=1000, methods=("wald", "hulc"))], threads=1)
        assert self._idle_cpu_seconds() < 0.05
        assert two_blas_threads.get() == 2

    def test_pooled_run_leaves_no_blas_helper_spinning(self, monkeypatch, two_blas_threads):
        # OpenBLAS's fork handler stops this process's helper threads, and
        # restoring its count after the pool starts a fresh one, which spins
        # unless run_grid joins it.
        if not sys.platform.startswith("linux") or two_blas_threads is None or two_blas_threads.shutdown is None:
            pytest.skip("needs Linux and OpenBLAS's thread setter and blas_thread_shutdown_")
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        run_grid([_cfg(reps=2)], threads=2)
        assert self._idle_cpu_seconds() < 0.05
        assert two_blas_threads.get() == 2

    def test_forked_workers_inherit_numpy_random(self):
        # numpy loads numpy.random on first use, and importing streamci
        # does not use it; a pooled run loads it before the fork, so that
        # no worker imports it again.
        script = textwrap.dedent("""
            import multiprocessing, sys
            from concurrent.futures import ProcessPoolExecutor
            import streamci.harness as harness

            def loaded(_):
                return "numpy.random" in sys.modules

            seen = []

            class Pool(ProcessPoolExecutor):
                def map(self, fn, *iterables, **kwargs):
                    seen.extend(super().map(loaded, range(4)))
                    return super().map(fn, *iterables, **kwargs)

            assert "numpy.random" not in sys.modules
            context = multiprocessing.get_context("fork")
            harness.multiprocessing.get_context = lambda: context
            harness.ProcessPoolExecutor = Pool
            harness._cpu_count = lambda: 2
            cfg = harness.ExperimentConfig(model="linear", d=2, t=60, cov="identity", algorithm="asgd",
                                           c_grid=(0.5,), reps=2)
            harness.run_grid([cfg], threads=2)
            assert seen == [True] * 4, seen
        """)
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        done = subprocess.run([sys.executable, "-c", script], cwd=SRC, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()

    def test_pool_has_at_most_one_worker_per_cpu(self, monkeypatch):
        # More threads than CPUs starts one worker per CPU, with a chunk
        # each; one CPU runs the grid in this process. Either way the rows
        # are the serial path's.
        cfg = _cfg(c_grid=(0.1, 0.5), reps=4)
        serial = list(run_grid([cfg], threads=1))
        workers = []

        class Pool(ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                workers.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 1)
        assert list(run_grid([cfg], threads=4)) == serial
        assert workers == []
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        assert len(_rep_chunks(cfg, 4)) == 2
        assert list(run_grid([cfg], threads=4)) == serial
        assert workers == [2]

    @pytest.mark.parametrize(("cpus", "wald_threads", "slots"), [(2, 2, 1), (8, 2, 4), (3, None, 3), (1, 4, 1)])
    def test_wald_slots_keep_fit_threads_within_cpus(self, cpus, wald_threads, slots):
        assert harness._wald_slot_count(cpus, wald_threads) == slots

    def test_pooled_wald_fits_take_turns(self, tmp_path, monkeypatch, two_blas_threads):
        # Two CPUs and fits at two BLAS threads leave one Wald slot: the two
        # workers' fits run one after the other, never at once. Each fit is
        # slowed to 0.2 s: without the slot, a worker's fit started 50 ms or
        # more after the other's in 1 of 20 runs, which a 50 ms fit misses.
        if two_blas_threads is None:
            pytest.skip("no OpenBLAS thread setter found")
        wald_offline = harness.wald_offline

        def slow_wald(*args, **kwargs):
            start = time.monotonic()
            time.sleep(0.2)
            try:
                return wald_offline(*args, **kwargs)
            finally:
                with open(tmp_path / f"{os.getpid()}.txt", "a") as handle:
                    handle.write(f"{start!r} {time.monotonic()!r}\n")

        monkeypatch.setattr(harness, "wald_offline", slow_wald)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        run_grid([_cfg(model=ModelKind.LOGISTIC, d=3, t=200, algorithm=AlgorithmKind("sgd"), reps=2)], threads=2)
        files = list(tmp_path.glob("*.txt"))
        assert len(files) == 2  # one chunk, and one fit, per worker
        (_, first_end), (second_start, _) = sorted(tuple(map(float, f.read_text().split())) for f in files)
        assert first_end <= second_start

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_wald_slots_reach_workers_of_every_start_method(self, monkeypatch, method, two_blas_threads):
        # The workers get the semaphore and this process's Wald thread count
        # from the pool's initializer, not by inheriting this process's
        # memory, so a fresh interpreter gets them too; it starts at
        # OpenBLAS's default count, not this process's.
        context = multiprocessing.get_context(method)
        probed = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                probed.extend(super().map(_worker_wald_setup, range(4)))
                return super().map(fn, *iterables, **kwargs)

        cfg = _cfg(reps=2)
        serial = list(run_grid([cfg], threads=1))
        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        monkeypatch.setattr(harness.multiprocessing, "get_context", lambda: context)
        assert list(run_grid([cfg], threads=2)) == serial
        assert probed == [(True, None if two_blas_threads is None else 2)] * 4
        assert harness._wald_slots is None and harness._wald_threads is None

    def test_dead_worker_breaks_the_pool_without_hanging(self):
        # A worker that dies in its Wald slot never gives the slot back. The
        # pool must end with BrokenProcessPool rather than leave the other
        # worker waiting for the slot.
        script = textwrap.dedent("""
            import os
            from concurrent.futures.process import BrokenProcessPool
            import streamci.harness as harness
            harness._cpu_count = lambda: 2
            harness.wald_offline = lambda *args: os._exit(1)
            cfg = harness.ExperimentConfig(model="logistic", d=3, t=200, cov="identity", algorithm="sgd",
                                           c_grid=(0.5,), reps=2)
            with harness._blas_threads(2):
                try:
                    harness.run_grid([cfg], threads=2)
                except BrokenProcessPool:
                    raise SystemExit(0)
            raise SystemExit(3)
        """)
        done = subprocess.run([sys.executable, "-c", script], cwd=SRC, capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr.decode()

    def test_rep_chunks_partition_reps(self, monkeypatch):
        monkeypatch.setattr(harness, "_cpu_count", lambda: 16)
        cfg = _cfg(reps=7)
        assert [len(r) for r in _rep_chunks(cfg, 3)] == [3, 2, 2]
        assert _rep_chunks(cfg, 1) == [range(7)]
        assert len(_rep_chunks(cfg, 16)) == 7
        # One replication of this cell alone nearly fills a chunk's data bound.
        chunks = _rep_chunks(_cfg(d=100, t=10_000, reps=10), 1)
        assert chunks == [range(i, i + 1) for i in range(10)]

    def test_rep_chunks_follow_the_cpus(self, monkeypatch):
        # Chunks are sized for the workers that will run them: 200 threads
        # on 2 CPUs make 2 chunks, not 200 one-replication chunks that each
        # redo sampling, warm start and a kernel pass.
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        assert _rep_chunks(_cfg(reps=200), 200) == [range(100), range(100, 200)]

    @pytest.mark.parametrize(
        "overrides",
        [
            # The benchmark's cells and the packaged root grid, at a smaller
            # t and d: linear asgd on the 19-value d=100 grid, the linear d=5
            # acceptance cell, and logistic sgd, noisy-truncated (which also
            # holds its noise) and root on its 14-value grid.
            dict(d=40, t=100, cov=CovarianceKind.EQUICORRELATION, c_grid=default_c_grid("asgd", "linear", 100)),
            dict(d=5, t=1500),
            *(dict(model=ModelKind.LOGISTIC, d=20, t=1000, cov=CovarianceKind.TOEPLITZ, algorithm=algo,
                   methods=("wald", "hulc", "tstat")) for algo in ("sgd", "noisy-truncated")),
            dict(model=ModelKind.LOGISTIC, d=10, t=400, cov=CovarianceKind.TOEPLITZ, algorithm="root",
                 c_grid=default_c_grid("root", "logistic", 20), methods=("wald", "hulc", "tstat")),
        ],
        ids=["linear-d100-grid", "linear-d5", "logistic-sgd", "logistic-noisy-truncated", "logistic-root-grid"],
    )
    def test_chunk_charge_tracks_traced_memory(self, overrides):
        # What _rep_chunks charges a replication is close to what one more
        # replication adds to the traced peak of sampling and running a
        # chunk (8-byte floats), measured between chunks of 4 and 8.
        if tracemalloc.is_tracing():
            pytest.skip("tracemalloc is already tracing")
        cfg = _cfg(**overrides)

        def peak(n):
            tracemalloc.start()
            try:
                _chunk_rows(cfg, range(n), *_sample_reps(cfg, range(n)))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-use allocations: caches, imports
        slope = (peak(8) - peak(4)) / 4 / 8
        assert 0.8 <= harness._rep_floats(cfg) / slope <= 2.0

    def test_divergent_plugin_lane_is_counted_without_warnings(self):
        # c=2.0 at d=100 drives the plug-in pass to overflow; its rows stay
        # non-finite (not unavailable) and are counted, with no warning.
        cfg = _cfg(d=100, t=1000, cov=CovarianceKind.EQUICORRELATION, c_grid=(2.0,), reps=1,
                   methods=("plugin",))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rows = run_grid(cfg)
        assert nonfinite_counts(rows) == {"plugin": 100}
        assert not any(r.unavailable for r in rows)

    def test_shared_plugin_inverse_matches_single_c_runs(self, tmp_path):
        # The c values of a linear replication share one J sum and its
        # inverse; each (c, rep) must get the rows of a run of that c and
        # replication alone. c=2.0 is criterion 05's divergent step, whose
        # plug-in intervals explode. Bytes are compared, since NaN != NaN.
        cfg = _cfg(d=5, t=1000, c_grid=(0.1, 0.5, 2.0), reps=2)
        single = Table(sorted(
            (
                block
                for c in cfg.c_grid
                for rep in range(cfg.reps)
                for block in _chunk_rows(replace(cfg, c_grid=(c,)), [rep], *_sample_reps(cfg, [rep]))
            ),
            key=lambda block: block.head,
        ))
        write_rows_csv(run_grid(cfg), str(tmp_path / "grid.csv"))
        write_rows_csv(single, str(tmp_path / "single.csv"))
        assert (tmp_path / "grid.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()
        width = {c: [r.width for r in single if r.method == "plugin" and r.c == c] for c in cfg.c_grid}
        assert len(width[2.0]) == 10 and max(width[2.0]) > 10 * max(width[0.1])

    def test_accepts_bare_config(self):
        cfg = _cfg(reps=1, methods=("hulc",))
        rows = run_grid(cfg)
        assert len(rows) == cfg.d

    def test_rows_sorted_canonically(self):
        cfg = _cfg(c_grid=(0.9, 0.1), reps=2, methods=("hulc", "wald"))
        rows = run_grid([cfg])
        keys = [(r.model, r.d, r.t, r.cov, r.algo, r.c, r.rep, r.method, r.k) for r in rows]
        assert keys == sorted(keys)

    def test_rejects_configs_of_one_cell(self, monkeypatch):
        # Two configs that differ only outside (model, d, t, cov, algorithm)
        # would write rows with the same fields; they are refused before
        # any replication runs.
        monkeypatch.setattr(harness, "_replication_task", _failing_task)
        with pytest.raises(ValueError, match="differ"):
            run_grid([_cfg(), _cfg(gamma=0.6)])


def _block(method, rep, covered, width):
    """A result block of the d=2 asgd cell at c=0.5. covered and width hold
    both coordinates' values (one value for both, or a pair); both None
    mark the method unavailable."""
    head = ("linear", 2, 60, "identity", "asgd", 0.5, rep, method)
    if covered is None:
        return ResultBlock(head, None, None, None)
    return ResultBlock(head, np.full(2, covered), np.full(2, width, dtype=float), np.zeros(2))


def _first_k(blocks):
    """aggregate's Summaries at k = 1 of a Table of the blocks."""
    return [s for s in aggregate(Table(blocks)) if s.k == 1]


def _oracle_aggregate(rows):
    """aggregate as a loop over ResultRows: one dict group per (cell,
    method, k) and the lower median of sorted(). The width ratio divides as
    IEEE floats do, where Python's float division raises on a zero
    baseline."""
    groups, wald_reps = {}, {}
    for model, d, t, cov, algo, c, rep, method, k, covered, width, _, unavailable in rows:
        key = (model, d, t, cov, algo, c, method, k)
        group = groups.setdefault(key, ([], []))
        if not unavailable:
            group[0].append(covered)
            group[1].append(width)
            if method == "wald":
                wald_reps.setdefault(key[:6], set()).add(rep)

    def lower_median(values):
        return math.nan if any(map(math.isnan, values)) else sorted(values)[(len(values) - 1) // 2]

    wald_median = {key[:6] + key[7:]: lower_median(w) for key, (_, w) in groups.items() if key[6] == "wald" and w}
    summaries = []
    for key in sorted(groups):
        covered, widths = groups[key]
        coverage = median = ratio = None
        if widths:
            coverage = sum(covered) / len(covered)
            median = lower_median(widths)
            baseline = wald_median.get(key[:6] + key[7:])
            if baseline is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    ratio = float(np.float64(median) / baseline)
        summaries.append(Summary._make(key + (coverage, median, ratio, len(wald_reps.get(key[:6], ())))))
    return summaries


# Result blocks of a d=3 cell, no two with the same head, with widths that
# tie (0.0 and -0.0), are infinite or NaN, and unavailable blocks.
_WIDTHS = st.sampled_from([NAN, INF, -INF, 0.0, -0.0, 0.5, 1.0, 2.0])
_BLOCKS = st.lists(
    st.builds(
        lambda cov, c, rep, method, available, covered, width: ResultBlock(
            ("linear", 3, 60, cov, "asgd", c, rep, method),
            *((np.array(covered), np.array(width), np.zeros(3)) if available else (None, None, None)),
        ),
        st.sampled_from(["identity", "toeplitz"]),
        st.sampled_from([0.5, 0.1]),
        st.integers(0, 3),
        st.sampled_from(harness.METHOD_ORDER),
        st.booleans(),
        st.lists(st.integers(0, 1), min_size=3, max_size=3),
        st.lists(_WIDTHS, min_size=3, max_size=3),
    ),
    max_size=30,
    unique_by=lambda block: block.head,
)


class TestAggregate:
    @given(_BLOCKS)
    def test_matches_row_oracle(self, blocks):
        # Stacked blocks give the row loop's summaries; repr compares NaN
        # and the sign of zero too.
        table = Table(blocks)
        assert [repr(s) for s in aggregate(table)] == [repr(s) for s in _oracle_aggregate(table)]

    def test_grid_matches_row_oracle(self):
        # Three c values, and a logistic cell in which 2 of the 4 Wald fits
        # are unavailable (separated samples at t=60, d=20).
        for cfg in (_cfg(d=3, c_grid=(0.5, 0.1, 0.3), reps=3),
                    _cfg(model=ModelKind.LOGISTIC, d=20, algorithm=AlgorithmKind("sgd"), reps=4)):
            table = run_grid(cfg)
            assert [repr(s) for s in aggregate(table)] == [repr(s) for s in _oracle_aggregate(table)]

    def test_coverage_median_and_ratio(self):
        blocks = [_block("wald", r, 1, 2.0) for r in range(4)]
        blocks += [_block("hulc", r, c, w) for r, (c, w) in
                   enumerate(zip([1, 1, 0, 1], [1.0, 2.0, 3.0, 4.0]))]
        hulc, wald = _first_k(blocks)
        assert (hulc.method, wald.method) == ("hulc", "wald")
        assert hulc.coverage == 0.75
        # Lower median of [1, 2, 3, 4].
        assert hulc.median_width == 2.0
        assert hulc.width_ratio == 1.0
        assert wald.coverage == 1.0 and wald.width_ratio == 1.0
        assert hulc.n_wald_available == wald.n_wald_available == 4

    def test_odd_count_median(self):
        blocks = [_block("wald", r, 1, 2.0) for r in range(3)]
        blocks += [_block("hulc", r, 1, w) for r, w in enumerate([1.0, 2.0, 3.0])]
        hulc, _ = _first_k(blocks)
        assert hulc.median_width == 2.0 and hulc.width_ratio == 1.0

    def test_unavailable_baseline_leaves_ratio_empty(self):
        blocks = [_block("wald", r, None, None) for r in range(2)]
        blocks += [_block("hulc", r, 1, w) for r, w in enumerate([1.0, 3.0])]
        hulc, wald = _first_k(blocks)
        assert hulc.coverage == 1.0 and hulc.median_width == 1.0
        assert hulc.width_ratio is None and hulc.n_wald_available == 0
        assert wald.coverage is None and wald.median_width is None

    def test_ratio_uses_available_wald_only(self):
        blocks = [_block("wald", 0, 1, 2.0), _block("wald", 1, None, None), _block("wald", 2, 1, 4.0)]
        blocks += [_block("hulc", r, 1, 3.0) for r in range(3)]
        hulc, wald = _first_k(blocks)
        assert hulc.width_ratio == 1.5
        assert wald.n_wald_available == 2

    def test_lower_median_is_nan_in_any_order(self):
        # sorted() leaves a NaN where the input puts it, so without the NaN
        # rule the middle value would depend on the replications' order.
        for values in itertools.permutations([3.0, NAN, 1.0, 2.0]):
            assert math.isnan(harness._lower_median(list(values)))
        assert harness._lower_median([3.0, 1.0, 4.0, 2.0]) == 2.0
        assert harness._lower_median([INF, 1.0, -INF]) == 1.0

    def test_coordinates_aggregate_separately(self):
        first, second = aggregate(Table([_block("hulc", 0, [1, 0], [1.0, 9.0])]))
        assert (first.k, first.coverage, second.k, second.coverage) == (1, 1.0, 2, 0.0)


class TestExpansionResidual:
    def test_noiseless_run_is_exactly_zero(self, monkeypatch):
        d = 3
        data, theta_star = _noiseless_dataset(d, 60, seed=43)
        monkeypatch.setattr(harness, "_initial_iterates", lambda cfg, X, y, runs: theta_star)
        monkeypatch.setattr(harness, "_sample_reps", lambda cfg, reps: (data.X, data.y))
        assert expansion_residuals(_cfg(d=d, reps=1)) == [0.0]

    def test_logistic_rejected(self):
        cfg = _cfg(model=ModelKind.LOGISTIC)
        with pytest.raises(ValueError):
            expansion_residuals(cfg)

    def test_needs_single_step_constant(self):
        cfg = _cfg(c_grid=(0.1, 0.5))
        with pytest.raises(ValueError):
            expansion_residuals(cfg)

    def test_default_stream_reproducible(self):
        cfg = _cfg()
        assert expansion_residuals(cfg) == expansion_residuals(cfg)

    def test_closed_form_matches_stepwise_sum(self):
        # The residuals, taken from the pass's recorded responses, against
        # init_state + advance from the same warm starts, summing
        # xi_s = g_s - J(theta^(s-1) - theta_star) step by step.
        cfg = _cfg(d=3, t=300, cov=CovarianceKind.TOEPLITZ, reps=3)
        assert cfg.warm_start
        spec, t = cfg.model_spec(), cfg.t
        hess = population_hessian(spec)
        X, y = _sample_reps(cfg, range(cfg.reps))
        rows = [range(i * t, (i + 1) * t) for i in range(cfg.reps)]
        theta0 = harness._initial_iterates(cfg, X, y, rows)
        want = []
        for i, run in enumerate(rows):
            state, xi_sum = init_state(cfg.algorithm, theta0[i]), np.zeros(cfg.d)
            for j in run:
                p = DataPoint(X[j], float(y[j]))
                xi_sum += loss_grad(cfg.model, state.theta, p) - hess @ (state.theta - spec.theta_star)
                advance(state, PolynomialStep(cfg.c_grid[0], cfg.gamma), cfg.model, p)
            rem = math.sqrt(t) * (state.avg - spec.theta_star) + np.linalg.solve(hess, xi_sum) / math.sqrt(t)
            want.append(math.sqrt(rem @ hess @ rem))
        assert_allclose(expansion_residuals(cfg), want, rtol=1e-10, atol=0.0)

    def test_lanes_match_one_replication_at_a_time(self, monkeypatch):
        # All replications in one pass, or two replications per chunk, give
        # the residuals of separate single-replication passes bit for bit.
        cfg = _cfg(d=4, t=300, cov=CovarianceKind.TOEPLITZ, reps=6)
        together = expansion_residuals(cfg)
        monkeypatch.setattr(harness, "CHUNK_FLOATS", 1)
        alone = expansion_residuals(cfg)
        monkeypatch.setattr(harness, "CHUNK_FLOATS", 2 * harness._rep_floats(cfg))
        chunked = expansion_residuals(cfg)
        assert [r.hex() for r in together] == [r.hex() for r in alone] == [r.hex() for r in chunked]


class TestCsvWriters:
    def test_raw_rows_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows_csv(Table([_block("hulc", 0, 1, 1.0 / 3.0), _block("wald", 0, None, None)]), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == RAW_HEADER
        assert lines[1] == "linear,2,60,identity,asgd,0.5,0,hulc,1,1,0.3333333333333333,0.0,0"
        assert lines[2] == "linear,2,60,identity,asgd,0.5,0,hulc,2,1,0.3333333333333333,0.0,0"
        assert lines[3:] == ["linear,2,60,identity,asgd,0.5,0,wald,1,,,,1", "linear,2,60,identity,asgd,0.5,0,wald,2,,,,1"]
        assert float(lines[1].split(",")[10]) == 1.0 / 3.0

    def test_manifest_rejects_mixed_seeds(self, tmp_path):
        # The manifest names one base_seed and the grid entries none, so a
        # grid over two seeds must not be written as if it had the first.
        cfgs = [_cfg(t=60), _cfg(t=70, base_seed=5)]
        path = tmp_path / "rows.csv.manifest.json"
        with pytest.raises(ValueError, match="base_seed"):
            write_manifest(cfgs, str(path), threads=1, wall_clock_seconds=0.0, rows=run_grid(cfgs))
        assert not path.exists()

    def test_summary_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(aggregate(Table([_block("hulc", 0, 1, 1.0)])), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 3

    # Blocks with special floats (NaN, +-inf, -0.0, exponent forms, the
    # least subnormal), unavailable values and the implicit-last name. Each
    # expected line is what the csv module writes for the row: repr for
    # floats, "" for None, 0/1 for bools.
    def test_raw_special_values(self, tmp_path):
        rows = Table([
            ResultBlock(("linear", 2, 1000, "identity", "implicit-last", 2.0, 0, "plugin"),
                        np.array([0, 0]), np.array([NAN, INF]), np.array([NAN, -INF])),
            ResultBlock(("logistic", 2, 10000, "toeplitz", "implicit-last", 1e-05, 12, "tstat"),
                        np.array([1, 0]), np.array([5e-324, 1e300]), np.array([-0.0, 2.5e-07])),
            ResultBlock(("logistic", 2, 10000, "toeplitz", "implicit-last", 1e16, 3, "wald"), None, None, None),
        ])
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,rep,method,k,covered,width,center,unavailable\n"
            b"linear,2,1000,identity,implicit-last,2.0,0,plugin,1,0,nan,nan,0\n"
            b"linear,2,1000,identity,implicit-last,2.0,0,plugin,2,0,inf,-inf,0\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e-05,12,tstat,1,1,5e-324,-0.0,0\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e-05,12,tstat,2,0,1e+300,2.5e-07,0\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e+16,3,wald,1,,,,1\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e+16,3,wald,2,,,,1\n"
        )

    def test_summary_special_values(self, tmp_path):
        summaries = Table([
            SummaryBlock(("linear", 2, 1000, "identity", "implicit-last", 2.0, "plugin"),
                         np.array([0.0, 0.95]), np.array([NAN, INF]), np.array([NAN, -INF]), 0),
            SummaryBlock(("logistic", 2, 10000, "toeplitz", "implicit-last", 1e-05, "tstat"),
                         np.array([1.0, 0.5]), np.array([5e-324, 2.5e-07]), np.array([-0.0, 1e300]), 1),
            SummaryBlock(("logistic", 2, 10000, "toeplitz", "implicit-last", 1e16, "wald"), None, None, None, 200),
        ])
        path = tmp_path / "summary.csv"
        write_summary_csv(summaries, str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,method,k,coverage,median_width,width_ratio,n_wald_available\n"
            b"linear,2,1000,identity,implicit-last,2.0,plugin,1,0.0,nan,nan,0\n"
            b"linear,2,1000,identity,implicit-last,2.0,plugin,2,0.95,inf,-inf,0\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e-05,tstat,1,1.0,5e-324,-0.0,1\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e-05,tstat,2,0.5,2.5e-07,1e+300,1\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e+16,wald,1,,,,200\n"
            b"logistic,2,10000,toeplitz,implicit-last,1e+16,wald,2,,,,200\n"
        )

    def test_residual_special_values(self, tmp_path):
        cfgs = [_cfg(d=5, t=1000, algorithm="implicit-last", c_grid=(c,)) for c in (1e-05, 1e16)]
        path = tmp_path / "residuals.csv"
        write_residuals_csv(cfgs, [[NAN, INF], [-0.0, 5e-324]], str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,rep,residual\n"
            b"linear,5,1000,identity,implicit-last,1e-05,0,nan\n"
            b"linear,5,1000,identity,implicit-last,1e-05,1,inf\n"
            b"linear,5,1000,identity,implicit-last,1e+16,0,-0.0\n"
            b"linear,5,1000,identity,implicit-last,1e+16,1,5e-324\n"
        )

    def test_pipeline_writes_plain_numbers(self, tmp_path):
        # Every number the harness puts in a row is a Python int or float,
        # so no numpy scalar repr ("np.float64(...)") reaches a file.
        rows = run_grid(_cfg(c_grid=(0.1, 0.5), reps=3))
        write_rows_csv(rows, str(tmp_path / "rows.csv"))
        write_summary_csv(aggregate(rows), str(tmp_path / "summary.csv"))
        for name in ("rows.csv", "summary.csv"):
            for line in (tmp_path / name).read_text().splitlines()[1:]:
                for field in line.split(",")[5:]:
                    if field not in ("", "wald", "plugin", "hulc", "tstat"):
                        float(field)


# Two asgd calls whose manifests are stored under tests/data/: one stream
# length at the defaults, and two lengths with every other flag set.
MANIFEST_CALLS = {
    "manifest_one_length": ["--model", "linear", "--d", "2", "--t", "60", "--cov", "identity", "--algo", "asgd",
                            "--c", "0.5", "--reps", "2"],
    "manifest_two_lengths": ["--model", "linear", "--d", "3", "--t", "200,100", "--cov", "toeplitz", "--algo", "asgd",
                             "--c", "0.5,2.0", "--reps", "2", "--seed", "7", "--gamma", "0.6", "--alpha", "0.1",
                             "--methods", "tstat,wald", "--no-warm-start"],
}


class TestCli:
    def _argv(self, out, **extra):
        argv = [
            "--model", "linear", "--d", "2", "--t", "60", "--cov", "identity",
            "--algo", "asgd", "--c", "0.5", "--reps", "2", "--out", str(out),
        ]
        for flag, value in extra.items():
            argv += [f"--{flag.replace('_', '-')}", value]
        return argv

    def test_full_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert run_cli(self._argv(out, methods="wald,hulc")) == EXIT_OK
        lines = out.read_text().splitlines()
        # 2 reps x 1 c x 2 methods x 2 coordinates.
        assert lines[0] == RAW_HEADER and len(lines) == 9
        summary = (tmp_path / "rows_summary.csv").read_text().splitlines()
        assert summary[0] == SUMMARY_HEADER and len(summary) == 5
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["base_seed"] == 0
        assert manifest["grid_sizes"] == {"cells": 1, "replications": 2}
        assert manifest["rows_nonfinite"] == {"hulc": 0, "wald": 0}

    def test_multiple_lengths_make_multiple_cells(self, tmp_path):
        out = tmp_path / "rows.csv"
        argv = self._argv(out, methods="hulc")
        argv[argv.index("60")] = "60,70"
        assert run_cli(argv) == EXIT_OK
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert [g["t"] for g in manifest["grid"]] == [60, 70]

    @pytest.mark.parametrize("name", MANIFEST_CALLS)
    def test_manifest_matches_reference(self, tmp_path, name):
        # The manifest text as recorded under tests/data/, less its
        # wall_clock_seconds line: every key, value and their order.
        assert run_cli(MANIFEST_CALLS[name] + ["--out", str(tmp_path / "rows.csv")]) == EXIT_OK
        text = (tmp_path / "rows.csv.manifest.json").read_text()
        kept = [line for line in text.splitlines(keepends=True) if '"wall_clock_seconds"' not in line]
        assert "".join(kept) == (DATA / f"{name}.txt").read_text()

    @pytest.mark.parametrize("flags, nonfinite", [
        *((dict(algo=name, c="1e30"), {"hulc", "tstat", "plugin"} if name == "asgd" else {"hulc", "tstat"})
          for name in ALGORITHM_NAMES),
        (dict(algo="sgd", c="1e6"), {"tstat"}),
        (dict(model="logistic", c="1.7e308", reps="3"), {"hulc", "tstat"}),
    ], ids=[*(f"linear-{name}-1e30" for name in ALGORITHM_NAMES), "linear-sgd-1e6", "logistic-asgd-1.7e308"])
    def test_divergent_lanes_end_as_counted_rows(self, tmp_path, flags, nonfinite):
        # Under warnings as errors: no lane's inf or NaN aborts the run or
        # warns. The manifest counts the non-finite rows of the methods that
        # show them; the logistic plug-in's non-finite J makes its rows
        # unavailable, which are not counted.
        out = tmp_path / "rows.csv"
        assert run_cli(self._argv(out, d="3", t="200", **flags)) == EXIT_OK
        counts = json.loads((tmp_path / "rows.csv.manifest.json").read_text())["rows_nonfinite"]
        assert {method for method, n in counts.items() if n > 0} == nonfinite
        if flags.get("model") == "logistic":
            assert [line.split(",")[-1] for line in out.read_text().splitlines() if ",plugin," in line] == ["1"] * 9

    def test_bad_flag_value_exits_config(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "x.csv")
        argv[argv.index("linear")] = "probit"
        assert run_cli(argv) == EXIT_CONFIG
        capsys.readouterr()
        argv = self._argv(tmp_path / "x.csv")
        argv[argv.index("--c") + 1] = "0.5,abc"
        assert run_cli(argv) == EXIT_CONFIG
        assert "expected a comma list of numbers" in capsys.readouterr().err

    def test_invalid_config_exits_config(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "x.csv")
        argv[argv.index("60")] = "59"
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exits_unwritable(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "no-such-dir" / "x.csv", methods="hulc")
        assert run_cli(argv) == EXIT_UNWRITABLE
        assert "cannot write" in capsys.readouterr().err
        argv = self._argv(tmp_path / "no-such-dir" / "x.csv", diagnostic="expansion-residual")
        assert run_cli(argv) == EXIT_UNWRITABLE
        assert "error: cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize("summary", ["f/a.csv", "./f/a.csv", "f/a.csv.manifest.json"],
                             ids=["summary-is-out", "dot-alias", "summary-is-manifest"])
    def test_colliding_output_paths_exit_config(self, tmp_path, capsys, monkeypatch, summary):
        # The raw CSV, the summary and the manifest <out>.manifest.json must
        # be three files; otherwise one write would replace another.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "f").mkdir()
        argv = self._argv("f/a.csv", methods="hulc", summary=summary)
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert list((tmp_path / "f").iterdir()) == []

    def test_help_exits_ok(self, capsys):
        assert run_cli(["--help"]) == EXIT_OK
        capsys.readouterr()
        # python -m runs main, which exits with run_cli's code.
        done = subprocess.run([sys.executable, "-m", "streamci.cli", "--help"], cwd=SRC, capture_output=True,
                              timeout=60)
        assert done.returncode == EXIT_OK and done.stdout.startswith(b"usage: streamci")

    def test_diagnostic_writes_residuals(self, tmp_path):
        out = tmp_path / "resid.csv"
        assert run_cli(self._argv(out, diagnostic="expansion-residual")) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == RESIDUAL_HEADER and len(lines) == 3
        assert float(lines[1].split(",")[-1]) > 0.0

    def test_algorithm_value_reaches_manifest_and_residuals(self, tmp_path):
        # The CSVs the byte fixtures compare do not reach these two outputs;
        # both must carry the algorithm's CLI name, never its enum name.
        out = tmp_path / "rows.csv"
        argv = self._argv(out, methods="hulc")
        argv[argv.index("asgd")] = "noisy-truncated"
        assert run_cli(argv) == EXIT_OK
        grid = json.loads((tmp_path / "rows.csv.manifest.json").read_text())["grid"][0]
        assert [grid[k] for k in ("algo", "eps2", "sigma", "beta")] == ["noisy-truncated", 0.64, 1.0, 0.25]
        resid = tmp_path / "resid.csv"
        assert run_cli(self._argv(resid, diagnostic="expansion-residual")) == EXIT_OK
        algo = RESIDUAL_HEADER.split(",").index("algo")
        rows = resid.read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.split(",")[algo] == "asgd" for row in rows)

    def test_cli_builds_no_result_rows(self, tmp_path, monkeypatch):
        # The CLI aggregates, counts and writes from result blocks; only
        # iterating run_grid's Table builds a ResultRow per coordinate.
        def refuse(*args, **kwargs):
            raise AssertionError("a ResultRow was built")

        monkeypatch.setattr(ResultRow, "__new__", refuse)
        monkeypatch.setattr(ResultRow, "_make", refuse)
        with pytest.raises(AssertionError, match="ResultRow"):
            list(run_grid(_cfg(reps=1, methods=("hulc",))))
        argv = self._argv(tmp_path / "rows.csv")
        argv[argv.index("--c") + 1] = "0.5,0.1,0.3"
        assert run_cli(argv) == EXIT_OK

    def test_no_warm_start_runs_from_the_origin(self, tmp_path, monkeypatch):
        # With --no-warm-start no burn-in runs: the one chunk makes one
        # run_lanes pass, at the grid's step constants, not two, and each
        # HulC bucket's estimate is a per-observation sgd pass from the
        # origin over its rows.
        passes = []

        def count(*args, **kwargs):
            passes.append(list(args[6]))
            return run_lanes(*args, **kwargs)

        buckets = []

        def capture(estimates):
            buckets.append(estimates.copy())
            return hulc_interval(estimates)

        monkeypatch.setattr(harness, "run_lanes", count)
        monkeypatch.setattr(harness, "hulc_interval", capture)
        argv = self._argv(tmp_path / "rows.csv", methods="hulc") + ["--no-warm-start"]
        argv[argv.index("asgd")] = "sgd"
        argv[argv.index("--c") + 1] = "0.5,2.0"
        argv[argv.index("--reps") + 1] = "1"
        assert run_cli(argv) == EXIT_OK
        assert passes == [[0.5, 2.0]]
        cfg = _cfg(algorithm="sgd", c_grid=(0.5, 2.0), reps=1)
        X, y = _sample_reps(cfg, [0])
        assert len(buckets) == len(cfg.c_grid)
        for c, estimates in zip(cfg.c_grid, buckets):
            b = len(estimates)
            for j, got in enumerate(estimates):
                state = init_state(AlgorithmKind.SGD, np.zeros(cfg.d))
                for i in range(j, cfg.t, b):
                    advance(state, PolynomialStep(c, cfg.gamma), cfg.model, DataPoint(X[i], float(y[i])))
                assert got.tobytes() == state.theta.tobytes()
        manifest = json.loads((tmp_path / "rows.csv.manifest.json").read_text())
        assert manifest["grid"][0]["warm_start"] is False

    def test_other_algorithm_echoes_packaged_grid_without_plugin(self, tmp_path):
        # The default methods hold the plug-in, which is for asgd only: an
        # sgd config drops it, so the manifest lists only the methods that
        # wrote rows. Without --c the packaged grid of the other algorithms
        # is run.
        argv = [a for a in self._argv(tmp_path / "rows.csv", reps="1") if a not in ("--c", "0.5")]
        argv[argv.index("asgd")] = "sgd"
        assert run_cli(argv) == EXIT_OK
        grid = json.loads((tmp_path / "rows.csv.manifest.json").read_text())["grid"][0]
        assert grid["methods"] == ["wald", "hulc", "tstat"]
        assert grid["c_grid"] == [0.001, 0.005, 0.01, 0.02, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.75, 1.0,
                                  1.5, 2.0]
        assert {line.split(",")[7] for line in (tmp_path / "rows.csv").read_text().splitlines()[1:]} == {
            "wald", "hulc", "tstat"}

    def test_empty_methods_exits_config(self, tmp_path, capsys):
        assert run_cli(self._argv(tmp_path / "x.csv", methods="")) == EXIT_CONFIG
        assert "expected at least one value" in capsys.readouterr().err

    def test_diagnostic_rejects_logistic(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "x.csv", diagnostic="expansion-residual")
        argv[argv.index("linear")] = "logistic"
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", [a for a in ALGORITHM_NAMES if a != "asgd"])
    def test_diagnostic_rejects_other_algorithms(self, tmp_path, capsys, algo):
        # The residual is that of an averaged-SGD run; any other --algo would
        # only relabel it.
        out = tmp_path / "x.csv"
        argv = self._argv(out, diagnostic="expansion-residual")
        argv[argv.index("asgd")] = algo
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("c", "nan"), ("c", "0.5,inf"), ("alpha", "0.9")])
    def test_non_finite_c_or_large_alpha_exits_config(self, tmp_path, capsys, flag, value):
        # A NaN or infinite step constant would be written into every row's
        # c column; alpha 0.9 with the default methods can draw one bucket,
        # too few for the t interval.
        out = tmp_path / "x.csv"
        argv = self._argv(out)
        if flag == "c":
            argv[argv.index("--c") + 1] = value
        else:
            argv += ["--alpha", value]
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,diagnostic", [
        pytest.param("c", "0.5,0.1,0.5", None, id="c"),
        pytest.param("t", "200,200", None, id="t"),
        pytest.param("t", "2000,2000", "expansion-residual", id="diagnostic-t"),
    ])
    def test_repeated_c_or_t_exits_config(self, tmp_path, capsys, flag, value, diagnostic):
        # A repeated value would only repeat rows, so it is refused before
        # any run, on the grid path and on the diagnostic path.
        out = tmp_path / "x.csv"
        argv = self._argv(out)
        argv[argv.index(f"--{flag}") + 1] = value
        if diagnostic:
            argv += ["--diagnostic", diagnostic]
        assert run_cli(argv) == EXIT_CONFIG
        assert "must not repeat" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_plugin_alone_on_other_algorithm_exits_config(self, tmp_path, capsys):
        # The plug-in is defined for asgd only; alone on sgd it would write
        # CSVs with headers only.
        argv = self._argv(tmp_path / "x.csv", methods="plugin")
        argv[argv.index("asgd")] = "sgd"
        assert run_cli(argv) == EXIT_CONFIG
        assert "asgd only" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exits_config(self, tmp_path, capsys, threads):
        out = tmp_path / "x.csv"
        assert run_cli(self._argv(out, threads=threads, methods="hulc")) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_packaged_grid_used_when_c_omitted(self):
        assert default_c_grid("asgd", "linear", 5) == [
            0.01, 0.05, 0.1, 0.2, 0.5, 0.75, 1.0, 1.5, 2.0,
        ]
        assert default_c_grid("asgd", "linear", 7) == default_c_grid("asgd", "linear", 5)
        assert default_c_grid("root", "logistic", 20) == [
            0.001, 0.005, 0.01, 0.02, 0.05, 0.075, 0.1, 0.15, 0.2, 0.5, 0.75, 1.0, 1.5, 2.0,
        ]
