"""Experiment harness: config validation, replication determinism, degenerate
streams with known exact answers, aggregation arithmetic, and the CLI."""

import json
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import streamci.harness as harness
from streamci.cli import EXIT_CONFIG, EXIT_OK, EXIT_UNWRITABLE, default_c_grid, run_cli
from streamci.harness import (
    RAW_HEADER,
    RESIDUAL_HEADER,
    SUMMARY_HEADER,
    ExperimentConfig,
    ResultRow,
    Summary,
    _blas_threads,
    _openblas,
    _chunk_rows,
    _rep_chunks,
    _sample_reps,
    aggregate,
    expansion_residuals,
    nonfinite_counts,
    run_grid,
    write_residuals_csv,
    write_rows_csv,
    write_summary_csv,
)
from streamci.model import CovarianceKind, Dataset, ModelKind, make_theta_star
from streamci.optim import ALGORITHM_NAMES, AlgorithmKind

INF, NAN = float("inf"), float("nan")


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
            {"reps": 0},
            {"base_seed": -1},
            {"theta0": (0.0,), "warm_start": False},
            {"theta0": (0.0, 0.0)},
        ],
    )
    def test_rejects_bad_fields(self, overrides):
        with pytest.raises(ValueError):
            _cfg(**overrides)

    def test_theta0_accepted_without_warm_start(self):
        cfg = _cfg(theta0=(1.0, 2.0), warm_start=False)
        assert cfg.theta0 == (1.0, 2.0)


class TestReplication:
    def test_noiseless_stream_collapses_every_method(self):
        d = 3
        data, theta_star = _noiseless_dataset(d, 60, seed=41)
        cfg = _cfg(d=d, warm_start=False, theta0=tuple(theta_star))
        rows = _chunk_rows(cfg, [0], data.X, data.y)
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
        first = _chunk_rows(cfg, [3], *_sample_reps(cfg, [3]))
        assert first == _chunk_rows(cfg, [3], *_sample_reps(cfg, [3]))

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
        rows = _chunk_rows(cfg, [0], X, y)
        status = {r.method: r.unavailable for r in rows}
        assert status == {"wald": True, "plugin": True, "hulc": False, "tstat": False}
        for r in rows:
            if r.unavailable:
                assert r.covered is None and r.width is None and r.center is None
        # Every c of the replication shares the singular J sum, so the
        # plug-in is unavailable for each.
        rows = _chunk_rows(replace(cfg, c_grid=(0.5, 2.0)), [0], X, y)
        status = {(r.c, r.method): r.unavailable for r in rows}
        assert status == {
            (c, method): method in ("wald", "plugin") for c in (0.5, 2.0) for method in harness.METHOD_ORDER
        }

    def test_plugin_needs_averaged_sgd(self):
        cfg = _cfg(algorithm=AlgorithmKind("sgd"))
        rows = _chunk_rows(cfg, [0], *_sample_reps(cfg, [0]))
        assert "plugin" not in {r.method for r in rows}


def _worker_blas_threads(_):
    return _openblas().get()


def _failing_task(task):
    raise RuntimeError("task failed")


@pytest.fixture
def two_blas_threads():
    """numpy's OpenBLAS at two threads for the test, where it is found."""
    with _blas_threads(2):
        yield _openblas()


class TestRunGrid:
    def test_worker_count_does_not_change_rows(self, tmp_path, two_blas_threads):
        # reps=7 splits unevenly into replication chunks (3+2+2 at 3 workers).
        # In the logistic cell the Newton Wald's Hessian product rounds
        # differently with one BLAS thread than with two (at this t and d),
        # so the workers must fit it with the caller's count.
        cells = (
            (_cfg(c_grid=(0.1, 0.5), reps=4), (1, 2)),
            (_cfg(c_grid=(0.1, 0.5), reps=7), (1, 2, 3)),
            (_cfg(model=ModelKind.LOGISTIC, d=20, t=3000, algorithm=AlgorithmKind("implicit-avg"), reps=3),
             (1, 2, 3)),
        )
        for i, (cfg, threads) in enumerate(cells):
            outputs = []
            for n in threads:
                path = tmp_path / f"{i}-{n}.csv"
                write_rows_csv(run_grid([cfg], threads=n), str(path))
                outputs.append(path.read_bytes())
            assert all(out == outputs[0] for out in outputs)

    def test_pool_workers_run_one_blas_thread(self, monkeypatch, two_blas_threads):
        if two_blas_threads is None:
            pytest.skip("no OpenBLAS thread setter found")
        get = two_blas_threads.get
        seen = []

        class Pool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.append(get())
                seen.extend(super().map(_worker_blas_threads, range(4)))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        run_grid([_cfg(reps=2)], threads=2)
        assert seen == [1] * 5
        assert get() == 2
        # The count is restored when a task raises, too.
        monkeypatch.setattr(harness, "_replication_task", _failing_task)
        with pytest.raises(RuntimeError, match="task failed"):
            run_grid([_cfg(reps=2)], threads=2)
        assert get() == 2

    def test_rep_chunks_partition_reps(self):
        cfg = _cfg(reps=7)
        assert [len(r) for r in _rep_chunks(cfg, 3)] == [3, 2, 2]
        assert _rep_chunks(cfg, 1) == [range(7)]
        assert len(_rep_chunks(cfg, 16)) == 7
        # One replication of this cell alone nearly fills a chunk's data bound.
        chunks = _rep_chunks(_cfg(d=100, t=10_000, reps=10), 1)
        assert chunks == [range(i, i + 1) for i in range(10)]

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
        single = [
            row
            for c in cfg.c_grid
            for rep in range(cfg.reps)
            for row in _chunk_rows(replace(cfg, c_grid=(c,)), [rep], *_sample_reps(cfg, [rep]))
        ]
        single.sort(key=lambda r: (r.model, r.d, r.t, r.cov, r.algo, r.c, r.rep, r.method, r.k))
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

    def test_repeated_c_rows_interleave_by_k(self):
        # A repeated c gives two runs of rows with the same (c, rep, method);
        # they interleave by coordinate, as a stable sort of the rows does.
        rows = run_grid([_cfg(c_grid=(0.5, 0.1, 0.5), reps=2, methods=("hulc", "wald"))])
        keys = [(r.model, r.d, r.t, r.cov, r.algo, r.c, r.rep, r.method, r.k) for r in rows]
        assert keys == sorted(keys) and (len(keys), len(set(keys))) == (24, 16)


def _row(method, rep, covered, width, *, unavailable=False, k=1):
    return ResultRow(
        "linear", 2, 60, "identity", "asgd", 0.5, rep, method, k,
        None if unavailable else covered,
        None if unavailable else width,
        None if unavailable else 0.0,
        unavailable,
    )


class TestAggregate:
    def test_coverage_median_and_ratio(self):
        rows = [_row("wald", r, 1, 2.0) for r in range(4)]
        rows += [_row("hulc", r, c, w) for r, (c, w) in
                 enumerate(zip([1, 1, 0, 1], [1.0, 2.0, 3.0, 4.0]))]
        hulc, wald = aggregate(rows)
        assert (hulc.method, wald.method) == ("hulc", "wald")
        assert hulc.coverage == 0.75
        # Lower median of [1, 2, 3, 4].
        assert hulc.median_width == 2.0
        assert hulc.width_ratio == 1.0
        assert wald.coverage == 1.0 and wald.width_ratio == 1.0
        assert hulc.n_wald_available == wald.n_wald_available == 4

    def test_odd_count_median(self):
        rows = [_row("wald", r, 1, 2.0) for r in range(3)]
        rows += [_row("hulc", r, 1, w) for r, w in enumerate([1.0, 2.0, 3.0])]
        hulc, _ = aggregate(rows)
        assert hulc.median_width == 2.0 and hulc.width_ratio == 1.0

    def test_unavailable_baseline_leaves_ratio_empty(self):
        rows = [_row("wald", r, None, None, unavailable=True) for r in range(2)]
        rows += [_row("hulc", r, 1, w) for r, w in enumerate([1.0, 3.0])]
        hulc, wald = aggregate(rows)
        assert hulc.coverage == 1.0 and hulc.median_width == 1.0
        assert hulc.width_ratio is None and hulc.n_wald_available == 0
        assert wald.coverage is None and wald.median_width is None

    def test_ratio_uses_available_wald_only(self):
        rows = [_row("wald", 0, 1, 2.0), _row("wald", 1, None, None, unavailable=True),
                _row("wald", 2, 1, 4.0)]
        rows += [_row("hulc", r, 1, 3.0) for r in range(3)]
        hulc, wald = aggregate(rows)
        assert hulc.width_ratio == 1.5
        assert wald.n_wald_available == 2

    def test_coordinates_aggregate_separately(self):
        rows = [_row("hulc", 0, 1, 1.0, k=1), _row("hulc", 0, 0, 9.0, k=2)]
        first, second = aggregate(rows)
        assert (first.k, first.coverage, second.k, second.coverage) == (1, 1.0, 2, 0.0)


class TestExpansionResidual:
    def test_noiseless_run_is_exactly_zero(self):
        d = 3
        data, theta_star = _noiseless_dataset(d, 60, seed=43)
        cfg = _cfg(d=d, warm_start=False, theta0=tuple(theta_star), reps=1)
        assert expansion_residuals(cfg, data=data) == [0.0]

    def test_logistic_rejected(self):
        cfg = _cfg(model=ModelKind.LOGISTIC)
        with pytest.raises(ValueError):
            expansion_residuals(cfg)

    def test_needs_single_step_constant(self):
        cfg = _cfg(c_grid=(0.1, 0.5))
        with pytest.raises(ValueError):
            expansion_residuals(cfg)

    def test_injected_data_length_checked(self):
        data, _ = _noiseless_dataset(2, 50, seed=44)
        with pytest.raises(ValueError):
            expansion_residuals(_cfg(reps=1), data=data)
        data, _ = _noiseless_dataset(2, 60, seed=44)
        with pytest.raises(ValueError):
            expansion_residuals(_cfg(reps=2), data=data)

    def test_default_stream_reproducible(self):
        cfg = _cfg()
        assert expansion_residuals(cfg) == expansion_residuals(cfg)

    def test_lanes_match_one_replication_at_a_time(self, monkeypatch):
        # All replications in one pass, or two replications per chunk, give
        # the residuals of separate single-replication passes bit for bit.
        cfg = _cfg(d=4, t=300, cov=CovarianceKind.TOEPLITZ, reps=6)
        together = expansion_residuals(cfg)
        monkeypatch.setattr(harness, "CHUNK_FLOATS", 1)
        alone = expansion_residuals(cfg)
        # A replication's share of the chunk bound: t*d data floats and the
        # t + 2*d*d floats of its one c value.
        monkeypatch.setattr(harness, "CHUNK_FLOATS", 2 * (300 * 4 + 300 + 2 * 4 * 4))
        chunked = expansion_residuals(cfg)
        assert [r.hex() for r in together] == [r.hex() for r in alone] == [r.hex() for r in chunked]


class TestCsvWriters:
    def test_raw_rows_round_trip(self, tmp_path):
        rows = [
            _row("hulc", 0, 1, 1.0 / 3.0),
            _row("wald", 0, None, None, unavailable=True),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == RAW_HEADER
        assert lines[1] == "linear,2,60,identity,asgd,0.5,0,hulc,1,1,0.3333333333333333,0.0,0"
        assert lines[2] == "linear,2,60,identity,asgd,0.5,0,wald,1,,,,1"
        assert float(lines[1].split(",")[10]) == 1.0 / 3.0

    def test_summary_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(aggregate([_row("hulc", 0, 1, 1.0)]), str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == SUMMARY_HEADER
        assert len(lines) == 2

    # Rows with special floats (NaN, +-inf, -0.0, exponent forms, the least
    # subnormal), unavailable values and the implicit-last name. Each
    # expected line is what the csv module wrote before the writers were
    # hand-formatted: repr for floats, "" for None, 0/1 for bools.
    def test_raw_special_values(self, tmp_path):
        head = ("linear", 5, 1000, "identity", "implicit-last")
        rows = [
            ResultRow(*head, 2.0, 0, "plugin", 1, 0, NAN, NAN, False),
            ResultRow(*head, 2.0, 0, "plugin", 2, 0, INF, -INF, False),
            ResultRow("logistic", 20, 10000, "toeplitz", "implicit-last", 1e-05, 12, "tstat", 20, 1, 5e-324, -0.0,
                      False),
            ResultRow("logistic", 20, 10000, "toeplitz", "implicit-last", 1e16, 3, "wald", 7, None, None, None, True),
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(rows, str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,rep,method,k,covered,width,center,unavailable\n"
            b"linear,5,1000,identity,implicit-last,2.0,0,plugin,1,0,nan,nan,0\n"
            b"linear,5,1000,identity,implicit-last,2.0,0,plugin,2,0,inf,-inf,0\n"
            b"logistic,20,10000,toeplitz,implicit-last,1e-05,12,tstat,20,1,5e-324,-0.0,0\n"
            b"logistic,20,10000,toeplitz,implicit-last,1e+16,3,wald,7,,,,1\n"
        )

    def test_summary_special_values(self, tmp_path):
        summaries = [
            Summary("linear", 5, 1000, "identity", "implicit-last", 2.0, "plugin", 1, 0.0, NAN, NAN, 0),
            Summary("linear", 5, 1000, "equicorr", "implicit-last", 1e-05, "hulc", 2, 0.95, INF, -INF, 200),
            Summary("logistic", 20, 10000, "toeplitz", "implicit-last", 1e16, "tstat", 3, 1.0, 5e-324, -0.0, 1),
            Summary("logistic", 20, 10000, "toeplitz", "implicit-last", 0.5, "wald", 4, None, None, None, 0),
        ]
        path = tmp_path / "summary.csv"
        write_summary_csv(summaries, str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,method,k,coverage,median_width,width_ratio,n_wald_available\n"
            b"linear,5,1000,identity,implicit-last,2.0,plugin,1,0.0,nan,nan,0\n"
            b"linear,5,1000,equicorr,implicit-last,1e-05,hulc,2,0.95,inf,-inf,200\n"
            b"logistic,20,10000,toeplitz,implicit-last,1e+16,tstat,3,1.0,5e-324,-0.0,1\n"
            b"logistic,20,10000,toeplitz,implicit-last,0.5,wald,4,,,,0\n"
        )

    def test_residual_special_values(self, tmp_path):
        head = ("linear", 5, 1000, "identity", "implicit-last")
        rows = [(*head, 1e-05, 0, NAN), (*head, 1e16, 1, INF), (*head, 0.5, 2, -0.0), (*head, 2.0, 3, 5e-324)]
        path = tmp_path / "residuals.csv"
        write_residuals_csv(rows, str(path))
        assert path.read_bytes() == (
            b"model,d,t,cov,algo,c,rep,residual\n"
            b"linear,5,1000,identity,implicit-last,1e-05,0,nan\n"
            b"linear,5,1000,identity,implicit-last,1e+16,1,inf\n"
            b"linear,5,1000,identity,implicit-last,0.5,2,-0.0\n"
            b"linear,5,1000,identity,implicit-last,2.0,3,5e-324\n"
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

    def test_bad_flag_value_exits_config(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "x.csv")
        argv[argv.index("linear")] = "probit"
        assert run_cli(argv) == EXIT_CONFIG
        capsys.readouterr()

    def test_invalid_config_exits_config(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "x.csv")
        argv[argv.index("60")] = "59"
        assert run_cli(argv) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exits_unwritable(self, tmp_path, capsys):
        argv = self._argv(tmp_path / "no-such-dir" / "x.csv", methods="hulc")
        assert run_cli(argv) == EXIT_UNWRITABLE
        assert "cannot write" in capsys.readouterr().err

    def test_help_exits_ok(self, capsys):
        assert run_cli(["--help"]) == EXIT_OK
        capsys.readouterr()

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
