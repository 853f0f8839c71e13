"""Monte Carlo experiment runner: coverage and width of the four interval
methods over replicated data streams, plus the averaging-expansion residual
diagnostic.

Every random draw comes from a stream keyed by (base_seed, rep, role), so a
grid run is a pure function of its configuration: results are byte-identical
across reruns and worker counts.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .infer import (
    IntervalSet,
    hulc_batch_count,
    hulc_interval,
    plugin_interval,
    sandwich_inverse,
    tstat_interval,
    wald_offline,
)
from .model import (
    CovarianceKind,
    Dataset,
    ModelKind,
    ModelSpec,
    covariance_factor,
    population_hessian,
    sample_dataset,
)
from .optim import NOISE_BETA, NOISE_SIGMA, TRUNCATION_EPS2, AlgorithmKind, run_lanes, warm_lanes
from .statutil import IllConditionedError, RngStream, spd_factorize, spd_solve

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "Summary",
    "aggregate",
    "expansion_residuals",
    "nonfinite_counts",
    "run_grid",
    "write_manifest",
    "write_rows_csv",
    "write_summary_csv",
]

METHOD_ORDER = ("wald", "plugin", "hulc", "tstat")

RAW_HEADER = "model,d,t,cov,algo,c,rep,method,k,covered,width,center,unavailable"
SUMMARY_HEADER = "model,d,t,cov,algo,c,method,k,coverage,median_width,width_ratio,n_wald_available"
RESIDUAL_HEADER = "model,d,t,cov,algo,c,rep,residual"

# Stream roles within a replication. stream_id = rep * STREAM_SPACING + role,
# so streams depend only on (base_seed, rep, role), never on scheduling.
ROLE_DATA = 0
ROLE_HULC_U = 1
ROLE_NOISE_BUCKET = 8  # + bucket index
STREAM_SPACING = 1 << 20

# The warm start consumes the first 1/WARM_FRACTION of the stream it seeds.
WARM_FRACTION = 3

# A task steps a chunk of replications together; its data and plug-in state
# (per plug-in lane, a response per step and the J and V sums) take about
# reps * (t*d + |c grid|*(t + 2*d*d)) floats, kept below this bound unless
# one replication alone exceeds it.
CHUNK_FLOATS = 1 << 20


@dataclass(frozen=True)
class ExperimentConfig:
    """One grid cell: a model/covariance/algorithm triple at one stream
    length, swept over a grid of step-size constants."""

    model: ModelKind
    d: int
    t: int
    cov: CovarianceKind
    algorithm: AlgorithmKind
    c_grid: tuple[float, ...]
    gamma: float = 0.505
    alpha: float = 0.05
    reps: int = 200
    base_seed: int = 0
    methods: tuple[str, ...] = METHOD_ORDER
    warm_start: bool = True
    theta0: Optional[tuple[float, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", ModelKind(self.model))
        object.__setattr__(self, "cov", CovarianceKind(self.cov))
        object.__setattr__(self, "algorithm", AlgorithmKind(self.algorithm))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        object.__setattr__(self, "methods", _canonical_methods(self.methods))
        if self.theta0 is not None:
            object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        if self.d < 2:
            raise ValueError(f"d must be at least 2, got {self.d}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        min_t = 10 * math.ceil(math.log2(2.0 / self.alpha))
        if self.t < min_t:
            raise ValueError(f"t must be at least {min_t} so every bucket gets >= 10 points")
        if not self.c_grid or any(c <= 0.0 for c in self.c_grid):
            raise ValueError("c_grid must be non-empty with positive entries")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1), got {self.gamma}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be a uint64, got {self.base_seed}")
        if self.theta0 is not None and len(self.theta0) != self.d:
            raise ValueError(f"theta0 must have {self.d} coordinates")
        if self.theta0 is not None and self.warm_start:
            raise ValueError("theta0 override requires warm_start=False")

    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.model, self.d, self.cov)


def _canonical_methods(methods: Sequence[str]) -> tuple[str, ...]:
    seen = set()
    for m in methods:
        if m not in METHOD_ORDER:
            raise ValueError(f"unknown method {m!r}; expected a subset of {METHOD_ORDER}")
        seen.add(m)
    if not seen:
        raise ValueError("methods must be non-empty")
    return tuple(m for m in METHOD_ORDER if m in seen)


class ResultRow(NamedTuple):
    """One (replication, method, coordinate) outcome. k is 1-based. The
    covered/width/center fields are None when the method was unavailable
    (numerically singular baseline)."""

    model: str
    d: int
    t: int
    cov: str
    algo: str
    c: float
    rep: int
    method: str
    k: int
    covered: Optional[int]
    width: Optional[float]
    center: Optional[float]
    unavailable: bool


class Summary(NamedTuple):
    """Per (grid cell, method, coordinate) aggregate over replications."""

    model: str
    d: int
    t: int
    cov: str
    algo: str
    c: float
    method: str
    k: int
    coverage: Optional[float]
    median_width: Optional[float]
    width_ratio: Optional[float]
    n_wald_available: int


def _stream(cfg: ExperimentConfig, rep: int, role: int) -> RngStream:
    return RngStream(cfg.base_seed, rep * STREAM_SPACING + role)


def _sample_reps(cfg: ExperimentConfig, reps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The replications' data streams one after another, as (X, y): reps[i]
    is rows i*t:(i+1)*t. Every method and c value shares them."""
    spec = cfg.model_spec()
    chol = covariance_factor(spec)
    X = np.empty((len(reps) * cfg.t, cfg.d))
    y = np.empty(len(reps) * cfg.t)
    for i, rep in enumerate(reps):
        data = sample_dataset(spec, chol, _stream(cfg, rep, ROLE_DATA), cfg.t)
        X[i * cfg.t : (i + 1) * cfg.t] = data.X
        y[i * cfg.t : (i + 1) * cfg.t] = data.y
    return X, y


def _initial_iterates(cfg: ExperimentConfig, X: np.ndarray, y: np.ndarray, runs: list[range]) -> np.ndarray:
    """Starting point of every run: a warm start over the first
    1/WARM_FRACTION of the run's rows, the configured theta0, or the origin."""
    if cfg.warm_start:
        return warm_lanes(cfg.model, X, y, [r[: len(r) // WARM_FRACTION] for r in runs])
    if cfg.theta0 is not None:
        return np.array(cfg.theta0, dtype=float)
    return np.zeros(cfg.d)


def _method_rows(
    cfg: ExperimentConfig, c: float, rep: int, method: str, iv: Optional[IntervalSet], theta_star: np.ndarray
) -> list[ResultRow]:
    """One row per coordinate of a method's intervals, k = 1..d in order; iv
    None marks the method unavailable in this replication."""
    head = (cfg.model.value, cfg.d, cfg.t, cfg.cov.value, cfg.algorithm.value, c, rep, method)
    if iv is None:
        return [ResultRow._make(head + (k, None, None, None, True)) for k in range(1, cfg.d + 1)]
    covered = iv.covers(theta_star).astype(int).tolist()
    width, center = iv.width.tolist(), iv.center.tolist()
    return [
        ResultRow._make(head + (k, cov, w, ctr, False))
        for k, cov, w, ctr in zip(range(1, cfg.d + 1), covered, width, center)
    ]


def _chunk_rows(
    cfg: ExperimentConfig,
    reps: Sequence[int],
    X: np.ndarray,
    y: np.ndarray,
    wald_threads: Optional[int] = None,
) -> list[ResultRow]:
    """All result rows of a chunk of replications, for every c in cfg.c_grid.

    X and y hold the replications' datasets as _sample_reps lays them out.
    Data, warm starts, Wald intervals and HulC batch counts do not depend on
    c, so each is computed once per replication; every (c, run) pair is then
    one lane of a single run_lanes pass, where a run is the full-stream
    plug-in pass or one HulC bucket.

    The Wald fits run with wald_threads BLAS threads when it is given: how
    OpenBLAS splits a matrix product over its threads changes the product's
    rounding, so the fits must use the same count on every path.
    """
    theta_star = cfg.model_spec().theta_star
    kind = cfg.algorithm
    # The plug-in interval follows the single full-stream averaged pass; it is
    # defined only for the averaged-SGD estimator.
    with_plugin = "plugin" in cfg.methods and kind == AlgorithmKind.ASGD
    with_buckets = "hulc" in cfg.methods or "tstat" in cfg.methods
    n = cfg.t
    noise = np.empty_like(X) if kind == AlgorithmKind.NOISY_TRUNCATED else None

    runs: list[range] = []
    plugin_run: list[Optional[int]] = []
    bucket_runs: list[range] = []
    wald: list[Optional[IntervalSet]] = []
    for i, rep in enumerate(reps):
        base = i * n
        data = Dataset(X[base : base + n], y[base : base + n])
        wald_iv = None
        if "wald" in cfg.methods:
            try:
                with _blas_threads(wald_threads):
                    wald_iv = wald_offline(cfg.model, data, cfg.alpha)
            except IllConditionedError:
                pass
        wald.append(wald_iv)
        plugin_run.append(len(runs) if with_plugin else None)
        if with_plugin:
            runs.append(range(base, base + n))
        first = len(runs)
        if with_buckets:
            b = hulc_batch_count(cfg.alpha, float(_stream(cfg, rep, ROLE_HULC_U).uniform()))
            for j in range(b):
                bucket = range(base + j, base + n, b)
                runs.append(bucket)
                if noise is not None:
                    draws = _stream(cfg, rep, ROLE_NOISE_BUCKET + j).standard_normal((len(bucket), cfg.d))
                    noise[bucket.start : bucket.stop : b] = draws
        bucket_runs.append(range(first, len(runs)))

    theta0 = np.broadcast_to(_initial_iterates(cfg, X, y, runs), (len(runs), cfg.d))
    lanes = [(c, run) for c in cfg.c_grid for run in range(len(runs))]
    plugin_lanes = [i for i, (_, run) in enumerate(lanes) if run in plugin_run]
    result = run_lanes(
        kind,
        cfg.model,
        X,
        y,
        [runs[run] for _, run in lanes],
        theta0[[run for _, run in lanes]],
        [c for c, _ in lanes],
        cfg.gamma,
        noise=noise,
        plugin=plugin_lanes,
    )
    estimates = result.estimates(kind)
    # Linear-model lanes over the same rows share one J_sum array (the J sum
    # does not depend on the iterate), so every c of a replication reuses
    # one inverse; None marks a singular J, whose plug-in rows are all
    # unavailable.
    j_inv: dict[int, Optional[np.ndarray]] = {}
    for J_sum in result.J_sum:
        if id(J_sum) not in j_inv:
            try:
                j_inv[id(J_sum)] = sandwich_inverse(J_sum / n)
            except IllConditionedError:
                j_inv[id(J_sum)] = None

    rows: list[ResultRow] = []
    sums = iter(zip(result.J_sum, result.V_sum))
    for ci, c in enumerate(cfg.c_grid):
        lane0 = ci * len(runs)
        for i, rep in enumerate(reps):
            if "wald" in cfg.methods:
                rows += _method_rows(cfg, c, rep, "wald", wald[i], theta_star)
            if with_plugin:
                J_sum, V_sum = next(sums)
                inverse = j_inv[id(J_sum)]
                iv = None
                if inverse is not None:
                    center = result.avg[lane0 + plugin_run[i]]
                    iv = plugin_interval(inverse, V_sum, n, center, cfg.alpha)
                rows += _method_rows(cfg, c, rep, "plugin", iv, theta_star)
            if with_buckets:
                buckets = estimates[lane0 + bucket_runs[i].start : lane0 + bucket_runs[i].stop]
                if "hulc" in cfg.methods:
                    rows += _method_rows(cfg, c, rep, "hulc", hulc_interval(buckets), theta_star)
                if "tstat" in cfg.methods:
                    rows += _method_rows(cfg, c, rep, "tstat", tstat_interval(buckets, cfg.alpha), theta_star)
    return rows


def _rep_chunks(cfg: ExperimentConfig, threads: int) -> list[range]:
    """Contiguous replication ranges of near-equal size: at least one per
    worker (up to one per replication), each within CHUNK_FLOATS."""
    per_rep = cfg.t * cfg.d + len(cfg.c_grid) * (cfg.t + 2 * cfg.d * cfg.d)
    n = max(min(threads, cfg.reps), math.ceil(cfg.reps * per_rep / CHUNK_FLOATS))
    n = min(n, cfg.reps)
    size, extra = divmod(cfg.reps, n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _replication_task(task: tuple[ExperimentConfig, range, Optional[int]]) -> list[ResultRow]:
    """Pool task: every row of one chunk of replications, with the Wald fits
    at the given BLAS thread count (None: the current one)."""
    cfg, reps, wald_threads = task
    return _chunk_rows(cfg, reps, *_sample_reps(cfg, reps), wald_threads)


# (get, set) symbol pairs of OpenBLAS's thread count, in the builds numpy
# ships (scipy-openblas, ILP64 suffixed) and in plain ones.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclass(frozen=True)
class _OpenBlas:
    """Thread controls of the OpenBLAS that numpy loaded. shutdown joins the
    helper threads (OpenBLAS restarts them on its next threaded call); None
    when the library does not export it."""

    get: Callable[[], int]
    set: Callable[[int], None]
    shutdown: Optional[Callable[[], int]]


@functools.cache
def _openblas() -> Optional[_OpenBlas]:
    """numpy's OpenBLAS, or None when no such library is found."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                shutdown = getattr(handle, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return _OpenBlas(get, set_, shutdown)
    return None


@contextmanager
def _blas_threads(n: Optional[int]) -> Iterator[Optional[int]]:
    """Run the block with numpy's OpenBLAS at n threads, yielding the count
    it had, and restore that count afterwards, also when the block raises.
    A no-op yielding None when n is None or no OpenBLAS is found.

    A block that raises the count from one joins the helper threads it
    started: after their last job they spin for a while, on a CPU that
    another pool worker needs.
    """
    lib = _openblas()
    if n is None or lib is None:
        yield None
        return
    before = lib.get()
    lib.set(n)
    try:
        yield before
    finally:
        lib.set(before)
        if before == 1 < n and lib.shutdown is not None:
            lib.shutdown()


def run_grid(cfgs: Sequence[ExperimentConfig], threads: int = 1) -> list[ResultRow]:
    """Run every (config, c, rep) cell, parallel over chunks of replications."""
    if isinstance(cfgs, ExperimentConfig):
        cfgs = [cfgs]
    chunks = [(cfg, reps) for cfg in cfgs for reps in _rep_chunks(cfg, threads)]
    if threads <= 1 or len(chunks) == 1:
        blocks = [_replication_task((cfg, reps, None)) for cfg, reps in chunks]
    else:
        # Workers fork with one BLAS thread each, so they do not each run a
        # full set of BLAS threads on the same CPUs; their Wald fits run
        # with this process's count, which their rounding depends on.
        with _blas_threads(1) as wald_threads, ProcessPoolExecutor(max_workers=min(threads, len(chunks))) as pool:
            blocks = list(pool.map(_replication_task, [(cfg, reps, wald_threads) for cfg, reps in chunks]))
    # A task's rows come in runs of d rows, one per (c, rep, method), each in
    # k order, so sorting the runs by their shared head sorts the rows. Runs
    # with the same head (a repeated c or config) interleave by k, as a
    # stable sort of the rows would.
    runs = [
        block[i : i + cfg.d] for (cfg, _), block in zip(chunks, blocks) for i in range(0, len(block), cfg.d)
    ]
    runs.sort(key=_run_head)
    rows: list[ResultRow] = []
    for _, same in itertools.groupby(runs, key=_run_head):
        rows += (row for rows_k in zip(*same) for row in rows_k)
    return rows


def _run_head(run: list[ResultRow]) -> tuple:
    """The fields a run's rows share: all of the sort key but k."""
    return run[0][:8]


def _lower_median(values: list[float]) -> float:
    """Median with the lower of the two middle values on even counts, so
    aggregates are reproducible without interpolation conventions."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def aggregate(rows: Sequence[ResultRow]) -> list[Summary]:
    """Coverage, median width, and width ratio per (grid cell, method, k)."""
    # (cell, method, k) -> the covered flags and widths of its available
    # rows; cell -> the replications with an available Wald row.
    groups: dict[tuple, tuple[list[int], list[float]]] = {}
    wald_reps: dict[tuple, set[int]] = {}
    for model, d, t, cov, algo, c, rep, method, k, covered, width, _, unavailable in rows:
        key = (model, d, t, cov, algo, c, method, k)
        group = groups.get(key)
        if group is None:
            group = groups[key] = ([], [])
        if not unavailable:
            group[0].append(covered)
            group[1].append(width)
            if method == "wald":
                wald_reps.setdefault(key[:6], set()).add(rep)

    wald_median = {
        key[:6] + key[7:]: _lower_median(widths)
        for key, (_, widths) in groups.items()
        if key[6] == "wald" and widths
    }
    summaries: list[Summary] = []
    for key in sorted(groups):
        covered, widths = groups[key]
        cell = key[:6]
        coverage = median_width = width_ratio = None
        if widths:
            coverage = sum(covered) / len(covered)
            median_width = _lower_median(widths)
            baseline = wald_median.get(cell + key[7:])
            if baseline is not None:
                width_ratio = median_width / baseline
        summaries.append(Summary._make(key + (coverage, median_width, width_ratio, len(wald_reps.get(cell, ())))))
    return summaries


def expansion_residuals(cfg: ExperimentConfig, data: Optional[Dataset] = None) -> list[float]:
    """Per replication 0..cfg.reps-1, the J-norm distance between the scaled
    averaged-iterate error and its leading martingale term over a cfg.t-step
    linear averaged-SGD run.

    Accumulates xi_s = grad_s - J(theta^(s-1) - theta_star) online and
    returns || sqrt(t)(avg - theta_star) + (1/sqrt(t)) J^-1 sum xi_s ||_J.
    data, when given, replaces the sampled streams: cfg.reps * cfg.t rows
    laid out as _sample_reps lays them out. The replications run as the
    lanes of one run_lanes pass per chunk of _rep_chunks.
    """
    if cfg.model != ModelKind.LINEAR:
        raise ValueError("expansion residual is defined for the linear model only")
    if cfg.algorithm != AlgorithmKind.ASGD:
        raise ValueError(f"expansion residual is defined for asgd only, not {cfg.algorithm.value!r}")
    if len(cfg.c_grid) != 1:
        raise ValueError("expansion residual needs exactly one step constant in c_grid")
    t = cfg.t
    if data is not None and len(data) != cfg.reps * t:
        raise ValueError(f"data must hold reps * t = {cfg.reps * t} points, got {len(data)}")
    spec = cfg.model_spec()
    theta_star = spec.theta_star
    hess = population_hessian(spec)
    lower = spd_factorize(hess)
    residuals = []
    for reps in _rep_chunks(cfg, 1):
        if data is None:
            X, y = _sample_reps(cfg, reps)
        else:
            X, y = data.X[reps.start * t : reps.stop * t], data.y[reps.start * t : reps.stop * t]
        xi_sum = np.zeros((len(reps), cfg.d))

        def accumulate(step, lanes, theta, grad):
            xi_sum[lanes] += grad - (hess[None] @ (theta - theta_star)[:, :, None])[:, :, 0]

        rows = [range(i * t, (i + 1) * t) for i in range(len(reps))]
        run = run_lanes(
            cfg.algorithm,
            cfg.model,
            X,
            y,
            rows,
            _initial_iterates(cfg, X, y, rows),
            [cfg.c_grid[0]] * len(rows),
            cfg.gamma,
            on_step=accumulate,
        )
        for avg, xi in zip(run.avg, xi_sum):
            rem = math.sqrt(t) * (avg - theta_star) + spd_solve(lower, xi) / math.sqrt(t)
            residuals.append(float(math.sqrt(rem @ hess @ rem)))
    return residuals


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

# Every CSV line is an f-string of its row's fields: a float as repr (the
# shortest text that reads back to the same float), an int or a name as
# itself, a missing value (None) as an empty field and a bool as 0/1. No
# field is quoted, because none can hold a comma, quote or newline: model,
# cov, algo and method are enum values and every other field is a number.

def _opt(value: Optional[float]) -> str:
    """A field that may be missing: "" for None, repr otherwise."""
    return "" if value is None else repr(value)


def _write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    """The header and the lines as one text, in one write."""
    text = "\n".join([header, *lines, ""])
    with open(path, "w", newline="") as handle:
        handle.write(text)


def write_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    _write_csv(
        path,
        RAW_HEADER,
        (
            f"{r.model},{r.d},{r.t},{r.cov},{r.algo},{r.c!r},{r.rep},{r.method},{r.k},"
            f"{_opt(r.covered)},{_opt(r.width)},{_opt(r.center)},{r.unavailable:d}"
            for r in rows
        ),
    )


def write_summary_csv(summaries: Sequence[Summary], path: str) -> None:
    _write_csv(
        path,
        SUMMARY_HEADER,
        (
            f"{s.model},{s.d},{s.t},{s.cov},{s.algo},{s.c!r},{s.method},{s.k},"
            f"{_opt(s.coverage)},{_opt(s.median_width)},{_opt(s.width_ratio)},{s.n_wald_available}"
            for s in summaries
        ),
    )


def write_residuals_csv(rows: Sequence[tuple], path: str) -> None:
    """Rows are (model, d, t, cov, algo, c, rep, residual) tuples."""
    _write_csv(
        path,
        RESIDUAL_HEADER,
        (f"{model},{d},{t},{cov},{algo},{c!r},{rep},{residual!r}" for model, d, t, cov, algo, c, rep, residual in rows),
    )


def config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "model": cfg.model.value,
        "d": cfg.d,
        "t": cfg.t,
        "cov": cfg.cov.value,
        "algo": cfg.algorithm.value,
        "eps2": TRUNCATION_EPS2,
        "sigma": NOISE_SIGMA,
        "beta": NOISE_BETA,
        "c_grid": list(cfg.c_grid),
        "gamma": cfg.gamma,
        "alpha": cfg.alpha,
        "reps": cfg.reps,
        "methods": list(cfg.methods),
        "warm_start": cfg.warm_start,
    }


def nonfinite_counts(rows: Sequence[ResultRow]) -> dict[str, int]:
    """Per method, the number of available rows whose width or center is
    not finite (divergent runs)."""
    counts: dict[str, int] = {}
    for r in rows:
        bad = not r.unavailable and not (math.isfinite(r.width) and math.isfinite(r.center))
        counts[r.method] = counts.get(r.method, 0) + bad
    return counts


def write_manifest(
    cfgs: Sequence[ExperimentConfig],
    path: str,
    *,
    threads: int,
    wall_clock_seconds: float,
    rows: Sequence[ResultRow],
) -> None:
    from . import __version__

    doc = {
        "tool": "streamci",
        "version": __version__,
        "base_seed": cfgs[0].base_seed,
        "threads": threads,
        "wall_clock_seconds": wall_clock_seconds,
        "grid": [config_echo(cfg) for cfg in cfgs],
        "grid_sizes": {
            "cells": sum(len(cfg.c_grid) for cfg in cfgs),
            "replications": sum(len(cfg.c_grid) * cfg.reps for cfg in cfgs),
        },
        "rows_nonfinite": nonfinite_counts(rows),
    }
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
