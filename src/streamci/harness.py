"""Monte Carlo experiment runner: coverage and width of the four interval
methods over replicated data streams, plus the averaging-expansion residual
diagnostic.

Every random draw comes from a stream keyed by (base_seed, rep, role), so a
grid run is a pure function of its configuration: results are byte-identical
across reruns and worker counts.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .infer import IntervalSet, hulc_batch_count, hulc_interval, plugin_interval, tstat_interval, wald_offline
from .model import CovarianceKind, Dataset, ModelKind, ModelSpec, covariance_factor, population_hessian, sample_dataset
from .optim import LANE_ARRAYS, NOISE_BETA, NOISE_SIGMA, TRUNCATION_EPS2, AlgorithmKind, run_lanes
from .statutil import (IllConditionedError, RngStream, _blas_thread_count, _blas_threads, _set_blas_threads,
                       spd_factorize, spd_solve)

__all__ = [
    "ExperimentConfig",
    "ResultBlock",
    "ResultRow",
    "Summary",
    "SummaryBlock",
    "Table",
    "aggregate",
    "expansion_residuals",
    "nonfinite_counts",
    "run_grid",
    "write_manifest",
    "write_rows_csv",
    "write_summary_csv",
]

METHOD_ORDER = ("wald", "plugin", "hulc", "tstat")

# Stream roles within a replication. stream_id = rep * STREAM_SPACING + role,
# so streams depend only on (base_seed, rep, role), never on scheduling.
ROLE_DATA = 0
ROLE_HULC_U = 1
ROLE_NOISE_BUCKET = 8  # + bucket index
STREAM_SPACING = 1 << 20

# The warm start is sgd from the origin at the constant step WARM_START_STEP
# over the first 1/WARM_FRACTION of the rows of the run it seeds.
WARM_START_STEP = 0.001
WARM_FRACTION = 3

# A task steps a chunk of replications together; what it holds, _rep_floats
# per replication, is kept below this bound unless one replication exceeds it.
CHUNK_FLOATS = 1 << 20


@dataclasses.dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "model", ModelKind(self.model))
        object.__setattr__(self, "cov", CovarianceKind(self.cov))
        object.__setattr__(self, "algorithm", AlgorithmKind(self.algorithm))
        object.__setattr__(self, "c_grid", tuple(float(c) for c in self.c_grid))
        object.__setattr__(self, "methods", _canonical_methods(self.methods, self.algorithm))
        if self.d < 2:
            raise ValueError(f"d must be at least 2, got {self.d}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        # Above 1/2, HulC may draw a single bucket, too few for a t interval.
        if self.alpha > 0.5 and "tstat" in self.methods:
            raise ValueError(f"the t interval needs alpha <= 0.5, got {self.alpha}")
        min_t = 10 * math.ceil(math.log2(2.0 / self.alpha))
        if self.t < min_t:
            raise ValueError(f"t must be at least {min_t} so every bucket gets >= 10 points")
        if not self.c_grid or not all(math.isfinite(c) and c > 0.0 for c in self.c_grid):
            raise ValueError(f"c_grid must be non-empty with finite positive entries, got {list(self.c_grid)}")
        if len(set(self.c_grid)) < len(self.c_grid):
            raise ValueError(f"c_grid must not repeat a value, got {list(self.c_grid)}")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1), got {self.gamma}")
        if self.reps < 1:
            raise ValueError(f"reps must be at least 1, got {self.reps}")
        if not 0 <= self.base_seed < 2**64:
            raise ValueError(f"base_seed must be a uint64, got {self.base_seed}")

    @property
    def head(self) -> tuple:
        """(model, d, t, cov, algo) as rows write them: the fields that lead
        every row of this config."""
        return (self.model.value, self.d, self.t, self.cov.value, self.algorithm.value)

    def model_spec(self) -> ModelSpec:
        return ModelSpec(self.model, self.d, self.cov)


def _canonical_methods(methods: Sequence[str], algorithm: AlgorithmKind) -> tuple[str, ...]:
    """methods in METHOD_ORDER without repeats, less the plug-in on any
    algorithm but asgd: it follows the one averaged full-stream pass."""
    for m in methods:
        if m not in METHOD_ORDER:
            raise ValueError(f"unknown method {m!r}; expected a subset of {METHOD_ORDER}")
    if not methods:
        raise ValueError("methods must be non-empty")
    kept = tuple(m for m in METHOD_ORDER if m in methods and (m != "plugin" or algorithm == AlgorithmKind.ASGD))
    if not kept:
        raise ValueError(f"the plug-in alone gives no rows: it is for asgd only, not {algorithm.value!r}")
    return kept


class ResultRow(NamedTuple):
    """One (replication, method, coordinate) outcome. k is 1-based. The
    covered/width/center fields are None exactly when the method was
    unavailable (numerically singular baseline)."""

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


class ResultBlock(NamedTuple):
    """The ResultRows of one (config, c, rep, method) run as columns: head
    is their fields before k; covered, width and center are arrays over
    k = 1..d, all three None when the method was unavailable."""

    head: tuple
    covered: Optional[np.ndarray]
    width: Optional[np.ndarray]
    center: Optional[np.ndarray]

    def rows(self) -> Iterator[ResultRow]:
        return (ResultRow._make(self.head + (*entries, self.covered is None)) for entries in _entries(self))


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


class SummaryBlock(NamedTuple):
    """The Summaries of one (grid cell, method) as columns: head is their
    fields before k; coverage, median_width and width_ratio are arrays over
    k = 1..d, each None where all its entries are."""

    head: tuple
    coverage: Optional[np.ndarray]
    median_width: Optional[np.ndarray]
    width_ratio: Optional[np.ndarray]
    n_wald_available: int

    def rows(self) -> Iterator[Summary]:
        return (Summary._make(self.head + (*entries, self.n_wald_available)) for entries in _entries(self))


def _entries(block: ResultBlock | SummaryBlock) -> Iterator[tuple]:
    """Per k, k and the block's three column entries (None for a None column)."""
    columns = [itertools.repeat(None) if col is None else col.tolist() for col in block[1:4]]
    return zip(range(1, block.head[1] + 1), *columns)


class Table:
    """ResultBlocks or SummaryBlocks in output order, no two with the same
    head. Iterating a Table yields the blocks' rows (ResultRows or
    Summaries) in that order."""

    def __init__(self, blocks: list) -> None:
        self.blocks = blocks

    def __iter__(self) -> Iterator:
        return itertools.chain.from_iterable(block.rows() for block in self.blocks)

    def __len__(self) -> int:
        return sum(block.head[1] for block in self.blocks)


def _stream(cfg: ExperimentConfig, rep: int, role: int) -> RngStream:
    return RngStream(cfg.base_seed, rep * STREAM_SPACING + role)


def _sample_reps(cfg: ExperimentConfig, reps: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The replications' data streams one after another, as (X, y): reps[i]
    is rows i*t:(i+1)*t. Every method and c value shares them. The sampler's
    products join OpenBLAS's helper threads (see statutil.matmul)."""
    spec = cfg.model_spec()
    X = np.empty((len(reps) * cfg.t, cfg.d))
    y = np.empty(len(reps) * cfg.t)
    chol = covariance_factor(spec)
    for i, rep in enumerate(reps):
        data = sample_dataset(spec, chol, _stream(cfg, rep, ROLE_DATA), cfg.t)
        X[i * cfg.t : (i + 1) * cfg.t] = data.X
        y[i * cfg.t : (i + 1) * cfg.t] = data.y
    return X, y


def _initial_iterates(cfg: ExperimentConfig, X: np.ndarray, y: np.ndarray, runs: list[range]) -> np.ndarray:
    """Starting point of every run: a warm start over the first
    1/WARM_FRACTION of the run's rows, or the origin."""
    if cfg.warm_start:
        warm_rows = [r[: len(r) // WARM_FRACTION] for r in runs]
        warm = run_lanes(AlgorithmKind.SGD, cfg.model, X, y, warm_rows, np.zeros(cfg.d), [WARM_START_STEP], 0.0)
        return warm.estimates[0]
    return np.zeros(cfg.d)


def _method_block(head: tuple, iv: Optional[IntervalSet], theta_star: np.ndarray) -> ResultBlock:
    """A method's intervals over k = 1..d as the block of head; iv None
    marks the method unavailable in this replication."""
    columns = (None, None, None) if iv is None else (iv.covers(theta_star).astype(int), iv.width, iv.center)
    return ResultBlock(head, *columns)


def _wald_intervals(cfg: ExperimentConfig, X: np.ndarray, y: np.ndarray, n_reps: int) -> list[Optional[IntervalSet]]:
    """The Wald interval of each of the n_reps replications in X and y, None
    where singular, fit in one batch. In a pool worker the batch takes one
    of the pool's Wald slots and runs at the caller's BLAS thread count: a
    2-thread product that shares the CPUs with another worker's kernel is
    slower. Each fit's products join OpenBLAS's helper threads (see
    statutil.matmul), so no helper spins between them."""
    n, out = cfg.t, []
    slot = nullcontext() if _wald_slots is None else _wald_slots
    threads = nullcontext() if _wald_threads is None else _blas_threads(_wald_threads)
    with slot, threads:
        for i in range(n_reps):
            try:
                out.append(wald_offline(cfg.model, Dataset(X[i * n : (i + 1) * n], y[i * n : (i + 1) * n]), cfg.alpha))
            except IllConditionedError:
                out.append(None)
    return out


def _chunk_rows(cfg: ExperimentConfig, reps: Sequence[int], X: np.ndarray, y: np.ndarray) -> list[ResultBlock]:
    """A chunk of replications' result blocks, one per (rep, c, method).

    X and y hold the replications' datasets as _sample_reps lays them out.
    Data, warm starts, Wald intervals and HulC batch counts do not depend on
    c, so each is computed once per replication. The runs, one run_lanes
    pass over cfg.c_grid, are the full-stream plug-in pass of every
    replication (run i for replication i), then every HulC bucket. The Wald
    fits run after the pass, in one batch.
    """
    theta_star = cfg.model_spec().theta_star
    n = cfg.t
    noise = np.empty_like(X) if cfg.algorithm == AlgorithmKind.NOISY_TRUNCATED else None
    n_passes = len(reps) if "plugin" in cfg.methods else 0
    runs = [range(i * n, (i + 1) * n) for i in range(n_passes)]
    bucket_runs: list[slice] = []
    for i, rep in enumerate(reps):
        first = len(runs)
        if "hulc" in cfg.methods or "tstat" in cfg.methods:
            b = hulc_batch_count(cfg.alpha, float(_stream(cfg, rep, ROLE_HULC_U).uniform()))
            for j in range(b):
                bucket = range(i * n + j, (i + 1) * n, b)
                runs.append(bucket)
                if noise is not None:
                    draws = _stream(cfg, rep, ROLE_NOISE_BUCKET + j).standard_normal((len(bucket), cfg.d))
                    noise[bucket.start : bucket.stop : b] = draws
        bucket_runs.append(slice(first, len(runs)))

    estimates, responses = run_lanes(cfg.algorithm, cfg.model, X, y, runs, _initial_iterates(cfg, X, y, runs),
                                     cfg.c_grid, cfg.gamma, noise=noise, record=n_passes)
    wald = _wald_intervals(cfg, X, y, len(reps)) if "wald" in cfg.methods else []
    # Only a pool worker has _wald_slots (_init_worker sets them); it shares the CPUs, so its plug-in runs inline.
    plugin_threads = _cpu_count() if _wald_slots is None else 1
    blocks: list[ResultBlock] = []
    for i, rep in enumerate(reps):
        rows, buckets = slice(i * n, (i + 1) * n), estimates[:, bucket_runs[i]]
        # Each method's intervals over cfg.c_grid (None: unavailable); the
        # plug-in's are centred at the asgd passes' averages.
        per_c = {
            "wald": lambda: [wald[i]] * len(cfg.c_grid),
            "plugin": lambda: plugin_interval(cfg.model, X[rows], y[rows], responses[:, i], estimates[:, i], cfg.alpha,
                                              plugin_threads),
            "hulc": lambda: [hulc_interval(b) for b in buckets],
            "tstat": lambda: [tstat_interval(b, cfg.alpha) for b in buckets],
        }
        with np.errstate(over="ignore", invalid="ignore"):  # divergent lanes' inf and NaN bounds
            intervals = {m: per_c[m]() for m in cfg.methods}
        for ci, c in enumerate(cfg.c_grid):
            blocks.extend(_method_block(cfg.head + (c, rep, m), intervals[m][ci], theta_star) for m in cfg.methods)
    return blocks


def _rep_floats(cfg: ExperimentConfig) -> int:
    """The floats one replication adds to a chunk: its data and noise, its
    recorded plug-in responses (t per c value) and optim.LANE_ARRAYS floats
    per lane and coordinate. Not charged: run_lanes' step views of its phase
    buffers (at most optim.BLOCK_STEPS steps, whatever the replications), and
    plugin_interval's J and V sums and its threads' row buffers (t x d each),
    which hold one replication, after the pass."""
    plugin = "plugin" in cfg.methods
    noise = cfg.algorithm == AlgorithmKind.NOISY_TRUNCATED
    lanes = len(cfg.c_grid) * (plugin + math.ceil(math.log2(2.0 / cfg.alpha)))
    return cfg.t * (cfg.d + 1 + noise * cfg.d + plugin * len(cfg.c_grid)) + LANE_ARRAYS * lanes * cfg.d


def _rep_chunks(cfg: ExperimentConfig, threads: int) -> list[range]:
    """Contiguous replication ranges of near-equal size: at least one per
    worker that runs them (up to one per replication), each within CHUNK_FLOATS."""
    n = max(min(threads, _cpu_count(), cfg.reps), math.ceil(cfg.reps * _rep_floats(cfg) / CHUNK_FLOATS))
    n = min(n, cfg.reps)
    size, extra = divmod(cfg.reps, n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _replication_task(task: tuple[ExperimentConfig, range]) -> list[ResultBlock]:
    """Pool task: every result block of one chunk of replications."""
    cfg, reps = task
    return _chunk_rows(cfg, reps, *_sample_reps(cfg, reps))


# The pool's Wald slots, a semaphore, and the BLAS thread count of the
# worker's Wald fits, which _init_worker sets in each worker: the count of
# the process that calls run_grid, because how OpenBLAS splits a matrix
# product over its threads changes the product's rounding. Both are None in
# that process, whose fits take no slot and run at the current count.
_wald_slots = None
_wald_threads = None


def _init_worker(slots, wald_threads: int) -> None:
    """Pool initializer: the semaphore whose slots the worker's Wald fits
    take, the thread count they run at, and one BLAS thread outside those
    fits, with OpenBLAS's helper threads joined, under every start method."""
    global _wald_slots, _wald_threads
    _wald_slots, _wald_threads = slots, wald_threads
    _set_blas_threads(1)


def _wald_slot_count(cpus: int, wald_threads: int) -> int:
    """How many pool workers may fit Wald at once: as many as keep their
    BLAS threads within the CPUs."""
    return max(1, cpus // wald_threads)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_grid(cfgs: Sequence[ExperimentConfig], threads: int = 1) -> Table:
    """Run every (config, c, rep) cell, parallel over chunks of replications.
    The Table's ResultBlocks are sorted by head; iterating it yields the
    ResultRows sorted by (config fields, c, rep, method, k). Two configs
    of one (model, d, t, cov, algorithm) raise ValueError before any run.

    run_grid reads the process's OpenBLAS thread count and never sets it.
    No other thread of the process may run BLAS while run_grid runs: every
    threaded product joins OpenBLAS's helper threads (see statutil.matmul).
    The threads that plugin_interval starts run none."""
    if isinstance(cfgs, ExperimentConfig):
        cfgs = [cfgs]
    if len({cfg.head for cfg in cfgs}) < len(cfgs):
        raise ValueError("configs must differ in (model, d, t, cov, algorithm)")
    chunks = [(cfg, reps) for cfg in cfgs for reps in _rep_chunks(cfg, threads)]
    # At most one worker per CPU; the chunks, and so the bytes, do not change.
    workers = min(threads, len(chunks), _cpu_count())
    if workers <= 1:
        tasks = [_replication_task(chunk) for chunk in chunks]
    else:
        # Workers run one BLAS thread each, so they do not each run a full
        # set of BLAS threads on the same CPUs; their Wald fits run with
        # this process's count and take turns so that the fits' threads fit
        # on the CPUs. The semaphore and the count go to the workers as
        # initializer arguments, which every start method passes on.
        # numpy loads numpy.random on first use; loaded here, it is loaded
        # in every forked worker too (about 30 ms of CPU each).
        importlib.import_module("numpy.random")
        wald_threads = _blas_thread_count()
        context = multiprocessing.get_context()
        slots = context.BoundedSemaphore(_wald_slot_count(_cpu_count(), wald_threads))
        with ProcessPoolExecutor(max_workers=workers, mp_context=context, initializer=_init_worker,
                                 initargs=(slots, wald_threads)) as pool:
            tasks = list(pool.map(_replication_task, chunks))
    # A block's rows are in k order and no two blocks share a head, so
    # sorting the blocks by head sorts the rows.
    return Table(sorted((block for task in tasks for block in task), key=lambda block: block.head))


def _lower_median(values) -> np.ndarray:
    """Median over axis 0, the lower middle value on even counts (no
    interpolation convention), NaN where any value is NaN. Of ties (0.0 and
    -0.0) the stable sort picks the one sorted() picks."""
    ordered = np.sort(values, axis=0, kind="stable")
    return np.where(np.isnan(values).any(axis=0), np.nan, ordered[(len(ordered) - 1) // 2])


def aggregate(rows: Table) -> Table:
    """Coverage, median width, and width ratio per (grid cell, method, k) of
    a run_grid Table, as a Table of SummaryBlocks, one per (grid cell,
    method)."""
    # (cell, method) -> its available blocks. No two blocks share a head, so
    # a cell's available Wald blocks are one per replication with a fit.
    groups: dict[tuple, list[ResultBlock]] = {}
    for block in rows.blocks:
        available = groups.setdefault(block.head[:6] + block.head[7:], [])
        if block.covered is not None:
            available.append(block)

    medians = {key: _lower_median(np.array([b.width for b in blocks])) for key, blocks in groups.items() if blocks}
    summaries: list[SummaryBlock] = []
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero or infinite Wald median
        for key in sorted(groups):
            blocks, median, baseline = groups[key], medians.get(key), medians.get(key[:6] + ("wald",))
            coverage = np.array([b.covered for b in blocks]).sum(axis=0) / len(blocks) if blocks else None
            ratio = None if median is None or baseline is None else median / baseline
            n_wald = len(groups.get(key[:6] + ("wald",), ()))
            summaries.append(SummaryBlock(key, coverage, median, ratio, n_wald))
    return Table(summaries)


def expansion_residuals(cfg: ExperimentConfig) -> list[float]:
    """Per replication 0..cfg.reps-1, the J-norm distance between the scaled
    averaged-iterate error and its leading martingale term over a cfg.t-step
    linear averaged-SGD run.

    With xi_s = g_s - J(theta^(s-1) - theta_star), returns
    || sqrt(t)(avg - theta_star) + (1/sqrt(t)) J^-1 sum xi_s ||_J from one
    run_lanes pass per chunk of _rep_chunks: g_s = r_s x_s with r = mu - y
    from the recorded responses mu, and step s moves theta by -eta_s g_s, so
    sum_s theta^(s-1) = t theta0 - X'(w r) with w_s = (t - s) eta_s.
    """
    if cfg.model != ModelKind.LINEAR:
        raise ValueError("expansion residual is defined for the linear model only")
    if cfg.algorithm != AlgorithmKind.ASGD:
        raise ValueError(f"expansion residual is defined for asgd only, not {cfg.algorithm.value!r}")
    if len(cfg.c_grid) != 1:
        raise ValueError("expansion residual needs exactly one step constant in c_grid")
    t, spec = cfg.t, cfg.model_spec()
    theta_star, hess = spec.theta_star, population_hessian(spec)
    lower = spd_factorize(hess)
    s = np.arange(1.0, t + 1.0)
    w = (t - s) * (cfg.c_grid[0] * s ** -cfg.gamma)
    residuals = []
    for reps in _rep_chunks(cfg, 1):
        X, y = _sample_reps(cfg, reps)
        rows = [range(i * t, (i + 1) * t) for i in range(len(reps))]
        theta0 = np.broadcast_to(_initial_iterates(cfg, X, y, rows), (len(reps), cfg.d))
        run = run_lanes(cfg.algorithm, cfg.model, X, y, rows, theta0, cfg.c_grid, cfg.gamma, record=len(reps))
        for i, (avg, mu) in enumerate(zip(run.estimates[0], run.responses[0])):
            x, r = X[i * t : (i + 1) * t], mu - y[i * t : (i + 1) * t]
            # numpy's einsum loop, not BLAS: no helper thread starts.
            g_sum, wg_sum = np.einsum("ti,t->i", x, r), np.einsum("ti,t->i", x, w * r)
            xi = g_sum - hess @ (t * (theta0[i] - theta_star) - wg_sum)
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
RAW_HEADER = ",".join(ResultRow._fields)
SUMMARY_HEADER = ",".join(Summary._fields)
RESIDUAL_HEADER = "model,d,t,cov,algo,c,rep,residual"

def _write_csv(path: str, header: str, lines: Iterable[str]) -> None:
    """The header and the lines as one text, in one write."""
    text = "\n".join([header, *lines, ""])
    with open(path, "w", newline="") as handle:
        handle.write(text)


def _block_lines(block: ResultBlock | SummaryBlock, tail: object) -> list[str]:
    """Per k: the head (a float's str is its repr), k, the block's three
    column fields ("" for a None column) and tail."""
    head = ",".join(map(str, block.head))
    fields = [itertools.repeat("") if col is None else map(repr, col.tolist()) for col in block[1:4]]
    return [f"{head},{k},{a},{b},{c},{tail}" for k, a, b, c in zip(range(1, block.head[1] + 1), *fields)]


def write_rows_csv(rows: Table, path: str) -> None:
    """Write run_grid's Table of ResultBlocks as the raw CSV."""
    lines = itertools.chain.from_iterable(_block_lines(b, f"{b.covered is None:d}") for b in rows.blocks)
    _write_csv(path, RAW_HEADER, lines)


def write_summary_csv(summaries: Table, path: str) -> None:
    """Write aggregate's Table of SummaryBlocks as the summary CSV."""
    lines = itertools.chain.from_iterable(_block_lines(s, s.n_wald_available) for s in summaries.blocks)
    _write_csv(path, SUMMARY_HEADER, lines)


def write_residuals_csv(cfgs: Sequence[ExperimentConfig], residuals: Sequence[Sequence[float]], path: str) -> None:
    """Write expansion_residuals of each config (residuals[i] of cfgs[i],
    one per replication) as the residual CSV."""
    lines = (f"{','.join(map(str, cfg.head))},{cfg.c_grid[0]!r},{rep},{residual!r}"
             for cfg, values in zip(cfgs, residuals) for rep, residual in enumerate(values))
    _write_csv(path, RESIDUAL_HEADER, lines)


def config_echo(cfg: ExperimentConfig) -> dict:
    """The config as the manifest lists it: every field but base_seed (the
    manifest's own), algorithm as algo, and the truncation and noise
    constants the algorithms use."""
    echo = {field.name: getattr(cfg, field.name) for field in dataclasses.fields(cfg) if field.name != "base_seed"}
    echo["algo"] = echo.pop("algorithm")
    return {**echo, "eps2": TRUNCATION_EPS2, "sigma": NOISE_SIGMA, "beta": NOISE_BETA}


def nonfinite_counts(rows: Table) -> dict[str, int]:
    """Per method, the number of available rows whose width or center is
    not finite (divergent runs)."""
    counts: dict[str, int] = {}
    for b in rows.blocks:
        bad = 0 if b.covered is None else int(np.count_nonzero(~np.isfinite(b.width) | ~np.isfinite(b.center)))
        counts[b.head[7]] = counts.get(b.head[7], 0) + bad
    return counts


def write_manifest(cfgs: Sequence[ExperimentConfig], path: str, *, threads: int, wall_clock_seconds: float,
                   rows: Table) -> None:
    """Write the run's manifest. It names one base_seed for the whole grid,
    so configs of different seeds raise ValueError and nothing is written."""
    from . import __version__

    seeds = {cfg.base_seed for cfg in cfgs}
    if len(seeds) != 1:
        raise ValueError(f"a manifest names one base_seed, got {sorted(seeds)}")
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
