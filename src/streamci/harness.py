"""Monte Carlo experiment runner: coverage and width of the four interval
methods over replicated data streams, plus the averaging-expansion residual
diagnostic.

Every random draw comes from a stream keyed by (base_seed, rep, role), so a
grid run is a pure function of its configuration: results are byte-identical
across reruns and worker counts.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .infer import (
    IntervalSet,
    hulc_batch_count,
    hulc_interval,
    plugin_interval,
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
from .optim import AlgorithmKind, PolynomialStep, run_lanes, warm_lanes
from .statutil import IllConditionedError, RngStream, spd_factorize, spd_solve

__all__ = [
    "ExperimentConfig",
    "ResultRow",
    "Summary",
    "aggregate",
    "expansion_residual",
    "generate_dataset",
    "nonfinite_counts",
    "replication_rows",
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
ROLE_NOISE_FULL = 2
ROLE_NOISE_BUCKET = 8  # + bucket index
STREAM_SPACING = 1 << 20

# The warm start consumes the first 1/WARM_FRACTION of the stream it seeds.
WARM_FRACTION = 3

# A task steps a chunk of replications together; its data and plug-in sums
# take about reps * (t*d + 3*|c grid|*d*d) floats, kept below this bound
# unless one replication alone exceeds it.
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
        if isinstance(self.algorithm, str):
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


@dataclass(frozen=True)
class ResultRow:
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


@dataclass(frozen=True)
class Summary:
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


def generate_dataset(cfg: ExperimentConfig, rep: int) -> Dataset:
    """The replication's data stream; shared by every method and c value."""
    spec = cfg.model_spec()
    chol = covariance_factor(spec)
    return sample_dataset(spec, chol, _stream(cfg, rep, ROLE_DATA), cfg.t)


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
    """One row per coordinate of a method's intervals; iv None marks the
    method unavailable in this replication."""
    if iv is None:
        covered = width = center = [None] * cfg.d
    else:
        covered = iv.covers(theta_star).astype(int).tolist()
        width, center = iv.width.tolist(), iv.center.tolist()
    return [
        ResultRow(
            model=cfg.model.value,
            d=cfg.d,
            t=cfg.t,
            cov=cfg.cov.value,
            algo=cfg.algorithm.name,
            c=c,
            rep=rep,
            method=method,
            k=k + 1,
            covered=covered[k],
            width=width[k],
            center=center[k],
            unavailable=iv is None,
        )
        for k in range(cfg.d)
    ]


def _chunk_rows(
    cfg: ExperimentConfig, reps: Sequence[int], X: np.ndarray, y: np.ndarray, c_grid: Sequence[float]
) -> list[ResultRow]:
    """All result rows of a chunk of replications, for every c in c_grid.

    X and y hold the replications' datasets one after another, in equal
    lengths. Data, warm starts, Wald intervals and HulC batch counts do not
    depend on c, so each is computed once per replication; every (c, run)
    pair is then one lane of a single run_lanes pass, where a run is the
    full-stream plug-in pass or one HulC bucket.
    """
    theta_star = cfg.model_spec().theta_star
    kind = cfg.algorithm
    # The plug-in interval follows the single full-stream averaged pass; it is
    # defined only for the averaged-SGD estimator.
    with_plugin = "plugin" in cfg.methods and kind.name == "asgd"
    with_buckets = "hulc" in cfg.methods or "tstat" in cfg.methods
    n = len(y) // len(reps)
    noise = np.empty_like(X) if kind.name == "noisy-truncated" else None

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
    lanes = [(c, run) for c in c_grid for run in range(len(runs))]
    plugin_lanes = [i for i, (_, run) in enumerate(lanes) if run in plugin_run]
    result = run_lanes(
        kind,
        cfg.model,
        X,
        y,
        [runs[run] for _, run in lanes],
        theta0[[run for _, run in lanes]],
        [PolynomialStep(c, cfg.gamma) for c, _ in lanes],
        noise=noise,
        plugin=plugin_lanes,
    )
    estimates = result.estimates(kind)

    rows: list[ResultRow] = []
    sums = iter(zip(result.J_sum, result.V_sum))
    for ci, c in enumerate(c_grid):
        lane0 = ci * len(runs)
        for i, rep in enumerate(reps):
            if "wald" in cfg.methods:
                rows += _method_rows(cfg, c, rep, "wald", wald[i], theta_star)
            if with_plugin:
                J_sum, V_sum = next(sums)
                center = result.avg[lane0 + plugin_run[i]]
                try:
                    iv = plugin_interval(J_sum, V_sum, n, center, cfg.alpha)
                except IllConditionedError:
                    iv = None
                rows += _method_rows(cfg, c, rep, "plugin", iv, theta_star)
            if with_buckets:
                buckets = estimates[lane0 + bucket_runs[i].start : lane0 + bucket_runs[i].stop]
                if "hulc" in cfg.methods:
                    rows += _method_rows(cfg, c, rep, "hulc", hulc_interval(buckets), theta_star)
                if "tstat" in cfg.methods:
                    rows += _method_rows(cfg, c, rep, "tstat", tstat_interval(buckets, cfg.alpha), theta_star)
    return rows


def replication_rows(cfg: ExperimentConfig, c: float, rep: int, data: Dataset) -> list[ResultRow]:
    """All result rows of one replication on an already-sampled dataset."""
    return _chunk_rows(cfg, [rep], data.X, data.y, [c])


def _row_sort_key(r: ResultRow):
    return (r.model, r.d, r.t, r.cov, r.algo, r.c, r.rep, r.method, r.k)


def _rep_chunks(cfg: ExperimentConfig, threads: int) -> list[range]:
    """Contiguous replication ranges of near-equal size: at least one per
    worker (up to one per replication), each within CHUNK_FLOATS."""
    per_rep = cfg.t * cfg.d + 3 * len(cfg.c_grid) * cfg.d * cfg.d
    n = max(min(threads, cfg.reps), math.ceil(cfg.reps * per_rep / CHUNK_FLOATS))
    n = min(n, cfg.reps)
    size, extra = divmod(cfg.reps, n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _sample_chunk(cfg: ExperimentConfig, reps: range) -> tuple[np.ndarray, np.ndarray]:
    """The replications' datasets one after another, as (X, y)."""
    if len(reps) == 1:
        data = generate_dataset(cfg, reps[0])
        return data.X, data.y
    X = np.empty((len(reps) * cfg.t, cfg.d))
    y = np.empty(len(reps) * cfg.t)
    for i, rep in enumerate(reps):
        data = generate_dataset(cfg, rep)
        X[i * cfg.t : (i + 1) * cfg.t] = data.X
        y[i * cfg.t : (i + 1) * cfg.t] = data.y
    return X, y


def _replication_task(task: tuple[ExperimentConfig, range]) -> list[ResultRow]:
    """Pool task: every row of one chunk of replications."""
    cfg, reps = task
    return _chunk_rows(cfg, reps, *_sample_chunk(cfg, reps), cfg.c_grid)


def run_grid(cfgs: Sequence[ExperimentConfig], threads: int = 1) -> list[ResultRow]:
    """Run every (config, c, rep) cell, parallel over chunks of replications."""
    if isinstance(cfgs, ExperimentConfig):
        cfgs = [cfgs]
    tasks = [(cfg, reps) for cfg in cfgs for reps in _rep_chunks(cfg, threads)]
    if threads <= 1 or len(tasks) == 1:
        blocks = [_replication_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            blocks = list(pool.map(_replication_task, tasks))
    rows = [row for block in blocks for row in block]
    rows.sort(key=_row_sort_key)
    return rows


def _lower_median(values: list[float]) -> float:
    """Median with the lower of the two middle values on even counts, so
    aggregates are reproducible without interpolation conventions."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def aggregate(rows: Sequence[ResultRow]) -> list[Summary]:
    """Coverage, median width, and width ratio per (grid cell, method, k)."""
    cells: dict[tuple, dict] = {}
    for r in rows:
        cell_key = (r.model, r.d, r.t, r.cov, r.algo, r.c)
        cell = cells.setdefault(cell_key, {"methods": {}, "wald_reps": set()})
        cell["methods"].setdefault((r.method, r.k), []).append(r)
        if r.method == "wald" and not r.unavailable:
            cell["wald_reps"].add(r.rep)

    summaries: list[Summary] = []
    for cell_key in sorted(cells):
        cell = cells[cell_key]
        n_wald = len(cell["wald_reps"])
        wald_median = {}
        for (method, k), group in cell["methods"].items():
            if method != "wald":
                continue
            widths = [g.width for g in group if not g.unavailable]
            if widths:
                wald_median[k] = _lower_median(widths)
        for method, k in sorted(cell["methods"], key=lambda mk: (mk[0], mk[1])):
            group = cell["methods"][(method, k)]
            usable = [g for g in group if not g.unavailable]
            coverage = float(np.mean([g.covered for g in usable])) if usable else None
            median_width = _lower_median([g.width for g in usable]) if usable else None
            width_ratio = None
            if median_width is not None and k in wald_median:
                width_ratio = median_width / wald_median[k]
            summaries.append(
                Summary(*cell_key, method, k, coverage, median_width, width_ratio, n_wald)
            )
    return summaries


def expansion_residual(
    cfg: ExperimentConfig, t: int, rep: int, data: Optional[Dataset] = None
) -> float:
    """J-norm distance between the scaled averaged-iterate error and its
    leading martingale term over a t-step linear averaged-SGD run.

    Accumulates xi_s = grad_s - J(theta^(s-1) - theta_star) online and
    returns || sqrt(t)(avg - theta_star) + (1/sqrt(t)) J^-1 sum xi_s ||_J.
    The t argument overrides cfg.t so one config drives several lengths;
    data, when given, replaces the stream the config would generate.
    """
    if cfg.model != ModelKind.LINEAR:
        raise ValueError("expansion residual is defined for the linear model only")
    if cfg.algorithm.name != "asgd":
        raise ValueError(f"expansion residual is defined for asgd only, not {cfg.algorithm.name!r}")
    if len(cfg.c_grid) != 1:
        raise ValueError("expansion residual needs exactly one step constant in c_grid")
    spec = cfg.model_spec()
    theta_star = spec.theta_star
    hess = population_hessian(spec)
    if data is None:
        chol_data = covariance_factor(spec)
        data = sample_dataset(spec, chol_data, _stream(cfg, rep, ROLE_DATA), t)
    elif len(data) != t:
        raise ValueError(f"data holds {len(data)} points but t={t}")
    xi_sum = np.zeros(cfg.d)

    def accumulate(step, lanes, theta, grad):
        xi_sum[:] += grad[0] - hess @ (theta[0] - theta_star)

    rows = [range(t)]
    run = run_lanes(
        cfg.algorithm,
        cfg.model,
        data.X,
        data.y,
        rows,
        _initial_iterates(cfg, data.X, data.y, rows),
        [PolynomialStep(cfg.c_grid[0], cfg.gamma)],
        on_step=accumulate,
    )
    lower = spd_factorize(hess)
    rem = math.sqrt(t) * (run.avg[0] - theta_star) + spd_solve(lower, xi_sum) / math.sqrt(t)
    return float(math.sqrt(rem @ hess @ rem))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_rows_csv(rows: Sequence[ResultRow], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RAW_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    r.model, r.d, r.t, r.cov, r.algo, _cell(r.c), r.rep, r.method, r.k,
                    _cell(r.covered), _cell(r.width), _cell(r.center), _cell(r.unavailable),
                ]
            )


def write_summary_csv(summaries: Sequence[Summary], path: str) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(SUMMARY_HEADER.split(","))
        for s in summaries:
            writer.writerow(
                [
                    s.model, s.d, s.t, s.cov, s.algo, _cell(s.c), s.method, s.k,
                    _cell(s.coverage), _cell(s.median_width), _cell(s.width_ratio),
                    s.n_wald_available,
                ]
            )


def write_residuals_csv(rows: Sequence[tuple], path: str) -> None:
    """Rows are (model, d, t, cov, algo, c, rep, residual) tuples."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESIDUAL_HEADER.split(","))
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def config_echo(cfg: ExperimentConfig) -> dict:
    return {
        "model": cfg.model.value,
        "d": cfg.d,
        "t": cfg.t,
        "cov": cfg.cov.value,
        "algo": cfg.algorithm.name,
        "eps2": cfg.algorithm.eps2,
        "sigma": cfg.algorithm.sigma,
        "beta": cfg.algorithm.beta,
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
    rows: Sequence[ResultRow] = (),
) -> None:
    from . import __version__

    doc = {
        "tool": "streamci",
        "version": __version__,
        "base_seed": cfgs[0].base_seed if cfgs else 0,
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
