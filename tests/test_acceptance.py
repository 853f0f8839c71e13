"""Acceptance gate: desk-scale quantitative reproductions plus the
property-style contracts, one test per criterion.

Criteria 1, 2 and 4 share one 200-replication grid cell (linear, d=5,
identity covariance, T=10^4, averaged SGD at c=0.5), built once per module.
Criterion 3 has its own 200-replication cell (linear, d=20, T=10^3, same
design, algorithm and step constant), where the plug-in shortfall shows.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from streamci.cli import run_cli
from streamci.harness import ExperimentConfig, aggregate, expansion_residuals, run_grid
from streamci.infer import hulc_batch_count, wald_offline
from streamci.model import (
    CovarianceKind,
    Dataset,
    ModelKind,
    ModelSpec,
    covariance_factor,
    loss_grad,
    loss_hessian,
    loss_value,
    sample_dataset,
)
from streamci.optim import (
    ALGORITHM_NAMES,
    AlgorithmKind,
    PolynomialStep,
    advance,
    gradient_truncate,
    init_state,
    step_size,
)
from streamci.statutil import RngStream

pytestmark = pytest.mark.acceptance

BASE_SEED = 0


@pytest.fixture(scope="module")
def main_cell():
    """Summaries of the shared cell, keyed by (method, coordinate)."""
    cfg = ExperimentConfig(
        model=ModelKind.LINEAR,
        d=5,
        t=10_000,
        cov=CovarianceKind.IDENTITY,
        algorithm=AlgorithmKind("asgd"),
        c_grid=(0.5,),
        reps=200,
        base_seed=BASE_SEED,
        methods=("wald", "hulc", "tstat"),
    )
    return {(s.method, s.k): s for s in aggregate(run_grid(cfg))}


@pytest.fixture(scope="module")
def plugin_cell():
    """Plug-in summaries of criterion 3's cell, keyed by coordinate."""
    cfg = ExperimentConfig(
        model=ModelKind.LINEAR,
        d=20,
        t=1_000,
        cov=CovarianceKind.IDENTITY,
        algorithm=AlgorithmKind("asgd"),
        c_grid=(0.5,),
        reps=200,
        base_seed=BASE_SEED,
        methods=("plugin",),
    )
    return {s.k: s for s in aggregate(run_grid(cfg))}


def test_criterion_01_wald_baseline_coverage(main_cell):
    for k in range(1, 6):
        coverage = main_cell[("wald", k)].coverage
        assert 0.91 <= coverage <= 0.99, f"wald coverage at k={k}: {coverage}"


def test_criterion_02_hulc_nominal_coverage(main_cell):
    for k in range(1, 6):
        coverage = main_cell[("hulc", k)].coverage
        assert 0.90 <= coverage <= 0.99, f"hulc coverage at k={k}: {coverage}"


def test_criterion_03_plugin_undercoverage(plugin_cell):
    """The streaming plug-in sandwich undercovers in finite samples.

    The shortfall grows with d, so this criterion has its own cell rather
    than the shared d=5 one. At d=5 the plug-in standard error matches the
    spread of the averaged iterate, and median coverage is 0.9465 over 2000
    replications at T=10^4 and 0.947 at T=10^3 and 2*10^3 (1000 each); a
    bound of 0.93 there is met only by a lucky seed. At d=20 the standard
    error is about 0.9 of the spread: median coverage is 0.92 at T=10^4 (600
    replications) and 0.896 at T=10^3 (2000), while HulC covers at 0.955
    and Wald at 0.945 on this cell's streams.
    """
    coverages = [plugin_cell[k].coverage for k in range(1, 21)]
    assert float(np.median(coverages)) <= 0.93, f"plugin coverages: {coverages}"


def test_criterion_04_width_ordering(main_cell):
    for k in range(1, 6):
        vs_wald = main_cell[("hulc", k)].width_ratio
        assert 1.2 <= vs_wald <= 2.6, f"hulc/wald width ratio at k={k}: {vs_wald}"
        vs_tstat = main_cell[("hulc", k)].median_width / main_cell[("tstat", k)].median_width
        assert 1.0 <= vs_tstat <= 1.3, f"hulc/tstat width ratio at k={k}: {vs_tstat}"


def test_criterion_05_divergent_step_biases_estimate():
    cfg = ExperimentConfig(
        model=ModelKind.LINEAR,
        d=5,
        t=1_000,
        cov=CovarianceKind.IDENTITY,
        algorithm=AlgorithmKind("asgd"),
        c_grid=(2.0,),
        reps=200,
        base_seed=BASE_SEED,
        methods=("plugin",),
    )
    centers = [r.center for r in run_grid(cfg) if r.k == 1 and not r.unavailable]
    assert len(centers) == 200
    assert float(np.mean(centers)) > 1.0


def test_criterion_06_batch_count_randomization():
    # Exact split: threshold 2^6 * 0.025 - 1 = 0.6, so P(B=5) = 0.6 and
    # P(B=6) = 0.4, making E[2^(1-B)] = 0.6/16 + 0.4/32 = 0.05 = alpha.
    threshold = 2.0**6 * 0.025 - 1.0
    assert threshold == pytest.approx(0.6, abs=1e-15)
    assert hulc_batch_count(0.05, threshold) == 5
    assert hulc_batch_count(0.05, np.nextafter(threshold, 1.0)) == 6
    assert hulc_batch_count(0.05, 0.0) == 5
    assert hulc_batch_count(0.05, 1.0) == 6
    expected = threshold * 2.0 ** (1 - 5) + (1.0 - threshold) * 2.0 ** (1 - 6)
    assert expected == pytest.approx(0.05, abs=1e-15)

    rng = np.random.default_rng(606)
    b = np.fromiter(
        (hulc_batch_count(0.05, float(u)) for u in rng.uniform(size=1_000_000)),
        dtype=np.int64,
        count=1_000_000,
    )
    assert set(np.unique(b)) == {5, 6}
    assert np.mean(np.ldexp(1.0, 1 - b)) == pytest.approx(0.05, abs=0.001)
    assert np.mean(b == 5) == pytest.approx(0.6, abs=0.005)


def test_criterion_07_finite_difference_derivatives():
    h = 1e-6
    rng = np.random.default_rng(707)
    for kind in (ModelKind.LINEAR, ModelKind.LOGISTIC):
        for _ in range(100):
            d = int(rng.integers(2, 6))
            theta = rng.standard_normal(d)
            x = np.concatenate([[1.0], rng.standard_normal(d - 1)])
            y = float(rng.standard_normal()) if kind == ModelKind.LINEAR else float(rng.integers(2))
            p = type("P", (), {"x": x, "y": y})()
            grad = loss_grad(kind, theta, p)
            hess = loss_hessian(kind, theta, p)
            fd_grad = np.empty(d)
            fd_hess = np.empty((d, d))
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd_grad[i] = (loss_value(kind, theta + e, p) - loss_value(kind, theta - e, p)) / (2 * h)
                fd_hess[i] = (loss_grad(kind, theta + e, p) - loss_grad(kind, theta - e, p)) / (2 * h)
            assert np.linalg.norm(fd_grad - grad) / max(1.0, np.linalg.norm(grad)) < 1e-6
            assert np.linalg.norm(fd_hess - hess) / max(1.0, np.linalg.norm(hess)) < 1e-5


def test_criterion_08_implicit_fixed_point():
    sched = PolynomialStep(0.5)
    for kind in (ModelKind.LINEAR, ModelKind.LOGISTIC):
        spec = ModelSpec(kind, 3, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(808, 0), 1000)
        state = init_state(AlgorithmKind("implicit-last"), np.zeros(3))
        for p in data:
            before = state.theta.copy()
            advance(state, sched, kind, p)
            eta = step_size(sched, state.t)
            residual = state.theta - (before - eta * loss_grad(kind, state.theta, p))
            assert np.linalg.norm(residual) < 1e-10

    rng = np.random.default_rng(809)
    state = init_state(AlgorithmKind("implicit-last"), rng.standard_normal(4))
    for t in range(1, 101):
        x = rng.standard_normal(4)
        y = float(rng.standard_normal())
        eta = step_size(sched, t)
        before = state.theta.copy()
        advance(state, sched, ModelKind.LINEAR, type("P", (), {"x": x, "y": y})())
        closed = np.linalg.solve(np.eye(4) + eta * np.outer(x, x), before + eta * y * x)
        assert np.linalg.norm(state.theta - closed) < 1e-10


def test_criterion_09_wald_oracle_equivalence():
    rng = np.random.default_rng(909)
    n, d = 20, 3
    X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
    y = rng.standard_normal(n)
    got = wald_offline(ModelKind.LINEAR, Dataset(X, y), 0.05)
    theta = np.linalg.solve(X.T @ X, X.T @ y)
    J = X.T @ X / n
    r = X @ theta - y
    V = (X * r[:, None]).T @ (X * r[:, None]) / n
    J_inv = np.linalg.inv(J)
    half = stats.norm.ppf(0.975) * np.sqrt(np.diag(J_inv @ V @ J_inv) / n)
    assert np.max(np.abs(got.center - theta)) < 1e-10
    assert np.max(np.abs(got.lo - (theta - half))) < 1e-10
    assert np.max(np.abs(got.hi - (theta + half))) < 1e-10


def test_criterion_10_gradient_truncation():
    kappa, out = gradient_truncate(np.array([3.0, 1.0, 2.0]), 0.5)
    assert kappa == 2.0
    assert np.array_equal(out, [3.0, 0.0, 2.0])

    rng = np.random.default_rng(1010)
    for _ in range(1000):
        d = int(rng.integers(1, 11))
        g = rng.standard_normal(d) * float(rng.uniform(0.1, 10.0))
        eps2 = float(rng.uniform(0.01, 1.0))
        kappa, out = gradient_truncate(g, eps2)
        assert np.array_equal(out, np.where(np.abs(g) < kappa, 0.0, g))
        assert kappa in np.abs(g)
        total = float(g @ g)
        assert float(out @ out) >= (1.0 - eps2) * total - 1e-9 * total


def test_criterion_11_running_average_identity():
    spec = ModelSpec(ModelKind.LINEAR, 3, CovarianceKind.IDENTITY)
    data = sample_dataset(spec, covariance_factor(spec), RngStream(1111, 0), 1000)
    sched = PolynomialStep(0.5)
    for name in ALGORITHM_NAMES:
        kind = AlgorithmKind(name)
        rng = RngStream(1111, 9) if name == "noisy-truncated" else None
        state = init_state(kind, np.zeros(3), rng=rng)
        trajectory = []
        for p in data:
            advance(state, sched, ModelKind.LINEAR, p)
            trajectory.append(state.theta.copy())
        stored = np.mean(trajectory, axis=0)
        scale = max(1.0, float(np.max(np.abs(stored))))
        assert np.max(np.abs(state.avg - stored)) < 1e-12 * scale, name


def test_criterion_12_expansion_residual_shrinks():
    cfg = ExperimentConfig(
        model=ModelKind.LINEAR,
        d=5,
        t=10_000,
        cov=CovarianceKind.IDENTITY,
        algorithm=AlgorithmKind("asgd"),
        c_grid=(0.5,),
        reps=50,
        base_seed=BASE_SEED,
    )
    med_small = float(np.median(expansion_residuals(replace(cfg, t=1_000))))
    med_large = float(np.median(expansion_residuals(cfg)))
    assert med_large < med_small, f"median residual {med_small} -> {med_large}"


def test_criterion_13_byte_identical_outputs(tmp_path):
    def run(out, threads):
        argv = [
            "--model", "linear", "--d", "5", "--t", "1000", "--cov", "identity",
            "--algo", "asgd", "--c", "0.1,0.5", "--reps", "20",
            "--seed", str(BASE_SEED), "--threads", str(threads), "--out", str(out),
        ]
        assert run_cli(argv) == 0
        summary = out.with_name(out.stem + "_summary.csv")
        return out.read_bytes(), summary.read_bytes()

    first = run(tmp_path / "a.csv", threads=1)
    second = run(tmp_path / "b.csv", threads=1)
    eight = run(tmp_path / "c.csv", threads=8)
    assert first == second
    assert first == eight
