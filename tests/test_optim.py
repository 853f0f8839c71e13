"""Stream optimizers: pinned single-step examples, truncation invariants,
implicit fixed-point accuracy, cross-algorithm consistency checks, and the
lane kernel against the per-observation reference."""

import itertools
import json
import math
import operator
import os
import sys
from collections import Counter
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from streamci.model import (
    CovarianceKind,
    DataPoint,
    ModelKind,
    ModelSpec,
    _mean_response,
    _sigmoid_scalarwise,
    covariance_factor,
    loss_grad,
    make_theta_star,
    sample_dataset,
)
from plugin_oracle import plugin_sums
from streamci.harness import WARM_FRACTION, WARM_START_STEP, ExperimentConfig, _initial_iterates
from streamci.infer import _ordered_outer_sum
from streamci import optim
from streamci.optim import (
    ALGORITHM_NAMES,
    NOISE_BETA,
    NOISE_SIGMA,
    AlgorithmKind,
    PolynomialStep,
    IMPLICIT_MAX_ITER,
    IMPLICIT_TOL,
    _implicit_steps,
    _truncate_rows,
    advance,
    gradient_truncate,
    init_state,
    run_lanes,
    step_size,
)
from streamci.statutil import IllConditionedError, RngStream


def _linear_data(n, d, seed, cov=CovarianceKind.IDENTITY):
    spec = ModelSpec(ModelKind.LINEAR, d, cov)
    return spec, sample_dataset(spec, covariance_factor(spec), RngStream(seed, 0), n)


def _bits(a):
    return np.asarray(a).tobytes()


def _declared_estimate(state):
    """The reference's estimate: the running average for the averaged
    algorithms, the last iterate for the rest."""
    return state.avg if state.kind.averaged else state.theta


class TestStepSize:
    def test_polynomial_first_step_is_c(self):
        assert step_size(PolynomialStep(0.5), 1) == 0.5

    def test_polynomial_decay(self):
        assert step_size(PolynomialStep(0.5, 0.505), 100) == pytest.approx(0.048862, abs=1e-6)

    def test_constant(self):
        assert step_size(PolynomialStep(0.01, 0.0), 12345) == 0.01

    def test_step_index_positive(self):
        with pytest.raises(ValueError):
            step_size(PolynomialStep(0.1, 0.0), 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_constant_validation(self, bad):
        with pytest.raises(ValueError):
            PolynomialStep(bad, 0.0)

    @pytest.mark.parametrize("c,gamma", [(0.0, 0.505), (1.0, -0.5), (1.0, 1.0), (1.0, 1.5)])
    def test_polynomial_validation(self, c, gamma):
        with pytest.raises(ValueError):
            PolynomialStep(c, gamma)

    @pytest.mark.parametrize("gamma", [0.505, 0.7, 0.0])
    def test_lane_step_sizes_match_python_products(self, gamma):
        # run_lanes takes every lane's step size at several c as one numpy
        # multiply of a c column by the Python float t**(-gamma); that is
        # the product c * decay on Python floats, for every packaged c.
        grids = json.loads(resources.files("streamci.data").joinpath("c_grids.json").read_text())
        c = sorted({v for grid in [*grids["asgd"]["linear"].values(), *grids["asgd"]["logistic"].values(),
                                   *grids["other"].values()] for v in grid})
        assert len(c) == 25
        c_col, eta = np.array(c)[:, None], np.empty((len(c), 1))
        for t in range(1, 10**4 + 1):
            decay = float(t) ** -gamma
            want = [c_j * decay for c_j in c]
            assert _bits(np.multiply(c_col, decay, eta)) == _bits(np.array(want)[:, None]), t


class TestAlgorithmKind:
    def test_all_names_construct(self):
        for name in ALGORITHM_NAMES:
            assert AlgorithmKind(name).value == name

    def test_averaged_flag(self):
        averaged = {name for name in ALGORITHM_NAMES if AlgorithmKind(name).averaged}
        assert averaged == {"asgd", "implicit-avg"}

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            AlgorithmKind("adam")


class TestInitState:
    def test_noisy_requires_rng(self):
        with pytest.raises(ValueError):
            init_state(AlgorithmKind("noisy-truncated"), np.zeros(2))

    def test_others_reject_rng(self):
        with pytest.raises(ValueError):
            init_state(AlgorithmKind("sgd"), np.zeros(2), rng=RngStream(0, 0))

    def test_copies_theta0(self):
        theta0 = np.ones(3)
        state = init_state(AlgorithmKind("sgd"), theta0)
        state.theta[0] = 99.0
        assert theta0[0] == 1.0
        assert state.t == 0 and np.all(state.avg == 0.0)


class TestWarmStart:
    """The harness's burn-in: sgd from the origin at WARM_START_STEP over the
    first 1/WARM_FRACTION of each run's rows."""

    @staticmethod
    def _warm(model_kind, X, y, runs):
        cfg = ExperimentConfig(model_kind, X.shape[1], 1000, CovarianceKind.IDENTITY, "sgd", (0.5,))
        return _initial_iterates(cfg, X, y, runs)

    def test_empty_stream_is_origin(self):
        # Runs of fewer than WARM_FRACTION rows have no warm row.
        runs = [range(0), range(WARM_FRACTION - 1), range(5, 5 + WARM_FRACTION - 1)]
        out = self._warm(ModelKind.LINEAR, np.ones((8, 4)), np.ones(8), runs)
        assert_array_equal(out, np.zeros((3, 4)))

    def test_three_step_recursion(self):
        # theta <- theta - 0.001 * (theta - 1) starting from 0, on the
        # intercept; the zero column stays at 0.
        X = np.column_stack([np.ones(3 * WARM_FRACTION), np.zeros(3 * WARM_FRACTION)])
        out = self._warm(ModelKind.LINEAR, X, np.ones(len(X)), [range(len(X))])
        assert_allclose(out[0], [0.002997001, 0.0], atol=1e-9)
        assert WARM_START_STEP == 0.001

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("d", [5, 100])
    def test_uneven_lanes_match_reference(self, model_kind, d):
        # 13 lanes over strided rows as the harness's buckets read them, of
        # 0 to 133 warm rows, three of them none: each is init_state +
        # advance with the fixed warm-start step, bit for bit.
        n = 800
        rng = np.random.default_rng(30 + d)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(n)
        else:
            y = (rng.uniform(size=n) < 0.5).astype(float)
        warm = [0, 37, 0, 133, 5, 1, 66, 133, 13, 0, 90, 2, 41]
        runs = [
            range(lane % 3, n, 1 + lane % 3)[: WARM_FRACTION * length + lane % WARM_FRACTION]
            for lane, length in enumerate(warm)
        ]
        out = self._warm(model_kind, X, y, runs)
        sched = PolynomialStep(WARM_START_STEP, 0.0)
        for run, length, got in zip(runs, warm, out):
            state = init_state(AlgorithmKind.SGD, np.zeros(d))
            for i in run[:length]:
                advance(state, sched, model_kind, DataPoint(X[i], float(y[i])))
            assert got.tobytes() == state.theta.tobytes()


class TestAdvancePinned:
    def test_sgd_single_step(self):
        state = init_state(AlgorithmKind("sgd"), np.zeros(1))
        advance(state, PolynomialStep(0.5, 0.0), ModelKind.LINEAR, DataPoint(np.array([1.0]), 1.0))
        assert_allclose(state.theta, [0.5])
        assert_allclose(state.avg, [0.5])
        assert state.t == 1

    def test_implicit_single_step(self):
        # (1 + eta x x')^{-1} (theta + eta y x) = 1/2 for theta=1, y=0, eta=1.
        state = init_state(AlgorithmKind("implicit-last"), np.ones(1))
        advance(state, PolynomialStep(1.0, 0.0), ModelKind.LINEAR, DataPoint(np.array([1.0]), 0.0))
        assert_allclose(state.theta, [0.5], atol=1e-12)

    def test_root_first_step_matches_sgd(self):
        p = DataPoint(np.array([1.0, -2.0]), 0.7)
        root = init_state(AlgorithmKind("root"), np.array([0.3, 0.1]))
        sgd = init_state(AlgorithmKind("sgd"), np.array([0.3, 0.1]))
        advance(root, PolynomialStep(0.2, 0.0), ModelKind.LINEAR, p)
        advance(sgd, PolynomialStep(0.2, 0.0), ModelKind.LINEAR, p)
        assert_array_equal(root.theta, sgd.theta)
        assert_array_equal(root.v, loss_grad(ModelKind.LINEAR, np.array([0.3, 0.1]), p))


class TestGradientTruncate:
    def test_half_mass_threshold(self):
        kappa, out = gradient_truncate(np.array([3.0, 0.0, 2.0]), 0.5)
        assert kappa == 2.0
        assert_array_equal(out, [3.0, 0.0, 2.0])

    def test_ties_at_threshold_survive(self):
        kappa, out = gradient_truncate(np.array([2.0, -2.0, 1.0]), 1.0)
        assert kappa == 2.0
        assert_array_equal(out, [2.0, -2.0, 0.0])

    def test_zero_gradient(self):
        kappa, out = gradient_truncate(np.zeros(2), 0.5)
        assert kappa == 0.0
        assert_array_equal(out, np.zeros(2))

    def test_budget_never_reached_keeps_all(self):
        kappa, out = gradient_truncate(np.array([5.0, 5.0]), 0.1)
        assert kappa == 5.0
        assert_array_equal(out, [5.0, 5.0])

    def test_single_coordinate(self):
        kappa, out = gradient_truncate(np.array([-7.0]), 0.3)
        assert kappa == 7.0
        assert_array_equal(out, [-7.0])

    def test_eps2_validation(self):
        for bad in (0.0, 1.0001, -0.5):
            with pytest.raises(ValueError):
                gradient_truncate(np.ones(2), bad)

    def test_input_not_mutated(self):
        g = np.array([1.0, 10.0])
        gradient_truncate(g, 0.9)
        assert_array_equal(g, [1.0, 10.0])

    @given(
        g=hnp.arrays(
            np.float64,
            st.integers(1, 8),
            elements=st.floats(-100.0, 100.0, allow_nan=False),
        ),
        eps2=st.floats(0.01, 1.0),
    )
    def test_invariants(self, g, eps2):
        kappa, out = gradient_truncate(g, eps2)
        # Coordinates pass through untouched or are zeroed, by strict |g| < kappa.
        assert_array_equal(out, np.where(np.abs(g) < kappa, 0.0, g))
        # kappa is an observed magnitude whenever the squared norm is nonzero
        # in float; a squared-norm underflow keeps everything with kappa = 0.
        total = float((g * g).sum())
        if total > 0.0:
            assert kappa in np.abs(g)
        else:
            assert kappa == 0.0
            assert_array_equal(out, g)
        # Dropped squared mass never exceeds the eps2 budget.
        kept = float((out * out).sum())
        assert kept >= (1.0 - eps2) * total - 1e-9 * max(total, 1.0)


    @given(
        G=st.one_of(st.integers(1, 8), st.sampled_from([20, 100])).flatmap(
            lambda d: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(d)),
                elements=st.one_of(
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.nan, np.inf, -np.inf]),
                    st.floats(-100.0, 100.0),
                    # Squares that underflow to a zero total, and squares
                    # that overflow.
                    st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.floats(1e-200, 1e-199)),
                    st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.floats(1e199, 1e200)),
                ),
            )
        ),
        eps2=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_rows_match_scalar_truncation(self, G, eps2):
        # The kernel's row-wise truncation and its row-wise squared norms are
        # the scalar routine's, bit for bit, ties and zero rows included, at
        # the kernel's widths and with the non-finite rows of divergent lanes.
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            out = _truncate_rows(G, eps2, np.empty_like(G), np.empty_like(G))
            sq = G * G
            for row, got, total in zip(G, out, sq.sum(axis=1)):
                assert gradient_truncate(row, eps2)[1].tobytes() == got.tobytes()
                assert (row * row).sum().tobytes() == total.tobytes()


def _oracle_implicit_steps(model_kind, a, nx2, y, eta):
    """The implicit step's bisection as one loop for both models, kept as
    the oracle that optim._implicit_steps must match bit for bit."""
    logistic = model_kind == ModelKind.LOGISTIC
    exp = math.exp
    out = []
    for a_l, nx2_l, y_l, eta_l in zip(a, nx2, y, eta):
        if not logistic:
            psi = a_l
        elif a_l >= 0.0:
            psi = 1.0 / (1.0 + exp(-a_l))
        else:
            e = exp(a_l)
            psi = e / (1.0 + e)
        s0 = eta_l * (psi - y_l)
        if s0 == 0.0 or nx2_l == 0.0:
            out.append(s0)
            continue
        lo, hi = (0.0, s0) if s0 > 0.0 else (s0, 0.0)
        width_tol = IMPLICIT_TOL * max(1.0, abs(s0))
        for _ in range(IMPLICIT_MAX_ITER):
            mid = 0.5 * (lo + hi)
            u = a_l - mid * nx2_l
            if not logistic:
                psi = u
            elif u >= 0.0:
                psi = 1.0 / (1.0 + exp(-u))
            else:
                e = exp(u)
                psi = e / (1.0 + e)
            if mid - eta_l * (psi - y_l) < 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= width_tol:
                break
        else:
            raise IllConditionedError("implicit update bisection did not converge")
        out.append(0.5 * (lo + hi))
    return out


def _assert_solver_matches_oracle(model_kind, *lane):
    """On one lane, the solver's step is not finite where the oracle's
    bisection does not converge, and has the oracle's bits elsewhere."""
    got = _implicit_steps(model_kind, *[[v] for v in lane])
    try:
        want = _oracle_implicit_steps(model_kind, *[[v] for v in lane])
    except IllConditionedError:
        assert not math.isfinite(got[0]), lane
    else:
        assert _bits(got) == _bits(want), lane


class TestImplicitUpdate:
    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_solver_matches_oracle(self, model_kind):
        # Random lanes, then every combination of edge values: s0 = 0
        # (psi(a) == y), ||x||^2 = 0, NaN and +-inf a, |a| up to 1e3 and
        # beyond exp's range, eta from 1e-6 to 10. Each lane alone gives the
        # oracle's bits, or a non-finite step where the oracle raises; the
        # finite lanes together give the same list.
        rng = np.random.default_rng(34)
        n = 3000
        a = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
        nx2 = np.where(rng.uniform(size=n) < 0.05, 0.0, 10.0 ** rng.uniform(-3.0, 3.0, n))
        y = rng.integers(0, 2, n) * 1.0
        if model_kind == ModelKind.LINEAR:
            y = np.where(rng.uniform(size=n) < 0.5, y, a + rng.standard_normal(n))
        eta = 10.0 ** rng.uniform(-6.0, 1.0, n)
        lanes = [a.tolist(), nx2.tolist(), y.tolist(), eta.tolist()]
        assert _bits(_implicit_steps(model_kind, *lanes)) == _bits(_oracle_implicit_steps(model_kind, *lanes))

        edges_a = [0.0, -0.0, 1e-300, 1.0, -1.0, 37.0, -37.0, 40.0, -40.0, 710.0, -710.0, 1e3, -1e3,
                   math.nan, math.inf, -math.inf]
        for lane in itertools.product(edges_a, [0.0, 1e-300, 1.0, 1e3], [0.0, 1.0, 1e3], [1e-6, 0.1, 1.0, 10.0]):
            _assert_solver_matches_oracle(model_kind, *lane)
        # Linear lanes with y == a have s0 = 0.
        for a_l in edges_a:
            _assert_solver_matches_oracle(model_kind, a_l, 1.0, a_l, 0.5)
        # A linear s0 near the float maximum: the bracket's midpoint
        # overflows and the step is inf.
        overflow = (1.5e308, 1e-300, 0.0, 1.0)
        _assert_solver_matches_oracle(model_kind, *overflow)
        if model_kind == ModelKind.LINEAR:
            assert _implicit_steps(model_kind, *[[v] for v in overflow]) == [math.inf]

    def test_linear_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            theta = rng.standard_normal(d)
            x = rng.standard_normal(d)
            y = float(rng.standard_normal())
            eta = float(rng.uniform(0.01, 2.0))
            (s,) = _implicit_steps(ModelKind.LINEAR, [float(x @ theta)], [float(x @ x)], [y], [eta])
            got = theta - s * x
            want = np.linalg.solve(np.eye(d) + eta * np.outer(x, x), theta + eta * y * x)
            assert_allclose(got, want, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_fixed_point_residual_along_run(self, model_kind):
        spec = ModelSpec(model_kind, 3, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(22, 0), 1000)
        sched = PolynomialStep(0.5)
        state = init_state(AlgorithmKind("implicit-last"), np.zeros(3))
        for p in data:
            before = state.theta.copy()
            advance(state, sched, model_kind, p)
            eta = step_size(sched, state.t)
            residual = state.theta - (before - eta * loss_grad(model_kind, state.theta, p))
            assert np.linalg.norm(residual) <= 1e-10 * (1.0 + np.linalg.norm(state.theta))

    def test_zero_step_direction_is_identity(self):
        theta = np.array([1.0, 2.0])
        p = DataPoint(np.array([1.0, 0.5]), float(np.array([1.0, 0.5]) @ theta))
        (s,) = _implicit_steps(ModelKind.LINEAR, [float(p.x @ theta)], [float(p.x @ p.x)], [p.y], [0.3])
        assert_array_equal(theta - s * p.x, theta)


class TestRootReduction:
    def test_zero_weight_recovers_sgd(self, monkeypatch):
        monkeypatch.setattr("streamci.optim._root_weight", lambda t: 0.0)
        _, data = _linear_data(100, 3, seed=23)
        sched = PolynomialStep(0.5)
        root = init_state(AlgorithmKind("root"), np.zeros(3))
        sgd = init_state(AlgorithmKind("sgd"), np.zeros(3))
        for p in data:
            advance(root, sched, ModelKind.LINEAR, p)
            advance(sgd, sched, ModelKind.LINEAR, p)
            assert_array_equal(root.theta, sgd.theta)


class TestAveraging:
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_running_average_matches_batch_mean(self, name):
        kind = AlgorithmKind(name)
        _, data = _linear_data(1000, 3, seed=24)
        rng = RngStream(24, 9) if name == "noisy-truncated" else None
        state = init_state(kind, np.zeros(3), rng=rng)
        sched = PolynomialStep(0.5)
        iterates = []
        for p in data:
            advance(state, sched, ModelKind.LINEAR, p)
            iterates.append(state.theta.copy())
        assert_allclose(state.avg, np.mean(iterates, axis=0), rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_run_stream_reports_declared_estimate(self, name):
        kind = AlgorithmKind(name)
        _, data = _linear_data(50, 2, seed=25)
        sched = PolynomialStep(0.5)
        noisy = name == "noisy-truncated"
        # One block of draws equals one draw of d per step (the stream is prefix stable).
        noise = RngStream(25, 9).standard_normal(data.X.shape) if noisy else None
        run = run_lanes(kind, ModelKind.LINEAR, data.X, data.y, [range(len(data))], np.zeros(2), [sched.c],
                        sched.gamma, noise=noise)
        state = init_state(kind, np.zeros(2), rng=RngStream(25, 9) if noisy else None)
        for p in data:
            advance(state, sched, ModelKind.LINEAR, p)
        assert _bits(run.estimates[0, 0]) == _bits(_declared_estimate(state))


class TestNoisyTruncated:
    def test_vanishing_noise_recovers_truncated(self, monkeypatch):
        monkeypatch.setattr(optim, "NOISE_SIGMA", 1e-12)
        _, data = _linear_data(100, 3, seed=26)
        sched = PolynomialStep(0.5)
        noisy = init_state(AlgorithmKind("noisy-truncated"), np.zeros(3), rng=RngStream(26, 9))
        plain = init_state(AlgorithmKind("truncated"), np.zeros(3))
        for p in data:
            advance(noisy, sched, ModelKind.LINEAR, p)
            advance(plain, sched, ModelKind.LINEAR, p)
        assert_allclose(noisy.theta, plain.theta, atol=1e-6)

    def test_noise_scale_enters_update(self):
        # One step from the origin (eta = c = 0.5 at t = 1) is the truncated
        # step plus NOISE_SIGMA * eta**(1/2 + NOISE_BETA) times the stream's
        # first draw.
        p = DataPoint(np.array([1.0, -2.0, 0.5]), 0.7)
        sched = PolynomialStep(0.5)
        noisy = init_state(AlgorithmKind("noisy-truncated"), np.zeros(3), rng=RngStream(27, 9))
        plain = init_state(AlgorithmKind("truncated"), np.zeros(3))
        advance(noisy, sched, ModelKind.LINEAR, p)
        advance(plain, sched, ModelKind.LINEAR, p)
        draw = RngStream(27, 9).standard_normal(3)
        assert_array_equal(noisy.theta, plain.theta + NOISE_SIGMA * 0.5 ** (0.5 + NOISE_BETA) * draw)


class TestRunStream:
    """Whole-stream runs of run_lanes: one lane per stream."""

    def test_noiseless_stationary_point_is_fixed(self):
        theta_star = make_theta_star(3)
        rng = np.random.default_rng(28)
        X = np.column_stack([np.ones(40), rng.standard_normal((40, 2))])
        y = np.array([float(X[i] @ theta_star) for i in range(40)])
        run = run_lanes(AlgorithmKind.ASGD, ModelKind.LINEAR, X, y, [range(40)], theta_star, [0.5], 0.505)
        assert_array_equal(run.estimates[0, 0], theta_star)

    def test_asgd_converges_across_replications(self):
        spec = ModelSpec(ModelKind.LINEAR, 5, CovarianceKind.IDENTITY)
        chol = covariance_factor(spec)
        reps, n = 50, 10_000
        data = [sample_dataset(spec, chol, RngStream(29, rep), n) for rep in range(reps)]
        X = np.concatenate([dt.X for dt in data])
        y = np.concatenate([dt.y for dt in data])
        rows = [range(rep * n, (rep + 1) * n) for rep in range(reps)]
        run = run_lanes(AlgorithmKind.ASGD, ModelKind.LINEAR, X, y, rows, np.zeros(5), [0.5], 0.505)
        close = np.sum(np.linalg.norm(run.estimates[0] - spec.theta_star, axis=1) < 0.2)
        assert close >= 0.95 * reps


class _RowNoise:
    """Stands in for a noise stream: hands out the given rows in order."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, size):
        return next(self.rows)


def _reference_lane(kind, model_kind, X, y, rows, theta0, sched, noise):
    """The lane's final state, the responses psi(x'theta) at each pre-update
    iterate, and those iterates."""
    rng = _RowNoise(noise[list(rows)]) if noise is not None else None
    state = init_state(kind, theta0, rng=rng)
    thetas, responses = [], []
    for i in rows:
        thetas.append(state.theta.copy())
        responses.append(_mean_response(model_kind, float(X[i] @ state.theta)))
        advance(state, sched, model_kind, DataPoint(X[i], float(y[i])))
    return state, np.array(responses), thetas


class TestRunLanes:
    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @given(data=st.data())
    def test_matches_per_observation_reference(self, name, model_kind, data):
        """Every lane equals init_state + advance on its run's rows at its
        step constant bit for bit, a recorded run's responses equal
        psi(x'theta) at the reference's pre-update iterates, and a subset of
        the runs and step constants run alone gives the same bits, so
        results do not depend on the lane count."""
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # d=20 is the logistic sweep's dimension.
        d = data.draw(st.one_of(st.integers(1, 6), st.just(20)), label="d")
        n_runs = data.draw(st.integers(1, 5), label="runs")
        rng = np.random.default_rng(seed)
        pool = 48
        X = rng.standard_normal((pool, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(pool)
        else:
            y = (rng.uniform(size=pool) < 0.5).astype(float)
        noise = rng.standard_normal((pool, d)) if name == "noisy-truncated" else None
        kind = AlgorithmKind(name)
        gamma = data.draw(st.sampled_from([0.505, 0.7, 0.0]), label="gamma")
        c = data.draw(st.lists(st.sampled_from([0.5, 0.1, 1.5, WARM_START_STEP]), min_size=1, max_size=3), label="c")
        # The first record runs are the longest; a run after them may be as
        # long (a tie) or shorter.
        record = data.draw(st.integers(0, n_runs), label="record")
        longest = data.draw(st.integers(0, pool), label="longest")
        rows = []
        for r in range(n_runs):
            if rows and data.draw(st.booleans(), label="same rows as the previous run"):
                rows.append(rows[-1])
                continue
            tie = r < record or data.draw(st.booleans(), label="as long as the longest")
            length = longest if tie else data.draw(st.integers(0, longest), label="length")
            step = data.draw(st.integers(1, min(6, (pool - 1) // max(length - 1, 1))), label="step")
            start = data.draw(st.integers(0, pool - 1 - max(length - 1, 0) * step), label="start")
            rows.append(range(start, pool, step)[:length])
        theta0 = rng.standard_normal((n_runs, d))

        run = run_lanes(kind, model_kind, X, y, rows, theta0, c, gamma, noise=noise, record=record)
        assert run.estimates.shape == (len(c), n_runs, d)
        assert run.responses.shape == (len(c), record, max(map(len, rows)))
        for j, r in itertools.product(range(len(c)), range(n_runs)):
            state, responses, _ = _reference_lane(
                kind, model_kind, X, y, rows[r], theta0[r], PolynomialStep(c[j], gamma), noise
            )
            assert _bits(run.estimates[j, r]) == _bits(_declared_estimate(state))
            if r < record:
                assert _bits(run.responses[j, r]) == _bits(responses)

        runs_part = data.draw(st.lists(st.sampled_from(range(n_runs)), min_size=1, unique=True), label="run subset")
        runs_part.sort(key=lambda r: r >= record)  # its recorded runs lead
        c_part = data.draw(st.lists(st.sampled_from(range(len(c))), min_size=1, unique=True), label="c subset")
        record_part = sum(r < record for r in runs_part)
        part = run_lanes(
            kind, model_kind, X, y, [rows[r] for r in runs_part], theta0[runs_part], [c[j] for j in c_part], gamma,
            noise=noise, record=record_part,
        )
        assert _bits(part.estimates) == _bits(run.estimates[c_part][:, runs_part])
        assert _bits(part.responses) == _bits(run.responses[c_part][:, runs_part[:record_part]])

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_plugin_sums_match_reference_at_d100(self, model_kind):
        # The property above draws d <= 6 or 20; the default grid runs the
        # plug-in at d=100. Two recorded runs over different rows, the
        # longest, next to a shorter run that is not recorded, at two step
        # constants. The plug-in sums taken from the recorded responses, as
        # infer.plugin_interval takes them, are the per-observation oracle's.
        d, n = 100, 300
        rng = np.random.default_rng(11)
        X = rng.standard_normal((2 * n, d)) / np.sqrt(d)
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(2 * n)
        else:
            y = (rng.uniform(size=2 * n) < 0.5).astype(float)
        rows = [range(n), range(1, 2 * n, 2), range(0, 2 * n, 2)[:250]]
        theta0 = 0.1 * rng.standard_normal((3, d))
        c = [0.5, 0.1]
        kind = AlgorithmKind("asgd")
        run = run_lanes(kind, model_kind, X, y, rows, theta0, c, 0.505, record=2)
        for j, r in itertools.product(range(len(c)), range(2)):
            state, responses, thetas = _reference_lane(
                kind, model_kind, X, y, rows[r], theta0[r], PolynomialStep(c[j]), None
            )
            assert _bits(run.estimates[j, r]) == _bits(state.avg)
            m = run.responses[j, r]
            assert _bits(m) == _bits(responses)
            x, y_run = X[list(rows[r])], y[list(rows[r])]
            J_sum, V_sum = plugin_sums(model_kind, thetas, x, y_run)
            weight = None if model_kind == ModelKind.LINEAR else m * (1.0 - m)
            assert _bits(_ordered_outer_sum(x, weight)) == _bits(J_sum)
            assert _bits(_ordered_outer_sum((m - y_run)[:, None] * x)) == _bits(V_sum)

    def test_recorded_runs_must_be_the_longest(self):
        # The recorded runs lead and run to the last step; a recorded run
        # shorter than another run is refused.
        X, y = np.ones((6, 2)), np.zeros(6)
        sgd = AlgorithmKind("sgd")
        run = run_lanes(sgd, ModelKind.LINEAR, X, y, [range(3), range(3, 6)], np.zeros(2), [0.5, 0.1], 0.505, record=2)
        assert run.responses.shape == (2, 2, 3)
        for rows, record in [([range(2), range(2, 5)], 1), ([range(3), range(3, 6)], 3)]:
            with pytest.raises(ValueError):
                run_lanes(sgd, ModelKind.LINEAR, X, y, rows, np.zeros(2), [0.5], 0.505, record=record)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_divergent_lanes_match_reference(self, name, model_kind):
        # At c = 1e6 the explicit linear lanes overflow: their gradients hold
        # inf and NaN rows, which the truncation ranks as the scalar routine
        # does; the implicit lanes stay finite. Each lane, finite or not, is
        # init_state + advance bit for bit.
        d, pool = 20, 80
        rng = np.random.default_rng(38)
        X = rng.standard_normal((pool, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(pool)
        else:
            y = (rng.uniform(size=pool) < 0.5).astype(float)
        noise = rng.standard_normal((pool, d)) if name == "noisy-truncated" else None
        kind = AlgorithmKind(name)
        rows = [range(pool), range(1, pool, 2), range(0, pool, 3)]
        theta0 = 0.1 * rng.standard_normal((len(rows), d))
        c = [50.0, 1e6]
        run = run_lanes(kind, model_kind, X, y, rows, theta0, c, 0.505, noise=noise)
        if model_kind == ModelKind.LINEAR:
            diverges = kind not in (AlgorithmKind.IMPLICIT_LAST, AlgorithmKind.IMPLICIT_AVG)
            assert np.isnan(run.estimates[1, 0]).all() == diverges
        with np.errstate(over="ignore", invalid="ignore"):
            for j, r in itertools.product(range(len(c)), range(len(rows))):
                state = init_state(kind, theta0[r], rng=_RowNoise(noise[list(rows[r])]) if noise is not None else None)
                for i in rows[r]:
                    advance(state, PolynomialStep(c[j], 0.505), model_kind, DataPoint(X[i], float(y[i])))
                assert _bits(run.estimates[j, r]) == _bits(_declared_estimate(state)), (j, r)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_noise_scale_follows_each_lanes_c(self, model_kind):
        # The noise scale is taken once per c value and gathered to the
        # lanes by their c index. Five runs of four lengths at three c
        # values: the lanes, sorted longest first, interleave the c values,
        # and each phase drops some of them. Each lane is init_state +
        # advance bit for bit.
        d, pool = 4, 60
        rng = np.random.default_rng(41)
        X = rng.standard_normal((pool, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(pool)
        else:
            y = (rng.uniform(size=pool) < 0.5).astype(float)
        noise = rng.standard_normal((pool, d))
        kind = AlgorithmKind("noisy-truncated")
        rows = [range(0, pool, 4), range(1, pool, 2)[:9], range(2, pool, 4), range(3, pool, 5), range(5, pool, 7)[:3]]
        c = [0.5, 0.1, 1.5]
        theta0 = 0.1 * rng.standard_normal((len(rows), d))
        run = run_lanes(kind, model_kind, X, y, rows, theta0, c, 0.505, noise=noise)
        for j, r in itertools.product(range(len(c)), range(len(rows))):
            state, _, _ = _reference_lane(kind, model_kind, X, y, rows[r], theta0[r], PolynomialStep(c[j], 0.505),
                                          noise)
            assert _bits(run.estimates[j, r]) == _bits(state.theta), (j, r)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_block_boundaries_match_reference(self, name, model_kind, monkeypatch):
        # The property above gathers each phase as one block. Here BLOCK_FLOATS
        # ends blocks of 1, 2 or 3 steps in the first phase (every lane
        # running) or the last (the three longest runs at both step
        # constants), or BLOCK_STEPS ends blocks of 2, 3 or 5 steps in every
        # phase. So phases end mid-block, a phase's buffers and step views
        # serve up to four blocks, the last one short, and the responses and
        # the running average are folded in across block boundaries.
        d, pool = 3, 60
        rng = np.random.default_rng(35)
        X = rng.standard_normal((pool, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(pool)
        else:
            y = (rng.uniform(size=pool) < 0.5).astype(float)
        noise = rng.standard_normal((pool, d)) if name == "noisy-truncated" else None
        kind = AlgorithmKind(name)
        # Lengths 17, 17, 17, 10, 7 and 11; the first two are recorded, the
        # third ties with them.
        rows = [range(0, pool, 3)[:17], range(4, pool, 3)[:17], range(1, pool, 3)[:17], range(1, pool, 3)[:10],
                range(2, pool, 4)[:7], range(5, pool, 5)]
        c = [0.5, 0.1]
        theta0 = 0.1 * rng.standard_normal((len(rows), d))
        want = {
            (j, r): _reference_lane(kind, model_kind, X, y, rows[r], theta0[r], PolynomialStep(c[j], 0.505), noise)
            for j, r in itertools.product(range(len(c)), range(len(rows)))
        }
        bounds = [(steps * lanes * d, optim.BLOCK_STEPS)
                  for steps, lanes in itertools.product((1, 2, 3), (3 * len(c), len(rows) * len(c)))]
        bounds += [(optim.BLOCK_FLOATS, steps) for steps in (2, 3, 5)]
        for floats, steps in bounds:
            monkeypatch.setattr(optim, "BLOCK_FLOATS", floats)
            monkeypatch.setattr(optim, "BLOCK_STEPS", steps)
            run = run_lanes(kind, model_kind, X, y, rows, theta0, c, 0.505, noise=noise, record=2)
            for (j, r), (state, responses, _) in want.items():
                assert _bits(run.estimates[j, r]) == _bits(_declared_estimate(state)), (floats, steps, j, r)
                if r < 2:
                    assert _bits(run.responses[j, r]) == _bits(responses), (floats, steps, j, r)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_step_makes_no_python_call(self, model_kind):
        """Per algorithm, the Python-level calls of the package's own code
        that a pass makes at 2,000 steps beyond those at 200: sgd and asgd
        make only numpy calls, each other rule calls its one helper, and the
        logistic model adds the sigmoid (_sigmoid_scalarwise and its
        comprehension), twice for root. numpy's own Python wrappers are not
        counted. Two recorded runs, uneven bucket runs and two step
        constants, over several blocks."""
        package = os.path.dirname(optim.__file__) + os.sep

        def calls(name, t):
            rng = np.random.default_rng(37)
            X = rng.standard_normal((2 * t, 3))
            y = X @ np.linspace(0.0, 1.0, 3) if model_kind == ModelKind.LINEAR else rng.integers(0, 2, 2 * t) * 1.0
            noise = rng.standard_normal((2 * t, 3)) if name == "noisy-truncated" else None
            rows = [range(t), range(t, 2 * t), range(0, 2 * t, 3)[:t // 3 + 1], range(1, 2 * t, 3)[:t // 3],
                    range(2, t, 4)]
            counts = Counter()

            def profile(frame, event, arg):
                if event == "call" and frame.f_code.co_filename.startswith(package):
                    counts[frame.f_code.co_name] += 1

            previous = sys.getprofile()
            sys.setprofile(profile)
            try:
                run_lanes(AlgorithmKind(name), model_kind, X, y, rows, np.zeros(3), [0.5, 0.1], 0.505, noise=noise,
                          record=2)
            finally:
                sys.setprofile(previous)
            return counts

        grown = {}
        for name in ALGORITHM_NAMES:
            short, long = calls(name, 200), calls(name, 2000)
            grown[name] = {f: long[f] - short[f] for f in long | short if long[f] != short[f]}
        want = {
            "sgd": {},
            "asgd": {},
            "implicit-last": {"_implicit_steps": 1800},
            "implicit-avg": {"_implicit_steps": 1800},
            "root": {"_root_weight": 1800},
            "truncated": {"_truncate_rows": 1800},
            "noisy-truncated": {"_truncate_rows": 1800, "<listcomp>": 1800},
        }
        if model_kind == ModelKind.LOGISTIC:
            for name, funcs in want.items():
                sigmoid = 3600 if name == "root" else 1800
                funcs["_sigmoid_scalarwise"] = sigmoid
                funcs["<listcomp>"] = funcs.get("<listcomp>", 0) + sigmoid
        assert grown == want

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_nan_lane_diverges_alone(self, name, model_kind):
        # A lane started at NaN runs beside a finite lane on the same rows.
        # Nothing raises, the NaN lane ends all NaN, and both lanes and
        # their recorded responses are init_state + advance bit for bit.
        d, pool = 3, 40
        rng = np.random.default_rng(45)
        X = rng.standard_normal((pool, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(pool)
        else:
            y = (rng.uniform(size=pool) < 0.5).astype(float)
        noise = rng.standard_normal((pool, d)) if name == "noisy-truncated" else None
        kind = AlgorithmKind(name)
        theta0 = np.array([[0.1, -0.2, 0.3], [np.nan, 0.0, 0.0]])
        run = run_lanes(kind, model_kind, X, y, [range(pool)] * 2, theta0, [0.5], 0.505, noise=noise, record=2)
        assert np.isfinite(run.estimates[0, 0]).all() and np.isnan(run.estimates[0, 1]).all()
        for r in range(2):
            state, responses, _ = _reference_lane(kind, model_kind, X, y, range(pool), theta0[r], PolynomialStep(0.5),
                                                  noise)
            assert _bits(run.estimates[0, r]) == _bits(_declared_estimate(state)), r
            assert _bits(run.responses[0, r]) == _bits(responses), r

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_nan_lane_diverges_implicit_bisection(self, model_kind):
        # The bisection never brackets a NaN fixed point; the solver returns a
        # NaN step instead of raising, and in the kernel only that lane ends
        # NaN while the finite lane beside it runs as it would alone.
        X = np.array([[1.0, 0.5], [1.0, -1.0]])
        y = np.array([1.0, 0.0])
        theta0 = np.array([[0.0, 0.0], [np.nan, 0.0]])
        (s,) = _implicit_steps(model_kind, [float(X[0] @ theta0[1])], [float(X[0] @ X[0])], [float(y[0])], [0.5])
        assert math.isnan(s)
        kind = AlgorithmKind("implicit-last")
        run = run_lanes(kind, model_kind, X, y, [range(2)] * 2, theta0, [0.5], 0.505)
        alone = run_lanes(kind, model_kind, X, y, [range(2)], theta0[:1], [0.5], 0.505)
        assert np.isnan(run.estimates[0, 1]).all()
        assert _bits(run.estimates[0, 0]) == _bits(alone.estimates[0, 0])

    def test_noise_required_only_by_noisy_truncated(self):
        X, y = np.ones((3, 2)), np.zeros(3)
        with pytest.raises(ValueError):
            run_lanes(AlgorithmKind("noisy-truncated"), ModelKind.LINEAR, X, y, [range(3)], np.zeros(2), [0.5], 0.505)
        with pytest.raises(ValueError):
            run_lanes(AlgorithmKind("sgd"), ModelKind.LINEAR, X, y, [range(3)], np.zeros(2), [0.5], 0.505,
                      noise=np.zeros((3, 2)))

    def test_runs_must_index_rows(self):
        # The rows are gathered without a bounds check of their own, so a run
        # reaching past X or y, or below row 0, is refused; an empty run
        # reads nothing. Integer targets read as floats.
        X, y = np.ones((4, 2)), np.arange(4)
        sgd = AlgorithmKind("sgd")
        for rows in [[range(5)], [range(3), range(2, 6, 2)], [range(-1, 2)], [range(2, -2, -1)]]:
            with pytest.raises(ValueError):
                run_lanes(sgd, ModelKind.LINEAR, X, y, rows, np.zeros(2), [0.5], 0.505)
        with pytest.raises(ValueError):
            run_lanes(sgd, ModelKind.LINEAR, X, y[:3], [range(4)], np.zeros(2), [0.5], 0.505)
        run = run_lanes(sgd, ModelKind.LINEAR, X, y, [range(3, -1, -1), range(9, 9)], np.zeros(2), [0.5], 0.505)
        want = run_lanes(sgd, ModelKind.LINEAR, X, y * 1.0, [range(3, -1, -1), range(0)], np.zeros(2), [0.5], 0.505)
        assert _bits(run.estimates) == _bits(want.estimates)


class TestLaneArithmetic:
    """The kernel's per-lane dot products, squared norms and sigmoid against
    the scalar path. d = 16 and 17 cross the block width of OpenBLAS's ddot
    kernel; the rows are C-contiguous, as the kernel gathers them."""

    DIMS = [*range(1, 34), 64, 100]

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_responses_match_scalar_path(self, model_kind):
        rng = np.random.default_rng(31)
        for d in self.DIMS:
            for lanes in range(1, 21):
                X = 3.0 * rng.standard_normal((lanes, d))
                theta = rng.standard_normal((lanes, d))
                X[1::4, 0] = np.inf
                X[2::4, -1] = -np.inf
                X[3::4, d // 2] = np.nan
                with np.errstate(invalid="ignore"):
                    # The kernel's responses: np.vecdot, then on the logistic
                    # model the scalarwise sigmoid in place.
                    got = np.vecdot(X, theta)
                    if model_kind == ModelKind.LOGISTIC:
                        _sigmoid_scalarwise(got)
                    want = [_mean_response(model_kind, float(x @ th)) for x, th in zip(X, theta)]
                assert _bits(got) == _bits(np.array(want)), (d, lanes)

    def test_block_norms_match_scalar_path(self):
        # The implicit lanes' ||x||^2 of a gathered block of steps.
        rng = np.random.default_rng(32)
        for d in self.DIMS:
            X = rng.standard_normal((60, d))
            X_b = X[np.arange(4)[:, None] * 7 + np.arange(0, 60, 5)[None, :7]]
            want = [[float(x @ x) for x in X_k] for X_k in X_b]
            assert _bits(np.vecdot(X_b, X_b)) == _bits(np.array(want)), d

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_implicit_lanes_match_reference(self, model_kind):
        # The kernel's implicit step takes ||x||^2 from the gathered block
        # and x'theta from the step's rows; each lane is the reference's bit
        # for bit at every d. The bisection absorbs most last-bit changes of
        # ||x||^2, so the test above checks the norms themselves.
        rng = np.random.default_rng(33)
        kind, sched = AlgorithmKind.IMPLICIT_LAST, PolynomialStep(0.5)
        rows = [range(0, 24, 3), range(1, 24, 2), range(5)]
        for d in self.DIMS:
            X = rng.standard_normal((24, d))
            y = X @ np.linspace(0.0, 1.0, d) if model_kind == ModelKind.LINEAR else rng.integers(0, 2, 24) * 1.0
            theta0 = 0.1 * rng.standard_normal((len(rows), d))
            run = run_lanes(kind, model_kind, X, y, rows, theta0, [sched.c], sched.gamma)
            for lane_rows, start, got in zip(rows, theta0, run.estimates[0]):
                state = init_state(kind, start)
                for i in lane_rows:
                    advance(state, sched, model_kind, DataPoint(X[i], float(y[i])))
                assert got.tobytes() == state.theta.tobytes(), d


class TestOrderedOuterSum:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("d", [2, 5, 17, 20, 100])
    def test_matches_sequential_loop(self, d, step, weighted):
        """Bit for bit the per-step loop, also past a row whose products
        overflow, rows holding inf and NaN, and a row whose products are
        inf * 0: the non-finite entries sit at the same positions with the
        same signs. The NaN is the one the platform's arithmetic makes, the
        only kind a divergent lane produces. d=17 ends in a block that took
        in a one-row remainder; d=20 and d=100 split into several blocks."""
        rng = np.random.default_rng(d)
        a = rng.standard_normal((64 * step, d))[::step]
        with np.errstate(over="ignore", invalid="ignore"):
            a[3] *= 1e200
            a[5, -1] = -np.inf
            a[7, d // 2] = np.subtract(np.inf, np.inf)
            a[9, 0], a[9, -1] = np.inf, 0.0
            w = rng.uniform(0.0, 0.25, len(a)) if weighted else None
            want = np.zeros((d, d))
            for t in range(len(a)):
                term = a[t][:, None] * a[t][None, :]
                want += term * w[t] if weighted else term
            got = _ordered_outer_sum(a, w)
        assert not np.isfinite(got).all()
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("d", [*range(2, 21), 33, 63, 64, 65, 99, 100, 101, 128])
    def test_finite_rows_match_sequential_loop(self, d):
        # Long sums of finite terms, where an unrolled or pairwise sum would
        # round differently from the sequential one. The row blocks sum only
        # the upper triangle, yet the result also equals one plain einsum
        # over all d columns and its own transpose. At d=9 and d=17 the last
        # block takes in a one-row remainder.
        rng = np.random.default_rng(100 + d)
        for t in (1000, 1, 2):
            a = rng.standard_normal((t, d))
            w = rng.uniform(0.0, 0.25, t)
            plain, weighted = np.zeros((d, d)), np.zeros((d, d))
            for row, weight in zip(a, w):
                term = row[:, None] * row[None, :]
                plain += term
                weighted += term * weight
            for got, want, oracle in [
                (_ordered_outer_sum(a), plain, np.einsum("ti,tj->ij", a, a)),
                (_ordered_outer_sum(a, w), weighted, np.einsum("ti,tj,t->ij", a, a, w)),
            ]:
                assert _bits(got) == _bits(want) == _bits(oracle), t
                assert _bits(got) == _bits(got.T.copy()), t
