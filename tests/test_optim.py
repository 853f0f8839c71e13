"""Stream optimizers: pinned single-step examples, truncation invariants,
implicit fixed-point accuracy, cross-algorithm consistency checks, and the
lane kernel against the per-observation reference."""

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
    covariance_factor,
    loss_grad,
    make_theta_star,
    sample_dataset,
)
from streamci.infer import PluginAccumulator, _ordered_outer_sum, plugin_update
from streamci import optim
from streamci.optim import (
    ALGORITHM_NAMES,
    NOISE_BETA,
    NOISE_SIGMA,
    WARM_START_STEP,
    AlgorithmKind,
    PolynomialStep,
    _implicit_update,
    _truncate_rows,
    advance,
    gradient_truncate,
    init_state,
    run_lanes,
    step_size,
    warm_lanes,
)
from streamci.statutil import IllConditionedError, RngStream


def _linear_data(n, d, seed, cov=CovarianceKind.IDENTITY):
    spec = ModelSpec(ModelKind.LINEAR, d, cov)
    return spec, sample_dataset(spec, covariance_factor(spec), RngStream(seed, 0), n)


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

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_constant_validation(self, bad):
        with pytest.raises(ValueError):
            PolynomialStep(bad, 0.0)

    @pytest.mark.parametrize("c,gamma", [(0.0, 0.505), (1.0, -0.5), (1.0, 1.0), (1.0, 1.5)])
    def test_polynomial_validation(self, c, gamma):
        with pytest.raises(ValueError):
            PolynomialStep(c, gamma)


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
    def test_empty_stream_is_origin(self):
        out = warm_lanes(ModelKind.LINEAR, np.zeros((0, 4)), np.zeros(0), [range(0)])
        assert_array_equal(out[0], np.zeros(4))

    def test_three_step_recursion(self):
        # theta <- theta - 0.001 * (theta - 1) starting from 0.
        out = warm_lanes(ModelKind.LINEAR, np.ones((3, 1)), np.ones(3), [range(3)])
        assert_allclose(out[0], [0.002997001], atol=1e-9)
        assert WARM_START_STEP == 0.001

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("d", [5, 100])
    def test_uneven_lanes_match_reference(self, model_kind, d):
        # 13 lanes of uneven lengths, three of them empty, over strided rows
        # as the harness's buckets read them: each is init_state + advance
        # with the fixed warm-start step, bit for bit.
        n = 400
        rng = np.random.default_rng(30 + d)
        X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(n)
        else:
            y = (rng.uniform(size=n) < 0.5).astype(float)
        lengths = [0, 37, 0, 133, 5, 1, 66, 133, 13, 0, 90, 2, 41]
        rows = [range(lane % 3, n, 1 + lane % 3)[:length] for lane, length in enumerate(lengths)]
        out = warm_lanes(model_kind, X, y, rows)
        sched = PolynomialStep(WARM_START_STEP, 0.0)
        for lane_rows, got in zip(rows, out):
            state = init_state(AlgorithmKind.SGD, np.zeros(d))
            for i in lane_rows:
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
        G=st.integers(1, 8).flatmap(
            lambda d: hnp.arrays(
                np.float64,
                st.tuples(st.integers(1, 6), st.just(d)),
                elements=st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0]), st.floats(-100.0, 100.0)),
            )
        ),
        eps2=st.one_of(st.just(1.0), st.floats(0.01, 1.0)),
    )
    def test_rows_match_scalar_truncation(self, G, eps2):
        # The kernel's row-wise truncation and its row-wise squared norms are
        # the scalar routine's, bit for bit, ties and zero rows included.
        out = _truncate_rows(G, eps2)
        sq = G * G
        for row, got, total in zip(G, out, sq.sum(axis=1)):
            assert gradient_truncate(row, eps2)[1].tobytes() == got.tobytes()
            assert float((row * row).sum()) == total


class TestImplicitUpdate:
    def test_linear_closed_form(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            theta = rng.standard_normal(d)
            x = rng.standard_normal(d)
            y = float(rng.standard_normal())
            eta = float(rng.uniform(0.01, 2.0))
            got = _implicit_update(ModelKind.LINEAR, theta, x, y, eta)
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
        assert_array_equal(_implicit_update(ModelKind.LINEAR, theta, p.x, p.y, 0.3), theta)


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
        assert_array_equal(run.estimates(kind)[0], state.avg if kind.averaged else state.theta)


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
        kind = AlgorithmKind("asgd")
        run = run_lanes(kind, ModelKind.LINEAR, X, y, [range(40)], theta_star, [0.5], 0.505)
        assert_array_equal(run.estimates(kind)[0], theta_star)

    def test_asgd_converges_across_replications(self):
        spec = ModelSpec(ModelKind.LINEAR, 5, CovarianceKind.IDENTITY)
        chol = covariance_factor(spec)
        reps, n = 50, 10_000
        data = [sample_dataset(spec, chol, RngStream(29, rep), n) for rep in range(reps)]
        X = np.concatenate([dt.X for dt in data])
        y = np.concatenate([dt.y for dt in data])
        rows = [range(rep * n, (rep + 1) * n) for rep in range(reps)]
        kind = AlgorithmKind("asgd")
        run = run_lanes(kind, ModelKind.LINEAR, X, y, rows, np.zeros(5), [0.5] * reps, 0.505)
        close = np.sum(np.linalg.norm(run.estimates(kind) - spec.theta_star, axis=1) < 0.2)
        assert close >= 0.95 * reps


class _RowNoise:
    """Stands in for a noise stream: hands out the given rows in order."""

    def __init__(self, rows):
        self.rows = iter(rows)

    def standard_normal(self, size):
        return next(self.rows)


def _reference_lane(kind, model_kind, X, y, rows, theta0, sched, noise):
    """The lane's final state, the responses psi(x'theta) at each pre-update
    iterate, and the plug-in sums of plugin_update over the lane."""
    rng = _RowNoise(noise[list(rows)]) if noise is not None else None
    state = init_state(kind, theta0, rng=rng)
    acc = PluginAccumulator(X.shape[1])
    responses = []
    for i in rows:
        p = DataPoint(X[i], float(y[i]))
        responses.append(_mean_response(model_kind, float(X[i] @ state.theta)))
        plugin_update(acc, model_kind, state.theta, p)
        advance(state, sched, model_kind, p)
    return state, np.array(responses), acc


def _bits(a):
    return np.asarray(a).tobytes()


class TestRunLanes:
    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    @given(data=st.data())
    def test_matches_per_observation_reference(self, name, model_kind, data):
        """Every lane equals init_state + advance on its rows bit for bit, a
        recorded lane's responses equal psi(x'theta) at the reference's
        pre-update iterates, and a subset of the lanes run alone gives the
        same bits, so results do not depend on the lane count."""
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        # d=20 is the logistic sweep's dimension.
        d = data.draw(st.one_of(st.integers(1, 6), st.just(20)), label="d")
        n_lanes = data.draw(st.integers(1, 5), label="lanes")
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
        rows, c = [], []
        for _ in range(n_lanes):
            if rows and data.draw(st.booleans(), label="same rows as the previous lane"):
                rows.append(rows[-1])
            else:
                start = data.draw(st.integers(0, pool - 1), label="start")
                step = data.draw(st.integers(1, 6), label="step")
                length = data.draw(st.integers(0, len(range(start, pool, step))), label="length")
                rows.append(range(start, pool, step)[:length])
            c.append(data.draw(st.sampled_from([0.5, 0.1, 1.5, WARM_START_STEP]), label="c"))
        theta0 = rng.standard_normal((n_lanes, d))
        record = data.draw(st.lists(st.sampled_from(range(n_lanes)), unique=True), label="record")

        run = run_lanes(kind, model_kind, X, y, rows, theta0, c, gamma, noise=noise, record=record)
        for lane in range(n_lanes):
            state, responses, _ = _reference_lane(
                kind, model_kind, X, y, rows[lane], theta0[lane], PolynomialStep(c[lane], gamma), noise
            )
            assert _bits(run.theta[lane]) == _bits(state.theta)
            if kind.averaged:
                assert _bits(run.avg[lane]) == _bits(state.avg)
            if lane in record:
                p = record.index(lane)
                assert _bits(run.responses[p, : len(rows[lane])]) == _bits(responses)

        subset = data.draw(st.lists(st.sampled_from(range(n_lanes)), min_size=1, unique=True), label="subset")
        part = run_lanes(
            kind, model_kind, X, y, [rows[i] for i in subset], theta0[subset], [c[i] for i in subset], gamma,
            noise=noise, record=[k for k, i in enumerate(subset) if i in record],
        )
        assert _bits(part.theta) == _bits(run.theta[subset])
        if kind.averaged:
            assert _bits(part.avg) == _bits(run.avg[subset])
        else:
            # The kernel keeps no average where the last iterate is the estimate.
            assert run.avg is None and part.avg is None

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_plugin_sums_match_reference_at_d100(self, model_kind):
        # The property above draws d <= 6 or 20; the default grid runs the
        # plug-in at d=100. Two recorded lanes over different rows, named out
        # of rank order, next to a lane that is not recorded. The plug-in
        # sums taken from the recorded responses, as infer.plugin_interval
        # takes them, are plugin_update's.
        d, n = 100, 300
        rng = np.random.default_rng(11)
        X = rng.standard_normal((2 * n, d)) / np.sqrt(d)
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(2 * n)
        else:
            y = (rng.uniform(size=2 * n) < 0.5).astype(float)
        rows = [range(n), range(1, 2 * n, 2), range(0, 2 * n, 2)[:250]]
        theta0 = 0.1 * rng.standard_normal((3, d))
        sched = PolynomialStep(0.5)
        kind = AlgorithmKind("asgd")
        record = [2, 0]
        run = run_lanes(kind, model_kind, X, y, rows, theta0, [sched.c] * 3, sched.gamma, record=record)
        for p, lane in enumerate(record):
            state, responses, acc = _reference_lane(kind, model_kind, X, y, rows[lane], theta0[lane], sched, None)
            assert _bits(run.avg[lane]) == _bits(state.avg)
            m = run.responses[p, : len(rows[lane])]
            assert _bits(m) == _bits(responses)
            x, y_lane = X[list(rows[lane])], y[list(rows[lane])]
            weight = None if model_kind == ModelKind.LINEAR else m * (1.0 - m)
            assert _bits(_ordered_outer_sum(x, weight)) == _bits(acc.J_sum)
            assert _bits(_ordered_outer_sum((m - y_lane)[:, None] * x)) == _bits(acc.V_sum)

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_nan_lane_fails_implicit_bisection(self, model_kind):
        # The bisection never brackets a NaN fixed point; the kernel raises
        # as the reference does, whatever the other lanes do.
        X = np.array([[1.0, 0.5], [1.0, -1.0]])
        y = np.array([1.0, 0.0])
        theta0 = np.array([[0.0, 0.0], [np.nan, 0.0]])
        with pytest.raises(IllConditionedError):
            _implicit_update(model_kind, theta0[1], X[0], float(y[0]), 0.5)
        with pytest.raises(IllConditionedError):
            run_lanes(AlgorithmKind("implicit-last"), model_kind, X, y, [range(2)] * 2, theta0, [0.5] * 2, 0.505)

    def test_noise_required_only_by_noisy_truncated(self):
        X, y = np.ones((3, 2)), np.zeros(3)
        with pytest.raises(ValueError):
            run_lanes(AlgorithmKind("noisy-truncated"), ModelKind.LINEAR, X, y, [range(3)], np.zeros(2), [0.5], 0.505)
        with pytest.raises(ValueError):
            run_lanes(AlgorithmKind("sgd"), ModelKind.LINEAR, X, y, [range(3)], np.zeros(2), [0.5], 0.505,
                      noise=np.zeros((3, 2)))


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
                    got = optim._mean_responses(model_kind, X, theta)
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
            run = run_lanes(kind, model_kind, X, y, rows, theta0, [sched.c] * len(rows), sched.gamma)
            for lane_rows, start, got in zip(rows, theta0, run.theta):
                state = init_state(kind, start)
                for i in lane_rows:
                    advance(state, sched, model_kind, DataPoint(X[i], float(y[i])))
                assert got.tobytes() == state.theta.tobytes(), d


class TestOrderedOuterSum:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("step", [1, 3])
    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100])
    def test_matches_sequential_loop(self, d, step, weighted):
        """Bit for bit the per-step loop, also past a row whose products
        overflow, rows holding inf and NaN, and a row whose products are
        inf * 0: the non-finite entries sit at the same positions with the
        same signs. The NaN is the one the platform's arithmetic makes, the
        only kind a divergent lane produces."""
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

    @pytest.mark.parametrize("d", [1, 2, 5, 20, 100])
    def test_finite_rows_match_sequential_loop(self, d):
        # Long sums of finite terms, where an unrolled or pairwise sum would
        # round differently from the sequential one.
        rng = np.random.default_rng(100 + d)
        a = rng.standard_normal((1000, d))
        w = rng.uniform(0.0, 0.25, 1000)
        plain, weighted = np.zeros((d, d)), np.zeros((d, d))
        for t in range(len(a)):
            term = a[t][:, None] * a[t][None, :]
            plain += term
            weighted += term * w[t]
        assert _bits(_ordered_outer_sum(a)) == _bits(plain)
        assert _bits(_ordered_outer_sum(a, w)) == _bits(weighted)
