"""Interval constructions: randomized batch counts, bucket intervals, the
streaming sandwich plug-in, and the offline Wald baseline with oracles."""

import math
import os
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy import optimize, stats

import streamci.infer as infer
from plugin_oracle import plugin_sums
from streamci.harness import _blas_threads
from streamci.infer import (
    IntervalSet,
    _ordered_outer_sum,
    _sandwich_diagonal,
    _sandwich_interval,
    hulc_batch_count,
    hulc_interval,
    plugin_interval,
    sandwich_inverse,
    tstat_interval,
    wald_offline,
)
from streamci.model import (
    CovarianceKind,
    Dataset,
    ModelKind,
    ModelSpec,
    _mean_response,
    covariance_factor,
    make_theta_star,
    sample_dataset,
    sigmoid,
)
from streamci.statutil import IllConditionedError, RngStream


class TestIntervalSet:
    def test_coverage_is_inclusive_at_endpoints(self):
        s = IntervalSet([0.0, 0.0], [1.0, 1.0], [0.5, 0.5])
        assert_array_equal(s.covers([0.0, 1.0]), [True, True])
        assert_array_equal(s.covers([-1e-12, 1.0 + 1e-12]), [False, False])

    def test_width(self):
        s = IntervalSet([0.0, -1.0], [2.0, 3.0], [1.0, 1.0])
        assert_array_equal(s.width, [2.0, 4.0])

    def test_crossed_endpoints_raise(self):
        with pytest.raises(ValueError):
            IntervalSet([1.0], [0.0], [0.5])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            IntervalSet([0.0, 1.0], [1.0], [0.5])


class TestBatchCount:
    def test_randomizes_between_five_and_six(self):
        assert hulc_batch_count(0.05, 0.7) == 6
        assert hulc_batch_count(0.05, 0.5) == 5

    def test_boundary_goes_low(self):
        assert hulc_batch_count(0.05, 0.6) == 5
        assert hulc_batch_count(0.05, 0.6 + 1e-9) == 6

    def test_integer_case_is_deterministic(self):
        # alpha = 0.5 gives log2(2/alpha) = 2 exactly.
        assert {hulc_batch_count(0.5, u) for u in (0.0, 0.3, 0.99, 1.0)} == {2}

    @pytest.mark.parametrize("alpha,u", [(0.0, 0.5), (1.2, 0.5), (0.05, -0.1), (0.05, 1.1)])
    def test_domain_validation(self, alpha, u):
        with pytest.raises(ValueError):
            hulc_batch_count(alpha, u)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.32])
    def test_expected_miss_rate_is_alpha_exactly(self, alpha):
        x = math.log2(2.0 / alpha)
        b_lo, b_hi = math.floor(x), math.ceil(x)
        if b_lo == b_hi:
            expected = 2.0 ** (1 - b_lo)
        else:
            threshold = 2.0**b_hi * (alpha / 2.0) - 1.0
            assert 0.0 < threshold < 1.0
            # The function takes b_hi exactly when u > threshold.
            assert hulc_batch_count(alpha, threshold) == b_lo
            assert hulc_batch_count(alpha, min(1.0, threshold + 1e-12)) == b_hi
            expected = threshold * 2.0 ** (1 - b_lo) + (1.0 - threshold) * 2.0 ** (1 - b_hi)
        assert expected == pytest.approx(alpha, abs=1e-12)

    def test_monte_carlo_expectation(self):
        rng = np.random.default_rng(31)
        vals = [2.0 ** (1 - hulc_batch_count(0.05, float(u))) for u in rng.uniform(size=100_000)]
        assert np.mean(vals) == pytest.approx(0.05, abs=0.001)


class TestBucketIntervals:
    def test_hulc_envelope(self):
        s = hulc_interval(np.array([[0.9], [1.1], [1.0]]))
        assert_allclose([s.lo[0], s.hi[0], s.center[0]], [0.9, 1.1, 1.0])

    def test_hulc_degenerate_single_bucket(self):
        s = hulc_interval(np.array([[2.0, -1.0]]))
        assert_array_equal(s.lo, s.hi)

    def test_tstat_pinned(self):
        s = tstat_interval(np.array([[1.0], [2.0], [3.0], [4.0], [5.0]]), 0.05)
        assert_allclose([s.lo[0], s.hi[0]], [1.036757, 4.963243], atol=1e-6)
        assert s.center[0] == 3.0

    def test_tstat_equal_estimates_collapse(self):
        s = tstat_interval(np.array([[1.5], [1.5], [1.5]]), 0.05)
        assert s.lo[0] == s.hi[0] == 1.5

    def test_tstat_symmetric_about_mean(self):
        s = tstat_interval(np.array([[0.0, 1.0], [1.0, 3.0], [2.0, 8.0]]), 0.1)
        assert_allclose(s.hi - s.center, s.center - s.lo, rtol=1e-12)

    def test_tstat_needs_two_buckets(self):
        with pytest.raises(ValueError):
            tstat_interval(np.array([[1.0]]), 0.05)

    @given(
        est=hnp.arrays(
            np.float64,
            st.tuples(st.integers(2, 6), st.integers(1, 3)),
            elements=st.floats(-50.0, 50.0),
        ),
        a=st.floats(0.1, 10.0),
        b=st.floats(-5.0, 5.0),
        make=st.sampled_from([hulc_interval, lambda est: tstat_interval(est, 0.05)]),
    )
    def test_affine_equivariance(self, est, a, b, make):
        base = make(est)
        moved = make(a * est + b)
        assert_allclose(moved.lo, a * base.lo + b, rtol=1e-9, atol=1e-9)
        assert_allclose(moved.hi, a * base.hi + b, rtol=1e-9, atol=1e-9)

    @given(
        est=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 3)),
            elements=st.floats(-50.0, 50.0),
        )
    )
    def test_hulc_contains_bucket_mean(self, est):
        s = hulc_interval(est)
        # The exact mean, rounded once: est.mean rounds the sum and the
        # quotient, so the mean of six equal 1.1s comes out below 1.1.
        mean = [float(sum(map(Fraction, col)) / len(col)) for col in est.T]
        assert np.all(s.covers(mean))


class TestPlugin:
    def test_linear_updates(self):
        # Linear-model curvature is x x' whatever the iterate, and so is the
        # gradient outer product at residual -1 or 1. Two passes at other
        # iterates with those residuals share J = V = X'X / t, and both
        # intervals are center +/- z * sqrt(diag((X'X)^-1)); here X'X is
        # [[2, 1], [1, 5]], with inverse [[5, -1], [-1, 2]] / 9.
        X = np.array([[1.0, 2.0], [1.0, -1.0]])
        y = np.array([1.0, -1.0])
        mu = np.array([[0.0, 0.0], [2.0, -2.0]])
        got = plugin_interval(ModelKind.LINEAR, X, y, mu, np.zeros((2, 2)), 0.05)
        half = 1.959963984540054 * np.sqrt([5.0 / 9.0, 2.0 / 9.0])
        for iv in got:
            assert_allclose(iv.hi, half, rtol=1e-12)
            assert_allclose(iv.lo, -half, rtol=1e-12)

    def test_sums_stay_psd_along_run(self):
        # The sums plugin_interval forms, over a logistic sample with a
        # random pre-update iterate per step, are PSD after every step.
        spec = ModelSpec(ModelKind.LOGISTIC, 3, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(32, 0), 100)
        thetas = np.random.default_rng(32).standard_normal((100, 3))
        mu = sigmoid(np.einsum("ti,ti->t", data.X, thetas))
        for t in range(1, 101):
            J_sum = _ordered_outer_sum(data.X[:t], mu[:t] * (1.0 - mu[:t]))
            V_sum = _ordered_outer_sum((mu[:t] - data.y[:t])[:, None] * data.X[:t])
            assert np.linalg.eigvalsh(J_sum).min() >= -1e-10
            assert np.linalg.eigvalsh(V_sum).min() >= -1e-10

    @staticmethod
    def _interval(J, V, t, center):
        """The sandwich interval of t observations with means J and V."""
        J, V = np.asarray(J, dtype=float), np.asarray(V, dtype=float)
        return _sandwich_interval(_sandwich_diagonal(sandwich_inverse(J), V), t, center, 0.05)

    def test_pinned_half_width(self):
        # z * sqrt(J^-1 V J^-1 / t) = 1.959964 * sqrt(0.5 * 4 * 0.5 / 100).
        s = self._interval([[2.0]], [[4.0]], 100, np.array([0.0]))
        assert s.hi[0] == pytest.approx(0.1959964, abs=1e-7)
        assert s.lo[0] == pytest.approx(-0.1959964, abs=1e-7)

    def test_zero_variance_collapses(self):
        s = self._interval([[2.0]], [[0.0]], 50, np.array([1.0]))
        assert s.lo[0] == s.hi[0] == 1.0

    def test_quadruple_sample_halves_width(self):
        a = self._interval([[2.0]], [[4.0]], 100, np.zeros(1))
        b = self._interval([[2.0]], [[4.0]], 400, np.zeros(1))
        assert b.width[0] == pytest.approx(0.5 * a.width[0], rel=1e-9)

    def test_singular_curvature_raises(self):
        with pytest.raises(IllConditionedError):
            self._interval([[1.0, 1.0], [1.0, 1.0]], np.eye(2), 10, np.zeros(2))

    def test_empty_accumulator_raises(self):
        with pytest.raises(ValueError):
            plugin_interval(ModelKind.LINEAR, np.empty((0, 2)), np.empty(0), np.empty((1, 0)), np.zeros((1, 2)), 0.05)


class TestPluginInterval:
    @staticmethod
    def _passes(model_kind, X, y, n_passes, seed):
        """Per pass, the responses psi(x'theta) along a random walk of
        pre-update iterates, and the oracle's plug-in sums over that walk."""
        t, d = X.shape
        rng = np.random.default_rng(seed)
        mu, sums = np.empty((n_passes, t)), []
        for p in range(n_passes):
            theta, thetas = 0.3 * rng.standard_normal(d), []
            for s in range(t):
                thetas.append(theta)
                mu[p, s] = _mean_response(model_kind, float(X[s] @ theta))
                theta = theta + 0.01 * rng.standard_normal(d)
            sums.append(plugin_sums(model_kind, thetas, X, y))
        return mu, sums

    @staticmethod
    def _oracle_interval(J_sum, V_sum, t, center):
        """The interval of t observations whose sums are J_sum and V_sum."""
        return _sandwich_interval(_sandwich_diagonal(sandwich_inverse(J_sum / t), V_sum / t), t, center, 0.05)

    @pytest.mark.parametrize("d", [2, 5, 100])
    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_matches_accumulator_intervals(self, model_kind, d):
        """Three passes over the same rows: each pass's interval is the one
        the oracle's sums give, bit for bit."""
        t = 300
        rng = np.random.default_rng(d)
        X = rng.standard_normal((t, d)) / math.sqrt(d)
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(t)
        else:
            y = (rng.uniform(size=t) < 0.5).astype(float)
        mu, sums = self._passes(model_kind, X, y, 3, d)
        centers = rng.standard_normal((3, d))
        got = plugin_interval(model_kind, X, y, mu, centers, 0.05)
        assert len(got) == 3
        for iv, (J_sum, V_sum), center in zip(got, sums, centers):
            want = self._oracle_interval(J_sum, V_sum, t, center)
            assert iv.lo.tobytes() == want.lo.tobytes()
            assert iv.hi.tobytes() == want.hi.tobytes()

    @pytest.mark.parametrize(("model_kind", "d", "n_passes"), [(ModelKind.LINEAR, 100, 5), (ModelKind.LOGISTIC, 20, 4)])
    def test_threaded_sums_are_bit_for_bit(self, monkeypatch, two_blas_threads, model_kind, d, n_passes):
        """At two BLAS threads the passes' sums are split over two threads,
        and every interval is, as bytes, the one-thread call's and the one
        the oracle's sums give. Pass 1 diverged. The linear one grows past
        the largest float to inf, so its weighted rows overflow in a thread;
        it keeps the shared J and gets NaN bounds. The logistic one has NaN
        responses, a non-finite J and no interval. Under the suite's
        filterwarnings = error, a RuntimeWarning in either thread would fail
        the call."""
        if two_blas_threads is None:
            pytest.skip("no OpenBLAS thread setter found")
        t = 300
        rng = np.random.default_rng(d)
        X = rng.standard_normal((t, d))
        if model_kind == ModelKind.LINEAR:
            y = X @ np.linspace(0.0, 1.0, d) + rng.standard_normal(t)
        else:
            y = (rng.uniform(size=t) < 0.5).astype(float)
        mu, sums = self._passes(model_kind, X, y, n_passes, d)
        if model_kind == ModelKind.LINEAR:
            mu[1, t // 3 - 5 : t // 3], mu[1, t // 3 :] = 1e308, np.inf
        else:
            mu[1] = np.nan
        centers = rng.standard_normal((n_passes, d))
        threads = set()
        ordered_outer_sum = infer._ordered_outer_sum

        def recording(*args, **kwargs):
            threads.add(threading.get_ident())
            return ordered_outer_sum(*args, **kwargs)

        monkeypatch.setattr(infer, "_ordered_outer_sum", recording)
        got = plugin_interval(model_kind, X, y, mu, centers, 0.05)
        assert len(threads) == 2
        threads.clear()
        with _blas_threads(1):
            one = plugin_interval(model_kind, X, y, mu, centers, 0.05)
        assert threads == {threading.get_ident()}
        fields = ("lo", "hi", "center")
        for p, (iv, iv_one, (J_sum, V_sum), center) in enumerate(zip(got, one, sums, centers)):
            if p == 1 and model_kind == ModelKind.LOGISTIC:
                assert iv is None and iv_one is None
            elif p == 1:
                assert np.isnan(iv.lo).all() and np.isnan(iv.hi).all()
                assert [getattr(iv, f).tobytes() for f in fields] == [getattr(iv_one, f).tobytes() for f in fields]
                assert iv.center.tobytes() == center.tobytes()
            else:
                want = self._oracle_interval(J_sum, V_sum, t, center)
                for f in fields:
                    assert getattr(iv, f).tobytes() == getattr(iv_one, f).tobytes() == getattr(want, f).tobytes()

    def test_more_threads_than_cpus_give_the_same_bytes(self, two_blas_threads):
        # Each thread weights its passes' rows in its own buffer: at four
        # BLAS threads, with the interpreter switching threads every
        # microsecond, seven passes come out as on one thread, call after call.
        if two_blas_threads is None:
            pytest.skip("no OpenBLAS thread setter found")
        rng = np.random.default_rng(6)
        X, y, mu = rng.standard_normal((1000, 50)), rng.standard_normal(1000), rng.standard_normal((7, 1000))
        centers = rng.standard_normal((7, 50))
        with _blas_threads(1):
            want = plugin_interval(ModelKind.LINEAR, X, y, mu, centers, 0.05)
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            with _blas_threads(4):
                got = [plugin_interval(ModelKind.LINEAR, X, y, mu, centers, 0.05) for _ in range(10)]
        finally:
            sys.setswitchinterval(interval)
        for call in got:
            assert [iv.hi.tobytes() for iv in call] == [iv.hi.tobytes() for iv in want]

    def test_threads_end_with_the_call(self, monkeypatch, two_blas_threads):
        # The threads that form the sums are joined before plugin_interval
        # returns: the process runs as many threads as before the call.
        if not sys.platform.startswith("linux") or two_blas_threads is None:
            pytest.skip("needs Linux and OpenBLAS's thread setter")
        X = np.random.default_rng(4).standard_normal((200, 20))
        mu = np.random.default_rng(5).standard_normal((3, 200))
        during = []
        ordered_outer_sum = infer._ordered_outer_sum

        def counting(*args, **kwargs):
            during.append(len(os.listdir("/proc/self/task")))
            return ordered_outer_sum(*args, **kwargs)

        monkeypatch.setattr(infer, "_ordered_outer_sum", counting)
        before = len(os.listdir("/proc/self/task"))
        plugin_interval(ModelKind.LINEAR, X, np.zeros(200), mu, np.zeros((3, 20)), 0.05)
        assert max(during) == before + 1
        # A joined thread's last step, its exit from the kernel, may trail
        # the join by a moment.
        deadline = time.monotonic() + 1.0
        while len(os.listdir("/proc/self/task")) > before and time.monotonic() < deadline:
            time.sleep(0.001)
        assert len(os.listdir("/proc/self/task")) == before

    @pytest.mark.parametrize("model_kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_singular_curvature_is_unavailable(self, model_kind):
        # A coordinate that is zero on every row leaves J singular.
        X = np.random.default_rng(3).standard_normal((50, 3))
        X[:, 2] = 0.0
        y = (X[:, 0] > 0.0).astype(float)
        mu, _ = self._passes(model_kind, X, y, 2, 3)
        assert plugin_interval(model_kind, X, y, mu, np.zeros((2, 3)), 0.05) == [None, None]


class TestWaldOffline:
    def test_two_point_pinned(self):
        # theta = 2, J = 1, V = 1, half = 1.959964 * sqrt(1/2) = 1.385904.
        data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]))
        s = wald_offline(ModelKind.LINEAR, data, 0.05)
        assert s.center[0] == pytest.approx(2.0, abs=1e-12)
        assert_allclose([s.lo[0], s.hi[0]], [0.614097, 3.385903], atol=1e-6)

    def test_linear_matches_batch_oracle(self):
        rng = np.random.default_rng(33)
        n, d = 20, 3
        X = np.column_stack([np.ones(n), rng.standard_normal((n, d - 1))])
        y = rng.standard_normal(n)
        s = wald_offline(ModelKind.LINEAR, Dataset(X, y), 0.05)
        theta, *_ = np.linalg.lstsq(X, y, rcond=None)
        J = X.T @ X / n
        r = X @ theta - y
        V = (X * r[:, None]).T @ (X * r[:, None]) / n
        cov = np.linalg.inv(J) @ V @ np.linalg.inv(J)
        half = stats.norm.ppf(0.975) * np.sqrt(np.diag(cov) / n)
        assert_allclose(s.center, theta, rtol=1e-10, atol=1e-12)
        assert_allclose(s.hi - s.center, half, rtol=1e-8)

    def test_noiseless_data_collapses_to_target(self):
        theta_star = make_theta_star(3)
        rng = np.random.default_rng(35)
        X = np.column_stack([np.ones(30), rng.standard_normal((30, 2))])
        y = X @ theta_star
        s = wald_offline(ModelKind.LINEAR, Dataset(X, y), 0.05)
        assert np.max(s.width) <= 1e-8
        assert np.max(np.abs(s.center - theta_star)) <= 1e-8

    def test_logistic_matches_scipy_mle(self):
        spec = ModelSpec(ModelKind.LOGISTIC, 3, CovarianceKind.IDENTITY)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(36, 0), 500)
        s = wald_offline(ModelKind.LOGISTIC, data, 0.05)

        def nll(theta):
            a = data.X @ theta
            return float(np.mean(np.logaddexp(0.0, a) - data.y * a))

        def grad(theta):
            return data.X.T @ (sigmoid(data.X @ theta) - data.y) / len(data)

        res = optimize.minimize(nll, np.zeros(3), jac=grad, method="BFGS",
                                options={"gtol": 1e-12})
        assert_allclose(s.center, res.x, atol=1e-6)

    def test_logistic_separation_raises(self):
        X = np.array([[1.0, 1.0], [1.0, 2.0], [1.0, -1.0], [1.0, -2.0]])
        y = np.array([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(IllConditionedError):
            wald_offline(ModelKind.LOGISTIC, Dataset(X, y), 0.05)

    def test_empty_data_raises(self):
        with pytest.raises(ValueError):
            wald_offline(ModelKind.LINEAR, Dataset(np.zeros((0, 1)), np.zeros(0)), 0.05)

    def test_no_blas_helper_outlives_a_product(self, monkeypatch, two_blas_threads):
        # At two BLAS threads the Newton fit's products at d=20, T=10^4 wake
        # OpenBLAS's helper thread. Each product joins it before returning,
        # so at every sigmoid, between the products, the process runs as
        # many threads as right after a join.
        if not sys.platform.startswith("linux") or two_blas_threads is None or two_blas_threads.shutdown is None:
            pytest.skip("needs Linux and OpenBLAS's thread setter and blas_thread_shutdown_")
        spec = ModelSpec(ModelKind.LOGISTIC, 20, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(37, 0), 10**4)
        counts = []

        def counting_sigmoid(u):
            counts.append(len(os.listdir("/proc/self/task")))
            return sigmoid(u)

        monkeypatch.setattr(infer, "sigmoid", counting_sigmoid)
        two_blas_threads.shutdown()
        joined = len(os.listdir("/proc/self/task"))
        wald_offline(ModelKind.LOGISTIC, data, 0.05)
        assert len(counts) > 1
        assert counts == [joined] * len(counts)
