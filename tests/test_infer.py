"""Interval constructions: randomized batch counts, bucket intervals, the
streaming sandwich plug-in, and the offline Wald baseline with oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal
from scipy import optimize, stats

from streamci.infer import (
    IntervalSet,
    PluginAccumulator,
    hulc_batch_count,
    hulc_interval,
    plugin_interval,
    plugin_update,
    tstat_interval,
    wald_offline,
)
from streamci.model import (
    CovarianceKind,
    DataPoint,
    Dataset,
    ModelKind,
    ModelSpec,
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
    def test_accumulator_validation(self):
        with pytest.raises(ValueError):
            PluginAccumulator(0)
        acc = PluginAccumulator(2)
        assert acc.t == 0 and np.all(acc.J_sum == 0.0) and np.all(acc.V_sum == 0.0)

    def test_linear_updates(self):
        # Linear-model curvature is x x' regardless of theta; the gradient
        # outer product at residual 1 is also x x'.
        acc = PluginAccumulator(2)
        p = DataPoint(np.array([1.0, 2.0]), -1.0)
        plugin_update(acc, ModelKind.LINEAR, np.zeros(2), p)
        assert_array_equal(acc.J_sum, [[1.0, 2.0], [2.0, 4.0]])
        assert_array_equal(acc.V_sum, [[1.0, 2.0], [2.0, 4.0]])
        assert acc.t == 1
        other = PluginAccumulator(2)
        plugin_update(other, ModelKind.LINEAR, np.array([5.0, -3.0]), p)
        assert_array_equal(other.J_sum, acc.J_sum)

    def test_sums_stay_psd_along_run(self):
        spec = ModelSpec(ModelKind.LOGISTIC, 3, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(32, 0), 100)
        rng = np.random.default_rng(32)
        acc = PluginAccumulator(3)
        for p in data:
            plugin_update(acc, ModelKind.LOGISTIC, rng.standard_normal(3), p)
            assert np.linalg.eigvalsh(acc.J_sum).min() >= -1e-10
            assert np.linalg.eigvalsh(acc.V_sum).min() >= -1e-10

    @staticmethod
    def _interval(J, V, t, center):
        """plugin_interval on the sums of t observations with means J and V."""
        J_sum = np.asarray(J, dtype=float) * t
        V_sum = np.asarray(V, dtype=float) * t
        return plugin_interval(J_sum, V_sum, t, center, 0.05)

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
        acc = PluginAccumulator(1)
        with pytest.raises(ValueError):
            plugin_interval(acc.J_sum, acc.V_sum, acc.t, np.zeros(1), 0.05)


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
