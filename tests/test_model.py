"""Data-generating models: pinned constants, finite-difference oracles for
gradients/Hessians, and Monte-Carlo checks of the population quantities."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import streamci.model
from streamci.model import (
    CovarianceKind,
    DataPoint,
    Dataset,
    ModelKind,
    ModelSpec,
    _sigmoid_scalarwise,
    covariance_factor,
    covariance_matrix,
    loss_grad,
    loss_hessian,
    loss_value,
    make_theta_star,
    population_hessian,
    sample_dataset,
    sigmoid,
)
from streamci.statutil import RngStream


class TestThetaStar:
    def test_d5(self):
        assert_allclose(make_theta_star(5), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_d2_endpoints(self):
        assert_allclose(make_theta_star(2), [0.0, 1.0])

    def test_d3_midpoint(self):
        assert_allclose(make_theta_star(3), [0.0, 0.5, 1.0])

    def test_too_small(self):
        with pytest.raises(ValueError):
            make_theta_star(1)

    def test_modelspec_target(self):
        spec = ModelSpec(ModelKind.LINEAR, 4, CovarianceKind.IDENTITY)
        assert_allclose(spec.theta_star, make_theta_star(4))
        with pytest.raises(ValueError):
            ModelSpec(ModelKind.LINEAR, 1, CovarianceKind.IDENTITY)


class TestCovariance:
    def test_toeplitz_3(self):
        assert_allclose(
            covariance_matrix(CovarianceKind.TOEPLITZ, 3),
            [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]],
        )

    def test_equicorr_2(self):
        assert_allclose(
            covariance_matrix(CovarianceKind.EQUICORRELATION, 2), [[1.0, 0.2], [0.2, 1.0]]
        )

    def test_identity_1(self):
        assert_allclose(covariance_matrix(CovarianceKind.IDENTITY, 1), [[1.0]])

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            covariance_matrix(CovarianceKind.IDENTITY, 0)


class TestSampling:
    def test_deterministic_given_stream(self):
        spec = ModelSpec(ModelKind.LINEAR, 4, CovarianceKind.TOEPLITZ)
        chol = covariance_factor(spec)
        a = sample_dataset(spec, chol, RngStream(3, 1), 50)
        b = sample_dataset(spec, chol, RngStream(3, 1), 50)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_intercept_and_logistic_labels(self):
        spec = ModelSpec(ModelKind.LOGISTIC, 5, CovarianceKind.EQUICORRELATION)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(5, 0), 200)
        assert np.all(data.X[:, 0] == 1.0)
        assert set(np.unique(data.y)) <= {0.0, 1.0}

    def test_logistic_balanced_at_zero_target(self, monkeypatch):
        # theta_star = 0 makes sigma(x'theta) = 1/2 for every x.
        monkeypatch.setattr(streamci.model, "make_theta_star", np.zeros)
        spec = ModelSpec(ModelKind.LOGISTIC, 3, CovarianceKind.IDENTITY)
        assert_allclose(spec.theta_star, np.zeros(3))
        data = sample_dataset(spec, covariance_factor(spec), RngStream(6, 0), 10**5)
        assert data.y.mean() == pytest.approx(0.5, abs=0.01)

    def test_linear_response_variance(self):
        # Var(y) = 1 + ||theta_star[1:]||^2 = 2.875 for d=5 under identity.
        spec = ModelSpec(ModelKind.LINEAR, 5, CovarianceKind.IDENTITY)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(7, 0), 10**5)
        assert data.y.var() == pytest.approx(2.875, rel=0.03)

    def test_dataset_slicing_views(self):
        X = np.arange(12.0).reshape(6, 2)
        X[:, 0] = 1.0
        data = Dataset(X, np.arange(6.0))
        assert len(list(iter(data))) == 6

    def test_dataset_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((3, 2)), np.ones(4))


class TestSigmoid:
    def test_extremes_do_not_overflow(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)

    def test_array_matches_scalar(self):
        u = np.linspace(-30, 30, 13)
        assert_allclose(sigmoid(u), [sigmoid(float(v)) for v in u], rtol=1e-15)

    def test_symmetry(self):
        assert sigmoid(1.7) + sigmoid(-1.7) == pytest.approx(1.0, abs=1e-15)

    def test_array_is_bitwise_the_branch_per_entry(self):
        # The array form takes exp(-|u|) for both branches; it must equal
        # 1 / (1 + exp(-u)) where u >= 0 and exp(u) / (1 + exp(u)) elsewhere,
        # each exp taken by numpy over the entries of its branch, bit for bit,
        # also at signed zeros, the overflow edge, inf and the largest floats.
        # A NaN stays NaN; only its sign bit may differ.
        rng = np.random.default_rng(8)
        edges = [0.0, -0.0, 745.0, -745.0, 709.8, -709.8, 1e308, -1e308, np.inf, -np.inf, 5e-324, -5e-324]
        for u in [np.array(edges), *(rng.standard_normal(500) * 10.0 ** k for k in range(-3, 4))]:
            pos = u >= 0.0
            want = np.empty_like(u)
            want[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
            e = np.exp(u[~pos])
            want[~pos] = e / (1.0 + e)
            assert sigmoid(u).tobytes() == want.tobytes()
        assert np.isnan(sigmoid(np.array([np.nan, -np.nan]))).all()

    def test_scalarwise_array_is_bitwise_scalar(self):
        # The lane kernel's sigmoid must equal the scalar one bit for bit,
        # also where divergent runs push it: signed zeros, overflow, inf, NaN.
        u = np.concatenate([
            [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan],
            np.random.default_rng(3).standard_normal(2000) * 20.0,
        ])
        want = np.array([sigmoid(float(v)) for v in u])
        _sigmoid_scalarwise(u)
        assert u.tobytes() == want.tobytes()


def _random_triples(kind, n, seed):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        d = int(rng.integers(2, 6))
        theta = rng.standard_normal(d)
        x = np.concatenate([[1.0], rng.standard_normal(d - 1)])
        y = float(rng.standard_normal()) if kind == ModelKind.LINEAR else float(rng.integers(2))
        yield theta, DataPoint(x, y)


class TestLossDerivatives:
    def test_zero_residual_gradient(self):
        theta = np.array([1.0, 2.0])
        x = np.array([1.0, 3.0])
        p = DataPoint(x, float(x @ theta))
        assert_allclose(loss_grad(ModelKind.LINEAR, theta, p), np.zeros(2))

    def test_logistic_pinned_gradient(self):
        p = DataPoint(np.array([1.0, 2.0]), 1.0)
        assert_allclose(loss_grad(ModelKind.LOGISTIC, np.zeros(2), p), [-0.5, -1.0])

    def test_linear_hessian_outer(self):
        p = DataPoint(np.array([1.0, 2.0]), 0.3)
        assert_allclose(loss_hessian(ModelKind.LINEAR, np.zeros(2), p), [[1.0, 2.0], [2.0, 4.0]])

    def test_logistic_hessian_at_zero(self):
        p = DataPoint(np.array([1.0, 0.0]), 1.0)
        assert_allclose(
            loss_hessian(ModelKind.LOGISTIC, np.zeros(2), p), [[0.25, 0.0], [0.0, 0.0]]
        )

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_gradient_finite_difference(self, kind):
        h = 1e-6
        for theta, p in _random_triples(kind, 100, seed=11):
            grad = loss_grad(kind, theta, p)
            for i in range(len(theta)):
                e = np.zeros_like(theta)
                e[i] = h
                fd = (loss_value(kind, theta + e, p) - loss_value(kind, theta - e, p)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

    @pytest.mark.parametrize("kind", [ModelKind.LINEAR, ModelKind.LOGISTIC])
    def test_hessian_finite_difference(self, kind):
        h = 1e-6
        for theta, p in _random_triples(kind, 25, seed=12):
            hess = loss_hessian(kind, theta, p)
            for i in range(len(theta)):
                e = np.zeros_like(theta)
                e[i] = h
                fd = (loss_grad(kind, theta + e, p) - loss_grad(kind, theta - e, p)) / (2 * h)
                assert np.max(np.abs(fd - hess[i])) <= 1e-5 * max(1.0, np.max(np.abs(hess)))

    def test_logistic_gradient_norm_bound(self):
        # |sigma - y| <= 1, so the gradient can never exceed ||x||.
        for theta, p in _random_triples(ModelKind.LOGISTIC, 100, seed=13):
            g = loss_grad(ModelKind.LOGISTIC, 10.0 * theta, p)
            assert np.linalg.norm(g) <= np.linalg.norm(p.x) + 1e-12


class TestPopulationHessian:
    def test_identity_d2(self):
        spec = ModelSpec(ModelKind.LINEAR, 2, CovarianceKind.IDENTITY)
        assert_allclose(population_hessian(spec), np.eye(2))

    def test_toeplitz_d3(self):
        spec = ModelSpec(ModelKind.LINEAR, 3, CovarianceKind.TOEPLITZ)
        assert_allclose(
            population_hessian(spec), [[1.0, 0.0, 0.0], [0. , 1.0, 0.5], [0.0, 0.5, 1.0]]
        )

    def test_logistic_unsupported(self):
        with pytest.raises(ValueError):
            population_hessian(ModelSpec(ModelKind.LOGISTIC, 3, CovarianceKind.IDENTITY))

    def test_monte_carlo_agreement(self):
        spec = ModelSpec(ModelKind.LINEAR, 4, CovarianceKind.TOEPLITZ)
        data = sample_dataset(spec, covariance_factor(spec), RngStream(8, 0), 10**5)
        empirical = data.X.T @ data.X / len(data)
        assert_allclose(empirical, population_hessian(spec), atol=0.02)
