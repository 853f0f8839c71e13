"""Data-generating models: linear and logistic regression streams.

Covariates are x = (1, Z) with Z drawn from a (d-1)-dimensional Gaussian
under one of three covariance families; responses follow the linear or
logistic single-index model at the population parameter theta_star.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .statutil import RngStream, matmul, spd_factorize

__all__ = [
    "CovarianceKind",
    "DataPoint",
    "Dataset",
    "EQUICORR_RHO",
    "ModelKind",
    "ModelSpec",
    "TOEPLITZ_RHO",
    "covariance_matrix",
    "loss_grad",
    "loss_hessian",
    "loss_value",
    "make_theta_star",
    "population_hessian",
    "sample_dataset",
    "sigmoid",
]

TOEPLITZ_RHO = 0.5
EQUICORR_RHO = 0.2


class ModelKind(str, Enum):
    LINEAR = "linear"
    LOGISTIC = "logistic"


class CovarianceKind(str, Enum):
    IDENTITY = "identity"
    TOEPLITZ = "toeplitz"
    EQUICORRELATION = "equicorr"


@dataclass(slots=True)
class DataPoint:
    """One observation; x[0] is always the intercept 1."""

    x: np.ndarray
    y: float


class Dataset:
    """Ordered stream of observations backed by dense arrays X (T, d) and
    y (T,); iterating yields one DataPoint view per observation."""

    __slots__ = ("X", "y")

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError(f"incompatible shapes {X.shape} and {y.shape}")
        self.X = X
        self.y = y

    def __len__(self) -> int:
        return self.X.shape[0]

    def __iter__(self):
        for i in range(len(self)):
            yield DataPoint(self.X[i], float(self.y[i]))


@dataclass(frozen=True)
class ModelSpec:
    """Population description of one experiment's data stream; its target
    theta_star is make_theta_star(d)."""

    kind: ModelKind
    d: int
    cov: CovarianceKind
    theta_star: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_star", make_theta_star(self.d))


def make_theta_star(d: int) -> np.ndarray:
    """Equally spaced targets from 0 to 1: coordinate k is k/(d-1)."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return np.linspace(0.0, 1.0, d)


def covariance_matrix(cov: CovarianceKind, dim: int) -> np.ndarray:
    """Covariance of the non-intercept covariate block Z, shape (dim, dim)."""
    if dim < 1:
        raise ValueError(f"dim must be at least 1, got {dim}")
    if cov == CovarianceKind.IDENTITY:
        return np.eye(dim)
    if cov == CovarianceKind.TOEPLITZ:
        idx = np.arange(dim)
        return TOEPLITZ_RHO ** np.abs(idx[:, None] - idx[None, :])
    if cov == CovarianceKind.EQUICORRELATION:
        return np.full((dim, dim), EQUICORR_RHO) + (1.0 - EQUICORR_RHO) * np.eye(dim)
    raise ValueError(f"unsupported covariance kind: {cov!r}")


def sigmoid(u):
    """Numerically stable logistic function, scalar or array."""
    if np.isscalar(u):
        if u >= 0.0:
            return 1.0 / (1.0 + math.exp(-u))
        e = math.exp(u)
        return e / (1.0 + e)
    # Both branches at once: e is exp(-u) where u >= 0 and exp(u) elsewhere.
    u = np.asarray(u, dtype=float)
    e = np.exp(-np.abs(u))
    return np.where(u >= 0.0, 1.0, e) / (1.0 + e)


def _sigmoid_scalarwise(u: np.ndarray) -> None:
    """sigmoid of each entry of u, in place, bit for bit the scalar branch of
    sigmoid: each entry takes its >= 0 split and math.exp on Python floats
    (numpy's exp rounds differently)."""
    exp = math.exp
    u[:] = [1.0 / (1.0 + exp(-v)) if v >= 0.0 else (e := exp(v)) / (1.0 + e) for v in u.tolist()]


def sample_dataset(spec: ModelSpec, chol_factor: np.ndarray, rng: RngStream, n: int) -> Dataset:
    """Draw n observations as one block.

    Consumes the stream as a block: n*(d-1) normals for Z, then n response
    draws (one per observation: a normal noise term for the linear model, a
    uniform threshold for the logistic model).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    d = spec.d
    z = matmul(np.asarray(rng.standard_normal((n, d - 1)), dtype=float), np.asarray(chol_factor).T)
    X = np.concatenate([np.ones((n, 1)), z], axis=1)
    index = matmul(X, spec.theta_star)
    if spec.kind == ModelKind.LINEAR:
        y = index + rng.standard_normal(n)
    elif spec.kind == ModelKind.LOGISTIC:
        y = (rng.uniform(n) < sigmoid(index)).astype(float)
    else:
        raise ValueError(f"unsupported model kind: {spec.kind!r}")
    return Dataset(X, y)


def _mean_response(kind: ModelKind, u: float) -> float:
    """psi(u): the conditional mean of y given x'theta = u."""
    if kind == ModelKind.LINEAR:
        return u
    if kind == ModelKind.LOGISTIC:
        return sigmoid(u)
    raise ValueError(f"unsupported model kind: {kind!r}")


def loss_value(kind: ModelKind, theta: np.ndarray, p: DataPoint) -> float:
    """Per-observation loss: squared error / 2 or the logistic log loss."""
    u = float(p.x @ theta)
    if kind == ModelKind.LINEAR:
        return 0.5 * (u - p.y) ** 2
    if kind == ModelKind.LOGISTIC:
        # log(1 + e^u) - y*u, evaluated without overflow for large |u|
        return float(np.logaddexp(0.0, u)) - p.y * u
    raise ValueError(f"unsupported model kind: {kind!r}")


def loss_grad(kind: ModelKind, theta: np.ndarray, p: DataPoint) -> np.ndarray:
    """Per-observation gradient (psi(x'theta) - y) x."""
    return (_mean_response(kind, float(p.x @ np.asarray(theta, dtype=float))) - p.y) * p.x


def loss_hessian(kind: ModelKind, theta: np.ndarray, p: DataPoint) -> np.ndarray:
    """Per-observation Hessian: x x' (linear) or sigma(1-sigma) x x' (logistic)."""
    x = p.x
    if kind == ModelKind.LINEAR:
        return np.outer(x, x)
    if kind == ModelKind.LOGISTIC:
        s = sigmoid(float(x @ theta))
        return s * (1.0 - s) * np.outer(x, x)
    raise ValueError(f"unsupported model kind: {kind!r}")


def population_hessian(spec: ModelSpec) -> np.ndarray:
    """E[x x'] for the linear model: block diagonal of 1 and cov(Z).

    Defined for the linear model only; Z has mean zero, so the intercept
    cross terms vanish. The logistic population Hessian depends on theta
    through sigma(1-sigma) weights and has no such closed form here.
    """
    if spec.kind != ModelKind.LINEAR:
        raise ValueError("population_hessian is defined for the linear model only")
    out = np.zeros((spec.d, spec.d))
    out[0, 0] = 1.0
    out[1:, 1:] = covariance_matrix(spec.cov, spec.d - 1)
    return out


def covariance_factor(spec: ModelSpec) -> np.ndarray:
    """Lower Cholesky factor of cov(Z) for the spec's covariance family."""
    return spd_factorize(covariance_matrix(spec.cov, spec.d - 1))
