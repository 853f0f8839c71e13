"""Confidence intervals for the population minimizer.

Four constructions: batch min/max intervals with a randomized batch count
(hulc), a t-statistic interval over the same batch estimates (tstat), an
online sandwich plug-in around the averaged iterate (plugin), and the
offline sandwich Wald baseline from the full sample (wald). All intervals
are per coordinate at a shared level alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Dataset, ModelKind, loss_grad, loss_hessian, sigmoid
from .statutil import (
    IllConditionedError,
    normal_quantile,
    spd_factorize,
    spd_solve,
    student_t_quantile,
)

__all__ = [
    "IntervalSet",
    "PluginAccumulator",
    "hulc_batch_count",
    "hulc_interval",
    "plugin_interval",
    "plugin_update",
    "tstat_interval",
    "wald_offline",
]

# Offline MLE controls for the Wald baseline.
NEWTON_MAX_ITER = 100
NEWTON_GRAD_TOL = 1.0e-10
# A residual this small on every observation means the fit classifies each
# label with margin >= log(1/tol); that only happens on the divergent path a
# separated sample produces, never at a finite maximizer.
SEPARATION_TOL = 1.0e-6


@dataclass
class IntervalSet:
    """Per-coordinate intervals plus the point estimate."""

    lo: np.ndarray
    hi: np.ndarray
    center: np.ndarray

    def __post_init__(self) -> None:
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        self.center = np.asarray(self.center, dtype=float)
        if not (self.lo.shape == self.hi.shape == self.center.shape):
            raise ValueError("lo, hi, center must share a shape")
        if np.any(self.lo > self.hi):
            raise ValueError("every interval needs lo <= hi")

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    def covers(self, theta: np.ndarray) -> np.ndarray:
        """Inclusive per-coordinate coverage indicator."""
        theta = np.asarray(theta, dtype=float)
        return (self.lo <= theta) & (theta <= self.hi)


def hulc_batch_count(alpha: float, u: float) -> int:
    """Randomized batch count B* with E[2^(1 - B*)] = alpha exactly.

    With x = log2(2/alpha): when x is an integer, B* = x deterministically;
    otherwise B* randomizes between floor(x) and ceil(x), taking ceil(x)
    when u exceeds 2^ceil(x) * alpha/2 - 1. At alpha = 0.05 this puts
    probability 0.6 on 5 and 0.4 on 6.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must lie in [0, 1], got {u}")
    x = math.log2(2.0 / alpha)
    b_lo = math.floor(x)
    b_hi = math.ceil(x)
    if b_lo == b_hi:
        return b_lo
    threshold = 2.0**b_hi * (alpha / 2.0) - 1.0
    return b_hi if u > threshold else b_lo


def hulc_interval(estimates: np.ndarray) -> IntervalSet:
    """Per-coordinate min/max envelope of the (B, d) bucket estimates."""
    lo = estimates.min(axis=0)
    hi = estimates.max(axis=0)
    return IntervalSet(lo, hi, 0.5 * (lo + hi))


def tstat_interval(estimates: np.ndarray, alpha: float) -> IntervalSet:
    """t interval from the (B, d) bucket estimates: mean +/- t * s / sqrt(B)."""
    b = estimates.shape[0]
    if b < 2:
        raise ValueError(f"t interval needs at least 2 buckets, got {b}")
    center = estimates.mean(axis=0)
    s = estimates.std(axis=0, ddof=1)
    half = student_t_quantile(float(b - 1), 1.0 - alpha / 2.0) * s / math.sqrt(b)
    return IntervalSet(center - half, center + half, center)


@dataclass
class PluginAccumulator:
    """Streaming sums for the sandwich estimate, evaluated at the pre-update
    iterate of each step: J_sum accumulates per-observation Hessians, V_sum
    outer products of per-observation gradients."""

    d: int
    t: int = 0
    J_sum: np.ndarray = field(init=False)
    V_sum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"d must be at least 1, got {self.d}")
        self.J_sum = np.zeros((self.d, self.d))
        self.V_sum = np.zeros((self.d, self.d))


def plugin_update(acc: PluginAccumulator, kind: ModelKind, theta_prev: np.ndarray, p) -> PluginAccumulator:
    """Fold one observation into the sandwich sums, in place."""
    g = loss_grad(kind, theta_prev, p)
    acc.J_sum += loss_hessian(kind, theta_prev, p)
    acc.V_sum += np.outer(g, g)
    acc.t += 1
    return acc


def _sandwich_half_width(J: np.ndarray, V: np.ndarray, t: int, alpha: float) -> np.ndarray:
    """Half-widths z * sqrt(diag(J^-1 V J^-1) / t); raises IllConditionedError
    when J is numerically singular."""
    lower = spd_factorize(J)
    j_inv = spd_solve(lower, np.eye(J.shape[0]))
    diag = np.einsum("ij,jk,ik->i", j_inv, V, j_inv)
    z = normal_quantile(1.0 - alpha / 2.0)
    return z * np.sqrt(np.maximum(diag, 0.0) / t)


def plugin_interval(
    J_sum: np.ndarray, V_sum: np.ndarray, t: int, center: np.ndarray, alpha: float
) -> IntervalSet:
    """Sandwich interval around the averaged iterate from the streaming sums
    of t observations (the J_sum and V_sum of a PluginAccumulator)."""
    if t < 1:
        raise ValueError(f"the sums must cover at least 1 observation, got t={t}")
    center = np.asarray(center, dtype=float)
    half = _sandwich_half_width(J_sum / t, V_sum / t, t, alpha)
    return IntervalSet(center - half, center + half, center.copy())


def _logistic_mle(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Newton iteration for the logistic MLE; raises IllConditionedError on
    a singular Hessian, failure to reach the gradient tolerance, or a
    perfectly separated sample (whose score also vanishes, but only along a
    parameter path diverging to infinity)."""
    t, d = X.shape
    theta = np.zeros(d)
    for _ in range(NEWTON_MAX_ITER):
        mu = sigmoid(X @ theta)
        g = X.T @ (mu - y) / t
        if math.sqrt(float(g @ g)) <= NEWTON_GRAD_TOL:
            if float(np.max(np.abs(mu - y))) < SEPARATION_TOL:
                raise IllConditionedError("separated sample: logistic MLE diverges")
            return theta
        w = mu * (1.0 - mu)
        hess = (X * w[:, None]).T @ X / t
        theta = theta - spd_solve(spd_factorize(hess), g)
    raise IllConditionedError("logistic MLE Newton iteration did not converge")


def wald_offline(kind: ModelKind, data: Dataset, alpha: float) -> IntervalSet:
    """Offline sandwich interval around the full-sample M-estimate."""
    X, y = data.X, data.y
    t = X.shape[0]
    if t < 1:
        raise ValueError("data must be non-empty")
    if kind == ModelKind.LINEAR:
        J = X.T @ X / t
        theta_hat = spd_solve(spd_factorize(J), X.T @ y / t)
        resid = X @ theta_hat - y
    elif kind == ModelKind.LOGISTIC:
        theta_hat = _logistic_mle(X, y)
        mu = sigmoid(X @ theta_hat)
        w = mu * (1.0 - mu)
        J = (X * w[:, None]).T @ X / t
        resid = mu - y
    else:
        raise ValueError(f"unsupported model kind: {kind!r}")
    Xr = X * resid[:, None]
    V = Xr.T @ Xr / t
    half = _sandwich_half_width(J, V, t, alpha)
    return IntervalSet(theta_hat - half, theta_hat + half, theta_hat)
