"""Confidence intervals for the population minimizer.

Four constructions: batch min/max intervals with a randomized batch count
(hulc), a t-statistic interval over the same batch estimates (tstat), an
online sandwich plug-in around the averaged iterate (plugin), and the
offline sandwich Wald baseline from the full sample (wald). All intervals
are per coordinate at a shared level alpha.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .model import Dataset, ModelKind, sigmoid
from .statutil import (
    IllConditionedError,
    _openblas,
    matmul,
    normal_quantile,
    spd_factorize,
    spd_solve,
    student_t_quantile,
)

__all__ = [
    "IntervalSet",
    "hulc_batch_count",
    "hulc_interval",
    "plugin_interval",
    "sandwich_inverse",
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
# Rows per einsum call of _ordered_outer_sum.
_OUTER_SUM_BLOCK = 8


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
    half = student_t_quantile(b - 1, 1.0 - alpha / 2.0) * s / math.sqrt(b)
    return IntervalSet(center - half, center + half, center)


def sandwich_inverse(J: np.ndarray) -> np.ndarray:
    """J^-1 through the Cholesky factor of J; raises IllConditionedError
    when J is not finite or numerically singular."""
    return spd_solve(spd_factorize(J), np.eye(J.shape[0]))


def _sandwich_interval(diag: np.ndarray, t: int, center: np.ndarray, alpha: float) -> IntervalSet:
    """center +/- z * sqrt(diag / t), from the _sandwich_diagonal of the
    per-observation means J and V of t observations."""
    z = normal_quantile(1.0 - alpha / 2.0)
    half = z * np.sqrt(np.maximum(diag, 0.0) / t)
    return IntervalSet(center - half, center + half, center.copy())


def _sandwich_diagonal(j_inv: np.ndarray, V: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """diag(J^-1 V J^-1) from j_inv = J^-1, into out when it is given."""
    return np.einsum("ij,jk,ik->i", j_inv, V, j_inv, out=out)


def _ordered_outer_sum(a: np.ndarray, w: Optional[np.ndarray] = None, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over t of outer(a[t], a[t]), each term scaled by w[t] when w is
    given, into out when it is given, bit for bit the loop
    out += outer(a[t], a[t]) * w[t] of the plug-in oracle in
    tests/plugin_oracle.py: numpy's einsum loop (no optimize) adds the terms
    in t order, each with its own multiply and add. a has at least two
    columns: with one, einsum would sum t in an unrolled loop instead.

    Only the upper triangle is summed, in row blocks of _OUTER_SUM_BLOCK
    rows: block [i0, i1) takes the same einsum over columns i0 onwards, and
    its transpose fills the lower triangle. Entries (i, j) and (j, i) add
    the same products in the same order, so they are equal bit for bit. A
    last block of one row joins the one before it, so that every einsum
    sees at least two columns. At d <= 9 the one block is the full einsum
    on views of a with a's own shape and strides.

    Where a NaN term meets a NaN sum, the result keeps the term's NaN and the
    loop the sum's. They differ only if NaNs of different sign or payload
    meet, which takes a NaN in the input: arithmetic makes one kind.
    """
    spec, weights = ("ti,tj->ij", ()) if w is None else ("ti,tj,t->ij", (w,))
    d = a.shape[1]
    starts = range(0, max(d - 1, 1), _OUTER_SUM_BLOCK)
    out = np.empty((d, d)) if out is None else out
    for i0, i1 in zip(starts, [*starts[1:], d]):
        np.einsum(spec, a[:, i0:i1], a[:, i0:], *weights, out=out[i0:i1, i0:])
        out[i1:, i0:i1] = out[i0:i1, i1:].T
    return out


def _in_shares(pool: ThreadPoolExecutor, n: int, share: Callable[[int], None]) -> None:
    """share(k) for k < n, 0 on this thread and the rest on the pool's, joined."""
    futures = [pool.submit(share, k) for k in range(1, n)]
    share(0)
    for future in futures:
        future.result()


def plugin_interval(
    kind: ModelKind, x: np.ndarray, y: np.ndarray, mu: np.ndarray, center: np.ndarray, alpha: float
) -> list[Optional[IntervalSet]]:
    """Sandwich intervals of passes over the t observations x, y: pass p has
    responses mu[p] = psi(x'theta) at its pre-update iterates and averaged
    iterate center[p], and its sums are tests/plugin_oracle.py's, bit for bit.
    None marks a pass whose J is not finite or numerically singular. The
    linear J does not depend on the iterate, so all passes share one J.

    Pass p's sums and diagonal are taken on thread p mod n, n = this process's
    OpenBLAS thread count (1 for one pass); the linear J is one more pass. The
    threads run einsum into arrays allocated here, no BLAS: no byte depends on n."""
    t, d, passes = len(x), x.shape[1], len(mu)
    if t < 1:
        raise ValueError(f"the sums must cover at least 1 observation, got t={t}")
    lib = _openblas() if passes > 1 else None
    n = 1 if lib is None else min(passes, lib.get())
    linear = kind == ModelKind.LINEAR
    J, V, diag = np.empty((1 if linear else passes, d, d)), np.empty((passes, d, d)), np.empty((passes, d))
    rows = np.empty((n, t, d))
    with np.errstate(over="ignore", invalid="ignore"):
        resid, weights = mu - y, None if linear else mu * (1.0 - mu)
    inverses: list[Optional[np.ndarray]] = []

    # A divergent pass overflows to inf and NaN; its rows show it. A thread does not
    # inherit numpy's error state, so each share sets it. Thread k weights rows in rows[k].
    def sums(k: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(k, passes + linear, n):
                if p == passes:
                    _ordered_outer_sum(x, out=J[0])
                    continue
                if not linear:
                    _ordered_outer_sum(x, weights[p], out=J[p])
                _ordered_outer_sum(np.multiply(resid[p][:, None], x, out=rows[k]), out=V[p])

    def diagonals(k: int) -> None:
        with np.errstate(over="ignore", invalid="ignore"):
            for p in range(k, passes, n):
                if inverses[p] is not None:
                    _sandwich_diagonal(inverses[p], V[p], out=diag[p])

    with ThreadPoolExecutor(max(n - 1, 1)) as pool:  # starts no thread at n = 1
        _in_shares(pool, n, sums)
        V /= t
        for J_sum in J:
            try:
                inverses.append(sandwich_inverse(J_sum / t))
            except IllConditionedError:
                inverses.append(None)
        if linear:
            inverses *= passes
        _in_shares(pool, n, diagonals)
    return [None if j_inv is None else _sandwich_interval(diag[p], t, center[p], alpha)
            for p, j_inv in enumerate(inverses)]


def _logistic_mle(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton iteration for the logistic MLE, returned with its responses
    sigmoid(X @ theta); raises IllConditionedError on a singular Hessian,
    failure to reach the gradient tolerance, or a perfectly separated sample
    (whose score also vanishes, but only along a parameter path diverging to
    infinity)."""
    t, d = X.shape
    theta = np.zeros(d)
    for _ in range(NEWTON_MAX_ITER):
        mu = sigmoid(matmul(X, theta))
        g = matmul(X.T, mu - y) / t
        if math.sqrt(float(g @ g)) <= NEWTON_GRAD_TOL:
            if float(np.max(np.abs(mu - y))) < SEPARATION_TOL:
                raise IllConditionedError("separated sample: logistic MLE diverges")
            return theta, mu
        w = mu * (1.0 - mu)
        hess = matmul((X * w[:, None]).T, X) / t
        theta = theta - spd_solve(spd_factorize(hess), g)
    raise IllConditionedError("logistic MLE Newton iteration did not converge")


def wald_offline(kind: ModelKind, data: Dataset, alpha: float) -> IntervalSet:
    """Offline sandwich interval around the full-sample M-estimate."""
    X, y = data.X, data.y
    t = X.shape[0]
    if t < 1:
        raise ValueError("data must be non-empty")
    if kind == ModelKind.LINEAR:
        J = matmul(X.T, X) / t
        theta_hat = spd_solve(spd_factorize(J), matmul(X.T, y) / t)
        resid = matmul(X, theta_hat) - y
    elif kind == ModelKind.LOGISTIC:
        theta_hat, mu = _logistic_mle(X, y)
        w = mu * (1.0 - mu)
        J = matmul((X * w[:, None]).T, X) / t
        resid = mu - y
    else:
        raise ValueError(f"unsupported model kind: {kind!r}")
    Xr = X * resid[:, None]
    V = matmul(Xr.T, Xr) / t
    return _sandwich_interval(_sandwich_diagonal(sandwich_inverse(J), V), t, theta_hat, alpha)
