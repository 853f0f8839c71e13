"""Numerical utilities: quantile functions, SPD factorization, and keyed
deterministic random streams.

Quantiles are computed in-repo from first principles (erfc-based normal CDF,
regularized incomplete beta continued fraction for Student's t, both inverted
by bisection) so that interval construction carries no dependency on an
external stats library. Tests cross-check every routine against independent
oracles.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "IllConditionedError",
    "RngStream",
    "normal_cdf",
    "normal_quantile",
    "regularized_incomplete_beta",
    "spd_factorize",
    "spd_solve",
    "student_t_cdf",
    "student_t_quantile",
]

# Continued-fraction controls for the incomplete beta. EPS is a little above
# double-precision ulp; FPMIN guards the Lentz recurrence against division by
# a denominator that underflowed to zero.
_CF_MAX_ITER = 500
_CF_EPS = 3.0e-16
_CF_FPMIN = 1.0e-300

# Relative pivot threshold below which a Cholesky pivot is treated as a sign
# of numerical singularity.
SPD_PIVOT_RTOL = 1.0e-12


class IllConditionedError(ArithmeticError):
    """A matrix is numerically singular or an iteration failed to converge."""


# ---------------------------------------------------------------------------
# Normal distribution
# ---------------------------------------------------------------------------

def normal_cdf(z: float) -> float:
    """Standard normal CDF via erfc, accurate in both tails."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF.

    Bisection of the erfc-based CDF on [-60, 60]; the normal CDF underflows
    to exactly 0/1 outside that range in double precision, so the bracket
    always contains the root for p in (0, 1). Absolute error below 1e-9.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = -60.0, 60.0
    while hi - lo > 1.0e-12:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Student's t distribution
# ---------------------------------------------------------------------------

def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz recurrence."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise IllConditionedError(
        f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})"
    )


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - ln_beta)
    # Use the continued fraction only on the side where it converges fast.
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_cdf(t: float, df: float) -> float:
    """Student's t CDF with df > 0 degrees of freedom."""
    if df <= 0.0:
        raise ValueError("df must be positive")
    if abs(t) <= 1.0e-4:
        # The beta route computes x = df/(df + t^2), which rounds to 1 once
        # t^2 falls below one ulp and flattens the CDF near 0; the density
        # series 1/2 + f(0)(t - (df+1)/(6 df) t^3) is exact to ~1e-13 here
        # and keeps the CDF strictly increasing through t = 0.
        c0 = math.exp(math.lgamma(0.5 * (df + 1.0)) - math.lgamma(0.5 * df)
                      - 0.5 * math.log(df * math.pi))
        return 0.5 + c0 * (t - (df + 1.0) / (6.0 * df) * t**3)
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(0.5 * df, 0.5, x)
    return tail if t < 0.0 else 1.0 - tail


@lru_cache(maxsize=256)
def student_t_quantile(df: float, p: float) -> float:
    """Inverse Student's t CDF by bisection. Absolute error below 1e-8.

    The bracket starts at [-60, 60] and doubles outward for the tiny-df,
    extreme-p corner where the quantile exceeds 60 (e.g. df=1, p=0.995).
    """
    if df <= 0.0:
        raise ValueError("df must be positive")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = -60.0, 60.0
    while student_t_cdf(hi, df) < p and hi < 2.0**40:
        lo = hi
        hi *= 2.0
    while student_t_cdf(lo, df) > p and lo > -(2.0**40):
        hi = lo
        lo *= 2.0
    while hi - lo > 2.0e-9:
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Symmetric positive definite linear algebra
# ---------------------------------------------------------------------------

def spd_factorize(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite matrix.

    Raises IllConditionedError when a pivot falls below SPD_PIVOT_RTOL times
    the largest diagonal entry, which covers rank deficiency, loss of
    positive definiteness, and near-singular conditioning in one signal.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if not np.allclose(a, a.T, rtol=0.0, atol=1.0e-12 * max(scale, 1.0)):
        raise ValueError("matrix is not symmetric")
    n = a.shape[0]
    max_diag = float(np.max(np.diag(a))) if n else 0.0
    if max_diag <= 0.0:
        raise IllConditionedError("matrix has no positive diagonal entry")
    threshold = SPD_PIVOT_RTOL * max_diag
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = a[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot < threshold:
            raise IllConditionedError(
                f"pivot {pivot:.3e} below {threshold:.3e} at column {j}"
            )
        lower[j, j] = math.sqrt(pivot)
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return lower


def spd_solve(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L^T) x = b given the lower Cholesky factor L.

    b may be a vector or a matrix of stacked right-hand-side columns.
    """
    lower = np.asarray(lower, dtype=float)
    y = np.array(b, dtype=float)
    n = lower.shape[0]
    for i in range(n):
        y[i] = (y[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    for i in range(n - 1, -1, -1):
        y[i] = (y[i] - lower[i + 1:, i] @ y[i + 1:]) / lower[i, i]
    return y


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------

class RngStream:
    """Deterministic random stream keyed by (base_seed, stream_id).

    Backed by the counter-based Philox4x64 generator with the pair as its
    128-bit key, so the draw sequence is a pure function of the two integers:
    independent of process, thread schedule, and whatever other streams were
    consumed first. Streams with distinct ids are statistically independent.
    """

    __slots__ = ("base_seed", "stream_id", "_gen")

    def __init__(self, base_seed: int, stream_id: int) -> None:
        for name, value in ("base_seed", base_seed), ("stream_id", stream_id):
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{name} must be a uint64, got {value}")
        self.base_seed = int(base_seed)
        self.stream_id = int(stream_id)
        key = np.array([self.base_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def standard_normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, size=None):
        """Uniform draws on [0, 1)."""
        return self._gen.random(size)

    def __repr__(self) -> str:
        return f"RngStream(base_seed={self.base_seed}, stream_id={self.stream_id})"
