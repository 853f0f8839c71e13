"""Numerical utilities: quantile functions, SPD factorization, keyed
deterministic random streams, the package's products (matmul, which joins
OpenBLAS's helper threads, and the lane kernel's rowdot) and the one reader
and setters of numpy's OpenBLAS thread count. No other module of the package
takes a product or calls into OpenBLAS.

Quantiles are computed in-repo from first principles (erfc-based normal CDF,
the closed-form series for Student's t at integer degrees of freedom, both
inverted by bisection) so that interval construction carries no dependency
on an external stats library. Tests cross-check every routine against
independent oracles.
"""

from __future__ import annotations

import dataclasses
import math
import os
from contextlib import contextmanager
from functools import cache, lru_cache
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "IllConditionedError",
    "RngStream",
    "matmul",
    "normal_cdf",
    "normal_quantile",
    "rowdot",
    "spd_factorize",
    "spd_solve",
    "student_t_cdf",
    "student_t_quantile",
]

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


def _invert_cdf(cdf, p: float, width: float) -> float:
    """The x with cdf(x) = p, by bisection down to a bracket of the given
    width. The bracket starts at [-60, 60] and doubles outward, up to 2**40,
    while it misses p (e.g. Student's t at df=1, p=0.995)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    lo, hi = -60.0, 60.0
    while cdf(hi) < p and hi < 2.0**40:
        lo = hi
        hi *= 2.0
    while cdf(lo) > p and lo > -(2.0**40):
        hi = lo
        lo *= 2.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=256)
def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF by bisection. Absolute error below 1e-9.
    The CDF is exactly 0 or 1 outside [-60, 60], so the bracket never widens."""
    return _invert_cdf(normal_cdf, p, 1.0e-12)


# ---------------------------------------------------------------------------
# Student's t distribution
# ---------------------------------------------------------------------------

def student_t_cdf(t: float, df: int) -> float:
    """Student's t CDF at a positive integer df.

    The finite series in theta = atan(t / sqrt(df)) of Abramowitz & Stegun
    26.7.3 (odd df) and 26.7.4 (even df). Every term is positive, so the sum
    needs no cancellation guard or iteration cap.
    """
    if not (df >= 1 and float(df).is_integer()):
        raise ValueError(f"df must be a positive integer, got {df}")
    n = int(df)
    theta = math.atan(t / math.sqrt(n))
    c2 = math.cos(theta) ** 2
    k = np.arange(1.0, n // 2)
    if n % 2 == 0:
        signed = math.sin(theta) * (1.0 + np.cumprod(c2 * (2.0 * k - 1.0) / (2.0 * k)).sum())
    else:
        series = 1.0 + np.cumprod(c2 * 2.0 * k / (2.0 * k + 1.0)).sum() if n > 1 else 0.0
        signed = 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * series)
    return 0.5 + 0.5 * float(signed)


@lru_cache(maxsize=256)
def student_t_quantile(df: int, p: float) -> float:
    """Inverse Student's t CDF by bisection. Absolute error below 1e-8."""
    return _invert_cdf(lambda t: student_t_cdf(t, df), p, 2.0e-9)


# ---------------------------------------------------------------------------
# Symmetric positive definite linear algebra
# ---------------------------------------------------------------------------

def spd_factorize(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor L of a symmetric positive definite matrix.

    Raises IllConditionedError on a non-finite entry, or when a pivot falls
    below SPD_PIVOT_RTOL times the largest diagonal entry, which covers rank
    deficiency, loss of positive definiteness and near-singular conditioning.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise IllConditionedError("matrix has a non-finite entry")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if np.abs(a - a.T).max(initial=0.0) > 1.0e-12 * max(scale, 1.0):
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
# Products and OpenBLAS's threads
# ---------------------------------------------------------------------------

# (get, set) symbol pairs of OpenBLAS's thread count, in the builds numpy
# ships (scipy-openblas, ILP64 suffixed) and in plain ones.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@dataclasses.dataclass(frozen=True)
class _OpenBlas:
    """Thread controls of the OpenBLAS that numpy loaded. shutdown joins the
    helper threads (OpenBLAS restarts them on its next threaded call). The
    defaults stand in for a missing OpenBLAS, which reads as one thread, and
    for a missing blas_thread_shutdown_, which joins nothing."""

    get: Callable[[], int] = lambda: 1
    set: Callable[[int], None] = lambda n: None
    shutdown: Callable[[], int] = lambda: 0


@cache
def _openblas() -> _OpenBlas:
    """numpy's OpenBLAS, or the stand-in when no such library is found."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        handle = ctypes.CDLL(lib)
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            get, set_ = getattr(handle, get_name, None), getattr(handle, set_name, None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                shutdown = getattr(handle, "blas_thread_shutdown_", None)
                if shutdown is None:
                    return _OpenBlas(get, set_)
                shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return _OpenBlas(get, set_, shutdown)
    return _OpenBlas()


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, with OpenBLAS's helper threads joined before it returns: the
    package's one matrix and vector product outside this module.

    A product large enough to be split over threads wakes OpenBLAS's
    helpers, and a helper left alone spins for about 0.1 s after its last
    job, on a CPU that the code between products or another pool worker
    needs. OpenBLAS restarts the helpers on its next threaded call. The join
    comes after the product and changes no thread count, so the result, and
    every later product, is bit for bit what plain @ gives. After a product
    too small to be threaded, the join is a no-op of about 0.5 us.
    """
    out = a @ b
    _openblas().shutdown()
    return out


# The lane kernel's row dots: np.vecdot itself, not a wrapper, so a kernel
# step makes no Python-level call. Over C-contiguous rows it takes the dot
# product that x @ theta takes.
rowdot = np.vecdot


def _blas_thread_count() -> int:
    """numpy's OpenBLAS thread count: 1 when no OpenBLAS is found."""
    return _openblas().get()


def _set_blas_threads(n: int) -> None:
    """Set numpy's OpenBLAS to n threads and join its helper threads: a
    fresh interpreter runs OpenBLAS's default helper, and a count above 1
    starts a fresh one, which would spin for about 0.1 s on a CPU that the
    lane pass, the plug-in or another pool worker needs."""
    lib = _openblas()
    lib.set(n)
    lib.shutdown()


@contextmanager
def _blas_threads(n: int) -> Iterator[None]:
    """Run the block with numpy's OpenBLAS at n threads; afterwards restore
    the count it had (see _set_blas_threads), also when the block raises.
    Within the block, each threaded product joins its own helpers (see
    matmul)."""
    before = _blas_thread_count()
    _openblas().set(n)
    try:
        yield
    finally:
        _set_blas_threads(before)


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
