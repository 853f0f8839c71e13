"""Single-pass stochastic approximation algorithms over a data stream.

The per-observation state keeps the running average of the iterates beside
the last iterate; averaged variants report the mean, the rest the final
iterate, and run_lanes keeps the average only where it is the estimate.

run_lanes advances many independent runs in lockstep and is what the
harness calls; warm_lanes is its fixed-step burn-in. The per-observation
init_state + advance is the reference it matches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .model import DataPoint, ModelKind, _grad_xy, _mean_response, _sigmoid_scalarwise
from .statutil import IllConditionedError, RngStream

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmKind",
    "LaneRun",
    "NOISE_BETA",
    "NOISE_SIGMA",
    "OptimizerState",
    "PolynomialStep",
    "TRUNCATION_EPS2",
    "WARM_START_STEP",
    "advance",
    "gradient_truncate",
    "init_state",
    "run_lanes",
    "step_size",
    "warm_lanes",
]

# Fixed step size of the SGD burn-in used to initialize every algorithm.
WARM_START_STEP = 0.001

# Squared truncation level of the truncated variants: the truncation drops
# at most this fraction of the squared gradient norm.
TRUNCATION_EPS2 = 0.64
# Scale and decay exponent of noisy-truncated's injected Gaussian noise: the
# noise step is NOISE_SIGMA * eta ** (1/2 + NOISE_BETA).
NOISE_SIGMA = 1.0
NOISE_BETA = 0.25

# Bound, in floats, on the rows run_lanes gathers for a block of steps.
BLOCK_FLOATS = 1 << 14

# Bisection of the implicit update: iteration cap, and the bracket width,
# relative to max(1, |s0|), at which it stops.
IMPLICIT_MAX_ITER = 200
IMPLICIT_TOL = 1.0e-13


@dataclass(frozen=True)
class PolynomialStep:
    """Step size c * t**(-gamma): gamma in (1/2, 1) for root-T averaging,
    gamma = 0 for a constant step c."""

    c: float
    gamma: float = 0.505

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")


def step_size(sched: PolynomialStep, t: int) -> float:
    """Step size at step t (1-based)."""
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    return sched.c * float(t) ** (-sched.gamma)


class AlgorithmKind(str, Enum):
    """The stream algorithms, by their CLI names."""

    SGD = "sgd"
    ASGD = "asgd"
    IMPLICIT_LAST = "implicit-last"
    IMPLICIT_AVG = "implicit-avg"
    ROOT = "root"
    TRUNCATED = "truncated"
    NOISY_TRUNCATED = "noisy-truncated"

    @property
    def averaged(self) -> bool:
        """Whether the run's estimate is the running average of iterates."""
        return self in (AlgorithmKind.ASGD, AlgorithmKind.IMPLICIT_AVG)


ALGORITHM_NAMES = tuple(kind.value for kind in AlgorithmKind)


@dataclass
class OptimizerState:
    """Mutable state of one single-pass run; single-threaded by design."""

    kind: AlgorithmKind
    t: int
    theta: np.ndarray
    avg: np.ndarray
    prev_theta: np.ndarray
    v: Optional[np.ndarray]
    rng: Optional[RngStream]


def _check_rng(kind: AlgorithmKind, rng: Optional[RngStream]) -> None:
    if kind == AlgorithmKind.NOISY_TRUNCATED:
        if rng is None:
            raise ValueError("noisy-truncated requires an rng for its injected noise")
    elif rng is not None:
        raise ValueError(f"rng is only consumed by noisy-truncated, not {kind.value!r}")


def init_state(kind: AlgorithmKind, theta0: np.ndarray, *, rng: Optional[RngStream] = None) -> OptimizerState:
    theta0 = np.asarray(theta0, dtype=float).copy()
    _check_rng(kind, rng)
    return OptimizerState(
        kind=kind,
        t=0,
        theta=theta0,
        avg=np.zeros_like(theta0),
        prev_theta=theta0.copy(),
        v=None,
        rng=rng,
    )


def gradient_truncate(g: np.ndarray, eps2: float) -> tuple[float, np.ndarray]:
    """Keep the largest-magnitude coordinates carrying >= (1 - eps2) of ||g||^2.

    Scans squared magnitudes in descending order and tests the cumulative sum
    against (1 - eps2) * ||g||^2 before adding each term; the threshold kappa
    is the magnitude at the first index where the test passes, and every
    coordinate with |g_i| < kappa (strictly) is zeroed. If the test never
    passes (the smallest square alone exceeds eps2 * ||g||^2), kappa is the
    smallest magnitude and every coordinate survives. A zero gradient yields
    kappa = 0.
    """
    if not 0.0 < eps2 <= 1.0:
        raise ValueError(f"eps2 must lie in (0, 1], got {eps2}")
    g = np.asarray(g, dtype=float)
    sq = g * g
    total = float(sq.sum())
    if total == 0.0:
        return 0.0, g.copy()
    order = np.argsort(-sq, kind="stable")
    target = (1.0 - eps2) * total
    kappa = abs(float(g[order[-1]]))
    cum = 0.0
    for idx in order:
        if cum >= target:
            kappa = abs(float(g[idx]))
            break
        cum += float(sq[idx])
    return kappa, np.where(np.abs(g) < kappa, 0.0, g)


def _root_weight(t: int) -> float:
    """Weight on the carried-over gradient correction at step t."""
    return (t - 1.0) / t


def _implicit_update(
    model_kind: ModelKind,
    theta: np.ndarray,
    x: np.ndarray,
    y: float,
    eta: float,
) -> np.ndarray:
    """Solve theta_new = theta - eta * grad(theta_new) for GLM-type losses.

    The gradient is (psi(x'theta) - y) x, so theta_new = theta - s*x with s
    solving the scalar fixed point s = eta * (psi(x'theta - s*||x||^2) - y).
    f(s) = s - eta*(...) is strictly increasing with a sign change on
    [min(0, s0), max(0, s0)] where s0 = eta*(psi(x'theta) - y), so bisection
    is safe; failure to bracket down to tolerance raises.
    """
    a = float(x @ theta)
    s0 = eta * (_mean_response(model_kind, a) - y)
    nx2 = float(x @ x)
    if s0 == 0.0 or nx2 == 0.0:
        return theta - s0 * x
    lo, hi = (0.0, s0) if s0 > 0.0 else (s0, 0.0)
    width_tol = IMPLICIT_TOL * max(1.0, abs(s0))
    for _ in range(IMPLICIT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid - eta * (_mean_response(model_kind, a - mid * nx2) - y) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= width_tol:
            break
    else:
        raise IllConditionedError("implicit update bisection did not converge")
    return theta - (0.5 * (lo + hi)) * x


def _implicit_steps(
    model_kind: ModelKind, a: list[float], nx2: list[float], y: list[float], eta: list[float]
) -> list[float]:
    """Per lane, the s of _implicit_update (theta_new = theta - s*x) from
    a = x'theta and nx2 = ||x||^2. It is the same bisection on Python floats,
    so each s is bit for bit the reference's; the scalar branch of sigmoid
    is written out because calling it per bisection step cost most of the
    time."""
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


def advance(state: OptimizerState, sched: PolynomialStep, model_kind: ModelKind, p: DataPoint) -> OptimizerState:
    """Apply exactly one update of state.kind for observation p, in place."""
    t = state.t + 1
    eta = step_size(sched, t)
    x, y = p.x, p.y
    theta = state.theta
    name = state.kind.value

    if name in ("sgd", "asgd"):
        theta_new = theta - eta * _grad_xy(model_kind, theta, x, y)
    elif name in ("implicit-last", "implicit-avg"):
        theta_new = _implicit_update(model_kind, theta, x, y, eta)
    elif name == "root":
        g = _grad_xy(model_kind, theta, x, y)
        if t == 1:
            v = g
        else:
            v = g + _root_weight(t) * (state.v - _grad_xy(model_kind, state.prev_theta, x, y))
        state.v = v
        state.prev_theta = theta
        theta_new = theta - eta * v
    elif name == "truncated":
        _, g_trunc = gradient_truncate(_grad_xy(model_kind, theta, x, y), TRUNCATION_EPS2)
        theta_new = theta - eta * g_trunc
    elif name == "noisy-truncated":
        _, g_trunc = gradient_truncate(_grad_xy(model_kind, theta, x, y), TRUNCATION_EPS2)
        noise = state.rng.standard_normal(theta.shape[0])
        theta_new = theta - eta * g_trunc + (NOISE_SIGMA * eta ** (0.5 + NOISE_BETA)) * noise
    else:
        raise ValueError(f"unknown algorithm {name!r}")

    state.t = t
    state.theta = theta_new
    state.avg = (1.0 - 1.0 / t) * state.avg + theta_new / t
    return state


@dataclass
class LaneRun:
    """Final state of the lanes of one run_lanes call, in the order given.

    avg is the running average of the iterates for the averaged algorithms
    (asgd, implicit-avg) and None for the rest, which report the last
    iterate. responses[p, :len(rows[record[p]])] holds psi(x'theta) of
    recorded lane record[p] at each step's pre-update iterate, in step order.
    """

    theta: np.ndarray
    avg: Optional[np.ndarray]
    responses: np.ndarray

    def estimates(self, kind: AlgorithmKind) -> np.ndarray:
        """The (L, d) estimates of algorithm kind: averages or last iterates."""
        return self.avg if kind.averaged else self.theta


def _truncate_rows(G: np.ndarray, eps2: float) -> np.ndarray:
    """gradient_truncate applied to every row of G, with the same arithmetic:
    a stable sort of the squares and a sequential (cumsum) scan."""
    sq = G * G
    total = sq.sum(axis=1)
    order = np.argsort(-sq, axis=1, kind="stable")
    ranked = np.take_along_axis(sq, order, axis=1)
    target = (1.0 - eps2) * total
    # reached[:, k]: the squares before rank k already carry the target mass.
    reached = np.empty(G.shape, dtype=bool)
    reached[:, 0] = target <= 0.0
    np.greater_equal(np.cumsum(ranked[:, :-1], axis=1), target[:, None], out=reached[:, 1:])
    first = np.where(reached.any(axis=1), reached.argmax(axis=1), G.shape[1] - 1)
    rows = np.arange(G.shape[0])
    kappa = np.abs(G[rows, order[rows, first]])
    kappa[total == 0.0] = 0.0
    return np.where(np.abs(G) < kappa[:, None], 0.0, G)


def _mean_responses(model_kind: ModelKind, X: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """psi(x'theta) for every lane, bit for bit the scalar path: np.vecdot
    over C-contiguous rows takes the dot product x @ theta takes (a strided
    operand rounds differently)."""
    a = np.vecdot(X, theta)
    if model_kind == ModelKind.LINEAR:
        return a
    if model_kind == ModelKind.LOGISTIC:
        return _sigmoid_scalarwise(a)
    raise ValueError(f"unsupported model kind: {model_kind!r}")


def run_lanes(
    kind: AlgorithmKind,
    model_kind: ModelKind,
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[range],
    theta0: np.ndarray,
    c: Sequence[float],
    gamma: float,
    *,
    noise: Optional[np.ndarray] = None,
    record: Sequence[int] = (),
    on_step: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> LaneRun:
    """Advance independent runs ("lanes") of one algorithm in lockstep over t.

    Lane l starts at theta0[l] (or a shared (d,) theta0), steps with
    eta_t = c[l] * t**(-gamma) (gamma = 0: the constant step c[l]), and
    reads observations X[i], y[i] for i in rows[l] in order, so a
    round-robin bucket is a strided range over its replication's rows and
    no data is copied per lane. Every lane's arithmetic is that of
    init_state + advance, bit for bit, whatever the number of lanes; the
    running average is kept only where it is the estimate (LaneRun.avg).

    noise (same shape as X, noisy-truncated only) is read through the same
    row index: the row a lane observes at step t also supplies its noise.
    The lanes named in record get their responses psi(x'theta) at each
    pre-update iterate recorded (LaneRun.responses), from which the plug-in
    sums are taken. on_step(t, lanes, theta, grad), when given, is called
    before each update with the active lanes' indices, pre-update iterates
    and gradients, as views that the step then overwrites.
    """
    if (noise is None) == (kind == AlgorithmKind.NOISY_TRUNCATED):
        raise ValueError("noise is required by noisy-truncated and consumed by nothing else")
    n_lanes = len(rows)
    if len(c) != n_lanes:
        raise ValueError(f"{n_lanes} lanes need {n_lanes} step constants, got {len(c)}")
    d = X.shape[1]
    # Longest lanes first, so the lanes still running at step t are a prefix.
    lengths = np.array([len(r) for r in rows], dtype=np.int64)
    order = np.argsort(-lengths, kind="stable")
    rank = np.empty(n_lanes, dtype=np.int64)
    rank[order] = np.arange(n_lanes)
    lengths = lengths[order]
    idx = np.array([rows[i].start for i in order], dtype=np.int64)
    stride = np.array([rows[i].step for i in order], dtype=np.int64)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (n_lanes, d))[order])
    avg = np.zeros_like(theta) if kind.averaged else None
    # Work arrays, given to the ufuncs as their positional out (the keyword
    # costs more per call): each step's residuals psi - y, gradients, product.
    resid, grad, work = np.empty(n_lanes), np.empty_like(theta), np.empty_like(theta)
    # The distinct step constants, and each lane's index into them.
    unique: dict[float, int] = {}
    lane_c = np.array([[unique.setdefault(c[i], len(unique))] for i in order], dtype=np.int64)
    cs = list(unique)

    # Recorded slots sorted by rank; slot_of maps the caller's order to them.
    by_rank = sorted(range(len(record)), key=lambda p: rank[record[p]])
    slot_of = np.empty(len(record), dtype=np.int64)
    slot_of[by_rank] = np.arange(len(record))
    p_rank = np.array([rank[record[p]] for p in by_rank], dtype=np.int64)
    # mu_rec[slot, t - 1]: psi(x'theta) of a recorded lane at step t.
    mu_rec = np.empty((len(record), int(lengths.max(initial=0))))
    implicit = kind in (AlgorithmKind.IMPLICIT_LAST, AlgorithmKind.IMPLICIT_AVG)
    need_grad = not implicit or bool(record) or on_step is not None

    # The algorithm's update, chosen once and called by the loop below with the
    # step's t, index k in the block and eta. It reads the loop's current
    # phase, block and step (th, G, W, Xt, yt, ...) and updates th in place.
    if kind in (AlgorithmKind.SGD, AlgorithmKind.ASGD):
        def update(t, k, eta):
            np.subtract(th, np.multiply(eta, G, W), th)
    elif implicit:
        def update(t, k, eta):
            lane_eta = np.broadcast_to(eta, (active, 1))[:, 0].tolist()
            s = _implicit_steps(model_kind, np.vecdot(Xt, th).tolist(), nx2_b[k].tolist(), yt.tolist(), lane_eta)
            np.subtract(th, np.array(s)[:, None] * Xt, th)
    elif kind == AlgorithmKind.ROOT:
        v, prev = np.zeros_like(theta), theta.copy()

        def update(t, k, eta):
            if t == 1:
                v[:active] = G
            else:
                G_prev = (_mean_responses(model_kind, Xt, prev[:active]) - yt)[:, None] * Xt
                v[:active] = G + _root_weight(t) * (v[:active] - G_prev)
            prev[:active] = th
            np.subtract(th, eta * v[:active], th)
    elif kind == AlgorithmKind.TRUNCATED:
        def update(t, k, eta):
            np.subtract(th, eta * _truncate_rows(G, TRUNCATION_EPS2), th)
    else:
        def update(t, k, eta):
            scale = NOISE_SIGMA * eta ** (0.5 + NOISE_BETA) if single else (
                np.array([NOISE_SIGMA * e ** (0.5 + NOISE_BETA) for e in etas])[lane_col])
            th[...] = th - eta * _truncate_rows(G, TRUNCATION_EPS2) + scale * noise_b[k]

    p_prefix = np.array_equal(p_rank, np.arange(len(p_rank)))
    single = len(cs) == 1
    t0 = 1
    # Divergent lanes overflow to inf and NaN; they stay in the results, where
    # the harness counts them.
    with np.errstate(over="ignore", invalid="ignore"):
        # One phase per distinct lane length: the running lanes are the
        # prefix theta[:active], which only shrinks between phases.
        for end in sorted(set(lengths.tolist()) - {0}):
            active = int(np.count_nonzero(lengths >= end))
            n_record = int(np.count_nonzero(p_rank < active))
            p_sel = slice(0, n_record) if p_prefix else p_rank[:n_record]
            th, r, G, W = theta[:active], resid[:active], grad[:active], work[:active]
            r_col = r[:, None]
            av = avg[:active] if avg is not None else None
            lane_col = lane_c[:active]
            # Rows are gathered a block of steps at a time: X_b[k] holds what
            # the running lanes read at step first + k.
            block = max(1, BLOCK_FLOATS // (active * d))
            for first in range(t0, end + 1, block):
                steps = range(first, min(first + block, end + 1))
                at = idx[:active] + np.arange(len(steps))[:, None] * stride[:active]
                X_b, y_b = X[at], y[at]
                noise_b = noise[at] if noise is not None else None
                nx2_b = np.vecdot(X_b, X_b) if implicit else None
                for k, t in enumerate(steps):
                    Xt, yt = X_b[k], y_b[k]
                    # One Python ** per step (numpy's rounds differently),
                    # times each distinct c: step_size's arithmetic. float(t)
                    # is t exactly; the average reuses it.
                    decay = (ft := float(t)) ** -gamma
                    if single:
                        eta = cs[0] * decay
                    else:
                        etas = [c_j * decay for c_j in cs]
                        eta = np.array(etas)[lane_col]
                    if need_grad:
                        mu = _mean_responses(model_kind, Xt, th)
                        np.subtract(mu, yt, r)
                        np.multiply(r_col, Xt, G)
                    if on_step is not None:
                        on_step(t, order[:active], th, G)
                    if n_record:
                        mu_rec[:n_record, t - 1] = mu[p_sel]
                    update(t, k, eta)
                    if av is not None:
                        av *= 1.0 - 1.0 / ft
                        av += np.divide(th, ft, W)
                idx[:active] = at[-1] + stride[:active]
            t0 = end + 1
    return LaneRun(theta=theta[rank], avg=avg[rank] if avg is not None else None, responses=mu_rec[slot_of])


def warm_lanes(model_kind: ModelKind, X: np.ndarray, y: np.ndarray, rows: Sequence[range]) -> np.ndarray:
    """Fixed-step SGD burn-in from the origin for every lane; (L, d) iterates.
    A lane with no rows stays at the origin."""
    zeros = np.zeros(X.shape[1])
    return run_lanes(AlgorithmKind.SGD, model_kind, X, y, rows, zeros, [WARM_START_STEP] * len(rows), 0.0).theta
