"""Single-pass stochastic approximation algorithms over a data stream.

All algorithms maintain the running average of their iterates alongside the
last iterate; which of the two is a run's estimate depends on the algorithm
(averaged variants report the mean, the rest the final iterate).

run_lanes advances many independent runs in lockstep and is what the
harness calls; warm_lanes is its fixed-step burn-in. The per-observation
init_state + advance is the reference it matches bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .model import DataPoint, ModelKind, _grad_xy, _mean_response, _sigmoid_scalarwise
from .statutil import IllConditionedError, RngStream

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmKind",
    "ConstantStep",
    "LaneRun",
    "OptimizerState",
    "PolynomialStep",
    "StepSchedule",
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

# Bound, in floats, on the scratch buffers of blocked work in run_lanes
# (gathered rows, outer-product sums).
BLOCK_FLOATS = 1 << 14

ALGORITHM_NAMES = (
    "sgd",
    "asgd",
    "implicit-last",
    "implicit-avg",
    "root",
    "truncated",
    "noisy-truncated",
)


@dataclass(frozen=True)
class ConstantStep:
    eta: float

    def __post_init__(self) -> None:
        if self.eta <= 0.0:
            raise ValueError(f"eta must be positive, got {self.eta}")


@dataclass(frozen=True)
class PolynomialStep:
    """Step size c * t**(-gamma); gamma in (1/2, 1) for root-T averaging."""

    c: float
    gamma: float = 0.505

    def __post_init__(self) -> None:
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if not 0.5 < self.gamma < 1.0:
            raise ValueError(f"gamma must lie in (0.5, 1), got {self.gamma}")


StepSchedule = ConstantStep | PolynomialStep


def step_size(sched: StepSchedule, t: int) -> float:
    """Step size at step t (1-based)."""
    if t < 1:
        raise ValueError(f"t must be at least 1, got {t}")
    if isinstance(sched, ConstantStep):
        return sched.eta
    if isinstance(sched, PolynomialStep):
        return sched.c * float(t) ** (-sched.gamma)
    raise TypeError(f"unsupported schedule: {sched!r}")


@dataclass(frozen=True)
class AlgorithmKind:
    """Algorithm tag plus the hyperparameters of the truncated variants.

    eps2 is the squared truncation level: the truncation drops at most an
    eps2 fraction of the squared gradient norm. sigma scales the injected
    Gaussian noise and beta its decay exponent (step ~ eta^(1/2 + beta)).
    """

    name: str
    eps2: float = 0.64
    sigma: float = 1.0
    beta: float = 0.25

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {self.name!r}; expected one of {ALGORITHM_NAMES}")
        if not 0.0 < self.eps2 <= 1.0:
            raise ValueError(f"eps2 must lie in (0, 1], got {self.eps2}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        if not 0.0 < self.beta <= 0.5:
            raise ValueError(f"beta must lie in (0, 0.5], got {self.beta}")

    @property
    def averaged(self) -> bool:
        """Whether the run's estimate is the running average of iterates."""
        return self.name in ("asgd", "implicit-avg")


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
    if kind.name == "noisy-truncated":
        if rng is None:
            raise ValueError("noisy-truncated requires an rng for its injected noise")
    elif rng is not None:
        raise ValueError(f"rng is only consumed by noisy-truncated, not {kind.name!r}")


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
    *,
    max_iter: int = 200,
    tol: float = 1.0e-13,
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
    width_tol = tol * max(1.0, abs(s0))
    for _ in range(max_iter):
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


def advance(state: OptimizerState, sched: StepSchedule, model_kind: ModelKind, p: DataPoint) -> OptimizerState:
    """Apply exactly one update of state.kind for observation p, in place."""
    t = state.t + 1
    eta = step_size(sched, t)
    x, y = p.x, p.y
    theta = state.theta
    name = state.kind.name

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
        _, g_trunc = gradient_truncate(_grad_xy(model_kind, theta, x, y), state.kind.eps2)
        theta_new = theta - eta * g_trunc
    elif name == "noisy-truncated":
        _, g_trunc = gradient_truncate(_grad_xy(model_kind, theta, x, y), state.kind.eps2)
        noise = state.rng.standard_normal(theta.shape[0])
        theta_new = theta - eta * g_trunc + (state.kind.sigma * eta ** (0.5 + state.kind.beta)) * noise
    else:
        raise ValueError(f"unknown algorithm {name!r}")

    state.t = t
    state.theta = theta_new
    state.avg = (1.0 - 1.0 / t) * state.avg + theta_new / t
    return state


@dataclass
class LaneRun:
    """Final state of the lanes of one run_lanes call, in the order given.

    J_sum and V_sum hold the plug-in sums of the plug-in lanes, in the order
    those lanes were named; linear-model lanes over the same rows share one
    J_sum array, since their curvature sums do not depend on the iterate.
    """

    theta: np.ndarray
    avg: np.ndarray
    J_sum: list[np.ndarray]
    V_sum: list[np.ndarray]

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
    """psi(x'theta) for every lane, bit for bit the scalar path: the batched
    matmul is one dot product per lane, the one x @ theta computes."""
    a = (X[:, None, :] @ theta[:, :, None])[:, 0, 0]
    if model_kind == ModelKind.LINEAR:
        return a
    if model_kind == ModelKind.LOGISTIC:
        return _sigmoid_scalarwise(a)
    raise ValueError(f"unsupported model kind: {model_kind!r}")


def _outer_sum(X: np.ndarray, rows: range) -> np.ndarray:
    """Sum of outer(X[i], X[i]) over i in rows, added in row order like the
    per-observation loop: np.cumsum adds sequentially, and blocks of rows
    keep its buffer near BLOCK_FLOATS."""
    d = X.shape[1]
    block = max(1, BLOCK_FLOATS // (d * d))
    stack = np.zeros((min(block, len(rows)) + 1, d, d))
    for lo in range(0, len(rows), block):
        part = rows[lo : lo + block]
        x = X[part.start : part.stop : part.step]
        k = len(part)
        np.multiply(x[:, :, None], x[:, None, :], out=stack[1 : k + 1])
        np.cumsum(stack[: k + 1], axis=0, out=stack[: k + 1])
        stack[0] = stack[k]
    return stack[0].copy()


def run_lanes(
    kind: AlgorithmKind,
    model_kind: ModelKind,
    X: np.ndarray,
    y: np.ndarray,
    rows: Sequence[range],
    theta0: np.ndarray,
    scheds: Sequence[StepSchedule],
    *,
    noise: Optional[np.ndarray] = None,
    plugin: Sequence[int] = (),
    on_step: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]] = None,
) -> LaneRun:
    """Advance independent runs ("lanes") of one algorithm in lockstep over t.

    Lane l starts at theta0[l] (or a shared (d,) theta0), steps with
    scheds[l], and reads observations X[i], y[i] for i in rows[l] in order,
    so a round-robin bucket is a strided range over its replication's rows
    and no data is copied per lane. Every lane's arithmetic is that of
    init_state + advance, bit for bit, whatever the number of lanes.

    noise (same shape as X, noisy-truncated only) is read through the same
    row index: the row a lane observes at step t also supplies its noise.
    The lanes named in plugin accumulate the sums of plugin_update at their
    pre-update iterates. on_step(t, lanes, theta, grad), when given, is
    called before each update with the active lanes' indices, pre-update
    iterates and gradients.
    """
    name = kind.name
    if (noise is None) == (name == "noisy-truncated"):
        raise ValueError("noise is required by noisy-truncated and consumed by nothing else")
    n_lanes = len(rows)
    if len(scheds) != n_lanes:
        raise ValueError(f"{n_lanes} lanes need {n_lanes} schedules, got {len(scheds)}")
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
    avg = np.zeros_like(theta)
    unique: dict[StepSchedule, int] = {}
    lane_sched = np.array([[unique.setdefault(scheds[i], len(unique))] for i in order], dtype=np.int64)
    unique_scheds = list(unique)
    if name == "root":
        v = np.zeros_like(theta)
        prev = theta.copy()

    # Plug-in slots sorted by rank; slot_of maps the caller's order to them.
    by_rank = sorted(range(len(plugin)), key=lambda p: rank[plugin[p]])
    slot_of = np.empty(len(plugin), dtype=np.int64)
    slot_of[by_rank] = np.arange(len(plugin))
    p_rank = np.array([rank[plugin[p]] for p in by_rank], dtype=np.int64)
    V = np.zeros((len(plugin), d, d))
    outer = np.empty_like(V)
    if model_kind != ModelKind.LINEAR:
        J = np.zeros_like(V)
    else:
        # The curvature sum does not depend on the iterate: one sum per
        # distinct row range, taken before the pass.
        shared: dict[tuple, np.ndarray] = {}
        J_sum = []
        for lane in plugin:
            r = rows[lane]
            key = (r.start, r.step, len(r))
            if key not in shared:
                shared[key] = _outer_sum(X, r)
            J_sum.append(shared[key])
    need_grad = name not in ("implicit-last", "implicit-avg") or bool(plugin) or on_step is not None

    p_prefix = np.array_equal(p_rank, np.arange(len(p_rank)))
    single = len(unique_scheds) == 1
    t0 = 1
    # Divergent lanes overflow to inf and NaN; they stay in the results, where
    # the harness counts them.
    with np.errstate(over="ignore", invalid="ignore"):
        # One phase per distinct lane length: the running lanes are the
        # prefix theta[:active], which only shrinks between phases.
        for end in sorted(set(lengths.tolist()) - {0}):
            active = int(np.count_nonzero(lengths >= end))
            n_plugin = int(np.count_nonzero(p_rank < active))
            p_sel = slice(0, n_plugin) if p_prefix else p_rank[:n_plugin]
            th, av = theta[:active], avg[:active]
            lane_col = lane_sched[:active]
            # Rows are gathered a block of steps at a time: X_b[k] holds what
            # the running lanes read at step first + k.
            block = max(1, BLOCK_FLOATS // (active * d))
            for first in range(t0, end + 1, block):
                steps = range(first, min(first + block, end + 1))
                at = idx[:active] + np.arange(len(steps))[:, None] * stride[:active]
                X_b, y_b = X[at], y[at]
                noise_b = noise[at] if noise is not None else None
                for k, t in enumerate(steps):
                    Xt, yt = X_b[k], y_b[k]
                    if single:
                        eta = step_size(unique_scheds[0], t)
                    else:
                        etas = [step_size(sched, t) for sched in unique_scheds]
                        eta = np.array(etas)[lane_col]
                    if need_grad:
                        mu = _mean_responses(model_kind, Xt, th)
                        G = (mu - yt)[:, None] * Xt
                    if on_step is not None:
                        on_step(t, order[:active], th, G)
                    if n_plugin:
                        g = G[p_sel]
                        buf = outer[:n_plugin]
                        np.multiply(g[:, :, None], g[:, None, :], out=buf)
                        V[:n_plugin] += buf
                        if model_kind == ModelKind.LOGISTIC:
                            x = Xt[p_sel]
                            m = mu[p_sel]
                            np.multiply(x[:, :, None], x[:, None, :], out=buf)
                            buf *= (m * (1.0 - m))[:, None, None]
                            J[:n_plugin] += buf

                    if name in ("sgd", "asgd"):
                        th -= eta * G
                    elif name in ("implicit-last", "implicit-avg"):
                        lane_eta = np.broadcast_to(eta, (active, 1))[:, 0].tolist()
                        for lane, e in enumerate(lane_eta):
                            th[lane] = _implicit_update(model_kind, th[lane], Xt[lane], float(yt[lane]), e)
                    elif name == "root":
                        if t == 1:
                            v[:active] = G
                        else:
                            G_prev = (_mean_responses(model_kind, Xt, prev[:active]) - yt)[:, None] * Xt
                            v[:active] = G + _root_weight(t) * (v[:active] - G_prev)
                        prev[:active] = th
                        th -= eta * v[:active]
                    elif name == "truncated":
                        th -= eta * _truncate_rows(G, kind.eps2)
                    else:
                        scale = kind.sigma * eta ** (0.5 + kind.beta) if single else np.array(
                            [kind.sigma * e ** (0.5 + kind.beta) for e in etas]
                        )[lane_col]
                        th[...] = th - eta * _truncate_rows(G, kind.eps2) + scale * noise_b[k]
                    av *= 1.0 - 1.0 / t
                    av += th / t
                idx[:active] = at[-1] + stride[:active]
            t0 = end + 1

    if model_kind != ModelKind.LINEAR:
        J_sum = [J[slot] for slot in slot_of]
    return LaneRun(theta=theta[rank], avg=avg[rank], J_sum=J_sum, V_sum=[V[slot] for slot in slot_of])


def warm_lanes(model_kind: ModelKind, X: np.ndarray, y: np.ndarray, rows: Sequence[range]) -> np.ndarray:
    """Fixed-step SGD burn-in from the origin for every lane; (L, d) iterates.
    A lane with no rows stays at the origin."""
    sched = ConstantStep(WARM_START_STEP)
    zeros = np.zeros(X.shape[1])
    return run_lanes(AlgorithmKind("sgd"), model_kind, X, y, rows, zeros, [sched] * len(rows)).theta
