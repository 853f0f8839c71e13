"""Single-pass stochastic approximation algorithms over a data stream.

The per-observation state keeps the running average of the iterates beside
the last iterate; averaged variants report the mean, the rest the final
iterate, and run_lanes keeps the average only where it is the estimate.

run_lanes advances many independent runs in lockstep and is what the
harness calls. The per-observation init_state + advance is the reference it
matches bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .model import DataPoint, ModelKind, _sigmoid_scalarwise, loss_grad
from .statutil import RngStream

__all__ = [
    "ALGORITHM_NAMES",
    "AlgorithmKind",
    "LaneRun",
    "NOISE_BETA",
    "NOISE_SIGMA",
    "OptimizerState",
    "PolynomialStep",
    "TRUNCATION_EPS2",
    "advance",
    "gradient_truncate",
    "init_state",
    "run_lanes",
    "step_size",
]

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
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError(f"c must be finite and positive, got {self.c}")
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


def init_state(kind: AlgorithmKind, theta0: np.ndarray, *, rng: Optional[RngStream] = None) -> OptimizerState:
    if (rng is None) == (kind == AlgorithmKind.NOISY_TRUNCATED):
        raise ValueError("an rng is required by noisy-truncated and consumed by nothing else")
    theta0 = np.asarray(theta0, dtype=float).copy()
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


def _implicit_steps(
    model_kind: ModelKind, a: list[float], nx2: list[float], y: list[float], eta: list[float]
) -> list[float]:
    """Per lane, the s of the implicit update theta_new = theta - s*x, from
    a = x'theta and nx2 = ||x||^2.

    The gradient is (psi(x'theta) - y) x, so s solves the scalar fixed point
    s = eta * (psi(a - s*nx2) - y). f(s) = s - eta*(...) is strictly
    increasing with a sign change on [min(0, s0), max(0, s0)] where
    s0 = eta*(psi(a) - y), so bisection on Python floats is safe. A finite
    bracket closes in about 44 halvings; one that is not (a NaN or infinite s0,
    an overflowing midpoint) gives a non-finite s within IMPLICIT_MAX_ITER
    halvings, so the lane diverges as an explicit lane does. The lane loop
    serves both models; each model has its own bisection loop, and the logistic
    one writes out the scalar branch of sigmoid, because calls and branches per
    bisection step cost most of the time: one loop with a per-step model branch
    was 1-8% slower on the logistic model and 4-13% on the linear one.
    """
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
        if logistic:
            for _ in range(IMPLICIT_MAX_ITER):
                mid = 0.5 * (lo + hi)
                u = a_l - mid * nx2_l
                if u >= 0.0:
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
            for _ in range(IMPLICIT_MAX_ITER):
                mid = 0.5 * (lo + hi)
                if mid - eta_l * ((a_l - mid * nx2_l) - y_l) < 0.0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= width_tol:
                    break
        out.append(0.5 * (lo + hi))
    return out


def advance(state: OptimizerState, sched: PolynomialStep, model_kind: ModelKind, p: DataPoint) -> OptimizerState:
    """Apply exactly one update of state.kind for observation p, in place."""
    t = state.t + 1
    eta = step_size(sched, t)
    theta = state.theta
    name = state.kind.value

    if name in ("sgd", "asgd"):
        step = eta * loss_grad(model_kind, theta, p)
    elif name in ("implicit-last", "implicit-avg"):
        (s,) = _implicit_steps(model_kind, [float(p.x @ theta)], [float(p.x @ p.x)], [p.y], [eta])
        step = s * p.x
    elif name == "root":
        g = loss_grad(model_kind, theta, p)
        if t == 1:
            v = g
        else:
            v = g + _root_weight(t) * (state.v - loss_grad(model_kind, state.prev_theta, p))
        state.v = v
        state.prev_theta = theta
        step = eta * v
    else:  # truncated, noisy-truncated
        _, g_trunc = gradient_truncate(loss_grad(model_kind, theta, p), TRUNCATION_EPS2)
        step = eta * g_trunc
    theta_new = theta - step
    if state.rng is not None:  # noisy-truncated: init_state gives only it an rng
        theta_new += (NOISE_SIGMA * eta ** (0.5 + NOISE_BETA)) * state.rng.standard_normal(theta.shape[0])

    state.t = t
    state.theta = theta_new
    state.avg = (1.0 - 1.0 / t) * state.avg + theta_new / t
    return state


class LaneRun(NamedTuple):
    """What one run_lanes call leaves: lane j * len(runs) + r is run r at
    step constant c[j].

    estimates[j, r] (an array of shape (len(c), len(runs), d)) is that lane's
    estimate: the running average of the iterates for the averaged
    algorithms (asgd, implicit-avg), the last iterate for the rest.
    responses[j, r] (shape (len(c), record, longest run)) holds psi(x'theta)
    of recorded run r at c[j] at each step's pre-update iterate, in step
    order.
    """

    estimates: np.ndarray
    responses: np.ndarray


def _truncate_rows(G: np.ndarray, eps2: float) -> np.ndarray:
    """gradient_truncate applied to every row of G, with the same arithmetic:
    a stable sort of the squares and a sequential (cumsum) scan."""
    n, d = G.shape
    sq = G * G
    total = np.add.reduce(sq, axis=1)
    # The stable order of -g^2 in each row, as indices into the flattened
    # (row-major) squares and magnitudes.
    flat = (-sq).argsort(axis=1, kind="stable")
    row_offsets = np.arange(0, n * d, d)
    flat += row_offsets[:, None]
    target = (1.0 - eps2) * total
    # reached[:, k]: the squares before rank k already carry the target mass.
    # The scalar scan stops at the last rank when no earlier one reaches the
    # target (a NaN row included), so that column is set and its prefix sum
    # is never formed.
    reached = np.empty(G.shape, dtype=bool)
    reached[:, 0] = target <= 0.0
    np.greater_equal(sq.ravel()[flat[:, :-2]].cumsum(axis=1), target[:, None], out=reached[:, 1:-1])
    reached[:, -1] = True
    # |G| is taken after the scan, so that it is not live beside the scan's
    # arrays: at 133 x 100 the larger peak made malloc trim and refault the
    # heap on every call.
    A = np.abs(G)
    kappa = A.ravel()[flat.ravel()[row_offsets + reached.argmax(axis=1)]]
    kappa[total == 0.0] = 0.0
    return np.where(A < kappa[:, None], 0.0, G)


def run_lanes(
    kind: AlgorithmKind,
    model_kind: ModelKind,
    X: np.ndarray,
    y: np.ndarray,
    runs: Sequence[range],
    theta0: np.ndarray,
    c: Sequence[float],
    gamma: float,
    *,
    noise: Optional[np.ndarray] = None,
    record: int = 0,
) -> LaneRun:
    """Advance independent runs of one algorithm in lockstep over t, each at
    every step constant in c: lane j * len(runs) + r is run r at c[j].

    Run r starts at theta0[r] (or a shared (d,) theta0) and reads
    observations X[i], y[i] for i in runs[r] in order, so a round-robin
    bucket is a strided range over its replication's rows and no data is
    copied per lane. At c[j] it steps with eta_t = c[j] * t**(-gamma)
    (gamma = 0: the constant step c[j]). Every lane's arithmetic is that of
    init_state + advance, bit for bit, whatever the number of lanes; the
    running average is kept only where it is the estimate.

    noise (same shape as X, noisy-truncated only) is read through the same
    row index: the row a lane observes at step t also supplies its noise.
    The first record runs, each at least as long as every other run, get
    their responses psi(x'theta) at each pre-update iterate recorded
    (LaneRun.responses), from which the plug-in sums are taken.
    """
    if (noise is None) == (kind == AlgorithmKind.NOISY_TRUNCATED):
        raise ValueError("noise is required by noisy-truncated and consumed by nothing else")
    n_runs, d = len(runs), X.shape[1]
    run_lengths = np.array([len(r) for r in runs], dtype=np.int64)
    longest = int(run_lengths.max(initial=0))
    if not 0 <= record <= n_runs or run_lengths[:record].min(initial=longest) < longest:
        raise ValueError(f"the {record} recorded runs must lead and be the longest, got lengths {run_lengths.tolist()}")
    lane_run = np.tile(np.arange(n_runs), len(c))
    # Longest lanes first, so the lanes still running at step t are a prefix;
    # of equal length the recorded ones first, so that they are the first
    # len(c) * record ranks, c-major.
    order = np.argsort(2 * -run_lengths[lane_run] + (lane_run >= record), kind="stable")
    run_of = lane_run[order]
    lengths = run_lengths[run_of]
    idx = np.array([runs[r].start for r in run_of], dtype=np.int64)
    stride = np.array([runs[r].step for r in run_of], dtype=np.int64)
    theta = np.array(np.broadcast_to(np.asarray(theta0, dtype=float), (n_runs, d))[run_of])
    avg = np.zeros_like(theta) if kind.averaged else None
    # Work arrays, given to the ufuncs as their positional out (the keyword
    # costs more per call): each step's residuals psi - y, gradients, product
    # and, at several c, step sizes.
    resid, grad, work = np.empty(len(order)), np.empty_like(theta), np.empty_like(theta)
    eta_lane = np.empty((len(order), 1))
    # Each lane's c as a column: numpy's c[j] * decay is the same IEEE product
    # as Python's.
    c_lane = np.array(c, dtype=float)[order // n_runs, None]
    n_record = len(c) * record
    # mu_rec[p, t - 1]: psi(x'theta) of the recorded lane of rank p at step t.
    mu_rec = np.empty((n_record, longest))
    # Each step's t as a float, by which a block's iterates are divided.
    t_div = np.arange(1.0, longest + 1.0)[:, None, None] if avg is not None else None
    implicit = kind in (AlgorithmKind.IMPLICIT_LAST, AlgorithmKind.IMPLICIT_AVG)
    root = kind == AlgorithmKind.ROOT
    need_grad = not implicit or n_record > 0
    logistic = model_kind == ModelKind.LOGISTIC
    plain = kind in (AlgorithmKind.SGD, AlgorithmKind.ASGD)
    single = len(c) == 1
    if root:
        # The correction v, the previous iterates, and their residuals and
        # gradients at this step's rows.
        root_bufs = np.zeros_like(theta), theta.copy(), np.empty(len(order)), np.empty_like(theta)
    if noise is not None:
        # noisy-truncated's noise row is scaled by a Python ** of each c
        # value's step size c[j] * decay (the lanes' eta, bit for bit),
        # gathered to the lanes by their c index.
        c_values, c_index = np.asarray(c, dtype=float).tolist(), (order // n_runs)[:, None]

    t0 = 1
    th = theta
    # Divergent lanes overflow to inf and NaN; they stay in the results, where
    # the harness counts them.
    with np.errstate(over="ignore", invalid="ignore"):
        # One phase per distinct lane length: the running lanes are the
        # prefix th[:active], which only shrinks between phases.
        for end in sorted(set(lengths.tolist()) - {0}):
            active = int(np.count_nonzero(lengths >= end))
            th, r, G, W = th[:active], resid[:active], grad[:active], work[:active]
            r_col = r[:, None]
            av = avg[:active] if avg is not None else None
            c_col, eta_col = c_lane[:active], eta_lane[:active]
            if root:
                v, prev, r_prev, g_prev = (buf[:active] for buf in root_bufs)
            # Rows are gathered a block of steps at a time: X_b[k] holds what
            # the running lanes read at step first + k. Step k writes its
            # responses to mu_b[k] and, when the average needs them, its new
            # iterates to it_b[k]; both are folded in after the block.
            block = min(max(1, BLOCK_FLOATS // (active * d)), end + 1 - t0)
            mu_b = np.empty((block, active))
            it_b, q_b = np.empty((2, block, active, d)) if av is not None else (None, None)
            for first in range(t0, end + 1, block):
                steps = range(first, min(first + block, end + 1))
                at = idx[:active] + np.arange(len(steps))[:, None] * stride[:active]
                X_b, y_b = X[at], y[at]
                nxt_b = it_b if av is not None else repeat(th)
                aux_b = np.vecdot(X_b, X_b) if implicit else noise[at] if noise is not None else repeat(None)
                # A step makes only numpy calls, except for the implicit
                # solve, root's weight, the truncation, noisy-truncated's
                # noise scale and, on the logistic model, the sigmoid.
                for t, Xt, yt, mu, nxt, aux in zip(steps, X_b, y_b, mu_b, nxt_b, aux_b):
                    # One Python ** per step (numpy's rounds differently),
                    # times each c: step_size's arithmetic. float(t) is t exactly.
                    decay = float(t) ** -gamma
                    eta = c[0] * decay if single else np.multiply(c_col, decay, eta_col)
                    if need_grad:
                        # psi(x'theta), bit for bit the scalar path: np.vecdot
                        # over C-contiguous rows takes the dot product x @ theta
                        # takes (a strided operand rounds differently).
                        np.vecdot(Xt, th, mu)
                        if logistic:
                            _sigmoid_scalarwise(mu)
                        np.subtract(mu, yt, r)
                        np.multiply(r_col, Xt, G)
                    if plain:
                        np.subtract(th, np.multiply(eta, G, W), nxt)
                    else:
                        # The other rules write their step to W; nxt is th
                        # itself unless the average needs the new iterates.
                        if implicit:
                            lane_eta = [eta] * active if single else eta[:, 0].tolist()
                            s = _implicit_steps(model_kind, np.vecdot(Xt, th).tolist(), aux.tolist(), yt.tolist(),
                                                lane_eta)
                            np.multiply(np.array(s)[:, None], Xt, W)
                        elif root:
                            if t == 1:
                                v[...] = G
                            else:
                                # v = G + w_t * (v - G_prev), each term written to a buffer.
                                np.vecdot(Xt, prev, r_prev)
                                if logistic:
                                    _sigmoid_scalarwise(r_prev)
                                np.multiply(np.subtract(r_prev, yt, r_prev)[:, None], Xt, g_prev)
                                np.multiply(_root_weight(t), np.subtract(v, g_prev, g_prev), g_prev)
                                np.add(G, g_prev, v)
                            prev[...] = th
                            np.multiply(eta, v, W)
                        else:
                            np.multiply(eta, _truncate_rows(G, TRUNCATION_EPS2), W)
                        np.subtract(th, W, nxt)
                        if noise is not None:
                            scale = [NOISE_SIGMA * (cj * decay) ** (0.5 + NOISE_BETA) for cj in c_values]
                            nxt += (scale[0] if single else np.array(scale)[c_index[:active]]) * aux
                    th = nxt
                # The block's steps, as columns of mu_rec and rows of t_div;
                # the recorded lanes, being the longest, run in every phase.
                n, done = len(steps), slice(first - 1, steps.stop - 1)
                if n_record:
                    mu_rec[:, done] = mu_b[:n, :n_record].T
                if av is not None:
                    # The reference's (1 - 1/t) * avg + theta / t, step by step.
                    np.divide(it_b[:n], t_div[done], q_b[:n])
                    for t, q in zip(steps, q_b):
                        np.add(np.multiply(av, 1.0 - 1.0 / t, av), q, av)
                idx[:active] = at[-1] + stride[:active]
            t0 = end + 1
    estimates = (theta if avg is None else avg)[np.argsort(order)]
    return LaneRun(estimates.reshape(len(c), n_runs, d), mu_rec.reshape(len(c), record, longest))
