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
    "LANE_ARRAYS",
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

# Bounds on a block of run_lanes steps: the floats of the rows it gathers,
# and its steps. Each step holds up to seven views of the phase's buffers,
# about 130 bytes each, so 128 steps' views take about what 2^14 floats do.
BLOCK_FLOATS = 1 << 14
BLOCK_STEPS = 128
# Iterate-sized arrays per lane in run_lanes: iterates, gradients, products;
# the average, root's three buffers or the truncation's two; and the phase's
# buffers of gathered rows, noise rows, new iterates and their quotients, each
# one step of rows once a block of them would exceed BLOCK_FLOATS.
LANE_ARRAYS = 8

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


def _truncate_rows(G: np.ndarray, eps2: float, sq: np.ndarray, A: np.ndarray) -> np.ndarray:
    """gradient_truncate applied to every row of G, with the same arithmetic:
    a stable sort of the squares and a sequential (cumsum) scan. sq and A
    (G's shape) take the squares and magnitudes: at 1000 x 20, arrays made per
    call refaulted the heap on every call."""
    n, d = G.shape
    np.multiply(G, G, sq)
    total = np.add.reduce(sq, axis=1)
    # The stable order of -g^2 in each row, as indices into the flattened
    # (row-major) squares and magnitudes.
    flat = np.negative(sq, A).argsort(axis=1, kind="stable")
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
    np.abs(G, A)
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

    Run r starts at theta0[r] (or a shared (d,) theta0) and reads observations
    X[i], y[i] for i in runs[r] in order (every i a row of both, or
    ValueError), so a round-robin bucket is a strided range over its
    replication's rows and no data is copied per lane. At c[j] it steps with
    eta_t = c[j] * t**(-gamma) (gamma = 0: the constant step c[j]). Every
    lane's arithmetic is that of init_state + advance, bit for bit, whatever
    the number of lanes; the running average is kept only where it is the
    estimate.

    noise (same shape as X, noisy-truncated only) is read through the same
    row index: the row a lane observes at step t also supplies its noise.
    The first record runs, each at least as long as every other run, get
    their responses psi(x'theta) at each pre-update iterate recorded
    (LaneRun.responses), from which the plug-in sums are taken.
    """
    if (noise is None) == (kind == AlgorithmKind.NOISY_TRUNCATED):
        raise ValueError("noise is required by noisy-truncated and consumed by nothing else")
    # The rows are gathered into float buffers with np.take's mode="clip",
    # which would clip an index out of range instead of raising.
    X, y = np.asarray(X, dtype=float), np.asarray(y, dtype=float)
    noise = None if noise is None else np.asarray(noise, dtype=float)
    if any(r and (min(r[0], r[-1]) < 0 or max(r[0], r[-1]) >= min(len(X), len(y))) for r in runs):
        raise ValueError(f"every run must index rows of X and y, which have {len(X)} and {len(y)}")
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
    # costs more per call): each step's residuals psi - y, gradients and
    # product.
    resid, grad, work = np.empty(len(order)), np.empty_like(theta), np.empty_like(theta)
    # Each lane's c as a column: numpy's c[j] * decay is the same IEEE product
    # as Python's.
    c_lane = np.array(c, dtype=float)[order // n_runs, None]
    n_record = len(c) * record
    # mu_rec[p, t - 1]: psi(x'theta) of the recorded lane of rank p at step t.
    mu_rec = np.empty((n_record, longest))
    # Each step's t as a float, by which a block's iterates are divided.
    t_steps = np.arange(1.0, longest + 1.0) if avg is not None else None
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
    truncated = kind in (AlgorithmKind.TRUNCATED, AlgorithmKind.NOISY_TRUNCATED)
    if truncated:
        # The truncation's squares and magnitudes of the gradients.
        trunc_bufs = np.empty((2, *theta.shape))
    if noise is not None:
        # noisy-truncated's noise row is scaled by a Python ** of each c
        # value's step size c[j] * decay (the lanes' eta, bit for bit),
        # gathered to the lanes by their c index.
        c_values, c_lanes = np.asarray(c, dtype=float).tolist(), (order // n_runs)[:, None]

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
            c_col = c_lane[:active]
            if noise is not None:
                c_index = c_lanes[:active]
            if root:
                v, prev, r_prev, g_prev = (buf[:active] for buf in root_bufs)
                r_prev_col = r_prev[:, None]
            if truncated:
                sq, mag = trunc_bufs[:, :active]
            # The phase's buffers, filled a block of steps at a time, and each
            # step's views of them, made here once: step k of a block reads the
            # rows X_b[k], targets y_b[k] and aux rows aux_b[k] (||x||^2 or
            # noise) its lanes observe and its step sizes eta_b[k], and writes
            # its responses to mu_b[k] and, when the average needs them, its
            # new iterates to it_b[k]; both are folded in after the block.
            block = min(max(1, BLOCK_FLOATS // (active * d)), BLOCK_STEPS, end + 1 - t0)
            offsets, at = np.arange(block)[:, None] * stride[:active], np.empty((block, active), dtype=np.int64)
            X_b, y_b, mu_b = np.empty((block, active, d)), np.empty((block, active)), np.empty((block, active))
            aux_b = np.empty_like(y_b) if implicit else np.empty_like(X_b) if noise is not None else None
            eta_b = np.empty(block) if single else np.empty((block, active, 1))
            # A lone step size is a 0-d view: numpy converts a Python float
            # operand to an array on every call.
            steps_eta = list(map(np.ndarray.squeeze, eta_b[:, None])) if single else list(eta_b)
            steps_X, steps_y, steps_mu = list(X_b), list(y_b), list(mu_b)
            steps_aux = repeat(None) if aux_b is None else list(aux_b)
            if av is not None:
                it_b, q_b, fold_b = np.empty_like(X_b), np.empty_like(X_b), np.empty(block)
                steps_nxt, steps_q = list(it_b), list(q_b)
                steps_fold = list(map(np.ndarray.squeeze, fold_b[:, None]))
            else:
                steps_nxt = repeat(th)
            for first in range(t0, end + 1, block):
                steps = range(first, min(first + block, end + 1))
                # The block's steps, as rows of the buffers and t_steps and
                # columns of mu_rec.
                n, done = len(steps), slice(first - 1, steps.stop - 1)
                np.add(idx[:active], offsets[:n], at[:n])
                # mode="clip" does not buffer the output, as "raise" does; no
                # index is clipped, the runs being checked to be in range.
                X.take(at[:n], 0, X_b[:n], "clip")
                y.take(at[:n], 0, y_b[:n], "clip")
                if implicit:
                    np.vecdot(X_b[:n], X_b[:n], aux_b[:n])
                elif noise is not None:
                    noise.take(at[:n], 0, aux_b[:n], "clip")
                # One Python ** per step (numpy's rounds differently), times
                # each c: step_size's arithmetic. float(t) is t exactly.
                decays = list(map(pow, map(float, steps), repeat(-gamma)))
                if single:
                    np.multiply(decays, c_col[0, 0], eta_b[:n])
                else:
                    np.multiply(np.array(decays)[:, None, None], c_col, eta_b[:n])
                # A step makes only numpy calls, except for the implicit
                # solve, root's weight, the truncation, noisy-truncated's
                # noise scale and, on the logistic model, the sigmoid; it
                # creates no array for sgd and asgd.
                for t, decay, eta, Xt, yt, mu, nxt, aux in zip(steps, decays, steps_eta, steps_X, steps_y, steps_mu,
                                                               steps_nxt, steps_aux):
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
                            lane_eta = [eta.item()] * active if single else eta[:, 0].tolist()
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
                                np.subtract(r_prev, yt, r_prev)
                                np.multiply(r_prev_col, Xt, g_prev)
                                np.multiply(_root_weight(t), np.subtract(v, g_prev, g_prev), g_prev)
                                np.add(G, g_prev, v)
                            prev[...] = th
                            np.multiply(eta, v, W)
                        else:
                            np.multiply(eta, _truncate_rows(G, TRUNCATION_EPS2, sq, mag), W)
                        np.subtract(th, W, nxt)
                        if noise is not None:
                            scale = [NOISE_SIGMA * (cj * decay) ** (0.5 + NOISE_BETA) for cj in c_values]
                            np.add(nxt, np.multiply(scale[0] if single else np.array(scale)[c_index], aux, W), nxt)
                    th = nxt
                # The recorded lanes, being the longest, run in every phase.
                if n_record:
                    mu_rec[:, done] = mu_b[:n, :n_record].T
                if av is not None:
                    # The reference's (1 - 1/t) * avg + theta / t, step by step.
                    np.divide(it_b[:n], t_steps[done, None, None], q_b[:n])
                    np.subtract(1.0, np.divide(1.0, t_steps[done], fold_b[:n]), fold_b[:n])
                    for _, q, fold in zip(steps, steps_q, steps_fold):
                        np.add(np.multiply(av, fold, av), q, av)
                idx[:active] = at[n - 1] + stride[:active]
            t0 = end + 1
    estimates = (theta if avg is None else avg)[np.argsort(order)]
    return LaneRun(estimates.reshape(len(c), n_runs, d), mu_rec.reshape(len(c), record, longest))
