"""Layer tracer for streamci, attached from outside the program.

The tracer records a span (name, start, end, parent, pid) around every call
that crosses a module boundary as the entry point (`streamci.cli`), the
harness and the inference layer see it. The callables are found by their
`__module__`, so a renamed or new layer function is still attributed to its
layer. Per-step calls (`advance`, `plugin_update`, RNG draws) are folded into
counters under their parent span instead of one span each, which keeps the
tracer's cost and memory bounded. Spans live in memory until the caller
writes them out.

For the process pool, the harness's task function and pool class are swapped
for traced versions: each worker records its task's spans and ships them back
with the task's rows, and the pool merges them under its own span.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor

PACKAGE = "streamci"
LAYERS = ("statutil", "model", "optim", "infer", "harness")
LAYER_MODULES = {f"{PACKAGE}.{layer}": layer for layer in LAYERS}
# Namespaces whose references to other layers are wrapped: the entry point and
# the two modules that call into the rest.
CALLER_MODULES = ("cli", "harness", "infer")

# Calls made once per observation; counted and timed under their parent span.
FOLDED = {
    "optim.advance",
    "infer.plugin_update",
    "statutil.RngStream.standard_normal",
    "statutil.RngStream.uniform",
}

# Span name -> metric group. A name not listed here counts towards its layer
# only. Self time of the harness's own loop (run_grid, task) is the glue.
GROUPS = {
    "optim.run_stream": "optim.pass",
    "optim.advance": "optim.pass",
    "optim.init_state": "optim.pass",
    "optim.warm_start": "optim.warm",
    "model.sample_dataset": "model.sample",
    "model.covariance_factor": "model.sample",
    "infer.wald_offline": "infer.wald",
    "infer.plugin_update": "infer.plugin",
    "infer.plugin_interval": "infer.plugin",
    "infer.hulc_batch_count": "infer.bucket",
    "infer.hulc_interval": "infer.bucket",
    "infer.tstat_interval": "infer.bucket",
    "statutil.spd_factorize": "statutil.spd",
    "statutil.spd_solve": "statutil.spd",
    "statutil.RngStream.standard_normal": "statutil.rng",
    "statutil.RngStream.uniform": "statutil.rng",
    "harness.aggregate": "harness.aggregate",
    "harness.write_rows_csv": "harness.write",
    "harness.write_summary_csv": "harness.write",
    "harness.write_manifest": "harness.write",
    "harness.pool": "harness.pool.wait",
    "harness.run_grid": "harness.glue",
    "harness.task": "harness.glue",
}

ROOT = -1
# Span record fields.
NAME, TAG, WORK, START, END, PARENT, PID = range(7)


def _low_or_high(alpha, b):
    return "low" if b == math.floor(math.log2(2.0 / alpha)) else "high"


# Span name -> (parameters read, fn(*values, result) -> (work, tag)). Work is
# steps, observations or bytes; the tag splits a name's counts (algorithm,
# realized batch count). Unlisted names record (1, None).
MEASURED = {
    "optim.run_stream": (("kind", "stream"), lambda kind, stream, r: (len(stream), kind.name)),
    "optim.advance": (("state",), lambda state, r: (1, state.kind.name)),
    "model.sample_dataset": (("n",), lambda n, r: (n, None)),
    "infer.hulc_batch_count": (("alpha",), lambda alpha, r: (1, _low_or_high(alpha, r))),
    "harness.write_rows_csv": (("path",), lambda path, r: (os.path.getsize(path), None)),
    "harness.write_summary_csv": (("path",), lambda path, r: (os.path.getsize(path), None)),
    "harness.write_manifest": (("path",), lambda path, r: (os.path.getsize(path), None)),
}


def _measure(name, fn):
    """fn(args, kwargs, result) -> (work, tag) for calls of `name`."""
    params, count = MEASURED.get(name, ((), None))
    if count is None:
        return lambda args, kwargs, result: (1, None)
    order = list(inspect.signature(fn).parameters)
    index = [order.index(p) for p in params]

    def measure(args, kwargs, result):
        values = [args[i] if i < len(args) else kwargs[p] for i, p in zip(index, params)]
        return count(*values, result)

    return measure


class Tracer:
    """Span recorder for one process; install() attaches it to streamci."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans = []  # [name, tag, work, start, end, parent, pid]
        self.folded = {}  # (parent, name, tag) -> [calls, work, seconds]
        self.stack = [ROOT]
        self.leaf = False
        self.raised = set()  # span ids whose call raised
        self.pools = []  # (span id, max_workers)
        self.in_worker = False
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append([name, None, 1, time.perf_counter(), 0.0, self.stack[-1], self.pid])
        self.stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][END] = time.perf_counter()
        self.stack.pop()

    def _spanned(self, name, fn):
        tracer = self
        measure = _measure(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.leaf:
                return fn(*args, **kwargs)
            sid = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised.add(sid)
                raise
            finally:
                tracer._close(sid)
            rec = tracer.spans[sid]
            rec[WORK], rec[TAG] = measure(args, kwargs, result)
            return result

        return wrapper

    def _folded(self, name, fn):
        tracer = self
        measure = _measure(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.leaf:
                return fn(*args, **kwargs)
            tracer.leaf = True
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer.leaf = False
            work, tag = measure(args, kwargs, result)
            key = (tracer.stack[-1], name, tag)
            entry = tracer.folded.get(key)
            if entry is None:
                tracer.folded[key] = [1, work, elapsed]
            else:
                entry[0] += 1
                entry[1] += work
                entry[2] += elapsed
            return result

        return wrapper

    def _wrap(self, name, fn):
        return self._folded(name, fn) if name in FOLDED else self._spanned(name, fn)

    def reset(self):
        """Drop everything recorded; a forked worker starts from here."""
        self.pid = os.getpid()
        self.spans, self.folded, self.stack = [], {}, [ROOT]
        self.leaf = False
        self.raised, self.pools = set(), []

    def merge(self, exported, parent):
        """Add a worker's exported spans under the parent's span `parent`."""
        spans, folded, raised = exported
        offset = len(self.spans)
        for rec in spans:
            rec = list(rec)
            rec[PARENT] = parent if rec[PARENT] == ROOT else rec[PARENT] + offset
            self.spans.append(rec)
        for (p, name, tag), (calls, work, seconds) in folded.items():
            key = (parent if p == ROOT else p + offset, name, tag)
            entry = self.folded.setdefault(key, [0, 0, 0.0])
            entry[0] += calls
            entry[1] += work
            entry[2] += seconds
        self.raised.update(sid + offset for sid in raised)

    def export(self):
        return self.spans, self.folded, self.raised

    # -- attaching ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every cross-layer reference in the caller namespaces."""
        import importlib

        global _ACTIVE
        wrapped_methods = set()
        for caller in CALLER_MODULES:
            ns = importlib.import_module(f"{PACKAGE}.{caller}")
            for attr, obj in list(vars(ns).items()):
                module = getattr(obj, "__module__", None)
                if module not in LAYER_MODULES or module == ns.__name__:
                    continue
                layer = LAYER_MODULES[module]
                if inspect.isfunction(obj):
                    self._patch(ns, attr, self._wrap(f"{layer}.{obj.__name__}", obj))
                elif inspect.isclass(obj) and obj not in wrapped_methods:
                    wrapped_methods.add(obj)
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and not meth.startswith("_"):
                            self._patch(obj, meth, self._wrap(f"{layer}.{obj.__name__}.{meth}", fn))
        harness = importlib.import_module(f"{PACKAGE}.harness")
        self.task = self._spanned("harness.task", harness._replication_task)
        self._patch(harness, "_replication_task", traced_replication_task)
        self._patch(harness, "ProcessPoolExecutor", _traced_pool_class(self))
        _ACTIVE = self
        return self

    def uninstall(self):
        global _ACTIVE
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        _ACTIVE = None

    # -- summarising -------------------------------------------------------

    def self_times(self):
        """Self time of each span: its duration minus the spans and folded
        calls under it in the same process."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            parent = rec[PARENT]
            if parent != ROOT and self.spans[parent][PID] == rec[PID]:
                own[parent] -= rec[END] - rec[START]
        for (parent, _name, _tag), (_calls, _work, seconds) in self.folded.items():
            if parent != ROOT:
                own[parent] -= seconds
        return own


class TracedBlock(list):
    """A worker task's rows plus the spans recorded while computing them."""

    def __init__(self, rows, trace):
        super().__init__(rows)
        self.trace = trace


# The tracer attached in this process. Worker processes reach it through the
# task function, which is all the pool passes them.
_ACTIVE = None


def traced_replication_task(task):
    """Pool task: the harness's own task inside a span; in a worker process,
    the spans travel back with the rows."""
    tracer = _ACTIVE
    if tracer is None:  # a worker started fresh rather than forked
        tracer = Tracer().install()
        tracer.in_worker = True
    if not tracer.in_worker:
        if tracer.pid == os.getpid():  # the serial path of the traced process
            return tracer.task(task)
        tracer.in_worker = True  # forked with the run process's tracer
    tracer.reset()
    rows = tracer.task(task)
    block = TracedBlock(rows, tracer.export())
    tracer.reset()
    return block


def _traced_pool_class(tracer):
    class TracedPool(ProcessPoolExecutor):
        """Process pool recorded as one span; merges worker spans into it."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._sid = tracer._open("harness.pool")
            tracer.pools.append((self._sid, self._max_workers))

        def map(self, fn, *iterables, **kwargs):
            return (self._merged(block) for block in super().map(fn, *iterables, **kwargs))

        def _merged(self, block):
            if isinstance(block, TracedBlock):
                tracer.merge(block.trace, self._sid)
            return block

        def shutdown(self, *args, **kwargs):
            super().shutdown(*args, **kwargs)
            if tracer.stack[-1] == self._sid:
                tracer._close(self._sid)

    return TracedPool


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass whose wall time is wall_s."""
    from streamci.optim import ALGORITHM_NAMES

    spans = tracer.spans
    own = tracer.self_times()
    busy = {}
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    parent_self = 0.0  # non-glue self time on the run process's timeline
    steps = {algo: [0, 0.0] for algo in ALGORITHM_NAMES}
    calls, work = {}, {}

    def add(name, tag, n_calls, n_work, seconds, pid):
        nonlocal parent_self
        group = GROUPS.get(name)
        if group is not None:
            busy[group] = busy.get(group, 0.0) + seconds
        calls[name] = calls.get(name, 0) + n_calls
        work[name] = work.get(name, 0) + n_work
        if tag is not None:
            calls[f"{name}[{tag}]"] = calls.get(f"{name}[{tag}]", 0) + n_calls
        if group == "optim.pass" and tag in steps:
            steps[tag][0] += n_work
            steps[tag][1] += seconds
        if group == "harness.glue":
            return
        if pid == tracer.pid:
            parent_self += seconds
        if group != "harness.pool.wait":
            layer_busy[name.split(".", 1)[0]] += seconds

    for sid, rec in enumerate(spans):
        add(rec[NAME], rec[TAG], 1, rec[WORK], own[sid], rec[PID])
    for (parent, name, tag), (n_calls, n_work, seconds) in tracer.folded.items():
        pid = spans[parent][PID] if parent != ROOT else tracer.pid
        add(name, tag, n_calls, n_work, seconds, pid)

    glue = wall_s - parent_self
    if min(own, default=0.0) < -1e-6 or glue < -1e-6:
        raise RuntimeError(f"trace self times overlap: min self {min(own, default=0.0)}, glue {glue}")

    lane_steps = sum(n for n, _ in steps.values())
    pass_s = busy.get("optim.pass", 0.0)
    plugin_steps = calls.get("infer.plugin_update", 0)
    plugin_step_s = sum(v[2] for k, v in tracer.folded.items() if k[1] == "infer.plugin_update")
    wald_calls = calls.get("infer.wald_offline", 0)
    wald_raised = sum(1 for sid in tracer.raised if spans[sid][NAME] == "infer.wald_offline")
    pool_wall = sum((spans[sid][END] - spans[sid][START]) * workers for sid, workers in tracer.pools)
    worker_tasks = [rec for rec in spans if rec[NAME] == "harness.task" and rec[PID] != tracer.pid]
    rng_names = [n for n in FOLDED if GROUPS[n] == "statutil.rng"]
    spd_names = [n for n, g in GROUPS.items() if g == "statutil.spd"]

    out = {
        "optim.pass.lane_steps": (lane_steps, "count"),
        "optim.pass.busy_s": (pass_s, "s"),
        "optim.pass.us_per_lane_step": (1e6 * pass_s / lane_steps if lane_steps else 0.0, "us"),
    }
    for algo in ALGORITHM_NAMES:
        n, seconds = steps[algo]
        out[f"optim.pass.{algo}.us_per_lane_step"] = (1e6 * seconds / n if n else 0.0, "us")
    out.update({
        "optim.warm.calls": (calls.get("optim.warm_start", 0), "count"),
        "optim.warm.busy_s": (busy.get("optim.warm", 0.0), "s"),
        "model.sample.calls": (calls.get("model.sample_dataset", 0), "count"),
        "model.sample.obs": (work.get("model.sample_dataset", 0), "count"),
        "model.sample.busy_s": (busy.get("model.sample", 0.0), "s"),
        "infer.wald.calls": (wald_calls, "count"),
        "infer.wald.busy_s": (busy.get("infer.wald", 0.0), "s"),
        "infer.wald.available_ratio": ((wald_calls - wald_raised) / wald_calls if wald_calls else 0.0, "ratio"),
        "infer.plugin.busy_s": (busy.get("infer.plugin", 0.0), "s"),
        "infer.plugin.us_per_step": (1e6 * plugin_step_s / plugin_steps if plugin_steps else 0.0, "us"),
        "statutil.spd.calls": (sum(calls.get(n, 0) for n in spd_names), "count"),
        "statutil.spd.busy_s": (busy.get("statutil.spd", 0.0), "s"),
        "statutil.rng.calls": (sum(calls.get(n, 0) for n in rng_names), "count"),
        "statutil.rng.busy_s": (busy.get("statutil.rng", 0.0), "s"),
        "infer.bucket.busy_s": (busy.get("infer.bucket", 0.0), "s"),
        "infer.hulc.b_low": (calls.get("infer.hulc_batch_count[low]", 0), "count"),
        "infer.hulc.b_high": (calls.get("infer.hulc_batch_count[high]", 0), "count"),
        "harness.aggregate.busy_s": (busy.get("harness.aggregate", 0.0), "s"),
        "harness.write.busy_s": (busy.get("harness.write", 0.0), "s"),
        "harness.write.bytes": (sum(work.get(n, 0) for n, g in GROUPS.items() if g == "harness.write"), "bytes"),
        "harness.glue_s": (glue, "s"),
        "harness.pool.tasks": (len(worker_tasks), "count"),
        "harness.pool.wait_s": (busy.get("harness.pool.wait", 0.0), "s"),
        "harness.pool.idle_s": (pool_wall - sum(r[END] - r[START] for r in worker_tasks) if pool_wall else 0.0, "s"),
    })
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (layer_busy[layer], "s")
    return out
