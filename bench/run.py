"""Benchmark for streamci's Monte Carlo grid runs.

Each workload is a closed loop with one caller: it calls the user entry point
`streamci.cli.run_cli(argv)` in this process, waits until the raw CSV, the
summary CSV and the manifest are written, checks them against the output
oracle and starts again, until --seconds have passed. The first pass is an
untimed warm-up. The workload seed is passed to the program as --seed.

    python3 bench/run.py --workload accept-d5 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 traced and untraced passes alternate and
the metrics are the per-layer ones (see layertrace.py). Earlier lines give the
environment and a readable table. The program is taken from src/ of the
checkout this file sits in; without it the benchmark exits with code 2.

Times are scaled to a reference machine speed: a fixed reference kernel
(SpeedGauge) is timed before and after every run_cli call, and each call's
time is multiplied by the kernel's reference time over its mean measured
time. On a machine shared with other tenants, identical passes were measured
to slow down by up to 1.7x for stretches of seconds to minutes, and the
kernel slows with them. wall_s and cpu_s add up, over the calls of a pass,
each call's median scaled time over the passes of the run; setup_s is the
median scaled time of several fresh interpreters. The readable table also
gives the unscaled pass times.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
TRAJECTORY = BENCH_DIR / "trajectory.json"

# Workload -> replications per run_cli call. Why each workload is in the
# benchmark is stated in BENCHMARK.json and README.md.
WORKLOADS = {"accept-d5": 2, "sweep-logistic-d20": 2, "grid-d100": 1}
SETUP_PROBES = 7
TINY_T = 200


@dataclass
class Call:
    """One run_cli invocation of a workload pass."""

    name: str
    argv: list[str]
    reps: int
    c_grid: list[float]
    obs: int  # nominal observations: reps x |c grid| x T
    d: int

    def outputs(self, work: Path) -> tuple[Path, Path, Path]:
        raw = work / f"{self.name}.csv"
        return raw, work / f"{self.name}_summary.csv", Path(f"{raw}.manifest.json")

    def units(self) -> set[tuple[str, str]]:
        """(c, rep) replications as they are written in the raw CSV."""
        return {(repr(c), str(rep)) for c in self.c_grid for rep in range(self.reps)}


def workload_calls(name, cli, algorithms, *, seed, work, threads=None, tiny=False) -> list[Call]:
    reps = 1 if tiny else WORKLOADS[name]
    common = ["--reps", str(reps), "--seed", str(seed)]
    if name == "accept-d5":
        specs = [("accept", ["--model", "linear", "--d", "5", "--t", "10000", "--cov", "identity",
                             "--algo", "asgd", "--c", "0.5", "--methods", "wald,plugin,hulc,tstat",
                             "--threads", str(threads or 1)])]
    elif name == "sweep-logistic-d20":
        pool = threads or min(2, os.cpu_count() or 1)
        specs = [(algo, ["--model", "logistic", "--d", "20", "--t", "10000", "--cov", "toeplitz",
                         "--algo", algo, "--c", "0.5", "--methods", "wald,hulc,tstat",
                         "--threads", str(pool)]) for algo in algorithms]
    elif name == "grid-d100":
        specs = [("grid", ["--model", "linear", "--d", "100", "--t", "1000", "--cov", "equicorr",
                           "--algo", "asgd", "--methods", "wald,plugin,hulc,tstat",
                           "--threads", str(threads or 1)])]
    else:
        raise ValueError(f"unknown workload {name!r}")
    calls = []
    for call_name, argv in specs:
        if tiny:
            argv[argv.index("--t") + 1] = str(TINY_T)
        argv = argv + common + ["--out", str(work / f"{call_name}.csv")]
        args = cli.build_parser().parse_args(argv)
        c_grid = args.c if args.c is not None else cli.default_c_grid(args.algo, args.model, args.d)
        calls.append(Call(call_name, argv, reps, [float(c) for c in c_grid], reps * len(c_grid) * sum(args.t), args.d))
    return calls


class Checker:
    """Compares a call's CSVs with the stored reference of the seed or, for
    a seed without one, with the call's first outputs in this run."""

    def __init__(self, reference):
        self.reference = dict(reference or {})

    def failed(self, call: Call, work: Path) -> int:
        """Number of the call's replications whose outputs are wrong."""
        units = call.units()
        raw_path, summary_path, manifest_path = call.outputs(work)
        if not all(p.is_file() for p in (raw_path, summary_path, manifest_path)):
            return len(units)
        got = raw_path.read_bytes(), summary_path.read_bytes()
        want = self.reference.setdefault(call.name, got)
        bad = oracle.failing_units(got[0], want[0], summary=False)
        bad |= oracle.failing_units(got[1], want[1], summary=True)
        failed = set()
        for c, rep in bad:
            matching = {u for u in units if (c == "*" or u[0] == c) and (rep == "*" or u[1] == rep)}
            if not matching:  # a row of a replication the run should not have
                return len(units)
            failed |= matching
        return len(failed)


def _cpu_seconds() -> float:
    self_usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_usage.ru_utime + self_usage.ru_stime + children.ru_utime + children.ru_stime


def _children_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


class SpeedGauge:
    """A fixed reference kernel, timed next to every measurement so that
    times can be scaled to a machine on which the kernel takes its reference
    time. The kernel is a stream pass in Python and numpy at the workload's
    dimension d (a gradient step and an outer-product sum per observation),
    the kind of work streamci's passes are made of. It is part of the
    benchmark, so a change to the program does not change it."""

    STEPS = 2000
    # d -> the kernel's fastest time on the machine the benchmark was built on.
    REFERENCE_SECONDS = {5: 0.0085, 20: 0.010, 100: 0.038}

    def __init__(self, d: int):
        import numpy

        rng = numpy.random.default_rng(0)
        self.x = rng.standard_normal((self.STEPS, d))
        self.y = rng.standard_normal(self.STEPS)
        self.zeros = numpy.zeros
        self.outer = numpy.outer
        self.d = d
        self.reference = self.REFERENCE_SECONDS[d]

    def seconds(self) -> float:
        start = time.perf_counter()
        theta = self.zeros(self.d)
        curvature = self.zeros((self.d, self.d))
        for x, y in zip(self.x, self.y):
            curvature += self.outer(x, x)
            theta = theta - 0.001 * (float(x @ theta) - y) * x
        return time.perf_counter() - start

    def scale(self, before: float, after: float) -> float:
        """Factor taking a time measured between two kernel timings to the
        reference machine."""
        return self.reference / (0.5 * (before + after))


def run_pass(calls, run_cli, checker, work, gauge):
    """One pass of the workload: per call wall s, CPU s and speed scale
    (see SpeedGauge), and the number of failed replications."""
    walls, cpus, scales = [], [], []
    failed = 0
    gauge_before = gauge.seconds()
    for call in calls:
        for path in call.outputs(work):
            path.unlink(missing_ok=True)
        cpu0 = _cpu_seconds()
        start = time.perf_counter()
        try:
            code = run_cli(call.argv)
        except Exception:
            traceback.print_exc()
            code = None
        walls.append(time.perf_counter() - start)
        cpus.append(_cpu_seconds() - cpu0)
        gauge_after = gauge.seconds()
        scales.append(gauge.scale(gauge_before, gauge_after))
        gauge_before = gauge_after
        if code != 0:
            print(f"error: {call.name} exited with {code}", file=sys.stderr)
            failed += len(call.units())
        else:
            failed += checker.failed(call, work)
    return walls, cpus, scales, failed


def setup_seconds(argv, gauge) -> list[float]:
    """Time from starting a fresh interpreter to the first replication,
    scaled like the passes."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_PROBES):
        before = gauge.seconds()
        start = time.monotonic()
        done = subprocess.run([sys.executable, str(probe), str(SRC), *argv],
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        elapsed = float(done.stdout.strip().splitlines()[-1]) - start
        times.append(elapsed * gauge.scale(before, gauge.seconds()))
    return times


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child (the
    pool workers), in MiB."""
    scale = 1024 * 1024 if sys.platform == "darwin" else 1024
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / scale


def _blas_threads(numpy) -> str:
    """OpenBLAS's default thread count, read from the loaded library."""
    import ctypes
    import glob

    libs = sorted(glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment() -> dict:
    import multiprocessing

    import numpy

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
        rev = done.stdout.strip() or rev
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor() or "unknown"
    if Path("/proc/cpuinfo").is_file():
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(numpy),
        "start_method": multiprocessing.get_context().get_start_method(),
        "cpu_model": cpu_model,
    }


def _import_program():
    """streamci.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import streamci.cli
    import streamci.optim

    if Path(streamci.cli.__file__).resolve().parent != SRC / "streamci":
        raise ImportError(f"streamci was imported from {streamci.cli.__file__}, not {SRC}")
    return streamci.cli, streamci.optim.ALGORITHM_NAMES


def _scaled_median(passes, field) -> float:
    """Sum over a pass's calls of each call's median scaled time (field 0:
    wall, 1: CPU) over the passes of the run."""
    per_call = zip(*([t * sc for t, sc in zip(p[field], p[2])] for p in passes))
    return sum(statistics.median(times) for times in per_call)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def _print_table(workload, metrics, extra=()):
    for name, m in list(metrics.items()) + list(extra):
        print(f"{workload:20s} {name:40s} {m['value']:>16.6g} {m['unit']}")


def run_workload(name, seed, seconds, trace, tiny=False) -> int:
    cli, algorithms = _import_program()
    import layertrace

    work = WORK_DIR / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        calls = workload_calls(name, cli, algorithms, seed=seed, work=work, tiny=tiny)
        reference = None if tiny else oracle.load_reference(name, seed, [c.name for c in calls])
        checker = Checker(reference)
        reps_per_pass = sum(len(c.units()) for c in calls)
        obs_per_pass = sum(c.obs for c in calls)

        gauge = SpeedGauge(calls[0].d)
        deadline = time.monotonic() + seconds
        # The warm-up pass also fixes the outputs later passes must repeat
        # when the seed has no stored reference.
        *_, failed = run_pass(calls, cli.run_cli, checker, work, gauge)
        attempted = reps_per_pass
        passes, traced = [], []  # untraced: (walls, cpus, scales) per call
        while True:
            if trace and len(traced) <= len(passes):  # traced and untraced passes alternate
                tracer = layertrace.Tracer().install()
                children0 = _children_cpu_seconds()
                try:
                    call_walls, _, _, bad = run_pass(calls, cli.run_cli, checker, work, gauge)
                finally:
                    tracer.uninstall()
                layers = layertrace.layer_metrics(tracer, sum(call_walls))
                layers["harness.pool.worker_cpu_s"] = (_children_cpu_seconds() - children0, "s")
                traced.append((sum(call_walls), layers, tracer))
            else:
                *measured, bad = run_pass(calls, cli.run_cli, checker, work, gauge)
                passes.append(measured)
            attempted += reps_per_pass
            failed += bad
            if passes and (traced or not trace) and time.monotonic() >= deadline:
                break
        peak_mb = peak_rss_mb()

        env = environment()
        print("env " + json.dumps(env, sort_keys=True))
        print(f"{name}: seed {seed}, {len(passes)} timed passes, {len(traced)} traced, "
              f"{attempted} replications attempted, {failed} failed, "
              f"reference {'stored' if reference else 'first pass'}")
        raw_walls = [sum(walls) for walls, _, _ in passes]
        if trace:
            metrics = _layer_summary(traced, raw_walls, calls, work)
            spans = [{"pass": i, "spans": t.spans, "folded": [[*k, *v] for k, v in t.folded.items()]}
                     for i, (_, _, t) in enumerate(traced)]
            (work.parent / f"{name}-seed{seed}-spans.json").write_text(json.dumps(spans))
            extra = []
        else:
            setups = setup_seconds(calls[0].argv, gauge)
            wall = _scaled_median(passes, 0)
            metrics = {
                "setup_s": _metric(statistics.median(setups), "s"),
                "wall_s": _metric(wall, "s"),
                "obs_per_s": _metric(obs_per_pass / wall, "1/s"),
                "cpu_s": _metric(_scaled_median(passes, 1), "s"),
                "peak_rss_mb": _metric(peak_mb, "MB"),
                "ok_share": _metric(1.0 - failed / attempted, "share"),
            }
            extra = [
                ("failed_share", _metric(failed / attempted, "share")),
                ("unscaled: wall_s median", _metric(statistics.median(raw_walls), "s")),
                ("unscaled: wall_s fastest", _metric(min(raw_walls), "s")),
                ("speed scale median", _metric(statistics.median(x for _, _, sc in passes for x in sc), "x")),
            ]
        _print_table(name, metrics, extra)
        print(_result_line(failed == 0, attempted, failed, metrics))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _layer_summary(traced, raw_walls, calls, work):
    """Median of each per-layer metric over the traced passes."""
    names = traced[0][1].keys()
    metrics = {n: _metric(statistics.median(t[1][n][0] for t in traced), traced[0][1][n][1]) for n in names}
    rows = unavailable = nonfinite = 0
    for call in calls:
        r, u, n = oracle.row_counts(call.outputs(work)[0].read_bytes())
        rows, unavailable, nonfinite = rows + r, unavailable + u, nonfinite + n
    metrics.update({
        "harness.rows": _metric(rows, "count"),
        "harness.rows_unavailable": _metric(unavailable, "count"),
        "harness.rows_nonfinite": _metric(nonfinite, "count"),
        # The median, like the layer metrics it is the base of.
        "trace.wall_s": _metric(statistics.median(t[0] for t in traced), "s"),
        # Fastest traced pass over fastest untraced pass.
        "trace.overhead_ratio": _metric(min(t[0] for t in traced) / min(raw_walls) - 1.0, "ratio"),
    })
    return dict(sorted(metrics.items()))


def run_all(args) -> int:
    """Every workload in its own process, one table; optionally appended to
    the trajectory under a label."""
    results, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: {name} exited with {done.returncode}", file=sys.stderr)
            code = 1
            continue
        print("\n".join(lines[1:-1]))
        results[name] = json.loads(lines[-1])
        results[name]["env"] = json.loads(lines[0][len("env "):])
        code = code or int(not results[name]["correct"])
    if args.trajectory and results:
        entries = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.is_file() else []
        entry = next((e for e in entries if e["label"] == args.trajectory), None)
        if entry is None:
            entry = {"label": args.trajectory}
            entries.append(entry)
        key = "per_layer" if args.trace else "end_to_end"
        entry["env"] = next(iter(results.values()))["env"]
        entry["seconds"] = args.seconds
        entry["seed"] = args.seed
        entry[key] = {name: r["metrics"] for name, r in results.items()}
        TRAJECTORY.write_text(json.dumps(entries, indent=1) + "\n")
    print(json.dumps(results))
    return code


def record_references(seed=oracle.DEFAULT_SEED) -> int:
    """Store every workload's outputs at `seed`, computed with one worker."""
    cli, algorithms = _import_program()
    work = WORK_DIR / f"record-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            for call in workload_calls(name, cli, algorithms, seed=seed, work=work, threads=1):
                if cli.run_cli(call.argv) != 0:
                    print(f"error: {name}/{call.name} failed", file=sys.stderr)
                    return 1
                raw, summary, _ = call.outputs(work)
                oracle.store_reference(name, seed, call.name, raw.read_bytes(), summary.read_bytes())
                print(f"recorded {name}/{call.name}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="T=%d and one replication, for the self-tests" % TINY_T)
    parser.add_argument("--trajectory", metavar="LABEL", help="with --workload all: append to trajectory.json")
    parser.add_argument("--record-reference", action="store_true", help="re-record the default-seed references")
    args = parser.parse_args(argv)
    if not (SRC / "streamci" / "cli.py").is_file():
        print(f"error: no streamci sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_references()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, args.trace, tiny=args.tiny)


if __name__ == "__main__":
    sys.exit(main())
