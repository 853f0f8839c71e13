"""Self-tests of the benchmark.

    python3 bench/selftest.py

- every workload runs at a tiny size, untraced and traced, and prints
  exactly the metrics BENCHMARK.json declares for that mode;
- corrupting one byte of a CSV makes the output check fail;
- the golden fixture still matches;
- without the program's sources the benchmark exits non-zero and prints no
  result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import oracle
from run import BENCH_DIR, ROOT, WORK_DIR, WORKLOADS, Call, Checker

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(BENCH_DIR / "run.py")]


def check(condition, message):
    if not condition:
        raise AssertionError(message)
    print(f"ok   {message}")


def test_workloads_print_declared_metrics():
    check([w["name"] for w in SPEC["workloads"]] == list(WORKLOADS), "BENCHMARK.json lists the workloads")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in WORKLOADS:
            done = subprocess.run([*RUN, "--workload", name, "--seed", "5", "--seconds", "1",
                                   "--trace", str(trace), "--tiny"], capture_output=True, text=True, timeout=300)
            check(done.returncode == 0, f"{name} --trace {trace} exits 0")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} result keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} --trace {trace} is correct")
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            check(printed == declared, f"{name} --trace {trace} prints the {key} metrics of BENCHMARK.json")


def _first_decimal(blob: bytes, line_prefix: bytes, field: int) -> int:
    """Offset of the first decimal digit of column `field` on the first line
    starting with line_prefix: a change there is far outside the tolerance."""
    start = blob.index(b"\n" + line_prefix) + 1
    fields = blob[start:blob.index(b"\n", start)].split(b",")
    return start + len(b",".join(fields[:field])) + 1 + fields[field].index(b".") + 1


def test_corrupted_byte_fails():
    work = WORK_DIR / "selftest-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        raw, summary = oracle.load_reference("accept-d5", oracle.DEFAULT_SEED, ["accept"])["accept"]
        call = Call("accept", [], reps=2, c_grid=[0.5], obs=0, d=5)
        paths = call.outputs(work)
        for path, data in zip(paths, (raw, summary, b"{}")):
            path.write_bytes(data)
        checker = Checker({"accept": (raw, summary)})
        check(checker.failed(call, work) == 0, "reference outputs pass the check")
        for label, blob, offset, expected in (
            ("a digit of a width in replication 1", raw, _first_decimal(raw, b"linear,5,10000,identity,asgd,0.5,1,", 10), 1),
            ("a byte of the raw header", raw, 2, 2),
            ("a digit of a summary coverage", summary, _first_decimal(summary, b"linear,", 8), 2),
        ):
            target = paths[0] if blob is raw else paths[1]
            corrupt = bytearray(blob)
            corrupt[offset] = ord("1") if corrupt[offset] != ord("1") else ord("2")
            target.write_bytes(bytes(corrupt))
            failed = checker.failed(call, work)
            check(failed == expected, f"corrupting {label} fails {expected} replication(s) (got {failed})")
            target.write_bytes(blob)
        check(oracle.failing_units(b"k\n" + raw, raw, summary=False) == {oracle.ALL}, "unreadable CSV fails all")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def test_golden_fixture():
    done = subprocess.run([sys.executable, str(BENCH_DIR / "golden.py")], capture_output=True, text=True, timeout=300)
    check(done.returncode == 0, f"golden fixture matches: {done.stdout.strip()}")


def test_fails_without_sources():
    bare = WORK_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "accept-d5", "--seed", "0",
                               "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
        check(done.returncode != 0 and not done.stdout.strip(), "without src/ the benchmark exits non-zero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_corrupted_byte_fails()
    test_golden_fixture()
    test_fails_without_sources()
    test_workloads_print_declared_metrics()
    print("all self-tests passed")
