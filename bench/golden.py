"""Golden fixture: byte-identity oracle for refactors of the stepping kernel.

A small grid covers every algorithm on both models (short streams, few
replications, all methods). Its raw and summary CSVs, concatenated over the
grid with one header each, are stored in golden/ and must be reproduced byte
for byte. The fixture is not a timed workload.

    python3 bench/golden.py            # check; exit 1 on any difference
    python3 bench/golden.py --record   # store the current outputs
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
WORK = BENCH_DIR / ".work" / "golden"

MODELS = ("linear", "logistic")
COMMON = ["--d", "5", "--t", "400", "--cov", "toeplitz", "--c", "0.5", "--reps", "3", "--seed", "7",
          "--methods", "wald,plugin,hulc,tstat", "--threads", "1"]


def grid_outputs() -> tuple[bytes, bytes]:
    """(raw, summary) bytes of the whole fixture grid, computed now."""
    sys.path.insert(0, str(SRC))
    from streamci.cli import run_cli
    from streamci.optim import ALGORITHM_NAMES

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    raw, summary = [], []
    try:
        for model in MODELS:
            for algo in ALGORITHM_NAMES:
                out = WORK / f"{model}-{algo}.csv"
                if run_cli(["--model", model, "--algo", algo, *COMMON, "--out", str(out)]) != 0:
                    raise RuntimeError(f"streamci failed on {model}/{algo}")
                for parts, path in ((raw, out), (summary, WORK / f"{model}-{algo}_summary.csv")):
                    lines = path.read_bytes().splitlines(keepends=True)
                    parts.extend(lines if not parts else lines[1:])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return b"".join(raw), b"".join(summary)


def first_difference(got: bytes, want: bytes) -> str:
    for i, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())):
        if g != w:
            return f"line {i + 1}: got {g.decode()!r}, want {w.decode()!r}"
    return f"lengths differ: {len(got)} bytes, want {len(want)}"


def main(argv) -> int:
    raw, summary = grid_outputs()
    files = {"raw.csv": raw, "summary.csv": summary}
    if argv == ["--record"]:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, data in files.items():
            (GOLDEN_DIR / name).write_bytes(data)
        print(f"recorded {', '.join(files)} in {GOLDEN_DIR}")
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    status = 0
    for name, data in files.items():
        want = (GOLDEN_DIR / name).read_bytes()
        if data == want:
            print(f"golden {name}: identical ({len(data)} bytes)")
        else:
            print(f"golden {name}: DIFFERS, {first_difference(data, want)}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
