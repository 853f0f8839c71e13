"""Output oracle for the benchmark workloads.

A run's raw and summary CSVs are compared with a reference: first as exact
bytes, and failing that row by row, so the failures can be counted per
replication. Row by row, `covered`, `unavailable` and every key column must
match exactly; floats must agree to within RTOL relative (ATOL absolute near
zero), and NaN may appear only where the reference has NaN. References are
stored gzipped under reference/<workload>/seed<seed>/ and re-recorded with
`python3 bench/run.py --record-reference`.
"""

from __future__ import annotations

import csv
import gzip
import io
import math
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-12
FLOAT_FIELDS = {"width", "center", "coverage", "median_width", "width_ratio"}
RAW_KEY = ("model", "d", "t", "cov", "algo", "c", "rep", "method", "k")
SUMMARY_KEY = ("model", "d", "t", "cov", "algo", "c", "method", "k")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
# Every unit of the call failed: the files could not be read as CSVs of the
# expected layout.
ALL = ("*", "*")


def _float_equal(got: str, want: str) -> bool:
    if got == want:
        return True
    if not got or not want:
        return False
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def _rows(data: bytes, key: tuple[str, ...]):
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader, None)
    if header is None or any(k not in header for k in key):
        raise ValueError("missing header")
    rows = {}
    for line in reader:
        if len(line) != len(header):
            raise ValueError(f"row of {len(line)} fields under a header of {len(header)}")
        row = dict(zip(header, line))
        rows[tuple(row[k] for k in key)] = row
    return header, rows


def failing_units(got: bytes, want: bytes, *, summary: bool) -> set[tuple[str, str]]:
    """(c, rep) units whose rows differ from the reference. A summary row
    stands for every replication of its cell, so its unit has rep "*"; ALL
    marks output that cannot be compared row by row at all."""
    if got == want:
        return set()
    key = SUMMARY_KEY if summary else RAW_KEY
    try:
        got_header, got_rows = _rows(got, key)
        want_header, want_rows = _rows(want, key)
    except (ValueError, UnicodeDecodeError, csv.Error):
        return {ALL}
    if got_header != want_header:
        return {ALL}

    def unit(k):
        row = dict(zip(key, k))
        return row["c"], "*" if summary else row["rep"]

    failed = {unit(k) for k in got_rows.keys() ^ want_rows.keys()}
    for k in got_rows.keys() & want_rows.keys():
        g, w = got_rows[k], want_rows[k]
        for field in want_header:
            try:
                same = _float_equal(g[field], w[field]) if field in FLOAT_FIELDS else g[field] == w[field]
            except ValueError:
                same = False
            if not same:
                failed.add(unit(k))
                break
    return failed


def row_counts(raw: bytes) -> tuple[int, int, int]:
    """(rows, rows marked unavailable, rows with a non-finite width or center)."""
    _, rows = _rows(raw, RAW_KEY)
    unavailable = sum(1 for r in rows.values() if r["unavailable"] == "1")
    nonfinite = sum(
        1
        for r in rows.values()
        if r["unavailable"] != "1" and not all(math.isfinite(float(r[f])) for f in ("width", "center"))
    )
    return len(rows), unavailable, nonfinite


def reference_files(workload: str, seed: int, call: str) -> tuple[Path, Path]:
    base = REFERENCE_DIR / workload / f"seed{seed}"
    return base / f"{call}.csv.gz", base / f"{call}_summary.csv.gz"


def load_reference(workload: str, seed: int, calls) -> dict[str, tuple[bytes, bytes]] | None:
    """The stored (raw, summary) bytes of every call, or None without a
    complete reference for this seed."""
    out = {}
    for call in calls:
        paths = reference_files(workload, seed, call)
        if not all(p.is_file() for p in paths):
            return None
        out[call] = tuple(gzip.decompress(p.read_bytes()) for p in paths)
    return out


def store_reference(workload: str, seed: int, call: str, raw: bytes, summary: bytes) -> None:
    for path, data in zip(reference_files(workload, seed, call), (raw, summary)):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(gzip.compress(data, mtime=0))

