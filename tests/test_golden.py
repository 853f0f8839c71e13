"""Byte-identity of the golden fixture: every algorithm on both models
(bench/golden.py) must reproduce the stored raw and summary CSVs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_golden_fixture_is_byte_identical():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "golden.py")], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
