"""The benchmark's own correctness check still accepts the current reports."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # bench/selftest.py solves a small problem, checks its paving with the
    # benchmark's oracle, and confirms the oracle flags six broken pavings;
    # it reads bench/ and changes nothing there
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
