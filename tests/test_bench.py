"""The benchmark's own correctness check still accepts the current reports,
and every workload's report still hashes to the benchmark's reference."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import qine

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


sys.path.insert(0, str(ROOT / "bench"))
try:
    from child import paving_sha256
    from workloads import WORKLOADS
finally:
    sys.path.remove(str(ROOT / "bench"))

REFERENCE = json.loads((ROOT / "bench" / "reference.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_report_matches_the_reference_hash(name):
    # a performance change must leave every report byte-identical apart
    # from '# elapsed'; bench/reference.json holds the expected hashes
    w = WORKLOADS[name]
    problem = qine.parse_problem(w.problem.read_text(), name=w.problem_name)
    cfg = qine.SolverConfig(**w.flags)
    report = qine.format_report(problem, cfg, qine.solve(problem, cfg))
    assert paving_sha256(report) == REFERENCE[name]
