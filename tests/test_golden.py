"""Golden reports: each report of a fixed set of solves, minus its '# elapsed'
line, hashes to the entry checked in at tests/golden_reports.json.

A change that moves a paving on purpose (an algorithm change) rewrites the
table in the same commit and names the entries that moved:

    PYTHONPATH=src python tests/test_golden.py

rewrites it from the current tree.  Nothing under bench/ is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TABLE = Path(__file__).resolve().parent / "golden_reports.json"

# (problem file, mode, eps): problems/*.qcsp and lens at 0.01 in both modes,
# and mixed3d at the widest eps that each mode solves in well under a second
RUNS = [
    *(
        (path, mode, 0.01)
        for path in [*sorted((ROOT / "problems").glob("*.qcsp")), ROOT / "bench" / "problems" / "lens.qcsp"]
        for mode in ("2b", "2b+")
    ),
    (ROOT / "bench" / "problems" / "mixed3d.qcsp", "2b+", 0.15),
    (ROOT / "bench" / "problems" / "mixed3d.qcsp", "2b", 0.3),
]


def _key(path: Path, mode: str, eps: float) -> str:
    return f"{path.relative_to(ROOT)} {mode} {eps}"


def report_sha256(path: Path, mode: str, eps: float) -> str:
    """The hash of the report that ``qine solve path --mode mode --eps eps`` writes, minus '# elapsed'."""
    import qine

    problem = qine.parse_problem(path.read_text(), name=path.stem)
    cfg = qine.SolverConfig(epsilon=eps, mode=mode)
    report = qine.format_report(problem, cfg, qine.solve(problem, cfg))
    kept = [ln for ln in report.splitlines(True) if not ln.startswith("# elapsed:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


@pytest.mark.parametrize("path, mode, eps", RUNS, ids=[_key(*run) for run in RUNS])
def test_report_matches_the_golden_hash(path, mode, eps):
    assert report_sha256(path, mode, eps) == json.loads(TABLE.read_text())[_key(path, mode, eps)]


if __name__ == "__main__":
    table = {_key(*run): report_sha256(*run) for run in RUNS}
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    sys.stdout.write(f"wrote {len(table)} hashes to {TABLE}\n")
