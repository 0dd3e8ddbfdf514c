"""The benchmark's workloads: a problem file and the solver flags for it.

The solver only ever sees the problem text and these flags; the seed never
reaches it, so node counts and pavings are the same on every run.  The
reasons each workload was chosen are repeated in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Workload:
    name: str
    problem: Path
    flags: dict
    why: str

    @property
    def problem_name(self) -> str:
        # the name the CLI gives a problem file; it appears in the report
        return self.problem.stem


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ring2d-ratio",
            ROOT / "problems" / "ring2d.qcsp",
            {"epsilon": 0.001, "stop_ratio": 0.998, "mode": "2b+"},
            "no parameters; ratio stop reads the Fraction ledger every node; largest report",
        ),
        Workload(
            "lens-2b",
            BENCH / "problems" / "lens.qcsp",
            {"epsilon": 0.005, "mode": "2b"},
            "non-monotone parameter without pinning; parameter bisection grows each store",
        ),
        Workload(
            "mixed3d",
            BENCH / "problems" / "mixed3d.qcsp",
            {"epsilon": 0.15, "mode": "2b+"},
            "3 variables, 2 parameters, exp/sin/products; only workload that divides and pins",
        ),
    )
}
