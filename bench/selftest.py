"""Self-test of the benchmark's correctness check.

    python3 bench/selftest.py

Solves the lens problem at a coarse epsilon, confirms that bench/oracle.py
accepts the paving, then breaks the paving in one way at a time and
confirms that the check meant to catch each break reports it.  Every
broken paving gets a ledger and a ratio line consistent with its boxes,
so only the targeted check can fire.  Exits 1 if any case is missed.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import numpy as np

import oracle
from child import ledger
from workloads import ROOT, WORKLOADS


def solve_lens() -> tuple[str, str, dict[str, str]]:
    sys.path.insert(0, str(ROOT / "src"))
    import qine

    w = WORKLOADS["lens-2b"]
    text = w.problem.read_text()
    problem = qine.parse_problem(text, name=w.problem_name)
    cfg = qine.SolverConfig(epsilon=0.05, mode="2b")
    paving = qine.solve(problem, cfg)
    return text, qine.format_report(problem, cfg, paving), ledger(paving)


def rebuild(report: str, initial: str, inner: list[str], boundary: list[str]) -> tuple[str, dict]:
    """A report of the given records with a matching ledger and ratio line."""
    header = [ln for ln in report.splitlines() if ln.startswith("#")]
    rows = {k: [[float(v) for v in r.split()[1:]] for r in recs] for k, recs in (("inner", inner), ("boundary", boundary))}
    v_init = Fraction(initial)
    v_in = oracle.exact_volume(rows["inner"])
    v_bd = oracle.exact_volume(rows["boundary"])
    ratio = float((v_init - v_bd) / v_init)
    header = [f"# ratio: {ratio!r}" if ln.startswith("# ratio:") else ln for ln in header]
    text = "\n".join(header + inner + boundary) + "\n"
    return text, {"initial": initial, "inner": str(v_in), "boundary": str(v_bd), "queued": "0"}


def main() -> int:
    problem, report, led = solve_lens()
    inner = [ln for ln in report.splitlines() if ln.startswith("inner ")]
    boundary = [ln for ln in report.splitlines() if ln.startswith("boundary ")]
    as_inner = [ln.replace("boundary", "inner", 1) for ln in boundary]
    off_ledger = dict(led, inner=str(Fraction(led["inner"]) + Fraction(1, 2**40)))
    off_ratio = report.replace("# ratio: ", "# ratio: 0.5", 1)
    cases = [
        ("unchanged paving", (report, led), None),
        ("boundary boxes relabelled inner", rebuild(report, led["initial"], inner + as_inner, []), "inner points violate"),
        ("every other inner box dropped", rebuild(report, led["initial"], inner[::2], boundary), "outside the paving satisfy"),
        ("an inner box duplicated", rebuild(report, led["initial"], inner + inner[:1], boundary), "overlap"),
        ("solver ledger off by 2**-40", (report, off_ledger), "ledger differs"),
        ("ratio line altered", (off_ratio, led), "report ratio"),
    ]
    missed = 0
    for label, (text, ledger_), expect in cases:
        failures, _ = oracle.check(problem, text, ledger_, np.random.default_rng(0))
        ok = not failures if expect is None else any(expect in f for f in failures)
        missed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {label}: {failures or 'accepted'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
