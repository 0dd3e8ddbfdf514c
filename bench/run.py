"""qine benchmark: paving workloads timed end to end, checked, and traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in bench/workloads.py, or ``all`` to
interleave every workload in a seeded order.  With ``--trace 0`` the
benchmark runs samples for S seconds; each sample is a fresh
single-threaded process that imports qine, parses the problem, builds
the SolverConfig, solves and formats the report.  Between samples it
starts set-up-only processes, so set-up time is a median over many.
Every distinct paving is checked by bench/oracle.py.  Times are rescaled
to a reference host speed by the probe in bench/probe.py.  With
``--trace 1`` it runs traced processes (bench/child.py trace) for S
seconds, at least one, and reports the median of each per-layer metric.

The seed drives the oracle's sample points, the micro-benchmark operands
and the order of the interleaved processes; the solver only receives the
problem text and flags.  Stdout carries a table of every metric (median,
quartiles, sample count, unit and better direction) and, as its last
line, one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import oracle
from child import paving_sha256
from workloads import BENCH, ROOT, WORKLOADS

SETUPS_PER_SAMPLE = 1
CHILD_TIMEOUT_S = 100
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
LAYER_MAP = BENCH / "layer_map.json"
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


class ChildFailed(Exception):
    pass


def run_child(*args: str) -> tuple[dict, str]:
    """Run bench/child.py in a fresh process; return its JSON line and the rest of stdout."""
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)  # the child imports qine from this checkout's src/ only
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), *args],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise ChildFailed(f"{' '.join(args)}: exit {proc.returncode}: {tail[0]}")
    head, _, rest = proc.stdout.partition("\n")
    try:
        return json.loads(head), rest
    except json.JSONDecodeError as exc:
        raise ChildFailed(f"{' '.join(args)}: unreadable output") from exc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


@dataclass
class Tally:
    """Outcomes of one workload's processes in one run."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)
    shas: set[str] = field(default_factory=set)
    outputs: list[dict] = field(default_factory=list)  # measurements of processes that completed
    setups: list[float] = field(default_factory=list)

    def fail(self, *messages: str) -> None:
        self.failed += 1
        self.messages.extend(messages)


class Checker:
    """Runs the oracle once per distinct paving of each workload."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.verdicts: dict[tuple[str, str], tuple[list[str], dict]] = {}

    def __call__(self, workload, report: str, ledger: dict, tally: Tally) -> tuple[list[str], dict]:
        sha = paving_sha256(report)
        tally.shas.add(sha)
        key = (workload.name, sha)
        if key not in self.verdicts:
            self.verdicts[key] = oracle.check(workload.problem.read_text(), report, ledger, self.rng)
        return self.verdicts[key]


def sample(name: str, tally: Tally, check: Checker) -> None:
    """One timed solve, then set-up-only processes for the set-up median."""
    tally.attempted += 1
    try:
        out, report = run_child("sample", name)
    except ChildFailed as exc:
        tally.fail(str(exc))
        return
    failures, facts = check(WORKLOADS[name], report, out["ledger"], tally)
    if failures:
        tally.fail(*failures)
    out.update(facts)
    tally.outputs.append(out)
    tally.setups.append(out["setup_s"])
    for _ in range(SETUPS_PER_SAMPLE):
        tally.attempted += 1
        try:
            tally.setups.append(run_child("setup", name)[0]["setup_s"])
        except ChildFailed as exc:
            tally.fail(str(exc))


def trace(name: str, tally: Tally, check: Checker, seed: int) -> None:
    """One traced process: micro-benchmarks, untraced and traced solves."""
    tally.attempted += 1
    try:
        out, report = run_child("trace", name, str(seed))
    except ChildFailed as exc:
        tally.fail(str(exc))
        return
    failures, _ = check(WORKLOADS[name], report, out["ledger"], tally)
    if any(h != paving_sha256(report) for h in out["other_hashes"]):
        failures = failures + ["traced and untraced solves gave different pavings"]
    gap = out["phase_sum_gap"]
    if abs(gap) > 1e-3:
        failures = failures + [f"solver phases, ledger and loop miss {-gap:.2%} of the traced solve_s"]
    if failures:
        tally.fail(*failures)
    tally.outputs.append(out["metrics"])


def measure(names: list[str], seed: int, seconds: float, traced: bool) -> dict[str, Tally]:
    """Interleave the workloads' processes in a seeded order until the time is up."""
    rng = random.Random(seed)
    check = Checker(seed)
    tallies = {n: Tally() for n in names}
    deadline = time.perf_counter() + seconds
    while True:
        for name in rng.sample(names, len(names)):
            if traced:
                trace(name, tallies[name], check, rng.randrange(2**31))
            else:
                sample(name, tallies[name], check)
        if time.perf_counter() >= deadline:
            return tallies


def e2e_series(t: Tally) -> dict[str, list[float]]:
    s = t.outputs
    return {
        "setup_s": t.setups,
        "solve_s": [x["solve_s"] for x in s],
        "report_s": [x["report_s"] for x in s],
        "us_per_node": [x["solve_s"] * 1e6 / x["nodes"] for x in s],
        "nodes": [x["nodes"] for x in s],
        "boundary_boxes": [x["boundary"] for x in s],
        "classified_ratio": [x["classified_ratio"] for x in s],
        "inner_volume_frac": [x["inner_volume_frac"] for x in s],
        "peak_rss_mb": [x["peak_rss_mb"] for x in s],
        "ok_frac": [1.0 - t.failed / t.attempted],
    }


def print_table(title: str, rows: list[tuple[str, list[float], dict, str]]) -> None:
    print(f"== {title}")
    print(f"  {'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>4s}  unit    better  moves")
    for name, values, meta, note in rows:
        q1, med, q3 = quartiles(values)
        print(
            f"  {name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d}  "
            f"{meta['unit']:7s} {meta['better']:7s} {note}"
        )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "qine" / "__init__.py", SPEC) if not p.is_file()]
    missing += [w.problem for w in WORKLOADS.values() if not w.problem.is_file()]
    if missing:
        print(f"error: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        for name in names:
            run_child("setup", name)  # compiles bytecode; fails fast on a broken checkout
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads(SPEC.read_text())
    reference = json.loads(REFERENCE.read_text())
    layer_map = json.loads(LAYER_MAP.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    tallies = measure(names, args.seed, args.seconds, bool(args.trace))

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, t in tallies.items():
        result["attempted"] += t.attempted
        result["failed"] += t.failed
        result["correct"] &= t.failed == 0
        for msg in t.messages:
            print(f"FAILED {name}: {msg}", file=sys.stderr)
        if args.trace:
            series = {m["name"]: [r[m["name"]] for r in t.outputs] for m in declared}
        else:
            series = e2e_series(t)
        if not t.outputs:
            print(f"error: no {name} process completed, nothing to measure", file=sys.stderr)
            return 1
        rows = [(m["name"], series[m["name"]], m, layer_map.get(m["name"], "")) for m in declared]
        print_table(name, rows)
        if not args.trace:
            wall = quartiles([x["solve_wall_s"] for x in t.outputs])[1]
            speed = quartiles([x["speed"] for x in t.outputs])[1]
            stops = ",".join(sorted({x["stop"] for x in t.outputs}))
            print(f"  stop {stops}; wall-clock solve median {wall:.6g} s; times above are rescaled by a median {speed:.4g}")
        for sha in sorted(t.shas):
            changed = sha != reference.get(name)
            print(f"  paving_sha256 {sha}  paving_changed {str(changed).lower()}")
        prefix = f"{name}/" if len(names) > 1 else ""
        for m in declared:
            median = quartiles(series[m["name"]])[1]
            result["metrics"][prefix + m["name"]] = {"value": median, "unit": m["unit"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
