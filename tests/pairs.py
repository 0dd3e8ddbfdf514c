"""Alternating fresh-process benchmark pairs of a parent checkout and this one.

Run as ``python tests/pairs.py PARENT_DIR [--workload W] [--pairs N]
[--samples K]``.  Each pair runs ``bench/child.py sample W`` K times
(default 1) in PARENT_DIR and K times in this checkout, each in a fresh
single-threaded process that imports qine from its own ``src``, and
takes each side's median of every number those K samples report; the
parent goes first on even pairs and second on odd ones.  For each workload and each end-to-end metric a sample
reports, it prints both sides' median and quartiles, the change in the
median, and the pairs the change wins (ties count for neither side), and
calls a gain only where the change wins at least nine tenths of the
pairs and its median differs from the parent's by more than the
parent's interquartile spread.  Reports must hash the same on both
sides, apart from their ``# elapsed`` line.  The script only reads
``bench/`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from child import paving_sha256  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def sample(root: Path, workload: str, samples: int = 1) -> tuple[dict, str]:
    """``samples`` fresh ``bench/child.py sample`` runs of the checkout at root, as one.

    Returns the median of each number they report, and their reports'
    hash, or "differ" when the runs' reports do not hash the same.
    """
    env = dict(os.environ, **SINGLE_THREAD)
    env.pop("PYTHONPATH", None)
    runs, hashes = [], set()
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "child.py"), "sample", workload],
            capture_output=True, text=True, timeout=300, env=env, cwd=root, check=True,
        )
        head, _, report = proc.stdout.partition("\n")
        out = json.loads(head)
        out["us_per_node"] = out["solve_s"] * 1e6 / out["nodes"]
        runs.append(out)
        hashes.add(paving_sha256(report))
    numbers = [key for key, v in runs[0].items() if isinstance(v, (int, float)) and not isinstance(v, bool)]
    merged = {**runs[0], **{key: statistics.median(r[key] for r in runs) for key in numbers}}
    return merged, hashes.pop() if len(hashes) == 1 else "differ"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return q1, med, q3


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="a checkout of the parent commit")
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--pairs", type=int, default=21)
    ap.add_argument("--samples", type=int, default=1, help="fresh-process samples per side of a pair, medianed")
    args = ap.parse_args(argv)
    if args.pairs < 1 or args.samples < 1:
        ap.error("--pairs and --samples must be at least 1")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    spec = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs: dict[str, dict[str, list[dict]]] = {name: {"parent": [], "change": []} for name in names}
    mismatched: dict[str, int] = dict.fromkeys(names, 0)
    for i in range(args.pairs):
        for name in names:
            sides = [("parent", args.parent.resolve()), ("change", ROOT)]
            got = {side: sample(root, name, args.samples) for side, root in (sides if i % 2 == 0 else sides[::-1])}
            mismatched[name] += got["parent"][1] != got["change"][1] or got["change"][1] == "differ"
            for side in runs[name]:
                runs[name][side].append(got[side][0])
            print(f"pair {i + 1}/{args.pairs} {name}: solve_s {got['parent'][0]['solve_s']:.4f} -> "
                  f"{got['change'][0]['solve_s']:.4f}", file=sys.stderr)
    for name in names:
        print(f"== {name}: {args.pairs} pairs of {args.samples} sample(s) a side, reports differ in {mismatched[name]}")
        print(f"  {'metric':18s} {'parent median (q1-q3)':>30s} {'change median (q1-q3)':>30s} {'change':>8s} "
              f"{'wins':>7s}  verdict")
        for metric in (m for m in spec if m in runs[name]["parent"][0]):
            lower = spec[metric]["better"] == "lower"
            p, c = ([r[metric] for r in runs[name][side]] for side in ("parent", "change"))
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
            better = cm < pm if lower else cm > pm
            gain = better and wins >= 0.9 * len(p) and abs(cm - pm) > p3 - p1
            rel = f"{(cm - pm) / pm:+.1%}" if pm else "-"
            print(f"  {metric:18s} {pm:12.6g} ({p1:.6g}-{p3:.6g}) {cm:12.6g} ({c1:.6g}-{c3:.6g}) {rel:>8s} "
                  f"{wins:3d}/{len(p):<3d}  {'gain' if gain else '-'}")
    return 1 if any(mismatched.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
