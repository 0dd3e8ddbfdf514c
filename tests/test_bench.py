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
    from tracer import INTERVAL_METHODS, SOLVER_NAMES
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


@pytest.mark.parametrize(
    "name, kernels", [("ring2d-ratio", 2), ("lens-2b", 1), ("mixed3d", 6)]
)
def test_a_cold_solve_compiles_one_kernel_per_tape_and_purpose(name, kernels, monkeypatch):
    # one revise kernel per constraint serves both relations and all its
    # copies, one pin kernel per constraint serves every parameter it pins,
    # and one prune kernel stands beside each revise kernel: ring2d has 2
    # constraints and no parameter (nothing to pin), lens 1 solved in 2b (no
    # pinning), mixed3d 3 with parameters solved in 2b+, so 3 revise and 3
    # pin kernels; `kernels` counts the revise and pin kernels
    from qine import contractor, expr

    compiled: list[str] = []
    compile_kernel = expr._compile

    def spy(kernel, params, lines, namespace):
        compiled.append(kernel)
        return compile_kernel(kernel, params, lines, namespace)

    monkeypatch.setattr(expr, "_compile", spy)
    monkeypatch.setattr(contractor, "_compile", spy)
    w = WORKLOADS[name]
    problem = qine.parse_problem(w.problem.read_text(), name=w.problem_name)
    qine.solve(problem, qine.SolverConfig(**w.flags))
    assert len([k for k in compiled if k != "prune"]) == kernels, compiled
    assert compiled.count("prune") == compiled.count("revise"), compiled
    assert compiled.count("pin") == (3 if name == "mixed3d" else 0), compiled


def test_every_name_the_tracer_wraps_is_in_the_solver_namespace():
    # the traced benchmark wraps these names in qine.solver by attribute
    # assignment, and a missing one fails every traced run
    from qine import solver

    assert [name for name in SOLVER_NAMES if not hasattr(solver, name)] == []


@pytest.mark.parametrize("name, called", [("ring2d-ratio", set()), ("lens-2b", set()), ("mixed3d", set())])
def test_a_cold_solve_calls_the_traced_names_it_is_expected_to(name, called, monkeypatch):
    # the traced benchmark times each of these names only when solve calls
    # it.  solve runs its node loop on flat bounds and calls the phases'
    # flat level (solver._pin, _prune, _identify, _cut, _bisect_params), not
    # the Box-level public phase functions, so no traced name is called and
    # the solver.* phase spans read 0; a name that solve comes to call
    # again fails here rather than being timed unnoticed
    from qine import solver

    counts = dict.fromkeys(SOLVER_NAMES, 0)

    def counted(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)

        return wrapper

    for attr in SOLVER_NAMES:
        monkeypatch.setattr(solver, attr, counted(attr, getattr(solver, attr)))
    w = WORKLOADS[name]
    problem = qine.parse_problem(w.problem.read_text(), name=w.problem_name)
    qine.solve(problem, qine.SolverConfig(**w.flags))
    assert {attr for attr, n in counts.items() if n} == called, counts


def test_every_name_the_benchmark_reads_outside_the_solver_still_exists(monkeypatch):
    # the traced benchmark wraps these Interval methods and Box.exact_volume,
    # and bench/micro.py times Interval's operators, Box.exact_volume and
    # eval_interval; the library itself calls none of them
    import importlib

    from qine.interval import Box, Interval

    assert [name for name in INTERVAL_METHODS if not hasattr(Interval, name)] == []
    assert callable(Box.exact_volume)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "micro", raising=False)
    importlib.import_module("micro")


def test_pairs_takes_each_sides_median_of_its_samples():
    # tests/pairs.py --samples K: one side of a pair is K fresh samples,
    # each number their median; run in a child so that neither the import
    # of pairs nor the stand-in for subprocess.run touches this process
    code = """
import json, subprocess, sys
sys.path.insert(0, "tests")
import pairs

def fake(reports):
    runs = iter(reports)
    def run(*args, **kwargs):
        solve_s, report = next(runs)
        out = {"solve_s": solve_s, "nodes": 10, "ledger": "x", "flag": True}
        return subprocess.CompletedProcess(args, 0, json.dumps(out) + "\\n" + report, "")
    return run

subprocess.run = fake([(0.3, "inner 0.0 1.0\\n"), (0.1, "inner 0.0 1.0\\n"), (0.2, "inner 0.0 1.0\\n")])
got, digest = pairs.sample(pairs.ROOT, "ring2d-ratio", 3)
subprocess.run = fake([(0.3, "inner 0.0 1.0\\n"), (0.1, "inner 0.0 2.0\\n")])
print(json.dumps([got, len(digest), pairs.sample(pairs.ROOT, "ring2d-ratio", 2)[1]]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    got, digest_len, differ = json.loads(proc.stdout)
    assert got == {"solve_s": 0.2, "nodes": 10, "ledger": "x", "flag": True, "us_per_node": 20000.0}
    assert (digest_len, differ) == (64, "differ")
