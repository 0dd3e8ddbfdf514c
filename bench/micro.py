"""Micro-benchmarks for the interval and expr layers, in ns per operation.

Operands are drawn from a seeded generator.  Each benchmark warms up with
one untimed pass, then times whole passes over its operand set until its
time budget is spent and reports the median pass, divided by the number
of operations in a pass, rescaled by the host speed probes on either side.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from itertools import repeat

from probe import probe_s, scale
from qine.expr import Binary, Pow, Unary, VarKind, VarRef, derivative_interval, eval_interval
from qine.interval import Box, Interval

OPERANDS = 512
BUDGET_S = 0.25


def _pass_ns(run, ops: int) -> float:
    run()
    passes = []
    deadline = time.perf_counter() + BUDGET_S
    while not passes or time.perf_counter() < deadline:
        t0 = time.perf_counter_ns()
        run()
        passes.append(time.perf_counter_ns() - t0)
    return statistics.median(passes) / ops


def _intervals(
    rng: random.Random, lo: float, hi: float, max_width: float, count: int = OPERANDS
) -> list[Interval]:
    out = []
    for _ in range(count):
        a = rng.uniform(lo, hi)
        out.append(Interval(a, a + rng.uniform(0.0, max_width)))
    return out


def rescaled_ns(cases: dict) -> dict[str, float]:
    """Time each (run, ops) case, rescaled by the probe runs next to it."""
    out = {}
    last = probe_s()
    for name, (run, ops) in cases.items():
        ns = _pass_ns(run, ops)
        now = probe_s()
        out[name] = ns * scale(last, now)
        last = now
    return out


def interval_cases(seed: int, dims: int) -> dict:
    """The Interval kernels that the solver's evaluators call, on seeded operands."""
    rng = random.Random(seed)
    a = _intervals(rng, -4.0, 4.0, 2.0)
    b = _intervals(rng, -4.0, 4.0, 2.0)
    # divisors exclude 0, as in the mixed3d projections c / r
    d = [iv if rng.random() < 0.5 else -iv for iv in _intervals(rng, 0.1, 4.0, 2.0)]
    nonneg = _intervals(rng, 0.0, 9.0, 3.0)
    small = _intervals(rng, -5.0, 3.0, 1.0)
    angles = _intervals(rng, -10.0, 10.0, 2.0)
    boxes = [Box(tuple(_intervals(rng, -2.0, 2.0, 1.0, dims))) for _ in range(OPERANDS // dims)]
    # the workloads' only exponent is 2: pow_int and root_int run with n = 2
    cases = {
        "add": (lambda: list(map(Interval.__add__, a, b)), OPERANDS),
        "mul": (lambda: list(map(Interval.__mul__, a, b)), OPERANDS),
        "div": (lambda: list(map(Interval.__truediv__, a, d)), OPERANDS),
        "sqr": (lambda: list(map(Interval.sqr, a)), OPERANDS),
        "pow": (lambda: list(map(Interval.pow_int, a, repeat(2))), OPERANDS),
        "root": (lambda: list(map(Interval.root_int, nonneg, repeat(2))), OPERANDS),
        "exp": (lambda: list(map(Interval.exp, small)), OPERANDS),
        "sin": (lambda: list(map(Interval.sin, angles)), OPERANDS),
        "intersect": (lambda: list(map(Interval.intersect, a, b)), OPERANDS),
        "exact_volume": (lambda: list(map(Box.exact_volume, boxes)), len(boxes)),
    }
    return {f"interval.{k}_ns": case for k, case in cases.items()}


def tree_size(e) -> int:
    """Number of nodes in an expression tree."""
    if isinstance(e, Binary):
        return 1 + tree_size(e.left) + tree_size(e.right)
    if isinstance(e, Unary):
        return 1 + tree_size(e.child)
    if isinstance(e, Pow):
        return 1 + tree_size(e.base)
    return 1


def expr_cases(problem) -> dict:
    """Evaluation and derivatives of the problem's constraints at its root box, per tree node.

    Derivatives are taken with respect to every variable and parameter,
    so problems without parameters still get a figure.
    """
    x, y = problem.variable_box, problem.parameter_box
    fs = problem.constraints
    nodes = sum(tree_size(f) for f in fs)
    refs = [VarRef(VarKind.VARIABLE, i) for i in range(len(x))]
    refs += [VarRef(VarKind.PARAMETER, j) for j in range(len(y))]
    reps = max(1, math.ceil(200 / nodes))

    def evaluate():
        for _ in range(reps):
            for f in fs:
                eval_interval(f, x, y)

    def differentiate():
        for _ in range(reps):
            for f in fs:
                for r in refs:
                    derivative_interval(f, r, x, y)

    return {
        "expr.eval_ns_per_node": (evaluate, reps * nodes),
        "expr.derivative_ns_per_node": (differentiate, reps * nodes * len(refs)),
    }
