"""Shared builders and assertion helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

from qine.expr import VarKind, VarRef, parse_expression
from qine.interval import Box, Interval
from qine.solver import Problem


def ulps_between(a: float, b: float, limit: int = 8) -> int:
    """Number of nextafter steps from a to b, or limit+1 when farther."""
    if math.isnan(a) or math.isnan(b):
        return limit + 1
    if a == b:
        return 0
    steps = 0
    cur = a
    direction = math.inf if b > a else -math.inf
    while steps <= limit:
        cur = math.nextafter(cur, direction)
        steps += 1
        if cur == b:
            return steps
    return limit + 1


def assert_bound(actual: float, expected: float, ulps: int = 1) -> None:
    assert ulps_between(actual, expected) <= ulps, (
        f"{actual!r} not within {ulps} ulp of {expected!r}"
    )


def assert_interval(iv: Interval, lo: float, hi: float, ulps: int = 1) -> None:
    assert not iv.is_empty, f"expected [{lo}, {hi}], got empty"
    assert_bound(iv.lo, lo, ulps)
    assert_bound(iv.hi, hi, ulps)


def contains_fraction(iv: Interval, value: Fraction) -> bool:
    if iv.is_empty:
        return False
    lo_ok = iv.lo == -math.inf or Fraction(iv.lo) <= value
    hi_ok = iv.hi == math.inf or value <= Fraction(iv.hi)
    return lo_ok and hi_ok


def subset(a: Interval, b: Interval) -> bool:
    """a ⊆ b; the empty interval is a subset of every interval."""
    return a.is_empty or (not b.is_empty and b.lo <= a.lo and a.hi <= b.hi)


def monotone_problem() -> Problem:
    """One variable, one parameter; the solution set is exactly [9, 15]."""
    syms = {"x": VarRef(VarKind.VARIABLE, 0), "y": VarRef(VarKind.PARAMETER, 0)}
    f = parse_expression("10*y - x - y^2", syms)
    return Problem(
        ("x",),
        Box.from_bounds([(0.0, 15.0)]),
        ("y",),
        Box.from_bounds([(0.0, 1.0)]),
        (f,),
        name="monotone",
    )
