"""Branch-and-prune steps and the full solve loop."""

from __future__ import annotations

import dataclasses
import heapq
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import assert_interval, monotone_problem
from qine.cli import parse_problem
from qine.expr import Binary, Pow, VarKind, VarRef, _tape, derivative_interval, parse_expression
from qine.interval import EMPTY, Box, Interval
from qine.solver import (
    Paving,
    Problem,
    QuantifiedConstraint,
    SolveStats,
    SolverConfig,
    branch,
    classified_ratio,
    global_pruning,
    local_pruning,
    parameter_domain_bisection,
    parameter_instantiation,
    solution_identification,
    solve,
    _ratio_met,
)
from test_contractor import _bits, _full_sweep, _random_dag, _random_interval, _random_tree
from test_expr import SYMS, X, X2, Y, Y2
from test_interval import MIDPOINT_EDGES, _midpoint_ref


def qc(text: str, bounds) -> QuantifiedConstraint:
    dom = Box(()) if bounds is None else Box.from_bounds(bounds)
    return QuantifiedConstraint(parse_expression(text, SYMS), dom)


MONO = qc("10*y - x - y^2", [(0.0, 1.0)])
X_BOX = Box.from_bounds([(0.0, 15.0)])


# ---------------------------------------------------------------------------
# parameter instantiation


def test_instantiation_pins_increasing_constraint_to_upper_endpoint():
    # df/dy = 10 - 2y >= 8 on [0,1], so only y = 1 matters
    (out,) = parameter_instantiation([MONO], X_BOX)
    assert out.param_domain[0] == Interval(1.0, 1.0)
    assert out.f is MONO.f


def test_instantiation_pins_decreasing_constraint_to_lower_endpoint():
    (out,) = parameter_instantiation(
        [qc("x - y", [(0.0, 1.0)])], Box.from_bounds([(0.0, 1.0)])
    )
    assert out.param_domain[0] == Interval(0.0, 0.0)


def test_instantiation_leaves_indefinite_sign_alone():
    # df/dy = 2y - 1 changes sign on [0,1]
    c = qc("y^2 - y - x", [(0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_no_parameters_is_identity():
    c = qc("x1^2 + x2^2 - 3", None)
    (out,) = parameter_instantiation([c], Box.from_bounds([(-2.0, 2.0), (-2.0, 2.0)]))
    assert out is c


def test_instantiation_skips_unbounded_derivative():
    # df/dy = 1/(2 sqrt y) blows up at 0
    c = qc("sqrt(y) - x", [(0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_skips_infinite_endpoint():
    c = QuantifiedConstraint(
        parse_expression("y - x", SYMS), Box.from_bounds([(0.0, math.inf)])
    )
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_later_coordinates_see_earlier_pins():
    # df/dy1 = exp(y2) > 0 pins y1 to 2; only then is df/dy2 = y1 exp(y2)
    # sign-definite, pinning y2 as well
    c = qc("y1 * exp(y2)", [(-1.0, 2.0), (0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out.param_domain[0] == Interval(2.0, 2.0)
    assert out.param_domain[1] == Interval(1.0, 1.0)


@pytest.mark.parametrize(
    "text, bounds",
    [
        ("1/x + y", [(-1.0, 1.0)]),  # d(1/x)/dy is 0 / [0, 1], every real
        ("sqrt(x) + y", [(0.0, 1.0)]),  # 0 / (2 sqrt [0, 1]), every real too
        ("(y + log(x))^0 * x2 + y", [(-2.0, -1.0), (1.0, 2.0)]),  # log(x) is empty, so the partial is
        ("(y + 1)/0 * x2 + y", [(-2.0, -1.0), (0.0, 0.0)]),  # (y + 1)/0 is empty, so the partial is
    ],
)
def test_instantiation_keeps_the_tangents_of_steps_below_a_div_sqrt_or_log(text, bounds):
    # the pin kernel drops the tangent code of steps that do not read the
    # parameter, but not of a div, sqrt or log, nor of a sum or product
    # whose other operand holds one: dropping them would read df/dy = 1
    c = qc(text, [(0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds(bounds))
    assert out is c


# ---------------------------------------------------------------------------
# pruning


def test_local_pruning_uses_domain_midpoint():
    # f(x, 0.5) = 4.75 - x <= 0 cuts everything below 4.75
    out = local_pruning(MONO, X_BOX)
    assert out[0] == Interval(4.75, 15.0)


@pytest.mark.parametrize("lo, hi", [(lo, hi) for lo, hi in MIDPOINT_EDGES if _midpoint_ref(lo, hi) != 0.0])
def test_each_prune_kernel_prunes_at_the_midpoint_of_its_copy(lo, hi):
    # x - y <= 0 at y = m leaves x <= 0.0 + m, which rounds to m itself
    # unless m is a zero; one copy per store, since a run threads x on
    x = Box.from_bounds([(-math.inf, math.inf)])
    m = _midpoint_ref(lo, hi).hex()
    for text, dom in (("x - y", [(lo, hi)]), ("x - y2", [(-1.0, 7.0), (lo, hi)])):
        pruned = global_pruning([qc(text, dom)], x)
        assert pruned[0].lo == -math.inf and pruned[0].hi.hex() == m, (text, dom)


def test_local_pruning_is_global_pruning_of_the_one_copy_store_bit_for_bit():
    for case, store, box in _seeded_stores():
        for c in store:
            assert _bits(local_pruning(c, box)) == _bits(global_pruning((c,), box)), (case, c, box)


def test_global_pruning_applies_constraints_sequentially():
    halves = [
        qc("10*y - x - y^2", [(0.0, 0.5)]),
        qc("10*y - x - y^2", [(0.5, 1.0)]),
    ]
    out = global_pruning(halves, X_BOX)
    # midpoints 0.25 and 0.75 force x >= 2.4375 then x >= 6.9375
    assert out[0] == Interval(6.9375, 15.0)


def test_global_pruning_rejects_infeasible_box():
    out = global_pruning([qc("x + y + 20", [(0.0, 1.0)])], Box.from_bounds([(0.0, 1.0)]))
    assert out.is_empty


# ---------------------------------------------------------------------------
# solution identification


def test_identification_on_pruned_root():
    kept, remainder, pieces = solution_identification([MONO], Box.from_bounds([(4.75, 15.0)]))
    assert len(kept) == 1
    assert_interval(kept[0].param_domain[0], 0.475, 1.0)
    assert_interval(remainder[0], 4.75, 10.0)
    assert len(pieces) == 1
    assert_interval(pieces[0][0], 10.0, 15.0)


def test_identification_drops_constraints_held_everywhere():
    halves = [
        qc("10*y - x - y^2", [(0.0, 0.5)]),
        qc("10*y - x - y^2", [(0.5, 1.0)]),
    ]
    box = Box.from_bounds([(6.9375, 15.0)])
    kept, remainder, pieces = solution_identification(halves, box)
    # max over y in [0,0.5] is 4.75 - x < 0 on the box, so that half is dropped
    assert len(kept) == 1
    assert kept[0].param_domain[0] == Interval(0.5, 1.0).intersect(kept[0].param_domain[0])
    assert_interval(kept[0].param_domain[0], 0.71875, 1.0)
    assert_interval(remainder[0], 6.9375, 9.75)
    assert len(pieces) == 1
    assert_interval(pieces[0][0], 9.75, 15.0)


def test_identification_without_parameters():
    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(-1.0, 1.0)])
    )
    assert len(kept) == 1
    assert remainder[0] == Interval(0.0, 1.0)
    assert len(pieces) == 1 and pieces[0][0] == Interval(-1.0, 0.0)

    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(1.0, 2.0)])
    )
    # the negation holds on the whole box: nothing identified, nothing dropped
    assert len(kept) == 1
    assert remainder[0] == Interval(1.0, 2.0)
    assert pieces == []


def test_identification_infeasible_negation_drops_constraint():
    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(-2.0, -1.0)])
    )
    assert kept == []
    assert remainder.is_empty
    assert len(pieces) == 1 and pieces[0][0] == Interval(-2.0, -1.0)


# ---------------------------------------------------------------------------
# pruning and identification revise each run of one constraint's copies in
# one kernel call; they must give, bit for bit, what revising the copies one
# by one with the full sweep gives, in store order


def _pruned_copy_by_copy(store, box):
    cur = box
    for c in store:
        mid = Box(tuple(Interval.point(iv.midpoint) for iv in c.param_domain.dims))
        cur = _full_sweep(c.f, False, cur, mid)[0]
        if cur.is_empty:
            return cur
    return cur


def _identified_copy_by_copy(store, box):
    kept, remainder = [], None
    for c in store:
        xi, yi = _full_sweep(c.f, True, box, c.param_domain)
        if xi.is_empty:
            continue
        remainder = xi if remainder is None else remainder.hull(xi)
        kept.append(QuantifiedConstraint(c.f, yi))
    if remainder is None:
        remainder = Box.empty(len(box))
    return kept, remainder, box.set_difference_closure(remainder)


# two variables x, x2 and two parameters y, y2; the last two read no parameter
_RUN_TEXTS = (
    "10*y - x - y^2",
    "x^2 + x2^2 + y - 4",
    "x*y - x2*y2 + 0.5",
    "(x - y)^2 + x2*y2 - 1",
    "sqrt(x + 4) - y*x2",
    "x + x2 - 0.25",
    "x^2 - x2",
)


def _copies(rng, f, count):
    copies = []
    for _ in range(count):
        dims = [_random_interval(rng) for _ in range(2)]
        if rng.random() < 0.3:  # a pinned coordinate
            j = rng.randrange(2)
            dims[j] = Interval(dims[j].hi, dims[j].hi)
        copies.append(QuantifiedConstraint(f, Box(tuple(dims))))
    return copies


def _reads(f):
    return {a for op, a, _ in _tape(f)[0] if op == "param"}


def _seeded_stores():
    """2,000 seeded (case, store, box): runs of copies of the _RUN_TEXTS and of
    random trees and DAGs, 12 of them reading both parameters, over boxes
    with signed zeros, points and empties."""
    rng = random.Random(2209)
    pool = [parse_expression(text, SYMS) for text in _RUN_TEXTS]
    pool += [_random_tree(rng, 4) if k % 2 else _random_dag(rng, rng.randint(1, 8)) for k in range(40)]
    while len(pool) < len(_RUN_TEXTS) + 52:
        refs = (X, X2, Y, Y2)
        f = _random_tree(rng, 4, refs) if len(pool) % 2 else _random_dag(rng, rng.randint(2, 8), refs)
        if _reads(f) == {0, 1}:
            pool.append(f)
    for case in range(2000):
        store = []
        for f in rng.sample(pool, rng.randint(1, 3)):
            store += _copies(rng, f, rng.randint(1, 6))
        dims = [_random_interval(rng) for _ in range(2)]
        if rng.random() < 0.1:
            dims[rng.randrange(2)] = EMPTY
        yield case, store, Box(tuple(dims))


def test_run_kernels_match_revising_copy_by_copy_bit_for_bit():
    seen = {"mid-run empty": 0, "kept whole": 0, "dropped": 0, "cut": 0}
    for case, store, box in _seeded_stores():
        got, want = global_pruning(store, box), _pruned_copy_by_copy(store, box)
        if box.is_empty:
            # an empty box is rejected whatever bounds it holds
            assert got.is_empty and want.is_empty, (case, store, box)
        else:
            assert _bits(got) == _bits(want), (case, store, box)
            emptied = next((k for k in range(len(store)) if _pruned_copy_by_copy(store[: k + 1], box).is_empty), None)
            seen["mid-run empty"] += emptied is not None and emptied > 0 and store[emptied - 1].f is store[emptied].f
        for c in store[:2]:
            assert _bits(local_pruning(c, box)) == _bits(_pruned_copy_by_copy([c], box)), (case, c, box)
        kept, remainder, pieces = solution_identification(store, box)
        want_kept, want_remainder, want_pieces = _identified_copy_by_copy(store, box)
        assert [c.f for c in kept] == [c.f for c in want_kept], (case, store, box)
        assert [_bits(c.param_domain) for c in kept] == [_bits(c.param_domain) for c in want_kept], (case, store, box)
        assert _bits(remainder) == _bits(want_remainder), (case, store, box)
        assert [_bits(piece) for piece in pieces] == [_bits(piece) for piece in want_pieces], (case, store, box)
        ids = {id(c) for c in store}
        seen["kept whole"] += sum(id(c) in ids for c in kept)
        seen["cut"] += sum(id(c) not in ids for c in kept)
        seen["dropped"] += len(store) - len(kept)
    assert min(seen.values()) >= 50, seen


def _pinned_copy_by_copy(store, box, seen):
    """Reference: 2B+ pinning one copy and one coordinate at a time, through
    derivative_interval; ``seen`` tallies each coordinate's outcome."""
    out = []
    for qc in store:
        dom = qc.param_domain
        for j, iv in enumerate(dom.dims):
            if iv.is_degenerate:
                continue
            d = derivative_interval(qc.f, VarRef(VarKind.PARAMETER, j), box, dom)
            if d.is_empty or math.isinf(d.lo) or math.isinf(d.hi):
                seen["empty or unbounded"] += 1
                continue
            if d.lo >= 0.0 and math.isfinite(iv.hi):
                dom = dom.replace(j, Interval(iv.hi, iv.hi))
                seen["up"] += 1
            elif d.hi <= 0.0 and math.isfinite(iv.lo):
                dom = dom.replace(j, Interval(iv.lo, iv.lo))
                seen["down"] += 1
            else:
                seen["not sign-definite"] += 1
        out.append(qc if dom is qc.param_domain else QuantifiedConstraint(qc.f, dom))
    return out


def test_pin_kernels_match_pinning_copy_by_copy_bit_for_bit():
    """Each copy's unread coordinates are collapsed at their upper endpoint
    first, as solve's root store has them; the kernels leave those alone.
    Pins on an empty box are unspecified, since solve never pins one, and
    pinning copy by copy already pins some copies there, such as y - x's."""
    seen = dict.fromkeys(("up", "down", "not sign-definite", "empty or unbounded"), 0)
    for case, store, box in _seeded_stores():
        if box.is_empty:
            continue
        store = [
            QuantifiedConstraint(c.f, Box(tuple(
                iv if j in _reads(c.f) else Interval(iv.hi, iv.hi) for j, iv in enumerate(c.param_domain.dims)
            )))
            for c in store
        ]
        got, want = parameter_instantiation(store, box), _pinned_copy_by_copy(store, box, seen)
        assert [c.f for c in got] == [c.f for c in want], (case, store, box)
        assert [_bits(c.param_domain) for c in got] == [_bits(c.param_domain) for c in want], (case, store, box)
        assert [c is s for c, s in zip(got, store)] == [c is s for c, s in zip(want, store)], (case, store, box)
    assert min(seen.values()) >= 50, seen


def _split_run_stores():
    """1,000 seeded (case, store, box) whose store holds copies of f, then of
    g, then of f again, so that f's copies form two runs that do not touch;
    f and g are _RUN_TEXTS or random trees and DAGs."""
    rng = random.Random(2910)
    pool = [parse_expression(text, SYMS) for text in _RUN_TEXTS]
    pool += [_random_tree(rng, 4) if k % 2 else _random_dag(rng, rng.randint(1, 8)) for k in range(20)]
    for case in range(1000):
        f, g = rng.sample(pool, 2)
        store = [*_copies(rng, f, rng.randint(1, 4)), *_copies(rng, g, rng.randint(1, 4))]
        store += _copies(rng, f, rng.randint(1, 4))
        dims = [_random_interval(rng) for _ in range(2)]
        if rng.random() < 0.1:
            dims[rng.randrange(2)] = EMPTY
        yield case, store, Box(tuple(dims))


def test_a_constraint_split_into_two_runs_matches_copy_by_copy_bit_for_bit():
    # each run ends where the expression changes, and f's second run is
    # revised and pinned by the same kernels as its first, from where the
    # run before it left off: pruning, identification and pinning give what
    # the copy-by-copy references give, bit for bit and box identity included
    seen = {"second run cuts": 0, "dropped": 0, "kept whole": 0, "cut": 0}
    pins = dict.fromkeys(("up", "down", "not sign-definite", "empty or unbounded"), 0)
    for case, store, box in _split_run_stores():
        runs = sum(k == 0 or store[k].f is not store[k - 1].f for k in range(len(store)))
        assert runs == 3, case
        got, want = global_pruning(store, box), _pruned_copy_by_copy(store, box)
        if box.is_empty:
            assert got.is_empty and want.is_empty, (case, store, box)
            continue
        assert _bits(got) == _bits(want), (case, store, box)
        last = max(k for k in range(len(store)) if store[k].f is not store[-1].f) + 1  # f's second run
        seen["second run cuts"] += _bits(_pruned_copy_by_copy(store[:last], box)) != _bits(got)
        kept, remainder, pieces = solution_identification(store, box)
        want_kept, want_remainder, want_pieces = _identified_copy_by_copy(store, box)
        assert [c.f for c in kept] == [c.f for c in want_kept], (case, store, box)
        assert [_bits(c.param_domain) for c in kept] == [_bits(c.param_domain) for c in want_kept], (case, store, box)
        assert _bits(remainder) == _bits(want_remainder), (case, store, box)
        assert [_bits(piece) for piece in pieces] == [_bits(piece) for piece in want_pieces], (case, store, box)
        ids = {id(c) for c in store}
        seen["kept whole"] += sum(id(c) in ids for c in kept)
        seen["cut"] += sum(id(c) not in ids for c in kept)
        seen["dropped"] += len(store) - len(kept)
        # unread coordinates collapsed at their upper endpoint, as solve's root store has them
        store = [
            QuantifiedConstraint(c.f, Box(tuple(
                iv if j in _reads(c.f) else Interval(iv.hi, iv.hi) for j, iv in enumerate(c.param_domain.dims)
            )))
            for c in store
        ]
        got, want = parameter_instantiation(store, box), _pinned_copy_by_copy(store, box, pins)
        assert [c.f for c in got] == [c.f for c in want], (case, store, box)
        assert [_bits(c.param_domain) for c in got] == [_bits(c.param_domain) for c in want], (case, store, box)
        assert [c is s for c, s in zip(got, store)] == [c is s for c, s in zip(want, store)], (case, store, box)
    assert min(seen.values()) >= 30 and min(pins.values()) >= 30, (seen, pins)


def test_identification_cuts_the_pieces_set_difference_closure_cuts_bit_for_bit():
    # identification cuts straight from the kernels' hull, without
    # set_difference_closure's intersect; the hull lies inside the box, each
    # coordinate the box's own interval or one the kernel rebuilt
    seen = {"whole": 0, "uncut": 0, "cut": 0, "empty box": 0}
    for case, store, box in _seeded_stores():
        _, remainder, pieces = solution_identification(store, box)
        assert [_bits(piece) for piece in pieces] == [
            _bits(piece) for piece in box.set_difference_closure(remainder)
        ], (case, store, box)
        key = "empty box" if box.is_empty else "whole" if remainder.is_empty else "uncut" if remainder is box else "cut"
        seen[key] += 1
    assert min(seen.values()) >= 50, seen


def test_identification_returns_a_remainder_that_is_the_box_without_cutting(monkeypatch):
    # x >= 0 on all of [1, 2]: the kernel hands back the box itself, and
    # identification answers no pieces without a call of the cutting routine
    cuts = []
    monkeypatch.setattr(Box, "_cut", lambda self, inner: cuts.append(inner) or [])
    box = Box.from_bounds([(1.0, 2.0), (-0.0, 0.0)])
    kept, remainder, pieces = solution_identification([qc("x", None)], box)
    assert remainder is box and pieces == [] and cuts == []
    assert len(kept) == 1


def test_a_run_stops_at_the_copy_that_empties_the_box():
    # the second copy's midpoint 0.75 asks x <= -0.75, outside [0, 1]; the
    # third would fail too, and pruning returns the canonical empty box
    f = parse_expression("x + y", SYMS)
    store = [QuantifiedConstraint(f, Box.from_bounds([(lo, lo + 0.5)])) for lo in (-1.0, 0.5, 1.0)]
    box = Box.from_bounds([(0.0, 1.0)])
    assert global_pruning(store[:1], box) == Box.from_bounds([(0.0, 0.75)])
    assert global_pruning(store, box) == Box.empty(1)


@pytest.mark.parametrize("order, hi", [(1, "0x0.0p+0"), (-1, "-0x0.0p+0")])
def test_identification_hulls_tied_zero_bounds_as_interval_hull_does(order, hi):
    # the regions of y - x >= 0 end at y's upper bound, 0.0 for one copy and
    # -0.0 for the other; max keeps the first of tied zeros, in store order
    f = parse_expression("y - x", SYMS)
    store = [QuantifiedConstraint(f, Box.from_bounds([d])) for d in ((0.0, 0.0), (-1.0, -0.0))[::order]]
    _, remainder, _ = solution_identification(store, Box.from_bounds([(-1.0, 1.0)]))
    assert _bits(remainder) == (("-0x1.0000000000000p+0", hi),)
    assert _bits(remainder) == _bits(_identified_copy_by_copy(store, Box.from_bounds([(-1.0, 1.0)]))[1])


def test_identification_keeps_a_copy_it_does_not_cut_as_it_came():
    # x - 5 >= 0 fails on all of [0, 1]: the copy is dropped.  x - 0.5 >= 0
    # holds on [0.5, 1] whatever y, so the copy is kept whole, domain and all
    box = Box.from_bounds([(0.0, 1.0)])
    whole = qc("x - 0.5 + 0*y", [(0.0, 1.0)])
    kept, remainder, pieces = solution_identification([qc("x - 5", [(0.0, 1.0)]), whole], box)
    assert kept == [whole] and kept[0] is whole
    assert remainder == Box.from_bounds([(0.5, 1.0)])
    assert pieces == [Box.from_bounds([(0.0, 0.5)])]


# ---------------------------------------------------------------------------
# parameter domain bisection and branching


def test_bisection_splits_widest_coordinate():
    out = parameter_domain_bisection([MONO], epsilon=1e-3)
    assert [c.param_domain[0] for c in out] == [Interval(0.0, 0.5), Interval(0.5, 1.0)]
    assert all(c.f is MONO.f for c in out)


def test_bisection_picks_widest_axis_only():
    c = qc("y1 + y2 - x", [(0.0, 1.0), (0.0, 4.0)])
    out = parameter_domain_bisection([c], epsilon=1e-3)
    assert [tuple(d) for d in (out[0].param_domain, out[1].param_domain)] == [
        (Interval(0.0, 1.0), Interval(0.0, 2.0)),
        (Interval(0.0, 1.0), Interval(2.0, 4.0)),
    ]


def test_bisection_respects_epsilon():
    assert parameter_domain_bisection([MONO], epsilon=2.0) == [MONO]
    assert parameter_domain_bisection([qc("x", None)], epsilon=1e-3) == [qc("x", None)]


def test_branch_bisects_widest_axis_lowest_index_on_ties():
    left, right = branch(X_BOX)
    assert left[0] == Interval(0.0, 7.5) and right[0] == Interval(7.5, 15.0)
    left, right = branch(Box.from_bounds([(0.0, 1.0), (0.0, 1.0)]))
    assert left[0] == Interval(0.0, 0.5) and left[1] == Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# full solve


def test_solve_monotone_problem_exactly():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, mode="2b+"))
    assert paving.inner == [Box.from_bounds([(9.0, 15.0)])]
    assert paving.boundary == []
    assert paving.stats.nodes_processed <= 3
    assert paving.stats.stop_reason == "complete"
    assert classified_ratio(paving) == 1.0


def test_solve_without_instantiation_still_converges():
    paving = solve(monotone_problem(), SolverConfig(epsilon=0.01, mode="2b"))
    assert paving.stats.stop_reason == "complete"
    assert paving.stats.volume_inner >= 5.9
    for b in paving.inner:
        assert b[0].lo >= 9.0 - 0.011 and b[0].hi <= 15.0 + 1e-12
    for b in paving.boundary:
        assert b.width <= 0.01 + 1e-12
    # ledger closes: everything is inner, boundary or rejected
    s = paving.stats
    assert s.exact_queued == 0
    assert s.exact_inner + s.exact_boundary <= s.exact_initial
    assert classified_ratio(paving) > 0.99


def test_solve_infeasible_problem_rejects_everything():
    f = parse_expression("x + y + 20", SYMS)
    problem = Problem(
        ("x",),
        Box.from_bounds([(0.0, 1.0)]),
        ("y",),
        Box.from_bounds([(0.0, 1.0)]),
        (f,),
        name="infeasible",
    )
    paving = solve(problem)
    assert paving.inner == [] and paving.boundary == []
    assert paving.stats.nodes_processed == 1
    assert classified_ratio(paving) == 1.0


def test_solve_is_deterministic():
    cfg = SolverConfig(epsilon=0.01, mode="2b")
    a = solve(monotone_problem(), cfg)
    b = solve(monotone_problem(), cfg)
    assert a.inner == b.inner
    assert a.boundary == b.boundary
    assert a.stats.nodes_processed == b.stats.nodes_processed


def test_solve_ratio_stop():
    paving = solve(
        monotone_problem(), SolverConfig(epsilon=1e-4, mode="2b", stop_ratio=0.98)
    )
    assert paving.stats.stop_reason == "ratio"
    assert classified_ratio(paving) >= 0.98
    # unclassified volume, queue included, is at most 2% of the initial box
    assert paving.stats.volume_boundary <= 0.02 * 15.0 + 1e-12
    assert paving.stats.exact_queued == 0


def test_solve_node_budget_stop():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, mode="2b", max_nodes=3))
    assert paving.stats.stop_reason == "nodes"
    assert paving.stats.nodes_processed == 3
    s = paving.stats
    assert s.exact_queued == 0
    rejected = s.exact_initial - s.exact_inner - s.exact_boundary
    assert rejected >= 0


def test_solve_time_limit_stop():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, time_limit=1e-9))
    assert paving.stats.stop_reason == "time"
    # the whole queue lands in the boundary
    assert paving.stats.exact_inner + paving.stats.exact_boundary == paving.stats.exact_initial


def test_progress_reports_every_node_with_monotone_ratio():
    ratios = []
    paving = solve(
        monotone_problem(),
        SolverConfig(epsilon=0.01, mode="2b"),
        progress=lambda p: ratios.append(classified_ratio(p)),
    )
    assert len(ratios) == paving.stats.nodes_processed
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == classified_ratio(paving)


def disc_problem() -> Problem:
    f = parse_expression("x1^2 + x2^2 - 1", SYMS)
    return Problem(
        ("x1", "x2"), Box.from_bounds([(-2.0, 2.0), (-1.5, 1.5)]), (), Box(()), (f,), name="disc"
    )


def test_progress_sees_volumes_derived_from_the_ledger():
    def check(p):
        s = p.stats
        for key in ("initial", "inner", "boundary"):
            assert getattr(s, "volume_" + key) == float(getattr(s, "exact_" + key))
        assert s.exact_inner == sum((b.exact_volume() for b in p.inner), Fraction(0))
        assert s.exact_boundary == sum((b.exact_volume() for b in p.boundary), Fraction(0))
        seen.append(s.nodes_processed)

    seen = []
    paving = solve(disc_problem(), SolverConfig(epsilon=0.05), progress=check)
    assert seen == list(range(1, paving.stats.nodes_processed + 1))
    check(paving)


def test_ratio_stop_is_the_first_node_reaching_the_ratio():
    # ratios[k] is the classified ratio once k nodes have been processed
    ratios = [0.0]
    full = solve(
        disc_problem(),
        SolverConfig(epsilon=0.05),
        progress=lambda p: ratios.append(classified_ratio(p)),
    )
    assert full.stats.stop_reason == "complete"
    hits = sorted(set(ratios[1:-1]))
    # each target is hit exactly by a node, or lies one float above a hit
    picks = hits[:: max(1, len(hits) // 6)] + [hits[-1]]
    targets = picks + [math.nextafter(r, 1.0) for r in picks]
    total = full.stats.nodes_processed
    for target in targets:
        paving = solve(disc_problem(), SolverConfig(epsilon=0.05, stop_ratio=target))
        first = next((k for k, r in enumerate(ratios) if r >= target), total)
        assert paving.stats.nodes_processed == first, target
        assert paving.stats.stop_reason == ("ratio" if first < total else "complete")


@pytest.mark.parametrize("stop_ratio", [1.0, 0.75, 0.998, 0.1, math.nextafter(1.0, 0.0), 5e-324])
@pytest.mark.parametrize("initial", [Fraction(1), Fraction(15), Fraction(3, 7)])
def test_ratio_test_agrees_with_float_rounding_at_ties(stop_ratio, initial):
    below = math.nextafter(stop_ratio, 0.0)
    mid = (Fraction(below) + Fraction(stop_ratio)) / 2  # rounds to the even neighbour
    tiny = Fraction(1, 2**1200)
    a, b = initial.numerator, initial.denominator
    for ratio in (mid - tiny, mid, mid + tiny, Fraction(below), Fraction(stop_ratio)):
        u = (1 - ratio) * initial  # the unclassified volume
        met = _ratio_met(u.numerator * b, a * u.denominator, stop_ratio)
        assert met == (float(ratio) >= stop_ratio), ratio


# The ledger is kept in integers over a shared 2**K.  Near the subnormal
# literal the boxes' bounds are subnormal, so K passes 2,000 bits.
SUBNORMAL = "var x in [0,1]; var y in [0,1]; constraint x*y <= 1e-310;"


def assert_ledger_is_the_box_sums(p: Paving) -> None:
    s = p.stats
    assert s.exact_inner == sum((b.exact_volume() for b in p.inner), Fraction(0))
    assert s.exact_boundary == sum((b.exact_volume() for b in p.boundary), Fraction(0))


@pytest.mark.parametrize("mode", ["2b", "2b+"])
def test_ledger_is_exact_at_tiny_eps(mode):
    ex1 = solve(monotone_problem(), SolverConfig(epsilon=1e-300, mode=mode))
    assert ex1.stats.stop_reason == "complete"
    assert_ledger_is_the_box_sums(ex1)
    deep = solve(parse_problem(SUBNORMAL), SolverConfig(epsilon=1e-300, mode=mode, max_nodes=400))
    assert max(b.dyadic_volume()[1] for b in deep.inner + deep.boundary) > 2000
    assert_ledger_is_the_box_sums(deep)


@pytest.mark.parametrize(
    "problem, cfg",
    [
        (disc_problem(), SolverConfig(epsilon=0.05)),
        (parse_problem(SUBNORMAL), SolverConfig(epsilon=1e-300, mode="2b", max_nodes=400)),
    ],
    ids=["disc", "subnormal"],
)
def test_rejected_volume_never_decreases(problem, cfg):
    rejected = [Fraction(0)]

    def check(p):
        s = p.stats
        rejected.append(s.exact_initial - s.exact_inner - s.exact_boundary - s.exact_queued)

    paving = solve(problem, cfg, progress=check)
    assert len(rejected) == paving.stats.nodes_processed + 1
    assert all(a <= b for a, b in zip(rejected, rejected[1:]))


def test_ratio_stop_on_the_ledger_agrees_with_classified_ratio():
    # K grows from 0 to over 1,000 bits in this run; the stop must land on
    # the first node whose classified ratio reaches the target, for targets
    # one float below, at and one float above a node's ratio
    problem = parse_problem("var x in [-1,1]; constraint x + x^2 <= 0;")
    cfg = dict(epsilon=1e-300, mode="2b")
    ratios = [0.0]
    full = solve(problem, SolverConfig(**cfg), progress=lambda p: ratios.append(classified_ratio(p)))
    assert full.stats.stop_reason == "complete"
    total = full.stats.nodes_processed
    hits = sorted(set(ratios[1:]))
    targets = set()
    for r in hits[:: max(1, len(hits) // 8)] + [hits[-1]]:
        targets.update(t for t in (math.nextafter(r, 0.0), r, math.nextafter(r, 2.0)) if 0.0 < t <= 1.0)
    for target in sorted(targets):
        paving = solve(problem, SolverConfig(stop_ratio=target, **cfg))
        first = next((k for k, r in enumerate(ratios) if r >= target), total)
        assert paving.stats.nodes_processed == first, target
        assert paving.stats.stop_reason == ("ratio" if first < total else "complete")


def test_solve_emits_unsplittable_remainders_as_boundary():
    # with eps far below float spacing the remainder at x = 9 runs out of
    # midpoints; it must land in the boundary, not raise
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-300, mode="2b"))
    s = paving.stats
    assert s.stop_reason == "complete"
    assert paving.boundary and all(b.width > 1e-300 for b in paving.boundary)
    # the ledger closes on the boxes: inner + boundary + rejected = initial
    # with nothing queued, and the solutions are exactly x in [9, 15]
    assert s.exact_queued == 0
    assert s.exact_inner == sum((b.exact_volume() for b in paving.inner), Fraction(0))
    assert s.exact_boundary == sum((b.exact_volume() for b in paving.boundary), Fraction(0))
    rejected = s.exact_initial - s.exact_inner - s.exact_boundary
    assert 6 - 1e-12 < s.exact_inner <= 6
    assert 9 - 1e-12 < rejected <= 9
    for b in paving.boundary:
        assert 9.0 - 1e-13 < b[0].lo and b[0].hi < 9.0 + 1e-13


def test_bisection_leaves_unsplittable_domain_whole():
    c = qc("10*y - x - y^2", [(0.5, math.nextafter(0.5, 1.0))])
    assert parameter_domain_bisection([c], epsilon=1e-300) == [c]


def test_classified_ratio_counts_rejected_volume():
    stats = SolveStats(exact_initial=Fraction(15), exact_queued=Fraction(15))
    paving = Paving([], [], stats, X_BOX)
    assert classified_ratio(paving) == 0.0
    stats.exact_queued = Fraction(0)
    stats.exact_inner = Fraction(6)
    assert classified_ratio(paving) == 1.0  # the other 9 count as rejected
    stats.exact_boundary = Fraction(3)
    stats.exact_inner = Fraction(6)
    assert classified_ratio(paving) == pytest.approx(12 / 15)


def test_volumes_past_the_largest_double_read_inf():
    # the ledger rounds to nearest as float rounding does: up to the largest
    # double plus half an ulp, exclusive, it reads that double
    half_ulp_past = 2**1024 - 2**970
    stats = SolveStats(
        exact_initial=Fraction(2**1100),
        exact_inner=Fraction(half_ulp_past),
        exact_boundary=Fraction(half_ulp_past) - Fraction(1, 3),
    )
    assert stats.volume_initial == math.inf
    assert stats.volume_inner == math.inf
    assert stats.volume_boundary == sys.float_info.max


def test_classified_ratio_requires_volume():
    stats = SolveStats()
    with pytest.raises(ValueError):
        classified_ratio(Paving([], [], stats, Box(())))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="3b")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(stop_ratio=0.0)
    with pytest.raises(ValueError):
        SolverConfig(stop_ratio=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_nodes=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0.0)
    assert SolverConfig(mode="2B+").mode == "2b+"


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", True),
        ("stop_ratio", False),
        ("time_limit", True),
        ("max_nodes", True),
        ("max_nodes", 2.5),
        ("max_nodes", 3.0),
        ("epsilon", "0.01"),
        ("epsilon", None),
        ("time_limit", 10**400),
        ("mode", 3),
        ("mode", None),
    ],
)
def test_solver_config_refuses_what_its_flags_line_cannot_replay(field, value):
    # the report prints each field as a command-line flag: a bool would read
    # True, a float node limit 2.5, and neither parses back
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_problem_rejects_a_zero_width_variable_domain():
    f = parse_expression("x1 + x2 - 2.5", SYMS)
    with pytest.raises(ValueError, match="zero-width domain for variable z"):
        Problem(("x", "z"), Box.from_bounds([(0.0, 1.0), (2.0, 2.0)]), (), Box(()), (f,))
    # a parameter domain may still be a point
    g = parse_expression("x - y", SYMS)
    point = Problem(("x",), Box.from_bounds([(0.0, 1.0)]), ("y",), Box.from_bounds([(0.5, 0.5)]), (g,))
    assert classified_ratio(solve(point, SolverConfig(epsilon=0.1))) == 1.0


def test_problem_validation():
    f = parse_expression("x - y", SYMS)
    with pytest.raises(ValueError):
        Problem((), Box(()), ("y",), Box.from_bounds([(0.0, 1.0)]), (f,))
    with pytest.raises(ValueError):
        Problem(("x",), Box.from_bounds([(0.0, 1.0)]), (), Box(()), ())
    with pytest.raises(ValueError):
        Problem(
            ("x", "z"),
            Box.from_bounds([(0.0, 1.0)]),
            (),
            Box(()),
            (f,),
        )
    with pytest.raises(ValueError):
        Problem(
            ("x",),
            Box.from_bounds([(0.0, math.inf)]),
            (),
            Box(()),
            (f,),
        )


@pytest.mark.parametrize(
    "ref, message",
    [
        (VarRef(VarKind.VARIABLE, 1), "constraint 1 reads variable index 1, but only 1 variables exist"),
        (VarRef(VarKind.PARAMETER, 0), "constraint 1 reads parameter index 0, but only 0 parameters exist"),
        (VarRef(VarKind.VARIABLE, -1), "constraint 1: variable or parameter index -1"),
        (VarRef(VarKind.PARAMETER, -1), "constraint 1: variable or parameter index -1"),
    ],
)
def test_problem_rejects_a_reference_outside_its_boxes(ref, message):
    # solve used to end in an IndexError from inside a compiled kernel
    with pytest.raises(ValueError, match=message):
        Problem(("x",), Box.from_bounds([(0.0, 1.0)]), (), Box(()), (Binary("add", VarRef(VarKind.VARIABLE, 0), ref),))


@pytest.mark.parametrize(
    "f, message",
    [
        (Pow(VarRef(VarKind.VARIABLE, 0), True), "exponent True is not an integer >= 0"),
        (Pow(VarRef(VarKind.VARIABLE, 0), False), "exponent False is not an integer >= 0"),
        (VarRef(VarKind.VARIABLE, False), "variable or parameter index False"),
        (VarRef(VarKind.PARAMETER, True), "variable or parameter index True"),
    ],
)
def test_problem_rejects_a_bool_exponent_or_index(f, message):
    # a bool is an int, and its text True or False in a kernel's source
    # made solve end in a SyntaxError: 2b+'s tangent rule wrote {b}.0 as True.0
    x, y = Box.from_bounds([(-1.0, 2.0)]), Box.from_bounds([(0.0, 1.0)])
    with pytest.raises(ValueError, match=message):
        Problem(("x",), x, ("y",), y, (Binary("add", f, VarRef(VarKind.PARAMETER, 0)),))


@pytest.mark.parametrize("name", ["a\nb", "a\r\nb", "a\u2028b", "a\x0cb", "ab\n"])
def test_problem_rejects_a_name_with_a_line_break(name):
    # the name is the report's '# problem:' header line, which parse_report
    # read back as a malformed record
    f = parse_expression("x - 1", {"x": VarRef(VarKind.VARIABLE, 0)})
    with pytest.raises(ValueError, match="holds a line break"):
        Problem(("x",), Box.from_bounds([(0.0, 1.0)]), (), Box(()), (f,), name=name)


@pytest.mark.parametrize("mode", ["2b", "2b+"])
def test_a_constraint_copy_starts_collapsed_on_the_parameters_it_does_not_read(mode, monkeypatch):
    # f does not depend on a parameter it never reads, so its copy is
    # collapsed there from the root store on, at the upper endpoint that
    # 2B+ pinning picks, and parameter bisection never splits it
    from qine import solver

    problem = parse_problem(
        "var x in [0,1]; param a in [0,1]; param b in [-1,2];"
        "constraint x + a - 3 <= 0; constraint x*(b - 0.5)^2 - 1 <= 0;"
    )
    stores = []
    pruning = solver.global_pruning
    monkeypatch.setattr(solver, "global_pruning", lambda store, box: stores.append(store) or pruning(store, box))
    solve(problem, SolverConfig(epsilon=0.05, mode=mode))
    assert len(stores) > 1
    for store in stores:
        for qc in store:
            unread = 1 if qc.f is problem.constraints[0] else 0
            hi = problem.parameter_box.dims[unread].hi
            assert qc.param_domain.dims[unread] == Interval(hi, hi)


def test_solver_config_is_frozen():
    cfg = SolverConfig(mode="2B")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.mode = "3b"
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epsilon = -1.0
    assert (cfg.mode, cfg.epsilon) == ("2b", 1e-3)


# ---------------------------------------------------------------------------
# the node loop builds no checked objects


@pytest.mark.parametrize(
    "path, mode, coarse, fine",
    [
        ("problems/ring2d.qcsp", "2b+", 0.1, 0.05),
        ("bench/problems/lens.qcsp", "2b", 0.1, 0.05),
        ("bench/problems/mixed3d.qcsp", "2b+", 0.6, 0.3),
    ],
)
def test_solve_constructs_no_checked_object_per_node(path, mode, coarse, fine, problems_dir, monkeypatch):
    # constraints, intervals and boxes built inside the loop skip their
    # dataclass __init__ and __post_init__, so a solve runs them only for
    # the root store, however many nodes it processes
    problem = parse_problem((problems_dir.parent / path).read_text())
    solve(problem, SolverConfig(epsilon=coarse, mode=mode))  # compiles the kernels
    counts: dict[str, int] = {}
    for cls, attr in (
        (Interval, "__post_init__"),
        (Box, "__post_init__"),
        (QuantifiedConstraint, "__init__"),
    ):
        def counted(self, *args, _orig=getattr(cls, attr), _key=f"{cls.__name__}.{attr}", **kwargs):
            counts[_key] = counts.get(_key, 0) + 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)
    nodes = []
    for eps in (coarse, fine):
        counts.clear()
        nodes.append(solve(problem, SolverConfig(epsilon=eps, mode=mode)).stats.nodes_processed)
        assert counts == {"QuantifiedConstraint.__init__": len(problem.constraints)}, eps
    assert nodes[1] > 2 * nodes[0] > 20


def test_a_ratio_solve_rederives_no_box_it_built(problems_dir, monkeypatch):
    # deterministic work counts of one ring2d solve: identification cuts its
    # pieces from the kernels' hull without re-intersecting it, no remainder
    # of positive width is scanned for containment, bisection copies no box
    # through replace, and the stop flushes the queue without popping it
    problem = parse_problem((problems_dir / "ring2d.qcsp").read_text())
    cfg = SolverConfig(epsilon=0.01, stop_ratio=0.99)
    counts = dict.fromkeys(("intersect", "set_difference_closure", "replace", "contains_box", "heappop"), 0)

    def counted(orig, name):
        def call(*args):
            counts[name] += 1
            return orig(*args)

        return call

    for name in ("intersect", "set_difference_closure", "replace", "contains_box"):
        monkeypatch.setattr(Box, name, counted(getattr(Box, name), name))
    monkeypatch.setattr(heapq, "heappop", counted(heapq.heappop, "heappop"))
    stats = solve(problem, cfg).stats
    assert stats.stop_reason == "ratio"
    heappops = counts.pop("heappop")
    assert counts == dict.fromkeys(counts, 0)
    assert heappops == stats.nodes_processed > 100


def test_a_2b_plus_solve_pins_each_run_in_one_kernel_call(monkeypatch):
    # deterministic work counts of one cold mixed3d solve at eps 0.15 in 2b+:
    # pinning calls no derivative_interval and compiles no tangent kernel,
    # but one pin kernel per constraint, called once per run of one
    # constraint's copies at every node that pins; of the 1,835 nodes, only
    # the 155 whose store has a parameter coordinate that is not a point pin
    from qine import contractor, expr, solver

    path = Path(__file__).resolve().parents[1] / "bench" / "problems" / "mixed3d.qcsp"
    calls = {"pin": 0, "derivative_interval": 0}
    compiled: list[str] = []
    runs: list[int] = []
    compile_kernel, derivative, instantiate = expr._compile, expr.derivative_interval, solver.parameter_instantiation

    def spy(name, params, lines, namespace):
        compiled.append(name)
        kernel = compile_kernel(name, params, lines, namespace)
        if name != "pin":
            return kernel

        def pin(*args):
            calls["pin"] += 1
            return kernel(*args)

        return pin

    def derivative_interval(*args):
        calls["derivative_interval"] += 1
        return derivative(*args)

    def parameter_instantiation(store, box):
        runs.append(sum(k == 0 or store[k].f is not store[k - 1].f for k in range(len(store))))
        return instantiate(store, box)

    monkeypatch.setattr(expr, "_compile", spy)
    monkeypatch.setattr(contractor, "_compile", spy)
    monkeypatch.setattr(expr, "derivative_interval", derivative_interval)
    monkeypatch.setattr(solver, "derivative_interval", derivative_interval)
    monkeypatch.setattr(solver, "parameter_instantiation", parameter_instantiation)
    solve(parse_problem(path.read_text()), SolverConfig(epsilon=0.15, mode="2b+"))
    assert calls == {"pin": sum(runs), "derivative_interval": 0}
    assert "tangent" not in compiled and compiled.count("pin") == 3
    assert (len(runs), sum(runs)) == (155, 313)


def test_the_memo_evaluates_few_of_the_kernels_costly_bound_calls(monkeypatch):
    # deterministic work counts of one mixed3d solve at eps 0.15 in 2b+ from
    # empty tables: the kernels make the same calls to the seven memoized
    # bound functions with the memo as without it, and get the same paving,
    # while sin and the products are evaluated on about 2% and 21% of theirs
    from qine import contractor, expr, interval

    path = Path(__file__).resolve().parents[1] / "bench" / "problems" / "mixed3d.qcsp"
    cfg = SolverConfig(epsilon=0.15, mode="2b+")

    def counted(fn, name, tally):
        def call(*args):
            tally[name] = tally.get(name, 0) + 1
            return fn(*args)

        return call

    def run(memoize):
        calls: dict[str, int] = {}
        evaluated: dict[str, int] = {}
        for name in expr._MEMOIZED:
            fn = counted(getattr(interval, name), name, evaluated)
            spy = counted(expr._memo(fn) if memoize else fn, name, calls)
            monkeypatch.setitem(expr._OPS, name, spy)
            monkeypatch.setitem(contractor._NAMESPACE, name, spy)
        paving = solve(parse_problem(path.read_text()), cfg)  # fresh expressions compile fresh kernels
        return calls, evaluated, [_bits(box.dims) for box in paving.inner + paving.boundary]

    calls, evaluated, bits = run(memoize=True)
    assert run(memoize=False) == (calls, calls, bits)
    assert (calls["_sin"], calls["_mul"]) == (5008, 8492)
    assert (evaluated["_sin"], evaluated["_mul"]) == (86, 1761)


# ---------------------------------------------------------------------------
# partial functions: a point is a solution only when every constraint is
# defined for every parameter value, so no inner box may hold a point
# where some constraint is undefined.  These are open soundness defects;
# strict, so the fix must remove the markers.

_ITEM_1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@_ITEM_1
def test_no_inner_box_holds_the_pole_of_a_quotient():
    # today the one inner box is [-1.0, 0.0], which holds x = 0
    paving = solve(parse_problem("var x in [-1,1]; constraint 1/x <= 0;"), SolverConfig(epsilon=0.1))
    assert not any(box.contains((0.0,)) for box in paving.inner)


@_ITEM_1
@pytest.mark.parametrize(
    "text",
    [
        "var x in [0,1]; param y in [-1,2]; constraint log(y) + x <= 5;",
        "var x in [0,1]; param y in [-1,1]; constraint sqrt(y) - x <= 5;",
    ],
)
def test_no_inner_box_where_a_parameter_leaves_the_domain(text):
    # undefined for y < 0 at every x, so nothing is a solution
    assert solve(parse_problem(text), SolverConfig(epsilon=0.1)).inner == []


def test_a_cold_solve_of_300_constraints_compiles_one_kernel_per_constraint(monkeypatch):
    # the tape memo keeps the kernels of every live expression, however many
    # constraints a store cycles through: each node prunes and identifies
    # with all 300, and each of their kernels is compiled once
    from qine import contractor, expr

    compiled: list[str] = []
    compile_kernel = expr._compile

    def spy(kernel, params, lines, namespace):
        compiled.append(kernel)
        return compile_kernel(kernel, params, lines, namespace)

    monkeypatch.setattr(expr, "_compile", spy)
    monkeypatch.setattr(contractor, "_compile", spy)
    text = "var x in [-2,2];\nvar z in [-2,2];\n" + "".join(
        f"constraint x^2 + z^2 - 1 - {k}*1e-6 <= 0;\n" for k in range(300)
    )
    paving = solve(parse_problem(text, name="many"), SolverConfig(epsilon=0.05, max_nodes=3))
    assert paving.stats.nodes_processed == 3
    assert compiled == ["prune"] * 300 + ["revise"] * 300
