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
from qine.expr import Binary, Pow, VarKind, VarRef, _tape, derivative_interval, forward_sweep, parse_expression
from qine.interval import EMPTY, Box, Interval, _midpoint
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
from test_interval import MIDPOINT_EDGES, _closure_ref, _hull_ref, _midpoint_ref


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
# pruning and identification revise each run of adjacent copies of one
# constraint, one store entry, in one kernel call; they must give, bit for
# bit, what revising the copies one by one with the full sweep gives, in
# store order


def _pruned_copy_by_copy(store, box):
    cur = box
    for c in store:
        mid = Box(tuple(Interval.point(_midpoint(iv.lo, iv.hi)) for iv in c.param_domain.dims))
        cur = _full_sweep(c.f, False, cur, mid)[0]
        if cur.is_empty:
            return cur
    return cur


def _undefined_somewhere(f, x, y):
    """Reference: whether a div, sqrt or log of f may be undefined over x and y,
    read off forward_sweep's values: a divisor that holds 0, a negative
    square root operand or a non-positive logarithm operand."""
    tape, values = forward_sweep(f, x, y)
    return any(
        op == "div" and values[b].lo <= 0.0 <= values[b].hi
        or op == "sqrt" and values[a].lo < 0.0
        or op == "log" and values[a].lo <= 0.0
        for op, a, b in tape
    )


def _identified_copy_by_copy(store, box):
    # a copy that may be undefined on the box proves nothing: it is kept
    # whole, and its region is the whole box
    kept, remainder = [], None
    for c in store:
        if _undefined_somewhere(c.f, box, c.param_domain):
            xi, yi = box, c.param_domain
        else:
            xi, yi = _full_sweep(c.f, True, box, c.param_domain)
        if xi.is_empty:
            continue
        remainder = xi if remainder is None else _hull_ref(remainder, xi)
        kept.append(QuantifiedConstraint(c.f, yi))
    if remainder is None:
        remainder = Box.empty(len(box))
    return kept, remainder, _closure_ref(box, remainder)


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
    derivative_interval; ``seen`` tallies each coordinate's outcome.  No pin
    fires where the constraint may be undefined over box and the domain as
    pinned so far."""
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
            if _undefined_somewhere(qc.f, box, dom):
                seen["undefined"] += 1
                continue
            if d.lo >= 0.0 and math.isfinite(iv.hi):
                dom = Box(dom.dims[:j] + (Interval(iv.hi, iv.hi),) + dom.dims[j + 1:])
                seen["up"] += 1
            elif d.hi <= 0.0 and math.isfinite(iv.lo):
                dom = Box(dom.dims[:j] + (Interval(iv.lo, iv.lo),) + dom.dims[j + 1:])
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
    seen = dict.fromkeys(("up", "down", "not sign-definite", "empty or unbounded", "undefined"), 0)
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
    undefined = seen.pop("undefined")
    assert min(seen.values()) >= 50 and undefined >= 10, (seen, undefined)


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
    pins = dict.fromkeys(("up", "down", "not sign-definite", "empty or unbounded", "undefined"), 0)
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
    pins.pop("undefined")  # the seeded pool pins no copy where f may be undefined
    assert min(seen.values()) >= 30 and min(pins.values()) >= 30, (seen, pins)


def test_identification_cuts_the_pieces_the_closure_reference_cuts_bit_for_bit():
    # identification cuts straight from the kernels' hull, without the
    # reference's intersect; the hull lies inside the box, each
    # coordinate the box's own interval or one the kernel rebuilt.  Each
    # store's first copy runs alone too, since a copy that may be undefined
    # on the box is never dropped, and one copy is dropped more often
    seen = {"whole": 0, "uncut": 0, "cut": 0, "empty box": 0}
    seeded = ((case, s, box) for case, store, box in _seeded_stores() for s in (store, store[:1]))
    for case, store, box in seeded:
        _, remainder, pieces = solution_identification(store, box)
        assert [_bits(piece) for piece in pieces] == [
            _bits(piece) for piece in _closure_ref(box, remainder)
        ], (case, store, box)
        key = "empty box" if box.is_empty else "whole" if remainder.is_empty else "uncut" if remainder is box else "cut"
        seen[key] += 1
    assert min(seen.values()) >= 50, seen


def test_identification_returns_a_remainder_that_is_the_box_without_cutting(monkeypatch):
    # x >= 0 on all of [1, 2]: the kernel hands back the box's own bounds,
    # and identification answers no pieces without a call of the flat cut
    from qine import solver

    cuts = []
    monkeypatch.setattr(solver, "_cut", lambda x, r: cuts.append(r) or [])
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


def test_the_phases_return_each_unmoved_copy_that_shares_a_box_as_itself():
    # three copies of f share one Box, with a copy of g between the second
    # and the third: each copy that comes back unmoved is its own
    # QuantifiedConstraint, not another copy that holds the same Box
    f, g = parse_expression("y^2 - y - x", SYMS), parse_expression("x - 5", SYMS)
    dom, box = Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    store = [QuantifiedConstraint(h, dom) for h in (f, f, g, f)]
    # df/dy = 2y - 1 changes sign and g reads no parameter: nothing is pinned
    assert [c is s for c, s in zip(parameter_instantiation(store, box), store, strict=True)] == [True] * 4
    # f >= 0 cuts nothing of the box or the domain, and x - 5 >= 0 holds nowhere on it
    kept, _, _ = solution_identification(store, box)
    assert [c is s for c, s in zip(kept, store[:2] + store[3:], strict=True)] == [True] * 3
    assert [c is s for c, s in zip(parameter_domain_bisection(store, 2.0), store, strict=True)] == [True] * 4


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
        ("param_bisect", "off"),
        ("param_bisect", 0),
        ("param_bisect", None),
    ],
)
def test_solver_config_refuses_what_its_flags_line_cannot_replay(field, value):
    # the report prints each field as a command-line flag: a bool would read
    # True, a float node limit 2.5, and neither parses back; param_bisect
    # prints from its truth, so "off" would solve and print as on
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
    # two parameter names for a one-parameter box
    with pytest.raises(ValueError, match="parameter names and box dimensions differ"):
        Problem(("x",), Box.from_bounds([(0.0, 1.0)]), ("y", "y2"), Box.from_bounds([(0.0, 1.0)]), (f,))


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
    # 2B+ pinning picks, and parameter bisection never splits it; every
    # store holds at most one entry (f, domains) per constraint, in
    # constraint order
    from qine import solver

    problem = parse_problem(
        "var x in [0,1]; param a in [0,1]; param b in [-1,2];"
        "constraint x + a - 3 <= 0; constraint x*(b - 0.5)^2 - 1 <= 0;"
    )
    stores = []
    pruning = solver._prune
    monkeypatch.setattr(solver, "_prune", lambda store, x: stores.append(store) or pruning(store, x))
    solve(problem, SolverConfig(epsilon=0.05, mode=mode))
    assert len(stores) > 1
    for store in stores:
        order = [problem.constraints.index(f) for f, _ in store]
        assert order == sorted(set(order)), order
        for f, ds in store:
            unread = 1 if f is problem.constraints[0] else 0
            hi = problem.parameter_box.dims[unread].hi
            assert ds and all(ys[2 * unread:2 * unread + 2] == (hi, hi) for ys in ds)


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
    # checking hooks (the dataclass __init__, Interval's __post_init__ and
    # Box's own __init__ from Intervals), and the root store is flat
    # bounds, so a solve runs none of them, however many nodes it processes
    problem = parse_problem((problems_dir.parent / path).read_text())
    solve(problem, SolverConfig(epsilon=coarse, mode=mode))  # compiles the kernels
    counts: dict[str, int] = {}
    for cls, attr in (
        (Interval, "__post_init__"),
        (Box, "__init__"),
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
        assert counts == {}, eps
    assert nodes[1] > 2 * nodes[0] > 20


@pytest.mark.parametrize("name", ["ring2d-ratio", "mixed3d"])
def test_a_solve_builds_a_box_only_for_each_box_of_its_paving(name, monkeypatch):
    # deterministic work counts of one bench solve: the node loop runs on
    # flat bounds and builds a Box only for each inner and boundary box it
    # emits, through interval._new, the one allocator of the unchecked
    # builders; a Box holds the loop's tuple, so no Interval is built at
    # all; ring2d-ratio once built 20,573 Boxes for its 8,818, mixed3d
    # 5,696 for its 2,142, and each Box had its Intervals
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    from qine import interval

    w = WORKLOADS[name]
    problem = parse_problem(w.problem.read_text(), name=w.problem_name)
    built = {Box: 0, Interval: 0, QuantifiedConstraint: 0}
    new = interval._new

    def counted(cls):
        built[cls] = built.get(cls, 0) + 1
        return new(cls)

    monkeypatch.setattr(interval, "_new", counted)
    paving = solve(problem, SolverConfig(**w.flags))
    emitted = len(paving.inner) + len(paving.boundary)
    assert built == {Box: emitted, Interval: 0, QuantifiedConstraint: 0}
    assert emitted == {"ring2d-ratio": 8818, "mixed3d": 2142}[name], emitted


def test_a_ratio_solve_rederives_no_box_it_built(problems_dir, monkeypatch):
    # deterministic work counts of one ring2d solve: the loop cuts only a
    # hull that is not the whole box, no remainder of positive width is
    # scanned for containment, and the stop flushes the queue without
    # popping it
    from qine import solver

    problem = parse_problem((problems_dir / "ring2d.qcsp").read_text())
    cfg = SolverConfig(epsilon=0.01, stop_ratio=0.99)
    counts = dict.fromkeys(("uncut", "contains", "heappop"), 0)
    cut, contains, heappop = solver._cut, solver._contains, heapq.heappop

    def counted_cut(x, r):
        pieces = cut(x, r)
        counts["uncut"] += not pieces
        return pieces

    def counted_contains(p, r):
        counts["contains"] += 1
        return contains(p, r)

    def counted_heappop(heap):
        counts["heappop"] += 1
        return heappop(heap)

    monkeypatch.setattr(solver, "_cut", counted_cut)
    monkeypatch.setattr(solver, "_contains", counted_contains)
    monkeypatch.setattr(heapq, "heappop", counted_heappop)
    stats = solve(problem, cfg).stats
    assert stats.stop_reason == "ratio"
    heappops = counts.pop("heappop")
    assert counts == dict.fromkeys(counts, 0)
    assert heappops == stats.nodes_processed > 100


def _bench_solve_args(name: str) -> tuple[Problem, SolverConfig]:
    """A fresh parse of a bench workload's problem, and its config."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    w = WORKLOADS[name]
    return parse_problem(w.problem.read_text(), name=w.problem_name), SolverConfig(**w.flags)


@pytest.mark.parametrize("name, calls", [("ring2d-ratio", 0), ("lens-2b", 1615)])
def test_a_solve_bisects_parameters_once_per_branching_node_and_only_with_parameters(name, calls, monkeypatch):
    # deterministic work counts of one bench solve: ring2d-ratio has no
    # parameters, so it runs no parameter pass at all; lens-2b runs one per
    # node that branches, that is, per identification that leaves a
    # remainder not inside one of its inner pieces
    from qine import solver

    problem, cfg = _bench_solve_args(name)
    counts = dict.fromkeys(("bisect_params", "remainders", "contained"), 0)
    bisect_params, identify, contains = solver._bisect_params, solver._identify, solver._contains

    def counted_bisect_params(store, epsilon):
        counts["bisect_params"] += 1
        return bisect_params(store, epsilon)

    def counted_identify(store, x):
        kept, r = identify(store, x)
        counts["remainders"] += r is not None
        return kept, r

    def counted_contains(p, r):
        inside = contains(p, r)  # the loop stops at the first piece holding r
        counts["contained"] += inside
        return inside

    monkeypatch.setattr(solver, "_bisect_params", counted_bisect_params)
    monkeypatch.setattr(solver, "_identify", counted_identify)
    monkeypatch.setattr(solver, "_contains", counted_contains)
    solve(problem, cfg)
    branching = counts["remainders"] - counts["contained"]
    assert counts["bisect_params"] == (branching if problem.parameter_names else 0) == calls, counts
    assert branching > 1000


@pytest.mark.parametrize("name", ["ring2d-ratio", "lens-2b", "mixed3d"])
def test_a_solve_looks_each_kernel_up_in_the_memo_after_its_compile(name, monkeypatch):
    # a cold bench solve calls contractor._kernel, which compiles a kernel
    # on a miss, at most once per tape and purpose: every later run reads
    # the kernel straight from its tape's kernel table
    from qine import contractor, solver

    problem, cfg = _bench_solve_args(name)
    calls: dict[tuple[int, str], int] = {}
    kernel = contractor._kernel

    def counted_kernel(f, purpose):
        calls[id(f), purpose] = calls.get((id(f), purpose), 0) + 1
        return kernel(f, purpose)

    monkeypatch.setattr(contractor, "_kernel", counted_kernel)
    monkeypatch.setattr(solver, "_kernel", counted_kernel)
    paving = solve(problem, cfg)
    assert paving.stats.nodes_processed > 1000
    assert {purpose for _, purpose in calls} >= {"prune", "identify"}
    assert max(calls.values()) == 1, calls


def test_a_2b_plus_solve_pins_each_entry_in_one_kernel_call(monkeypatch):
    # deterministic work counts of one cold mixed3d solve at eps 0.15 in 2b+:
    # pinning calls no derivative_interval and compiles no tangent kernel,
    # but one pin kernel per constraint, called once per store entry, that
    # is once per constraint still undecided, at every node that pins; of
    # the 1,835 nodes, only the 155 whose store has a parameter coordinate
    # that is not a point pin
    from qine import contractor, expr, solver

    path = Path(__file__).resolve().parents[1] / "bench" / "problems" / "mixed3d.qcsp"
    calls = {"pin": 0, "derivative_interval": 0}
    compiled: list[str] = []
    entries: list[int] = []
    compile_kernel, derivative, instantiate = expr._compile, expr.derivative_interval, solver._pin

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

    def pin(store, x):
        assert len({id(f) for f, _ in store}) == len(store)  # one entry per constraint
        entries.append(len(store))
        return instantiate(store, x)

    monkeypatch.setattr(expr, "_compile", spy)
    monkeypatch.setattr(contractor, "_compile", spy)
    monkeypatch.setattr(expr, "derivative_interval", derivative_interval)
    monkeypatch.setattr(solver, "derivative_interval", derivative_interval)
    monkeypatch.setattr(solver, "_pin", pin)
    solve(parse_problem(path.read_text()), SolverConfig(epsilon=0.15, mode="2b+"))
    assert calls == {"pin": sum(entries), "derivative_interval": 0}
    assert "tangent" not in compiled and compiled.count("pin") == 3
    assert (len(entries), sum(entries)) == (155, 313)


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
# where some constraint is undefined


def test_no_inner_box_holds_the_pole_of_a_quotient():
    # identification once proved 1/x < 0 on [-1, 0) and closed the piece to
    # [-1.0, 0.0], which holds x = 0
    paving = solve(parse_problem("var x in [-1,1]; constraint 1/x <= 0;"), SolverConfig(epsilon=0.1))
    assert not any(box.bounds[0] <= 0.0 <= box.bounds[1] for box in paving.inner)


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


# a seeded oracle for the class: random one-constraint problems over the
# partial functions and the total ones, each inner box checked in mpmath at
# points of the box (its corners included) for several parameter values,
# where an undefined value counts as violated

_PARTIAL_LEAVES = ("x", "y", "x", "y", "1", "2", "0.5", "3")
_PARTIAL_FUNCTIONS = ("sqrt", "log", "exp", "sin", "cos")


def _partial_text(rng, depth):
    """A random expression in x and y over + - * /, ^2, ^3 and the five functions."""
    pick = rng.random()
    if depth == 0 or pick < 0.25:
        return rng.choice(_PARTIAL_LEAVES)
    if pick < 0.6:
        return f"({_partial_text(rng, depth - 1)} {rng.choice('+-*/')} {_partial_text(rng, depth - 1)})"
    if pick < 0.7:
        return f"({_partial_text(rng, depth - 1)})^{rng.choice('23')}"
    return f"{rng.choice(_PARTIAL_FUNCTIONS)}({_partial_text(rng, depth - 1)})"


def _mp_value(steps, x, y):
    """f at the point (x, y) in mpmath, or None where it is undefined."""
    import mpmath

    v = []
    for op, a, b in steps:
        if op == "var":
            r = mpmath.mpf(x)
        elif op == "param":
            r = mpmath.mpf(y)
        elif op == "const":
            r = mpmath.mpf(b)
        elif op in ("add", "sub", "mul"):
            r = {"add": v[a] + v[b], "sub": v[a] - v[b], "mul": v[a] * v[b]}[op]
        elif op == "div":
            if v[b] == 0:
                return None
            r = v[a] / v[b]
        elif op == "neg":
            r = -v[a]
        elif op == "pow":
            r = v[a] ** b
        elif op == "sqrt" and v[a] < 0 or op == "log" and v[a] <= 0:
            return None
        else:
            r = getattr(mpmath, op)(v[a])
        v.append(r)
    return v[-1]


def test_no_inner_box_holds_a_point_where_a_constraint_is_undefined_or_violated():
    import mpmath

    rng = random.Random(1788)
    checked = {"problems with div, sqrt or log": 0, "inner boxes": 0}
    bad = []
    with mpmath.workdps(40):
        for case in range(400):
            rhs = rng.choice((0, 1, 2))
            text = f"var x in [-1,2]; param y in [-1,1]; constraint {_partial_text(rng, 3)} <= {rhs};"
            problem = parse_problem(text)
            steps = _tape(problem.constraints[0])[0]
            checked["problems with div, sqrt or log"] += any(op in ("div", "sqrt", "log") for op, _, _ in steps)
            mode = ("2b", "2b+")[case % 2]
            paving = solve(problem, SolverConfig(epsilon=0.1, mode=mode, max_nodes=3000))
            for box in paving.inner:
                checked["inner boxes"] += 1
                lo, hi = box[0].lo, box[0].hi
                for px in [lo + (hi - lo) * k / 6 for k in range(6)] + [hi]:
                    for py in [-1.0 + k / 4 for k in range(9)]:
                        value = _mp_value(steps, px, py)
                        if value is None or value > rhs + mpmath.mpf("1e-30"):  # 40 digits' rounding
                            bad.append((case, mode, text, box, px, py))
    assert bad[:3] == [], len(bad)
    assert checked["problems with div, sqrt or log"] > 150 and checked["inner boxes"] > 200, checked
