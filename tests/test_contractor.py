"""Inverse projections and the forward-backward inequality contractor."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import assert_interval, subset
from qine.contractor import QuantifiedConstraint, _kernel, backward_project, hc4_revise
from qine.expr import Binary, Const, Pow, Unary, VarKind, VarRef, _tape, forward_sweep, parse_expression
from qine.interval import EMPTY, Box, Interval, _midpoint
from test_expr import SYMS, X, X2, Y, boxes_and_point, deep_chain, expr_trees


def parsed(text: str):
    return parse_expression(text, SYMS)


def revise(f, x: Box, y: Box, geq: bool = False) -> tuple[Box, Box]:
    """hc4_revise of f <= 0, or f >= 0 when geq, with the parameter domain y."""
    return hc4_revise(QuantifiedConstraint(f, y), x, geq=geq)


# ---------------------------------------------------------------------------
# backward_project


def test_project_sub():
    left, right = backward_project(
        "sub", Interval(0.0, 10.0), (Interval(0.0, 10.0), Interval(4.75, 15.0))
    )
    assert left == Interval(4.75, 10.0)
    assert right == Interval(4.75, 10.0)


def test_project_add_no_information():
    left, right = backward_project(
        "add", Interval(4.0, 6.0), (Interval(1.0, 2.0), Interval(3.0, 4.0))
    )
    assert left == Interval(1.0, 2.0)
    assert right == Interval(3.0, 4.0)


def test_project_mul():
    (child,) = backward_project("neg", Interval(-2.0, -1.0), (Interval(0.0, 5.0),))
    assert child == Interval(1.0, 2.0)
    left, right = backward_project(
        "mul", Interval(4.75, 10.0), (Interval(10.0, 10.0), Interval(0.0, 1.0))
    )
    assert_interval(right, 0.475, 1.0)


def test_project_sqrt():
    (child,) = backward_project("sqrt", Interval(1.0, 2.0), (Interval(0.0, 9.0),))
    assert child == Interval(1.0, 4.0)


def test_project_even_power():
    (child,) = backward_project(
        "pow", Interval(0.0, 1.0), (Interval(-2.0, 2.0),), exponent=2
    )
    assert child == Interval(-1.0, 1.0)
    # only the positive branch intersects the child
    (child,) = backward_project(
        "pow", Interval(1.0, 4.0), (Interval(0.5, 5.0),), exponent=2
    )
    assert child == Interval(1.0, 2.0)


def test_project_odd_power():
    (child,) = backward_project(
        "pow", Interval(-8.0, 27.0), (Interval(-5.0, 5.0),), exponent=3
    )
    assert_interval(child, -2.0, 3.0)


def test_project_power_zero():
    (child,) = backward_project(
        "pow", Interval(0.5, 2.0), (Interval(3.0, 4.0),), exponent=0
    )
    assert child == Interval(3.0, 4.0)
    (child,) = backward_project(
        "pow", Interval(2.0, 3.0), (Interval(3.0, 4.0),), exponent=0
    )
    assert child.is_empty


@pytest.mark.parametrize("exponent", [-2, 2.5, 100000, None])
def test_project_power_refuses_an_exponent_out_of_range(exponent):
    # -2 projected [4, 9] to empty, a false proof of infeasibility; 2.5
    # ended in a TypeError and 100000 in a walk of seconds
    with pytest.raises(ValueError, match="exponent"):
        backward_project("pow", Interval(4.0, 9.0), (Interval(-5.0, 5.0),), exponent=exponent)


@pytest.mark.parametrize("exponent", [True, False])
def test_project_power_refuses_a_bool_exponent(exponent):
    with pytest.raises(ValueError, match=f"exponent {exponent} is not an integer"):
        backward_project("pow", Interval(0.0, 4.0), (Interval(-3.0, 3.0),), exponent=exponent)


def test_project_trig_passes_child_through():
    (child,) = backward_project("sin", Interval(0.5, 1.0), (Interval(0.0, 9.0),))
    assert child == Interval(0.0, 9.0)


def test_project_empty_result():
    (child,) = backward_project("sqrt", Interval(2.0, 3.0), (Interval(0.0, 1.0),))
    assert child.is_empty


# ---------------------------------------------------------------------------
# hc4_revise on frozen examples


def test_revise_midpoint_instantiation():
    x, y = revise(parsed("10*y - x - y^2"), Box.from_bounds([(0.0, 15.0)]), Box.point([0.5]))
    # 4.75 - x <= 0 forces x >= 4.75
    assert x[0] == Interval(4.75, 15.0)
    assert y[0] == Interval(0.5, 0.5)


def test_revise_negation():
    x, y = revise(parsed("10*y - x - y^2"), Box.from_bounds([(4.75, 15.0)]), Box.from_bounds([(0.0, 1.0)]), geq=True)
    assert_interval(x[0], 4.75, 10.0)
    assert_interval(y[0], 0.475, 1.0)


def test_revise_no_op_on_full_domain():
    x0 = Box.from_bounds([(0.0, 15.0)])
    y0 = Box.from_bounds([(0.0, 1.0)])
    x, y = revise(parsed("10*y - x - y^2"), x0, y0)
    assert x == x0 and y == y0


def test_revise_detects_infeasibility():
    x, y = revise(parsed("x - y"), Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(2.0, 3.0)]), geq=True)
    assert x.is_empty
    assert y.is_empty


def test_revise_without_parameters():
    x, y = revise(parsed("x1^2 + x2^2 - 3"), Box.from_bounds([(-2.0, 2.0), (-2.0, 2.0)]), Box(()))
    r = math.sqrt(3.0)
    assert_interval(x[0], -r, r, ulps=2)
    assert_interval(x[1], -r, r, ulps=2)
    assert len(y) == 0 and not y.is_empty


def test_revise_shared_subtree_is_sound():
    # f = (x+y)^2 + (x+y) with one shared (x+y) node; f <= 0 iff x+y in [-1,0]
    s = Binary("add", X, Y)
    f = Binary("add", Pow(s, 2), s)
    x0 = Box.from_bounds([(-2.0, 2.0)])
    y0 = Box.from_bounds([(-2.0, 2.0)])
    x, y = revise(f, x0, y0)
    assert not x.is_empty and not y.is_empty
    grid = np.linspace(-2.0, 2.0, 41)
    xm, ym = np.meshgrid(grid, grid, indexing="ij")
    t = xm + ym
    sat = (t * t + t) <= 0.0
    assert np.all(xm[sat] >= x[0].lo) and np.all(xm[sat] <= x[0].hi)
    assert np.all(ym[sat] >= y[0].lo) and np.all(ym[sat] <= y[0].hi)


def test_revise_multiple_occurrences_narrow_jointly():
    # x*x - 4 >= 0 over [0,5]: both occurrences share the leaf's slot
    f = Binary("sub", Binary("mul", X, X), Const(4.0))
    x, _ = revise(f, Box.from_bounds([(0.0, 5.0)]), Box(()), geq=True)
    assert not x.is_empty
    assert subset(x[0], Interval(0.0, 5.0))
    # the true feasible set [2,5] must survive
    assert x[0].lo <= 2.0 and x[0].hi >= 5.0


@pytest.mark.parametrize(
    "text, geq, x0, y0, x1, y1",
    [
        ("(y - (x + y + x))^3 - 1", True, (0.0, 1.0), (-3.0, -1.0), (0.0, 0.0), (-2.0, -2.0)),
        ("y - x + x", False, (1.0, 3.0), (1.0, 3.0), (2.0, 2.0), (1.0, 2.0)),
    ],
)
def test_revise_backward_order_is_depth_first_per_path(text, geq, x0, y0, x1, y1):
    # x and y occur more than once.  The backward sweep goes depth first,
    # left operand first, and projects a node once per path that reaches
    # it, onto its operands' values at that time.  Sweeps that visit each
    # node once in reverse topological order return other boxes: x = [0, 1]
    # in the first case if they project onto the forward values, y = [1, 1]
    # in the second if they intersect the projections of all parents.
    x, y = revise(parsed(text), Box.from_bounds([x0]), Box.from_bounds([y0]), geq)
    assert x == Box.from_bounds([x1])
    assert y == Box.from_bounds([y1])


def test_revise_walks_deeper_than_the_recursion_limit():
    x, y = revise(deep_chain(5000), Box.from_bounds([(0.0, 1.0)]), Box(()))
    assert x == Box.from_bounds([(0.0, 0.0)])
    assert len(y) == 0


# ---------------------------------------------------------------------------
# properties


@given(
    expr_trees(safe=True, indices=(0,)),
    boxes_and_point(1),
    boxes_and_point(1),
    st.booleans(),
)
@settings(max_examples=100)
def test_revise_contracts_and_is_monotone(e, bx, by, geq):
    x0, _ = bx
    y0, _ = by
    x1, y1 = revise(e, x0, y0, geq)
    if x1.is_empty:
        return
    assert all(subset(a, b) for a, b in zip(x1, x0))
    assert all(subset(a, b) for a, b in zip(y1, y0))
    x2, y2 = revise(e, x1, y1, geq)
    if x2.is_empty:
        return
    assert all(subset(a, b) for a, b in zip(x2, x1))
    assert all(subset(a, b) for a, b in zip(y2, y1))


@given(
    expr_trees(safe=True, indices=(0,)),
    boxes_and_point(1),
    boxes_and_point(1),
    st.booleans(),
)
@settings(max_examples=100)
def test_revise_keeps_all_grid_solutions(e, bx, by, geq):
    x0, _ = bx
    y0, _ = by
    xb, yb = revise(e, x0, y0, geq)

    xs = oracle.axis_points(x0[0], 25)
    ys = oracle.axis_points(y0[0], 25)
    xm, ym = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(oracle.eval_grid(e, [xm], [ym]), dtype=float)
    vals = np.broadcast_to(vals, xm.shape)
    sat = vals >= 0.0 if geq else vals <= 0.0
    sat = sat & np.isfinite(vals)

    for px, py in zip(xm[sat], ym[sat]):
        inside = (
            not xb.is_empty
            and xb[0].lo <= float(px) <= xb[0].hi
            and yb[0].lo <= float(py) <= yb[0].hi
        )
        if inside:
            continue
        # the float grid value may misclassify a boundary point; only an
        # exactly satisfying point proves the contraction unsound
        exact = oracle.exact_value(e, [float(px)], [float(py)])
        if geq:
            assert exact < 0, (px, py, exact)
        else:
            assert exact > 0, (px, py, exact)


# ---------------------------------------------------------------------------
# the backward sweep stops at steps reached with their forward value
#
# hc4_revise skips the projection of an add, sub, mul, neg, pow, sin or cos
# step whose narrowed value has bounds equal to those the forward sweep
# produced, and hands its operands their current values; the root returns
# at once only when every step is a leaf or one of those ops.  The tests
# below compare it with the sweep that projects every step, and pin the
# cases that show why each part of the rule is needed.

_EDGE_BOUNDS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300)
_UNARY_OPS = ("neg", "sqrt", "exp", "log", "sin", "cos")
_BINARY_OPS = ("add", "sub", "mul", "div")
_LEAF_REFS = (X, X2, Y)


def _full_sweep(f, geq: bool, x: Box, y: Box) -> tuple[Box, Box]:
    """Reference: HC4-revise of f <= 0, or f >= 0 when geq, that projects every step it reaches."""
    tape, values = forward_sweep(f, x, y)
    feasible = Interval(0.0, math.inf) if geq else Interval(-math.inf, 0.0)
    empty = Box.empty(len(x)), Box.empty(len(y))
    vars_x, vars_y = list(x.dims), list(y.dims)
    stack = [(len(tape) - 1, values[-1].intersect(feasible))]
    while stack:
        i, narrowed = stack.pop()
        if narrowed.is_empty:
            return empty
        values[i] = narrowed
        op, a, b = tape[i]
        if op == "var" or op == "param":
            dims = vars_x if op == "var" else vars_y
            dims[a] = dims[a].intersect(narrowed)
            if dims[a].is_empty:
                return empty
        elif op in _BINARY_OPS:
            left, right = backward_project(op, narrowed, (values[a], values[b]))
            stack.append((b, right))
            stack.append((a, left))
        elif op != "const":
            stack.append((a, backward_project(op, narrowed, (values[a],), exponent=b)[0]))
    return Box(tuple(vars_x)), Box(tuple(vars_y))


def _bits(intervals) -> tuple:
    # float.hex tells -0.0 from 0.0
    return tuple((iv.lo.hex(), iv.hi.hex()) for iv in intervals)


def _random_bound(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(_EDGE_BOUNDS)
    return rng.choice((rng.uniform(-4.0, 4.0), float(rng.randint(-3, 3))))


def _random_interval(rng: random.Random) -> Interval:
    a, b = _random_bound(rng), _random_bound(rng)
    return Interval(min(a, b), max(a, b))


def _random_leaf(rng: random.Random, refs=_LEAF_REFS):
    if rng.random() < 0.2:
        return Const(_random_bound(rng))
    return rng.choice(refs)


def _random_node(rng: random.Random, operand):
    kind = rng.random()
    if kind < 0.4:
        return Binary(rng.choice(_BINARY_OPS), operand(), operand())
    if kind < 0.8:
        return Unary(rng.choice(_UNARY_OPS), operand())
    return Pow(operand(), rng.randint(0, 4))


def _random_tree(rng: random.Random, depth: int, refs=_LEAF_REFS):
    if depth == 0 or rng.random() < 0.25:
        return _random_leaf(rng, refs)
    return _random_node(rng, lambda: _random_tree(rng, depth - 1, refs))


def _random_dag(rng: random.Random, size: int, refs=_LEAF_REFS):
    # operands are drawn from every node built so far, so internal nodes
    # are reused by several users
    pool = [_random_leaf(rng, refs) for _ in range(3)]
    for _ in range(size):
        pool.append(_random_node(rng, lambda: rng.choice(pool)))
    return pool[-1]


def test_revise_matches_the_full_sweep_bit_for_bit():
    rng = random.Random(5150)
    for case in range(3000):
        e = _random_tree(rng, 5) if case % 2 else _random_dag(rng, rng.randint(1, 8))
        geq = rng.choice((False, True))
        x = Box((_random_interval(rng), _random_interval(rng)))
        y = Box((_random_interval(rng),))
        got = [iv for box in revise(e, x, y, geq) for iv in box]
        want = [iv for box in _full_sweep(e, geq, x, y) for iv in box]
        assert _bits(got) == _bits(want), (case, e, x, y)


def test_revise_matches_the_full_sweep_on_deep_trees_and_dags():
    # the stop reaches shared nodes and nodes above sqrt, log, div and exp,
    # so deeper trees and larger DAGs exercise it where the shapes differ most
    rng = random.Random(8086)
    for case in range(1500):
        e = _random_tree(rng, rng.randint(2, 7)) if case % 2 else _random_dag(rng, rng.randint(1, 14))
        geq = case % 4 > 1
        x = Box((_random_interval(rng), _random_interval(rng)))
        y = Box((_random_interval(rng),))
        got = [iv for box in revise(e, x, y, geq) for iv in box]
        want = [iv for box in _full_sweep(e, geq, x, y) for iv in box]
        assert _bits(got) == _bits(want), (case, e, x, y)


def test_kernels_narrow_one_domain_for_an_input_read_through_two_leaves():
    # the parser shares one VarRef per name, so a parsed tape has one step
    # per input; here x and y reach the tape through two distinct objects
    # each, two steps per input, and the kernels start x0 and y0 at the
    # first: both steps must narrow that one domain
    refs = (X, X2, Y, VarRef(VarKind.VARIABLE, 0), VarRef(VarKind.PARAMETER, 0))
    rng = random.Random(4711)
    checked = 0
    for case in range(4000):
        e = _random_tree(rng, 5, refs) if case % 2 else _random_dag(rng, rng.randint(1, 10), refs)
        geq = rng.choice((False, True))
        x = Box((_random_interval(rng), _random_interval(rng)))
        y = Box((_random_interval(rng),))
        leaves = [step for step in _tape(e)[0] if step[0] in ("var", "param") and step[1] == 0]
        if len(leaves) == len(set(leaves)):
            continue  # one step per input, as the tests above cover
        checked += 1
        got = [iv for box in revise(e, x, y, geq) for iv in box]
        want = [iv for box in _full_sweep(e, geq, x, y) for iv in box]
        assert _bits(got) == _bits(want), (case, e, x, y)
        # pruning revises f <= 0 with the parameter domain collapsed at its
        # midpoint; the kernels take and give flat bounds (lo0, hi0, ...)
        pruned = _kernel(e, "prune")(x.bounds, [y.bounds])
        want = _full_sweep(e, False, x, Box((Interval.point(_midpoint(y[0].lo, y[0].hi)),)))[0]
        assert (want.is_empty if pruned is None else [b.hex() for b in pruned] == [b.hex() for b in want.bounds]), (
            case, e, x, y
        )
    assert checked > 400, checked


def _spied_revise(monkeypatch, f, geq, x, y):
    """hc4_revise through a fresh kernel, and the calls it made to _add and _div.

    The kernel reads its bound functions from contractor._NAMESPACE when it
    is compiled, so f must not have been revised before.  Its result must
    equal the full sweep's, which runs before the spies are in.
    """
    from qine import contractor

    want = _full_sweep(f, geq, x, y)
    counts = {"_add": 0, "_div": 0}
    for name in counts:
        def spy(*bounds, _name=name, _f=contractor._NAMESPACE[name]):
            counts[_name] += 1
            return _f(*bounds)
        monkeypatch.setitem(contractor._NAMESPACE, name, spy)
    got = revise(f, x, y, geq)
    assert got == want
    return got, counts


def test_revise_stops_below_an_even_power_that_hulls_back_its_operand(monkeypatch):
    # (x - y)^2 is cut to [1, 4]; its two root branches [-2, -1] and [1, 2]
    # meet x - y in parts whose hull is x - y's forward value, so the
    # difference is not projected: 2 forward and 2 root calls of _add, not 6
    x, y = Box.from_bounds([(-1.0, 1.0)]), Box.from_bounds([(-1.0, 1.0)])
    _, counts = _spied_revise(monkeypatch, parsed("(x - y)^2 - 1"), True, x, y)
    assert counts["_add"] == 4


def test_revise_stops_above_a_sqrt_and_still_cuts_its_operand(monkeypatch):
    # nothing is cut at the root or at the add, so neither is projected; the
    # sqrt below them still projects its forward value and cuts x to [0, 4]
    f = parsed("sqrt(x) + y - 5")
    (x, y), counts = _spied_revise(monkeypatch, f, False, Box.from_bounds([(-1.0, 4.0)]), Box.from_bounds([(0.0, 1.0)]))
    assert (x, y) == (Box.from_bounds([(0.0, 4.0)]), Box.from_bounds([(0.0, 1.0)]))
    assert counts["_add"] == 2


@pytest.mark.parametrize(
    "make, geq, bounds, calls",
    [
        # s*s + sin(s) - 5 <= 0 holds everywhere: only the forward sweep adds
        (
            lambda s: Binary("sub", Binary("add", Binary("mul", s, s), Unary("sin", s)), Const(5.0)),
            False,
            [(-1.0, 1.0), (-1.0, 1.0)],
            {"_add": 3, "_div": 0},
        ),
        # s^2 + x1*s >= 0 holds everywhere as well
        (
            lambda s: Binary("add", Pow(s, 2), Binary("mul", X, s)),
            True,
            [(0.5, 1.0), (-1.0, 0.0)],
            {"_add": 2, "_div": 0},
        ),
    ],
)
def test_revise_stops_at_a_shared_node_reached_with_its_forward_value(monkeypatch, make, geq, bounds, calls):
    # s = x1 - x2 has several users; each visit would hand it its forward
    # value, so neither s nor the nodes above it are projected, and the root
    # returns the boxes as they came
    x, y = Box.from_bounds(bounds), Box(())
    got, counts = _spied_revise(monkeypatch, make(Binary("sub", X, X2)), geq, x, y)
    assert got[0] is x and got[1] is y and counts == calls


@pytest.mark.parametrize(
    "text, x0, x1",
    [
        # the root is not narrowed, yet the operands are cut to the domain of
        # sqrt and log: the root returns at once only when no sqrt, log, div
        # or exp lies below it, or it would keep [-1, 1] and [-1, 2]
        ("sqrt(x) - 5", (-1.0, 1.0), (0.0, 1.0)),
        ("log(x)^1 - 10", (-1.0, 2.0), (0.0, 2.0)),
        # a leaf reached with its forward value still resets its slot: skipping
        # before the assignment empties the box instead
        ("x / x * (2.0 / x)", (0.0, 3.0), (0.0, 0.0)),
    ],
)
def test_revise_pins_of_the_settled_rule(text, x0, x1):
    x, _ = revise(parsed(text), Box.from_bounds([x0]), Box(()))
    assert x == Box.from_bounds([x1])
    assert _full_sweep(parsed(text), False, Box.from_bounds([x0]), Box(())) == (x, Box(()))


def test_revise_reprojects_a_narrowed_shared_internal_node():
    # s is reached twice; a visit that arrives with s's forward value stops,
    # but one that arrives with a narrowed value re-projects it, and that
    # narrows x1
    s = Binary("sub", X, Pow(X, 4))
    f = Binary("add", Binary("add", Pow(X2, 4), s), Unary("sin", s))
    x, _ = revise(f, Box.from_bounds([(1.0, 2.0), (-2.25, -1.2)]), Box(()))
    assert x[0] == Interval(1.227943869237377, 2.0)


@pytest.mark.parametrize(
    "geq, x0, y0, x1, y1",
    [
        (False, (0.5, 2.0), (-0.5, 3.0), (0.5, 1.0), (-0.5, -0.5)),
        (True, (0.5, 3.0), (-4.0, -2.0), (1.0, 1.5), (-3.0, -2.0)),
    ],
)
def test_revise_projects_onto_a_shared_leafs_current_value(geq, x0, y0, x1, y1):
    # x occurs twice in x + x*y: the product's projection reads the value
    # that x's first visit wrote, not x's forward value
    f = parsed("x + x*y")
    x, y = revise(f, Box.from_bounds([x0]), Box.from_bounds([y0]), geq)
    assert (x, y) == (Box.from_bounds([x1]), Box.from_bounds([y1]))
    assert _full_sweep(f, geq, Box.from_bounds([x0]), Box.from_bounds([y0])) == (x, y)


@pytest.mark.parametrize(
    "text, geq, x0, y0, x1, y1",
    [
        ("x + (cos(x) + (x - x))", False, (-0.5, 0.5), (-2.0, 0.5), None, None),
        (
            "x^3 + (0.5*x + x*y)",
            True,
            (-3.0, -0.5),
            (-3.0, 1.0),
            (-2.0606426499042785, -0.5),
            (-3.0, -0.18198206274019396),
        ),
    ],
)
def test_revise_stop_keeps_a_shared_leafs_current_value(text, geq, x0, y0, x1, y1):
    # a settled node that stops leaves the subtree below it as it is; x's
    # value from an earlier path must survive for the projections after it
    f = parsed(text)
    x, y = revise(f, Box.from_bounds([x0]), Box.from_bounds([y0]), geq)
    if x1 is None:
        assert x.is_empty and y.is_empty
    else:
        assert (x, y) == (Box.from_bounds([x1]), Box.from_bounds([y1]))
    assert _full_sweep(f, geq, Box.from_bounds([x0]), Box.from_bounds([y0])) == (x, y)


def test_revise_checks_a_settled_node_cut_to_empty():
    # the product's projection cuts cos(y) to empty; cos hands its operand on
    # unchanged, so only the cos node's own empty check ends the sweep
    f = parsed("x + cos(y)*x")
    x0, y0 = Box.from_bounds([(0.5, 2.0)]), Box.from_bounds([(-2.0, 2.0)])
    x, y = revise(f, x0, y0)
    assert x.is_empty and y.is_empty
    assert _full_sweep(f, False, x0, y0) == (x, y)


def test_every_op_maps_an_empty_operand_to_an_empty_value():
    # the compiled sweep leans on this: once the root's value passes its
    # empty check no forward value is empty, so a node reached with its
    # forward value needs no check of its own
    others = (Interval(0.0, 0.0), Interval(-1.0, 2.0), Interval(1.0, math.inf), Interval(-math.inf, math.inf), EMPTY)
    for e in [Binary(op, X, X2) for op in _BINARY_OPS]:
        for other in others:
            for x in (Box((EMPTY, other)), Box((other, EMPTY))):
                assert forward_sweep(e, x, Box(()))[1][-1].is_empty, (e, x)
    for e in [Unary(op, X) for op in _UNARY_OPS] + [Pow(X, n) for n in range(6)]:
        assert forward_sweep(e, Box((EMPTY,)), Box(()))[1][-1].is_empty, e


def test_one_revise_kernel_serves_both_relations():
    e = parse_expression("x - 1", SYMS)
    x = Box.from_bounds([(0.0, 2.0)])
    assert revise(e, x, Box(()))[0] == Box.from_bounds([(0.0, 1.0)])
    kernels = _tape(e)[1]
    kernel = kernels["revise"]
    assert revise(e, x, Box(()), geq=True)[0] == Box.from_bounds([(1.0, 2.0)])
    assert kernels["revise"] is kernel and set(kernels) == {"revise"}
    # profilers tell code apart by file, line and name
    forward_sweep(e, x, Box(()))
    assert kernel.__code__.co_filename != kernels["forward"].__code__.co_filename


def _subinterval(rng: random.Random, iv: Interval) -> Interval:
    if rng.random() < 0.3:
        return iv
    inner = min(max(rng.uniform(-9.0, 9.0), iv.lo), iv.hi)
    lo, hi = sorted(rng.choice((iv.lo, iv.hi, _midpoint(iv.lo, iv.hi), inner)) for _ in "ab")
    return iv if math.isinf(lo) and lo == hi else Interval(lo, hi)


def _interval_from(rng: random.Random, bounds: tuple[float, ...]) -> Interval:
    while True:
        lo, hi = sorted(rng.choice(bounds + (rng.uniform(-9.0, 9.0),)) for _ in "ab")
        if not (math.isinf(lo) and lo == hi):
            return Interval(lo, hi)


def test_settled_projection_of_the_forward_value_returns_operands_unchanged():
    # For each settled op, projecting its forward value over operand domains
    # l0, r0 onto operands l, r inside them returns l and r bit for bit,
    # signed zeros included: the skipped projection would only have rewritten
    # each value with itself.  (An even pow hulls the root and its negation
    # back to the operand's own bounds, so its operand's visit stops too.)
    rng = random.Random(77)
    bounds = _EDGE_BOUNDS + (math.inf, -math.inf)
    exprs = [Binary(op, X, X2) for op in ("add", "sub", "mul")]
    exprs += [Unary(op, X) for op in ("neg", "sin", "cos")]
    exprs += [Pow(X, n) for n in range(5)]
    for _ in range(20000):
        e = rng.choice(exprs)
        l0, r0 = _interval_from(rng, bounds), _interval_from(rng, bounds)
        tape, values = forward_sweep(e, Box((l0, r0)), Box(()))
        op, _, b = tape[-1]
        operands = (_subinterval(rng, l0), _subinterval(rng, r0))[: 2 if op in _BINARY_OPS else 1]
        got = backward_project(op, values[-1], operands, exponent=b)
        assert _bits(got) == _bits(operands), (e, l0, r0, operands)


def test_unsettled_ops_cut_an_operand_with_their_own_forward_value():
    # the forward value of sqrt and log keeps only the part of the operand
    # inside their domain, so projecting it back cuts the operand
    for op, child, projected in (
        ("sqrt", Interval(-1.0, 1.0), Interval(0.0, 1.0)),
        ("log", Interval(-1.0, 2.0), Interval(0.0, 2.0)),
    ):
        assert backward_project(op, getattr(child, op)(), (child,)) == (projected,)
    # div projects back by multiplying, and ENTIRE * [0, 0] is [0, 0]
    l, r = Interval(-math.inf, math.inf), Interval(0.0, 0.0)
    assert backward_project("div", l / r, (l, r))[0] == Interval(0.0, 0.0)


# ---------------------------------------------------------------------------
# the kernels on float bounds: empty inputs, signed zeros, no boxing


@pytest.mark.parametrize("text", ["x + x*y", "sqrt(x) - y", "(x-y)^2 + x2^2 - 1"])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_an_empty_input_coordinate_through_the_kernels(text, slot):
    # the forward kernel maps a value that reads the empty coordinate to
    # the empty interval and leaves the others as the loop computes them;
    # HC4-revise empties both boxes when the expression reads it, and
    # otherwise returns it as it came, beside the other contracted domains
    from test_expr import _forward_loop

    e = parse_expression(text, SYMS)
    dims = [Interval(-1.0, 2.0), Interval(-2.0, 0.0), Interval(0.5, 3.0)]
    dims[slot] = EMPTY
    x, y = Box(tuple(dims[:2])), Box((dims[2],))
    tape, values = forward_sweep(e, x, y)
    assert _bits(values) == _bits(_forward_loop(e, x, y))
    reads = ("var", slot) if slot < 2 else ("param", 0)
    assert values[-1].is_empty == any((op, a) == reads for op, a, _ in tape)
    for geq in (False, True):
        got = [iv for box in revise(e, x, y, geq) for iv in box]
        assert _bits(got) == _bits([iv for box in _full_sweep(e, geq, x, y) for iv in box])
        if values[-1].is_empty:
            assert all(iv.is_empty for iv in got)
        else:
            assert _bits([got[slot]]) == _bits([EMPTY])


def test_a_containment_that_holds_only_because_zero_equals_minus_zero():
    # -x + -x2 over [-2, 0.0]^2 has the forward value [-0.0, 4]; it lies in
    # [0, inf) because 0.0 <= -0.0, so the settled root stops at once and
    # returns the input box itself, as the full sweep's bits do
    f = parsed("-x1 + -x2")
    x0 = Box.from_bounds([(-2.0, 0.0), (-2.0, 0.0)])
    assert forward_sweep(f, x0, Box(()))[1][-1].lo.hex() == "-0x0.0p+0"
    x, _ = revise(f, x0, Box(()), geq=True)
    assert x is x0
    assert _bits(x) == _bits(_full_sweep(f, True, x0, Box(()))[0])
    # against f <= 0 the root is cut to [-0.0, 0.0], and so is each domain
    x, _ = revise(f, x0, Box(()))
    assert _bits(x) == (("-0x0.0p+0", "0x0.0p+0"),) * 2 == _bits(_full_sweep(f, False, x0, Box(()))[0])


_INTERVAL_CALLS = ("_iv(", "_box(", ".intersect(", ".hull(", ".sqr(", ".pow_int(", ".root_int(")
_INTERVAL_CALLS += (".exp(", ".log(", ".sin(", ".cos(")


def test_kernels_build_intervals_only_in_their_returns(problems_dir, monkeypatch):
    # the bench problems' constraints compile to kernels that work on float
    # locals, the tangent kernel of each parameter and the pin kernel of each
    # constraint included: outside a return statement no line builds an
    # Interval or calls an Interval method
    from qine import contractor, expr
    from qine.cli import parse_problem
    from qine.expr import derivative_interval

    sources: list[list[str]] = []
    compile_kernel = expr._compile

    def spy(name, params, lines, namespace):
        sources.append(lines)
        return compile_kernel(name, params, lines, namespace)

    monkeypatch.setattr(expr, "_compile", spy)
    monkeypatch.setattr(contractor, "_compile", spy)
    bench = problems_dir.parent / "bench" / "problems"
    files = [problems_dir / "ring2d.qcsp", bench / "lens.qcsp", bench / "mixed3d.qcsp"]
    problems = [parse_problem(path.read_text()) for path in files]
    constraints = [(f, len(p.parameter_box)) for p in problems for f in p.constraints]
    assert len(constraints) == 6
    for f, params in constraints:
        x = Box.from_bounds([(-1.0, 1.0)] * 3)
        y = Box.from_bounds([(0.0, 1.0)] * 2)
        forward_sweep(f, x, y)
        for geq in (False, True):
            revise(f, x, y, geq)
        for j in range(params):
            derivative_interval(f, VarRef(VarKind.PARAMETER, j), x, y)
        _kernel(f, "pin")(x.bounds, [y.bounds])
    # one forward, one revise and one pin kernel per constraint, one tangent
    # kernel per constraint that reads a parameter
    assert len(sources) == 3 * len(constraints) + 4
    for lines in sources:
        for line in lines:
            body = line.split("return", 1)[0]
            assert not any(call in body for call in _INTERVAL_CALLS), line
        assert lines[-1].startswith("return ")


def test_revise_returns_a_box_the_tape_never_reads_as_it_came():
    x, y = Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    got = revise(parsed("x - 0.5"), x, y)
    assert got[0] == Box.from_bounds([(0.0, 0.5)]) and got[1] is y


def test_revise_returns_both_boxes_as_they_came_when_the_settled_root_stops():
    # x - 5 <= 0 holds on all of [0, 1], so nothing is cut
    x, y = Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    got = revise(parsed("x - 5"), x, y)
    assert got[0] is x and got[1] is y
