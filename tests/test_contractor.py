"""Inverse projections and the forward-backward inequality contractor."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import assert_interval
from qine.contractor import (
    InequalityConstraint,
    Relation,
    backward_project,
    hc4_revise,
)
from qine.expr import Binary, Const, Pow, Unary, VarKind, VarRef, parse_expression
from qine.interval import EMPTY, Box, Interval
from test_expr import SYMS, X, Y, boxes_and_point, deep_chain, expr_trees


def leq(text: str) -> InequalityConstraint:
    return InequalityConstraint(parse_expression(text, SYMS))


def geq(text: str) -> InequalityConstraint:
    return InequalityConstraint(parse_expression(text, SYMS), Relation.GEQ)


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


def test_project_trig_passes_child_through():
    (child,) = backward_project("sin", Interval(0.5, 1.0), (Interval(0.0, 9.0),))
    assert child == Interval(0.0, 9.0)


def test_project_empty_result():
    (child,) = backward_project("sqrt", Interval(2.0, 3.0), (Interval(0.0, 1.0),))
    assert child.is_empty


# ---------------------------------------------------------------------------
# hc4_revise on frozen examples


def test_revise_midpoint_instantiation():
    c = leq("10*y - x - y^2")
    x, y = hc4_revise(c, Box.from_bounds([(0.0, 15.0)]), Box.point([0.5]))
    # 4.75 - x <= 0 forces x >= 4.75
    assert x[0] == Interval(4.75, 15.0)
    assert y[0] == Interval(0.5, 0.5)


def test_revise_negation():
    c = geq("10*y - x - y^2")
    x, y = hc4_revise(c, Box.from_bounds([(4.75, 15.0)]), Box.from_bounds([(0.0, 1.0)]))
    assert_interval(x[0], 4.75, 10.0)
    assert_interval(y[0], 0.475, 1.0)


def test_revise_no_op_on_full_domain():
    c = leq("10*y - x - y^2")
    x0 = Box.from_bounds([(0.0, 15.0)])
    y0 = Box.from_bounds([(0.0, 1.0)])
    x, y = hc4_revise(c, x0, y0)
    assert x == x0 and y == y0


def test_revise_detects_infeasibility():
    c = geq("x - y")
    x, y = hc4_revise(c, Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(2.0, 3.0)]))
    assert x.is_empty
    assert y.is_empty


def test_revise_without_parameters():
    c = leq("x1^2 + x2^2 - 3")
    x, y = hc4_revise(c, Box.from_bounds([(-2.0, 2.0), (-2.0, 2.0)]), Box(()))
    r = math.sqrt(3.0)
    assert_interval(x[0], -r, r, ulps=2)
    assert_interval(x[1], -r, r, ulps=2)
    assert len(y) == 0 and not y.is_empty


def test_revise_shared_subtree_is_sound():
    # f = (x+y)^2 + (x+y) with one shared (x+y) node; f <= 0 iff x+y in [-1,0]
    s = Binary("add", X, Y)
    f = Binary("add", Pow(s, 2), s)
    c = InequalityConstraint(f)
    x0 = Box.from_bounds([(-2.0, 2.0)])
    y0 = Box.from_bounds([(-2.0, 2.0)])
    x, y = hc4_revise(c, x0, y0)
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
    c = InequalityConstraint(f, Relation.GEQ)
    x, _ = hc4_revise(c, Box.from_bounds([(0.0, 5.0)]), Box(()))
    assert not x.is_empty
    assert x[0].subset_of(Interval(0.0, 5.0))
    # the true feasible set [2,5] must survive
    assert x[0].lo <= 2.0 and x[0].hi >= 5.0


@pytest.mark.parametrize(
    "text, rel, x0, y0, x1, y1",
    [
        ("(y - (x + y + x))^3 - 1", Relation.GEQ, (0.0, 1.0), (-3.0, -1.0), (0.0, 0.0), (-2.0, -2.0)),
        ("y - x + x", Relation.LEQ, (1.0, 3.0), (1.0, 3.0), (2.0, 2.0), (1.0, 2.0)),
    ],
)
def test_revise_backward_order_is_depth_first_per_path(text, rel, x0, y0, x1, y1):
    # x and y occur more than once.  The backward sweep goes depth first,
    # left operand first, and projects a node once per path that reaches
    # it, onto its operands' values at that time.  Sweeps that visit each
    # node once in reverse topological order return other boxes: x = [0, 1]
    # in the first case if they project onto the forward values, y = [1, 1]
    # in the second if they intersect the projections of all parents.
    c = InequalityConstraint(parse_expression(text, SYMS), rel)
    x, y = hc4_revise(c, Box.from_bounds([x0]), Box.from_bounds([y0]))
    assert x == Box.from_bounds([x1])
    assert y == Box.from_bounds([y1])


def test_revise_walks_deeper_than_the_recursion_limit():
    c = InequalityConstraint(deep_chain(5000))
    x, y = hc4_revise(c, Box.from_bounds([(0.0, 1.0)]), Box(()))
    assert x == Box.from_bounds([(0.0, 0.0)])
    assert len(y) == 0


# ---------------------------------------------------------------------------
# properties


@given(
    expr_trees(safe=True, indices=(0,)),
    boxes_and_point(1),
    boxes_and_point(1),
    st.sampled_from([Relation.LEQ, Relation.GEQ]),
)
@settings(max_examples=100)
def test_revise_contracts_and_is_monotone(e, bx, by, rel):
    x0, _ = bx
    y0, _ = by
    c = InequalityConstraint(e, rel)
    x1, y1 = hc4_revise(c, x0, y0)
    if x1.is_empty:
        return
    assert all(a.subset_of(b) for a, b in zip(x1, x0))
    assert all(a.subset_of(b) for a, b in zip(y1, y0))
    x2, y2 = hc4_revise(c, x1, y1)
    if x2.is_empty:
        return
    assert all(a.subset_of(b) for a, b in zip(x2, x1))
    assert all(a.subset_of(b) for a, b in zip(y2, y1))


@given(
    expr_trees(safe=True, indices=(0,)),
    boxes_and_point(1),
    boxes_and_point(1),
    st.sampled_from([Relation.LEQ, Relation.GEQ]),
)
@settings(max_examples=100)
def test_revise_keeps_all_grid_solutions(e, bx, by, rel):
    x0, _ = bx
    y0, _ = by
    c = InequalityConstraint(e, rel)
    xb, yb = hc4_revise(c, x0, y0)

    xs = oracle.axis_points(x0[0], 25)
    ys = oracle.axis_points(y0[0], 25)
    xm, ym = np.meshgrid(xs, ys, indexing="ij")
    vals = np.asarray(oracle.eval_grid(e, [xm], [ym]), dtype=float)
    vals = np.broadcast_to(vals, xm.shape)
    sat = vals >= 0.0 if rel is Relation.GEQ else vals <= 0.0
    sat = sat & np.isfinite(vals)

    for px, py in zip(xm[sat], ym[sat]):
        inside = (
            not xb.is_empty
            and xb[0].contains(float(px))
            and yb[0].contains(float(py))
        )
        if inside:
            continue
        # the float grid value may misclassify a boundary point; only an
        # exactly satisfying point proves the contraction unsound
        exact = oracle.exact_value(e, [float(px)], [float(py)])
        if rel is Relation.GEQ:
            assert exact < 0, (px, py, exact)
        else:
            assert exact > 0, (px, py, exact)
