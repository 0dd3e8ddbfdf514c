"""Expression parsing, rendering, evaluation and differentiation."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from helpers import contains_fraction
from qine.expr import (
    Binary,
    Const,
    ParseError,
    Pow,
    Unary,
    VarKind,
    VarRef,
    derivative_interval,
    eval_interval,
    eval_point,
    parse_expression,
    render,
)
from qine.interval import Box, Interval

X = VarRef(VarKind.VARIABLE, 0)
X2 = VarRef(VarKind.VARIABLE, 1)
Y = VarRef(VarKind.PARAMETER, 0)
Y2 = VarRef(VarKind.PARAMETER, 1)

SYMS = {"x": X, "x1": X, "x2": X2, "y": Y, "y1": Y, "y2": Y2}


# ---------------------------------------------------------------------------
# parsing


def test_parse_structure():
    e = parse_expression("10*y - x - y^2", SYMS)
    expected = Binary(
        "sub",
        Binary("sub", Binary("mul", Const(10.0), Y), X),
        Pow(Y, 2),
    )
    assert e == expected


def test_power_binds_tighter_than_unary_minus():
    assert parse_expression("-x^2", SYMS) == Unary("neg", Pow(X, 2))
    assert parse_expression("(-x)^2", SYMS) == Pow(Unary("neg", X), 2)


def test_parse_functions_and_parens():
    e = parse_expression("sin(x) * (y + 2)", SYMS)
    assert e == Binary("mul", Unary("sin", X), Binary("add", Y, Const(2.0)))
    assert parse_expression("sqrt(exp(x))", SYMS) == Unary("sqrt", Unary("exp", X))


def test_parse_scientific_numbers():
    assert parse_expression("1e-3", SYMS) == Const(1e-3)
    assert parse_expression("2.5E+2", SYMS) == Const(250.0)
    assert parse_expression(".5", SYMS) == Const(0.5)


def test_inexact_literal_carries_its_enclosure():
    # the interval evaluators see an enclosure of 1/10 itself; eval_point
    # and render keep the nearest double
    tenth = parse_expression("0.1", SYMS)
    assert Fraction(tenth.enclosure.lo) < Fraction(1, 10) < Fraction(tenth.enclosure.hi)
    assert eval_interval(tenth, Box(()), Box(())) == tenth.enclosure
    assert eval_point(tenth, [], []) == 0.1 and render(tenth) == "0.1"
    assert parse_expression("0.5", SYMS).enclosure is None


def test_parse_division_and_associativity():
    e = parse_expression("x / y / 2", SYMS)
    assert e == Binary("div", Binary("div", X, Y), Const(2.0))


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expression("x + ", SYMS)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("x + foo", SYMS)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("x ^ -2", SYMS)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("x ^ 2.5", SYMS)
    assert err.value.position == 4
    with pytest.raises(ParseError) as err:
        parse_expression("x $ y", SYMS)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_expression("sin x", SYMS)
    with pytest.raises(ParseError):
        parse_expression("(x + y", SYMS)


def test_unknown_function_like_identifier():
    with pytest.raises(ParseError):
        parse_expression("tan(x)", SYMS)


# ---------------------------------------------------------------------------
# rendering: output re-parses to the same tree


def test_render_readable():
    e = parse_expression("10*y - x - y^2", SYMS)
    assert render(e, ["x"], ["y"]) == "10.0 * y - x - y^2"


def test_render_parenthesizes_structure():
    e = Binary("mul", Binary("add", X, Y), Const(2.0))
    assert render(e, ["x"], ["y"]) == "(x + y) * 2.0"
    e2 = Unary("neg", Binary("mul", X, Y))
    assert render(e2, ["x"], ["y"]) == "-(x * y)"
    e3 = Pow(Binary("add", X, Y), 2)
    assert render(e3, ["x"], ["y"]) == "(x + y)^2"
    e4 = Binary("sub", X, Binary("sub", X, Y))
    assert render(e4, ["x"], ["y"]) == "x - (x - y)"


def expr_trees(safe: bool = False, indices: tuple[int, ...] = (0, 1)):
    refs = [VarRef(k, i) for k in (VarKind.VARIABLE, VarKind.PARAMETER) for i in indices]
    leaves = st.one_of(
        st.builds(Const, st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
        st.sampled_from(refs),
    )
    unary_ops = ["neg"] if safe else ["neg", "sqrt", "exp", "log", "sin", "cos"]
    binary_ops = ["add", "sub", "mul"] if safe else ["add", "sub", "mul", "div"]

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.sampled_from(unary_ops), children),
            st.builds(Binary, st.sampled_from(binary_ops), children, children),
            st.builds(Pow, children, st.integers(min_value=0, max_value=4)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@given(expr_trees())
def test_render_parse_round_trip(e):
    text = render(e)
    symbols = {"x1": X, "x2": X2, "y1": Y, "y2": Y2}
    assert parse_expression(text, symbols) == e


def preorder(e) -> list:
    """Node labels in pre-order, collected without recursion; with the
    arities they imply, they determine the tree."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Binary):
            out.append(("binary", node.op))
            stack += [node.right, node.left]
        elif isinstance(node, Unary):
            out.append(("unary", node.op))
            stack.append(node.child)
        elif isinstance(node, Pow):
            out.append(("pow", node.exponent))
            stack.append(node.base)
        else:
            out.append(node)
    return out


def test_render_walks_deeper_than_the_recursion_limit():
    e = parse_expression(" + ".join(["0.001*x"] * 1500), SYMS)
    text = render(e, ["x"], ["y"])
    assert text == " + ".join(["0.001 * x"] * 1500)
    assert preorder(parse_expression(text, SYMS)) == preorder(e)
    # the parser recurses into parentheses, so this one is checked as text
    expected = "x1"
    for i in range(5000):
        expected = f"{expected} + 0.0" if i % 2 == 0 else f"-({expected})"
    assert render(deep_chain(5000)) == expected


# ---------------------------------------------------------------------------
# interval evaluation


def test_eval_interval_natural_extension():
    f = parse_expression("10*y - x - y^2", SYMS)
    x = Box.from_bounds([(0.0, 15.0)])
    y = Box.from_bounds([(0.0, 1.0)])
    # 10y in [0,10]; minus x gives [-15,10]; minus y^2 in [0,1] gives [-16,10]
    assert eval_interval(f, x, y) == Interval(-16.0, 10.0)


def test_eval_interval_degenerate_inputs_exact():
    f = parse_expression("10*y - x - y^2", SYMS)
    v = eval_interval(f, Box.point([9.0]), Box.point([1.0]))
    assert v == Interval(0.0, 0.0)


def test_eval_interval_empty_domain_propagates():
    f = parse_expression("sqrt(x)", SYMS)
    v = eval_interval(f, Box.from_bounds([(-4.0, -1.0)]), Box(()))
    assert v.is_empty


def test_eval_point_and_domain_errors():
    f = parse_expression("10*y - x - y^2", SYMS)
    assert eval_point(f, [9.0], [1.0]) == 0.0
    assert math.isnan(eval_point(parse_expression("sqrt(x)", SYMS), [-1.0], []))
    assert math.isnan(eval_point(parse_expression("log(x)", SYMS), [0.0], []))
    assert math.isnan(eval_point(parse_expression("1/x", SYMS), [0.0], []))
    assert eval_point(parse_expression("x^0", SYMS), [0.0], []) == 1.0


@st.composite
def boxes_and_point(draw, n, lo=-5.0, hi=5.0):
    bounds = []
    point = []
    for _ in range(n):
        a = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        b = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        blo, bhi = min(a, b), max(a, b)
        bounds.append((blo, bhi))
        point.append(draw(st.floats(min_value=blo, max_value=bhi, allow_nan=False)))
    return Box.from_bounds(bounds), point


@given(expr_trees(safe=True), boxes_and_point(2), boxes_and_point(2))
def test_eval_interval_contains_exact_point_values(e, bx, by):
    xbox, px = bx
    ybox, py = by
    result = eval_interval(e, xbox, ybox)
    exact = oracle.exact_value(e, px, py)
    assert contains_fraction(result, exact)


@given(expr_trees(), boxes_and_point(2), boxes_and_point(2))
@settings(max_examples=120)
def test_eval_interval_contains_float_point_values(e, bx, by):
    xbox, px = bx
    ybox, py = by
    value = eval_point(e, px, py)
    assume(not math.isnan(value) and not math.isinf(value))
    result = eval_interval(e, xbox, ybox)
    assert not result.is_empty
    # allow the float evaluation's own rounding when the value sits on a bound
    slack_lo = math.nextafter(math.nextafter(result.lo, -math.inf), -math.inf)
    slack_hi = math.nextafter(math.nextafter(result.hi, math.inf), math.inf)
    assert slack_lo <= value <= slack_hi


def deep_chain(depth: int):
    """x under ``depth`` alternating ``+ 0.0`` and negation nodes; equals x for even depth."""
    e = X
    for i in range(depth):
        e = Binary("add", e, Const(0.0)) if i % 2 == 0 else Unary("neg", e)
    return e


def test_eval_interval_walks_deeper_than_the_recursion_limit():
    x = Box.from_bounds([(0.0, 1.0)])
    assert eval_interval(deep_chain(5000), x, Box(())) == Interval(0.0, 1.0)
    assert eval_point(deep_chain(5000), [0.25], []) == 0.25
    total = parse_expression(" + ".join(["0.001*x"] * 1500), SYMS)
    assert math.isclose(eval_point(total, [1.0], []), 1.5, rel_tol=1e-12)


def test_tape_memo_stays_bounded():
    from qine import expr

    x = Box.from_bounds([(0.0, 1.0)])
    for k in range(2 * expr._TAPES_MAX):
        e = Binary("add", X, Const(float(k)))
        assert eval_interval(e, x, Box(())) == Interval(float(k), float(k + 1))
    assert len(expr._TAPES) <= expr._TAPES_MAX


# ---------------------------------------------------------------------------
# differentiation


def test_derivative_linear_in_parameter():
    f = parse_expression("10*y - x - y^2", SYMS)
    d = derivative_interval(
        f, Y, Box.from_bounds([(0.0, 15.0)]), Box.from_bounds([(0.0, 1.0)])
    )
    assert d == Interval(8.0, 10.0)


def test_derivative_constant_sign():
    f = parse_expression("x - y", SYMS)
    d = derivative_interval(
        f, Y, Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    )
    assert d == Interval(-1.0, -1.0)


def test_derivative_unbounded_at_domain_edge():
    f = parse_expression("sqrt(y)", SYMS)
    d = derivative_interval(
        f, Y, Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    )
    assert d.hi == math.inf


def test_derivative_wrt_absent_parameter_is_zero():
    f = parse_expression("x^2", SYMS)
    d = derivative_interval(
        f, Y, Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    )
    assert d == Interval(0.0, 0.0)


@given(expr_trees(safe=True), boxes_and_point(2), boxes_and_point(2))
@settings(max_examples=80)
def test_derivative_encloses_central_difference(e, bx, by):
    _, px = bx
    _, py = by
    h = 1e-5
    j = 0
    lo_pt = list(py)
    hi_pt = list(py)
    lo_pt[j] = py[j] - h
    hi_pt[j] = py[j] + h
    f_hi = eval_point(e, px, hi_pt)
    f_lo = eval_point(e, px, lo_pt)
    assume(math.isfinite(f_hi) and math.isfinite(f_lo))
    fd = (f_hi - f_lo) / (2 * h)
    assume(abs(fd) < 1e12)
    ybounds = [(v, v) for v in py]
    ybounds[j] = (py[j] - h, py[j] + h)
    enclosure = derivative_interval(
        e, Y, Box.point(px), Box.from_bounds(ybounds)
    )
    # the mean-value theorem puts the difference quotient inside the
    # enclosure; the slack covers the quotient's own float error
    tol = 1e-6 * (1.0 + abs(fd))
    assert not enclosure.is_empty
    assert enclosure.lo - tol <= fd <= enclosure.hi + tol


def test_derivative_walks_deeper_than_the_recursion_limit():
    x = Box.from_bounds([(0.0, 1.0)])
    assert derivative_interval(deep_chain(5000), X, x, Box(())) == Interval(1.0, 1.0)
