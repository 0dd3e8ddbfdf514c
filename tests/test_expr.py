"""Expression parsing, evaluation and differentiation."""

from __future__ import annotations

import itertools
import math
import random
import re
import sys
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from helpers import contains_fraction
from qine import expr
from qine.expr import (
    _INT_RE,
    FUNCTIONS,
    Binary,
    Const,
    Expression,
    ParseError,
    Pow,
    Unary,
    VarKind,
    VarRef,
    _literal,
    _tokenize,
    derivative_interval,
    eval_interval,
    forward_sweep,
    parse_expression,
)
from qine.interval import MAX_EXPONENT, Box, Interval
from test_interval import edge_intervals, hexes

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
    # the interval evaluators see an enclosure of 1/10 itself; the float
    # walker and the node's value keep the nearest double
    tenth = parse_expression("0.1", SYMS)
    assert Fraction(tenth.enclosure.lo) < Fraction(1, 10) < Fraction(tenth.enclosure.hi)
    assert eval_interval(tenth, Box(()), Box(())) == tenth.enclosure
    assert eval_point(tenth, [], []) == 0.1 and tenth.value == 0.1
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
    # numbers are ASCII digits only, though float() and int() read others
    for text in ("x - \u0661\u0660", "x ^ \u0662"):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse_expression(text, SYMS)
        assert err.value.position == 4
    with pytest.raises(ParseError):
        parse_expression("sin x", SYMS)
    with pytest.raises(ParseError):
        parse_expression("(x + y", SYMS)


def test_unknown_function_like_identifier():
    with pytest.raises(ParseError):
        parse_expression("tan(x)", SYMS)


# ---------------------------------------------------------------------------
# round trips: a tree printed with every operation parenthesized re-parses to itself


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


def parenthesized(e) -> str:
    """e as text, each operation in parentheses of its own, leaves named x1.., y1..."""
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, VarRef):
        return f"{'x' if e.kind is VarKind.VARIABLE else 'y'}{e.index + 1}"
    if isinstance(e, Binary):
        sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[e.op]
        return f"({parenthesized(e.left)} {sym} {parenthesized(e.right)})"
    if isinstance(e, Pow):
        return f"({parenthesized(e.base)}^{e.exponent})"
    if e.op == "neg":
        return f"(-{parenthesized(e.child)})"
    return f"{e.op}({parenthesized(e.child)})"


@given(expr_trees())
def test_render_parse_round_trip(e):
    text = parenthesized(e)
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


def test_parse_builds_a_sum_deeper_than_the_recursion_limit():
    # a flat sum parses in a loop, into a left-leaning chain 1500 deep
    expected = [("binary", "add")] * 1499 + [("binary", "mul"), Const(0.001), X] * 1500
    assert preorder(parse_expression(" + ".join(["0.001*x"] * 1500), SYMS)) == expected


def test_parse_nests_deeper_than_the_recursion_limit():
    # parentheses, function calls and unary minuses wait on the parser's
    # own stack, so depth costs what length does
    text = "-" * 3000 + "sin(" * 3000 + "(" * 3000 + "x^2" + ")" * 6000 + "^3 * y"
    expected = [("binary", "mul")] + [("unary", "neg")] * 3000 + [("pow", 3)]
    expected += [("unary", "sin")] * 3000 + [("pow", 2), X, Y]
    assert preorder(parse_expression(text, SYMS)) == expected


# The recursive-descent parser the operator-precedence loop replaced, kept
# verbatim as the reference: the loop must build the same trees and report
# the same (message, position) for every error.
class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, VarRef]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.symbols = symbols

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", at)
        self.advance()

    def parse(self) -> Expression:
        e = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected token {text!r}", at)
        return e

    def expr(self) -> Expression:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                node = Binary("add" if text == "+" else "sub", node, rhs)
            else:
                return node

    def term(self) -> Expression:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                rhs = self.factor()
                node = Binary("mul" if text == "*" else "div", node, rhs)
            else:
                return node

    def factor(self) -> Expression:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.factor())
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            nkind, ntext, nat = self.peek()
            if nkind != "num" or not _INT_RE.match(ntext):
                raise ParseError("exponent must be a non-negative integer", nat)
            # the digit count first: int() refuses strings past 4300 digits
            if len(ntext.lstrip("0")) > len(str(MAX_EXPONENT)) or int(ntext) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds {MAX_EXPONENT}", nat)
            self.advance()
            return Pow(node, int(ntext))
        return node

    def atom(self) -> Expression:
        kind, text, at = self.advance()
        if kind == "num":
            try:
                return _literal(text)
            except OverflowError as exc:
                raise ParseError(str(exc), at) from None
        if kind == "name":
            if text in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Unary(text, arg)
            ref = self.symbols.get(text)
            if ref is None:
                raise ParseError(f"unknown identifier {text!r}", at)
            return ref
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", at)


def _parse_ref(text: str, symbols: Mapping[str, VarRef]) -> Expression:
    """Parse an infix expression; identifiers resolve through ``symbols``."""
    parser = _Parser(text, symbols)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# every token kind, the literals and exponents each check refuses, and a
# bad character; "x2" and "x" run together when joined without a space
_VOCABULARY = ("x", "x2", "y", "z", "sin", "sqrt", "log", "tan", "(", ")", "(", ")", "+", "-", "-", "*", "/", "^")
_VOCABULARY += ("2", "0", "0.1", "3.5", "1e999", "01024", "1025", "9" * 5000, "$", "^")


def _random_text(rng: random.Random, depth: int) -> str:
    """A string of the grammar, at most depth levels of operands deep."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("x", "y", "x2", "2", "0.1", "1e-3", ".5"))
    pick = rng.random()
    if pick < 0.4:
        op = rng.choice("+-*/")
        return f"{_random_text(rng, depth - 1)} {op} {_random_text(rng, depth - 1)}"
    if pick < 0.55:
        return "-" + _random_text(rng, depth - 1)
    if pick < 0.7:
        return f"{rng.choice(FUNCTIONS)}({_random_text(rng, depth - 1)})"
    if pick < 0.85:
        return f"({_random_text(rng, depth - 1)})"
    return f"({_random_text(rng, depth - 1)})^{rng.choice(('0', '2', '3', '007'))}"


def _outcome(parse, text: str):
    try:
        tree = parse(text, SYMS)
    except ParseError as err:
        return err.message, err.position
    # preorder compares constants by value; the enclosure tells 0.1 apart
    return [(node, node.enclosure) if isinstance(node, Const) else node for node in preorder(tree)]


def test_parse_agrees_with_the_recursive_descent_reference():
    rng = random.Random(1973)
    parsed, messages = 0, set()
    for case in range(15000):
        if case % 3 == 0:
            # a random token string, mostly an error somewhere
            tokens = [rng.choice(_VOCABULARY) for _ in range(rng.randint(0, 12))]
        else:
            # a string of the grammar with a few tokens inserted, dropped or
            # replaced, so that errors fall at every depth
            tokens = [tok for _, tok, _ in expr._tokenize(_random_text(rng, 4))][:-1]
            for _ in range(rng.choice((0, 0, 1, 2))):
                k = rng.randint(0, len(tokens))
                if rng.random() < 0.5 or k == len(tokens):
                    tokens.insert(k, rng.choice(_VOCABULARY))
                else:
                    tokens[k : k + 1] = [] if rng.random() < 0.5 else [rng.choice(_VOCABULARY)]
        text = (" " if rng.random() < 0.7 else "").join(tokens)
        want = _outcome(_parse_ref, text)
        assert _outcome(parse_expression, text) == want, (case, text)
        if isinstance(want, list):
            parsed += 1
        else:
            messages.add(re.sub(r"'[^()']+'", "''", want[0]))
    assert 3000 < parsed < 9000, parsed
    assert messages >= {
        "unexpected character ''",
        "unexpected token ''",
        "unexpected token ')'",
        "unexpected end of input",
        "unknown identifier ''",
        "expected '('",
        "expected ')'",
        "number '' overflows to infinity",
        "exponent must be a non-negative integer",
        "exponent exceeds 1024",
    }, messages


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


def eval_point(e, x, y) -> float:
    """Reference: floating-point evaluation over the tape; domain errors yield NaN."""
    values: list[float] = []
    push = values.append
    try:
        for op, a, b in expr._tape(e)[0]:
            if op == "var":
                push(x[a])
            elif op == "param":
                push(y[a])
            elif op == "const":
                push(b)
            elif op == "add":
                push(values[a] + values[b])
            elif op == "sub":
                push(values[a] - values[b])
            elif op == "mul":
                push(values[a] * values[b])
            elif op == "div":
                push(values[a] / values[b])
            elif op == "neg":
                push(-values[a])
            elif op == "pow":
                push(values[a] ** b)
            else:
                push(getattr(math, op)(values[a]))
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan
    return values[-1]


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
    # an entry lives as long as its expression, so a thousand expressions
    # built and dropped in turn leave the memo as it was
    x = Box.from_bounds([(0.0, 1.0)])
    before = len(expr._TAPES)
    for k in range(1000):
        e = Binary("add", X, Const(float(k)))
        assert eval_interval(e, x, Box(())) == Interval(float(k), float(k + 1))
        key = id(e)
        assert key in expr._TAPES
        del e
        assert key not in expr._TAPES
    assert len(expr._TAPES) == before


# ---------------------------------------------------------------------------
# the compiled forward sweep against the loop it replaced


def _forward_loop(e, x: Box, y: Box) -> list[Interval]:
    """Reference: the natural extension as a loop over the tape, dispatching on op names."""
    xs, ys = x.dims, y.dims
    values: list[Interval] = []
    push = values.append
    for op, a, b in expr._tape(e)[0]:
        if op == "var":
            push(xs[a])
        elif op == "param":
            push(ys[a])
        elif op == "const":
            push(a)
        elif op == "add":
            push(values[a] + values[b])
        elif op == "sub":
            push(values[a] - values[b])
        elif op == "mul":
            push(values[a] * values[b])
        elif op == "div":
            push(values[a] / values[b])
        elif op == "neg":
            push(-values[a])
        elif op == "pow":
            push(values[a].pow_int(b))
        else:
            push(getattr(values[a], op)())
    return values


def test_forward_sweep_matches_the_loop_bit_for_bit():
    # random trees and DAGs over edge-case bounds, some joined with decimal
    # literals whose enclosures are not points; float.hex tells -0.0 from 0.0
    from test_contractor import _bits, _random_dag, _random_interval, _random_tree

    rng = random.Random(1789)
    literals = [parse_expression(t, SYMS) for t in ("0.1", "1e-7", "3.3", "2.5")]
    assert all(c.enclosure is not None for c in literals[:3])
    for case in range(1000):
        e = _random_tree(rng, 5) if case % 2 else _random_dag(rng, rng.randint(1, 8))
        if case % 3 == 0:
            lit = rng.choice(literals)
            e = Binary(rng.choice(("add", "sub", "mul", "div")), *((e, lit) if rng.random() < 0.5 else (lit, e)))
        x = Box((_random_interval(rng), _random_interval(rng)))
        y = Box((_random_interval(rng),))
        tape, got = forward_sweep(e, x, y)
        assert tape == expr._tape(e)[0]
        assert _bits(got) == _bits(_forward_loop(e, x, y)), (case, e, x, y)


def test_kernels_live_and_leave_with_their_tape():
    import gc
    import weakref

    from qine.contractor import QuantifiedConstraint, hc4_revise

    x = Box.from_bounds([(0.0, 2.0)])
    first = Binary("sub", X, Const(1.0))
    for geq in (False, True):
        hc4_revise(QuantifiedConstraint(first, Box(())), x, geq=geq)
    forward_sweep(first, x, Box(()))
    assert derivative_interval(first, X, x, Box(())) == Interval(1.0, 1.0)
    kernels = expr._tape(first)[1]
    assert set(kernels) == {"forward", "revise", "tangent"}
    refs = [weakref.ref(k) for k in kernels.values()]
    key = id(first)
    del kernels
    assert key in expr._TAPES and all(ref() is not None for ref in refs)
    # no kernel holds a node, so the expression dies with its last
    # reference, and its entry and kernels go with it without waiting for
    # the cycle collector
    gc.disable()
    try:
        del first
        assert key not in expr._TAPES
        assert len(refs) == 3 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


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


@pytest.mark.parametrize("kind", list(VarKind))
@pytest.mark.parametrize("index", [True, False])
def test_derivative_refuses_a_bool_index(kind, index):
    # a bool is an int, but the tangent kernel's w would be True or False
    f = parse_expression("x * y", SYMS)
    x, y = Box.from_bounds([(0.0, 1.0)]), Box.from_bounds([(0.0, 1.0)])
    with pytest.raises(ValueError, match=f"index {index} is not a non-negative integer"):
        derivative_interval(f, VarRef(kind, index), x, y)


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


def test_an_empty_forward_value_empties_a_zero_tangent():
    # log(x) is empty over x < 0; its tangent in y is zero, but the product
    # rules keep the empty factor, so the partial is empty and pinning
    # leaves y whole rather than fixing it at 1 by a derivative [1, 1]
    from qine.solver import QuantifiedConstraint, parameter_instantiation

    f = parse_expression("log(x) + y", SYMS)
    x, y = Box.from_bounds([(-2.0, -1.0)]), Box.from_bounds([(0.0, 1.0)])
    assert derivative_interval(f, Y, x, y).is_empty
    assert parameter_instantiation([QuantifiedConstraint(f, y)], x)[0].param_domain == y


@pytest.mark.parametrize("node", [Binary("add", X, 1.0), Unary("tan", X), Binary("pow", X, X), "x"])
def test_a_tape_refuses_a_node_that_is_no_expression(node):
    # a bare number, an op the evaluators do not know, or a string
    x = Box.from_bounds([(0.0, 1.0)])
    with pytest.raises(TypeError, match="not an expression node"):
        eval_interval(node, x, Box(()))


def test_an_exponent_above_the_cap_is_rejected():
    # interval._root_start overflows past 1025, and the integer powers that
    # interval._pow_bound rounds grow with the exponent
    x = Box.from_bounds([(0.0, 2.0)])
    assert eval_interval(Pow(X, expr.MAX_EXPONENT), x, Box(())) == Interval(0.0, math.inf)
    with pytest.raises(ValueError, match="exponent 1025 exceeds 1024"):
        eval_interval(Pow(X, 1025), x, Box(()))
    with pytest.raises(ParseError, match="exponent exceeds 1024"):
        parse_expression("x^" + "9" * 5000, SYMS)
    assert parse_expression("x^01024", SYMS) == Pow(X, 1024)


def test_every_forward_op_has_a_tangent_rule():
    # pow's alias sqr aside, the two tables name the same ops, so an op
    # cannot be added to one and forgotten in the other
    ops = set(expr._FORWARD) - set(expr._LEAVES) - {"sqr"}
    assert set(expr._TANGENT) == ops | {"zero", "var", "param"}


_ZERO, _ONE, _NONNEG = Interval(0.0, 0.0), Interval(1.0, 1.0), Interval(0.0, math.inf)


def _derivative_loop(e, wrt: VarRef, x: Box, y: Box) -> Interval:
    """Reference: forward-mode tangents as a loop over the tape, dispatching on op names."""
    tape, values = forward_sweep(e, x, y)
    wrt_op = "var" if wrt.kind is VarKind.VARIABLE else "param"
    ders: list[Interval] = []
    push = ders.append
    for i, (op, a, b) in enumerate(tape):
        if op == "var" or op == "param":
            push(_ONE if op == wrt_op and a == wrt.index else _ZERO)
        elif op == "const":
            push(_ZERO)
        elif op == "add":
            push(ders[a] + ders[b])
        elif op == "sub":
            push(ders[a] - ders[b])
        elif op == "mul":
            push(ders[a] * values[b] + values[a] * ders[b])
        elif op == "div":
            push((ders[a] * values[b] - values[a] * ders[b]) / values[b].sqr())
        elif op == "neg":
            push(-ders[a])
        elif op == "sqrt":
            push(ders[a] / (values[i] * 2))
        elif op == "exp":
            push(values[i] * ders[a])
        elif op == "log":
            push(ders[a] / values[a].intersect(_NONNEG))
        elif op == "sin":
            push(values[a].cos() * ders[a])
        elif op == "cos":
            push(-values[a].sin() * ders[a])
        else:  # pow
            push(_ZERO if b == 0 else values[a].pow_int(b - 1) * b * ders[a])
    return ders[-1]


def test_derivative_matches_the_loop_bit_for_bit():
    # the compiled tangents against the loop they replaced, on random trees
    # and DAGs over edge-case bounds, differentiated by each variable and
    # the parameter; float.hex tells -0.0 from 0.0
    from test_contractor import _bits, _random_dag, _random_interval, _random_tree

    rng = random.Random(2008)
    literals = [parse_expression(t, SYMS) for t in ("0.1", "1e-7", "3.3", "2.5")]
    for case in range(3000):
        e = _random_tree(rng, 5) if case % 2 else _random_dag(rng, rng.randint(1, 8))
        if case % 3 == 0:
            lit = rng.choice(literals)
            e = Binary(rng.choice(("add", "sub", "mul", "div")), *((e, lit) if rng.random() < 0.5 else (lit, e)))
        x = Box((_random_interval(rng), _random_interval(rng)))
        y = Box((_random_interval(rng),))
        wrt = rng.choice((X, X2, Y))
        got = derivative_interval(e, wrt, x, y)
        assert _bits([got]) == _bits([_derivative_loop(e, wrt, x, y)]), (case, e, wrt, x, y)


# ---------------------------------------------------------------------------
# the kernels' memo of the costly bound functions: the plain result, bit for
# bit, whatever the table already holds


def _memo_args(name: str, a: Interval, b: Interval, n: int) -> tuple:
    if name in ("_mul", "_div"):
        return a.lo, a.hi, b.lo, b.hi
    return (a.lo, a.hi, n) if name == "_pow" else (a.lo, a.hi)


def test_the_kernels_read_the_memo_of_the_seven_costly_bound_functions():
    from qine import contractor, interval

    assert expr._MEMOIZED == ("_mul", "_div", "_pow", "_exp", "_log", "_sin", "_cos")
    for name, fn in expr._OPS.items():
        assert contractor._NAMESPACE[name] is fn
        plain = getattr(interval, name)
        assert (fn.__wrapped__ is plain) if name in expr._MEMOIZED else (fn is plain)


@given(st.sampled_from(expr._MEMOIZED), edge_intervals(), edge_intervals(), st.integers(0, 5))
def test_a_memoized_bound_function_returns_the_plain_result_bit_for_bit(name, a, b, n):
    memo = expr._OPS[name]
    args = _memo_args(name, a, b, n)
    want = hexes(*memo.__wrapped__(*args))
    assert hexes(*memo(*args)) == want  # a miss, or a hit from an earlier example
    assert hexes(*memo(*args)) == want  # a hit


@pytest.mark.parametrize("name", expr._MEMOIZED)
def test_a_zero_never_takes_the_entry_of_the_zero_of_the_other_sign(name):
    # 0.0 == -0.0, yet a first power returns its operand's zero as it came:
    # each of the pair, called first or second, gets its own plain result
    memo = expr._OPS[name]
    values = (0.0, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf)
    arity = 4 if name in ("_mul", "_div") else 2
    differ = 0
    for rest in itertools.product(values, repeat=arity - 1):
        for i, n in itertools.product(range(arity), range(6) if name == "_pow" else (None,)):
            pair = [rest[:i] + (zero,) + rest[i:] + ((n,) if n is not None else ()) for zero in (0.0, -0.0)]
            for order in (pair, pair[::-1]):
                memo.table.clear()
                for args in order:
                    assert hexes(*memo(*args)) == hexes(*memo.__wrapped__(*args)), args
            differ += hexes(*memo.__wrapped__(*pair[0])) != hexes(*memo.__wrapped__(*pair[1]))
    assert differ > 0 or name != "_pow"


@pytest.mark.parametrize("name", expr._MEMOIZED)
def test_a_memo_table_is_cleared_when_full(name):
    memo = expr._OPS[name]
    memo.table.clear()
    for k in range(expr._MEMO_SIZE + 10):
        memo(*_memo_args(name, Interval(1.0, 2.0 + k), Interval(3.0, 4.0), 3))
        assert len(memo.table) <= expr._MEMO_SIZE
    assert len(memo.table) == 10


def test_threads_sharing_the_memo_tables_get_the_plain_results():
    # the tables are shared: under a short switch interval, threads calling
    # the memoized functions on overlapping operands each get the plain
    # result, and a table outgrows its cap by at most one entry per thread
    import threading

    rng = random.Random(25)
    operands = [
        (name, _memo_args(name, Interval(-rng.randint(0, 99) / 8, rng.randint(0, 99) / 8), Interval(0.5, 2.0), 3))
        for name in expr._MEMOIZED
        for _ in range(2 * expr._MEMO_SIZE)  # so the tables fill and are cleared
    ]
    threads_n, errors, sizes = 6, [], []

    def work(seed):
        order = random.Random(seed)
        for _ in range(3000):
            name, args = order.choice(operands)
            memo = expr._OPS[name]
            if hexes(*memo(*args)) != hexes(*memo.__wrapped__(*args)):
                errors.append((name, args))
            sizes.append(len(memo.table))

    interval_before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval_before)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(sizes) == threads_n * 3000
    assert max(sizes) <= expr._MEMO_SIZE + threads_n
