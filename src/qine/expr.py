"""Expression trees for constraint functions f(x, y).

Provides the abstract syntax, an infix parser and renderer, the natural
interval extension, plain floating-point evaluation for test oracles,
and forward-mode interval differentiation used to prove monotonicity in
a parameter over a box.  The interval evaluators share one forward
sweep, a loop over the expression's distinct nodes, so they have no
depth limit; the parser, the renderer and point evaluation recurse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence, Union

from .interval import _NONNEG, _ONE, Box, Interval

__all__ = [
    "VarKind",
    "VarRef",
    "Const",
    "Unary",
    "Binary",
    "Pow",
    "Expression",
    "ParseError",
    "parse_expression",
    "render",
    "forward_sweep",
    "eval_interval",
    "eval_point",
    "derivative_interval",
    "FUNCTIONS",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")


class VarKind(Enum):
    VARIABLE = "var"
    PARAMETER = "param"


@dataclass(frozen=True, slots=True)
class VarRef:
    """Reference to the index-th variable or parameter."""

    kind: VarKind
    index: int


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # neg | sqrt | exp | log | sin | cos
    child: "Expression"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str  # add | sub | mul | div
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expression"
    exponent: int


Expression = Union[Const, VarRef, Unary, Binary, Pow]


class ParseError(ValueError):
    """Syntax error with the character offset where it was detected."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.message = message
        self.position = position


# ---------------------------------------------------------------------------
# Tokenizer and recursive-descent parser for the grammar
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := "-" factor | atom ("^" integer)?
#   atom   := number | identifier | function "(" expr ")" | "(" expr ")"
#
# "^" binds tighter than unary minus and takes a non-negative integer
# literal exponent.

_NUMBER_RE = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER_RE})|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<ws>\s+)|(?P<bad>.)"
)

_INT_RE = re.compile(r"\d+\Z")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        tokens.append((kind, m.group(), m.start()))
    tokens.append(("end", "", len(text)))
    return tokens


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
            self.advance()
            return Pow(node, int(ntext))
        return node

    def atom(self) -> Expression:
        kind, text, at = self.advance()
        if kind == "num":
            return Const(float(text))
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


def parse_expression(text: str, symbols: Mapping[str, VarRef]) -> Expression:
    """Parse an infix expression; identifiers resolve through ``symbols``."""
    parser = _Parser(text, symbols)
    try:
        return parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None


# ---------------------------------------------------------------------------
# Rendering.  Produces text that re-parses to a structurally identical
# tree, provided every Const is non-negative (the parser never creates
# negative literals; sign lives in neg nodes).

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    if isinstance(e, Binary):
        return _PREC_ADD if e.op in ("add", "sub") else _PREC_MUL
    if isinstance(e, Unary):
        return _PREC_NEG if e.op == "neg" else _PREC_ATOM
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _default_name(ref: VarRef) -> str:
    prefix = "x" if ref.kind is VarKind.VARIABLE else "y"
    return f"{prefix}{ref.index + 1}"


def render(
    e: Expression,
    var_names: Sequence[str] | None = None,
    param_names: Sequence[str] | None = None,
) -> str:
    """Render to infix text using the given names (default x1.., y1..)."""

    def name_of(ref: VarRef) -> str:
        names = var_names if ref.kind is VarKind.VARIABLE else param_names
        if names is not None:
            return names[ref.index]
        return _default_name(ref)

    def emit(node: Expression, min_prec: int) -> str:
        if isinstance(node, Const):
            text = repr(node.value)
            return f"({text})" if node.value < 0 else text
        if isinstance(node, VarRef):
            return name_of(node)
        if isinstance(node, Binary):
            prec = _prec(node)
            sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
            left = emit(node.left, prec)
            right = emit(node.right, prec + 1)
            text = f"{left} {sym} {right}"
            return f"({text})" if prec < min_prec else text
        if isinstance(node, Unary):
            if node.op == "neg":
                inner = emit(node.child, _PREC_NEG)
                text = f"-{inner}"
                return f"({text})" if _PREC_NEG < min_prec else text
            return f"{node.op}({emit(node.child, 0)})"
        if isinstance(node, Pow):
            base = emit(node.base, _PREC_ATOM)
            text = f"{base}^{node.exponent}"
            return f"({text})" if _PREC_POW < min_prec else text
        raise TypeError(f"not an expression node: {node!r}")

    return emit(e, 0)


# ---------------------------------------------------------------------------
# Evaluation.  A tape lists an expression's distinct node objects (by
# identity, never by structure), operands before their users and left
# operands first, so the root comes last.  Step i is (op, a, b) for node
# i: a leaf holds its payload in a (an Interval for "const", an index
# for "var" and "param"); an operation holds operand slots in a and b,
# and a unary node holds None or its exponent ("pow") in b.  Tapes are
# built without recursion and memoized per expression object; the memo
# holds the expression, so its id is not reused while the entry lives.

_Step = tuple[str, object, object]
_TAPES: dict[int, tuple[Expression, tuple[_Step, ...]]] = {}
_TAPES_MAX = 256


def _node(e: Expression) -> tuple[str, tuple[Expression, ...], object]:
    if isinstance(e, Binary):
        return e.op, (e.left, e.right), None
    if isinstance(e, Unary):
        return e.op, (e.child,), None
    if isinstance(e, Pow):
        return "pow", (e.base,), e.exponent
    if isinstance(e, Const):
        return "const", (), Interval.point(e.value)
    if isinstance(e, VarRef):
        return ("var" if e.kind is VarKind.VARIABLE else "param"), (), e.index
    raise TypeError(f"not an expression node: {e!r}")


def _tape(e: Expression) -> tuple[_Step, ...]:
    hit = _TAPES.get(id(e))
    if hit is not None:
        return hit[1]
    steps: list[_Step] = []
    slot: dict[int, int] = {}
    stack = [(e, False)]
    while stack:
        node, ready = stack.pop()
        if id(node) in slot:
            continue
        op, operands, payload = _node(node)
        if ready:
            slot[id(node)] = len(steps)
            args = [slot[id(c)] for c in operands] + [payload, None]
            steps.append((op, args[0], args[1]))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(operands))
    if len(_TAPES) >= _TAPES_MAX:
        del _TAPES[next(iter(_TAPES))]
    tape = tuple(steps)
    _TAPES[id(e)] = (e, tape)
    return tape


def forward_sweep(e: Expression, x: Box, y: Box) -> tuple[tuple[_Step, ...], list[Interval]]:
    """The tape of e and the natural interval extension at each step.

    The one interval evaluator: ``eval_interval`` returns the root value,
    ``derivative_interval`` and ``hc4_revise`` read every value.  Empty
    results propagate; sqrt and log keep only the part of their operand
    inside their natural domain.
    """
    tape = _tape(e)
    xs, ys = x.dims, y.dims
    values: list[Interval] = []
    push = values.append
    for op, a, b in tape:
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
    return tape, values


def eval_interval(e: Expression, x: Box, y: Box) -> Interval:
    """Natural interval extension over the joint box (x, y)."""
    return forward_sweep(e, x, y)[1][-1]


def eval_point(e: Expression, x: Sequence[float], y: Sequence[float]) -> float:
    """Floating-point evaluation; domain errors yield NaN."""
    try:
        return _eval_point(e, x, y)
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan


def _eval_point(e: Expression, x: Sequence[float], y: Sequence[float]) -> float:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, VarRef):
        seq = x if e.kind is VarKind.VARIABLE else y
        return seq[e.index]
    if isinstance(e, Binary):
        l = _eval_point(e.left, x, y)
        r = _eval_point(e.right, x, y)
        if e.op == "add":
            return l + r
        if e.op == "sub":
            return l - r
        if e.op == "mul":
            return l * r
        return l / r
    if isinstance(e, Unary):
        v = _eval_point(e.child, x, y)
        if e.op == "neg":
            return -v
        return getattr(math, e.op)(v)
    if isinstance(e, Pow):
        return _eval_point(e.base, x, y) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")


def derivative_interval(e: Expression, wrt: VarRef, x: Box, y: Box) -> Interval:
    """Enclosure of the partial derivative d e / d wrt over the joint box.

    Forward-mode tangent propagation with interval coefficients, over
    the node values of ``forward_sweep``.  Where the derivative is
    unbounded (sqrt or log touching the domain edge, division near zero)
    the enclosure is unbounded; callers must treat anything not strictly
    sign-definite as monotonicity unproven.
    """
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


_ZERO = Interval(0.0, 0.0)
