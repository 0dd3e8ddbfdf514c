"""Expression trees for constraint functions f(x, y).

Provides the abstract syntax, an infix parser and renderer, the natural
interval extension, plain floating-point evaluation for test oracles,
and forward-mode interval differentiation used to prove monotonicity in
a parameter over a box.  The interval and point evaluators loop over
one memoized tape of the expression's distinct nodes, and the renderer
walks an explicit stack, so none of them has a depth limit; only the
parser recurses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence, Union

from .interval import _NONNEG, _ONE, Box, Interval, _literal_bounds

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
    """A constant: ``value`` is the double that renders and that
    ``eval_point`` uses; the interval evaluators use ``enclosure``, the
    point ``value`` when None.  A literal whose nearest double is inexact
    carries its outward-rounded enclosure (see ``_literal``), so proofs
    hold for the number as written.  Equality and hashing read ``value``.
    """

    value: float
    enclosure: Interval | None = field(default=None, compare=False)


def _literal(text: str) -> Const:
    """The constant a decimal or scientific literal denotes.

    Raises OverflowError when the literal overflows to infinity.
    """
    value = float(text)
    if math.isinf(value):
        raise OverflowError(f"number {text!r} overflows to infinity")
    lo, hi = _literal_bounds(text)
    return Const(value, Interval(lo, hi) if lo < hi else None)


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

    # Post-order walk on an explicit stack, so depth is unlimited: a node
    # is pushed once to schedule its operands (left on top) and once more,
    # marked ready, to join their texts from ``out``.
    out: list[str] = []
    stack: list[tuple[Expression, int, bool]] = [(e, 0, False)]
    while stack:
        node, min_prec, ready = stack.pop()
        if isinstance(node, Const):
            text = repr(node.value)
            out.append(f"({text})" if node.value < 0 else text)
        elif isinstance(node, VarRef):
            out.append(name_of(node))
        elif not ready:
            stack.append((node, min_prec, True))
            if isinstance(node, Binary):
                prec = _prec(node)
                stack.append((node.right, prec + 1, False))
                stack.append((node.left, prec, False))
            elif isinstance(node, Unary):
                stack.append((node.child, _PREC_NEG if node.op == "neg" else 0, False))
            elif isinstance(node, Pow):
                stack.append((node.base, _PREC_ATOM, False))
            else:
                raise TypeError(f"not an expression node: {node!r}")
        elif isinstance(node, Binary):
            right = out.pop()
            sym = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[node.op]
            text = f"{out.pop()} {sym} {right}"
            out.append(f"({text})" if _prec(node) < min_prec else text)
        elif isinstance(node, Unary):
            if node.op == "neg":
                text = f"-{out.pop()}"
                out.append(f"({text})" if _PREC_NEG < min_prec else text)
            else:
                out.append(f"{node.op}({out.pop()})")
        else:
            text = f"{out.pop()}^{node.exponent}"
            out.append(f"({text})" if _PREC_POW < min_prec else text)
    return out[0]


# ---------------------------------------------------------------------------
# Evaluation.  A tape lists an expression's distinct node objects (by
# identity, never by structure), operands before their users and left
# operands first, so the root comes last.  Step i is (op, a, b) for node
# i: "var" and "param" hold an index in a, "const" holds its enclosure
# in a and its value in b; an operation holds operand slots in a and b,
# and a unary node holds None or its exponent ("pow") in b.  Tapes are
# built without recursion and memoized per expression object; the memo
# holds the expression, so its id is not reused while the entry lives.
#
# Beside the tape the memo keeps one "settled" flag per step, read by
# hc4_revise: a step is settled when its op is in _SETTLED_OPS, its
# operands are settled, and no internal node of the tape has more than
# one user (leaves may be shared).

_Step = tuple[str, object, object]
_Tape = tuple[tuple[_Step, ...], tuple[bool, ...]]
_TAPES: dict[int, tuple[Expression, _Tape]] = {}
_TAPES_MAX = 256
_LEAVES = ("var", "param", "const")
_BINARY = ("add", "sub", "mul", "div")
_SETTLED_OPS = frozenset(_LEAVES + ("add", "sub", "mul", "neg", "pow", "sin", "cos"))


def _node(e: Expression) -> tuple[str, tuple[Expression, ...], tuple[object, ...]]:
    if isinstance(e, Binary):
        return e.op, (e.left, e.right), ()
    if isinstance(e, Unary):
        return e.op, (e.child,), ()
    if isinstance(e, Pow):
        return "pow", (e.base,), (e.exponent,)
    if isinstance(e, Const):
        enclosure = Interval.point(e.value) if e.enclosure is None else e.enclosure
        return "const", (), (enclosure, e.value)
    if isinstance(e, VarRef):
        return ("var" if e.kind is VarKind.VARIABLE else "param"), (), (e.index,)
    raise TypeError(f"not an expression node: {e!r}")


def _tape(e: Expression) -> _Tape:
    """The tape of e and its settled flags, memoized."""
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
            args = [slot[id(c)] for c in operands] + [*payload, None, None]
            steps.append((op, args[0], args[1]))
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(operands))
    if len(_TAPES) >= _TAPES_MAX:
        del _TAPES[next(iter(_TAPES))]
    entry = (tuple(steps), _settled(steps))
    _TAPES[id(e)] = (e, entry)
    return entry


def _settled(steps: list[_Step]) -> tuple[bool, ...]:
    users = [0] * len(steps)
    for op, a, b in steps:
        if op not in _LEAVES:
            users[a] += 1
            if op in _BINARY:
                users[b] += 1
    if any(n > 1 and steps[i][0] not in _LEAVES for i, n in enumerate(users)):
        return (False,) * len(steps)
    settled: list[bool] = []
    for op, a, b in steps:
        ok = op in _SETTLED_OPS
        if ok and op not in _LEAVES:
            ok = settled[a] and (op not in _BINARY or settled[b])
        settled.append(ok)
    return tuple(settled)


def forward_sweep(e: Expression, x: Box, y: Box) -> tuple[tuple[_Step, ...], list[Interval]]:
    """The tape of e and the natural interval extension at each step.

    The one interval evaluator: ``eval_interval`` returns the root value,
    ``derivative_interval`` and ``hc4_revise`` read every value.  Empty
    results propagate; sqrt and log keep only the part of their operand
    inside their natural domain.
    """
    tape = _tape(e)[0]
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
    """Floating-point evaluation over the tape; domain errors yield NaN."""
    tape = _tape(e)[0]
    values: list[float] = []
    push = values.append
    try:
        for op, a, b in tape:
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
