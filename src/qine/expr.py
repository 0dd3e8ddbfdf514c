"""Expression trees for constraint functions f(x, y).

Provides the abstract syntax, an infix parser, the natural
interval extension, and forward-mode interval differentiation used to
prove monotonicity in a parameter over a box.  The evaluators read one
memoized tape of the expression's distinct nodes, compiled from it into
straight-line code on float bounds, which calls interval.py's functions
on bounds and builds Intervals only in its return: the natural extension
once per tape, and its partial derivatives once per tape too, the input
differentiated by being an argument of the compiled function.
The parser and the tapes work on explicit stacks, so nothing here
recurses and nesting depth is no limit.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Container, Mapping, Sequence, Union

from . import interval
from .interval import _DIGITS, _NUMBER, MAX_EXPONENT, Box, Interval, _exponent, _literal_bounds

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
    "forward_sweep",
    "eval_interval",
    "derivative_interval",
    "FUNCTIONS",
]

FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")


class VarKind(Enum):
    VARIABLE = "var"
    PARAMETER = "param"


@dataclass(frozen=True, slots=True, weakref_slot=True)
class VarRef:
    """Reference to the index-th variable or parameter."""

    kind: VarKind
    index: int


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Const:
    """A constant: ``value`` is the nearest double; the interval
    evaluators use ``enclosure``, the point ``value`` when None.  A
    literal whose nearest double is inexact carries its outward-rounded
    enclosure (see ``_literal``), so proofs hold for the number as
    written.  Equality and hashing read ``value``.
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


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Unary:
    op: str  # neg | sqrt | exp | log | sin | cos
    child: "Expression"


@dataclass(frozen=True, slots=True, weakref_slot=True)
class Binary:
    op: str  # add | sub | mul | div
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True, slots=True, weakref_slot=True)
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
# Tokenizer and operator-precedence parser for the grammar
#
#   expr   := term (("+" | "-") term)*
#   term   := factor (("*" | "/") factor)*
#   factor := "-" factor | atom ("^" integer)?
#   atom   := number | identifier | function "(" expr ")" | "(" expr ")"
#
# "^" binds tighter than unary minus and takes a non-negative integer
# literal exponent of at most MAX_EXPONENT.  The parser reads it in one
# loop over the tokens, with its operands and pending operators on explicit
# stacks (Dijkstra's shunting-yard, with Pratt's binding powers), so
# nesting depth has no limit.

_TOKEN_RE = re.compile(
    rf"(?P<num>{_NUMBER})|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^()])|(?P<ws>\s+)|(?P<bad>.)"
)

_INT_RE = re.compile(rf"{_DIGITS}\Z")

# infix operators and their precedences; unary minus binds tighter, at 3,
# and "(" and a function name wait on the stack as markers at 0
_INFIX = {"+": ("add", 1), "-": ("sub", 1), "*": ("mul", 2), "/": ("div", 2)}


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


def parse_expression(text: str, symbols: Mapping[str, VarRef]) -> Expression:
    """Parse an infix expression; identifiers resolve through ``symbols``."""
    tokens = _tokenize(text)
    operands: list[Expression] = []
    pending: list[tuple[str, int]] = []  # (op, precedence)
    depth = pos = 0  # depth: the markers on pending

    def reduce(least: int) -> None:
        while pending and pending[-1][1] >= least:
            op = pending.pop()[0]
            right = operands.pop()
            operands.append(Unary(op, right) if op == "neg" else Binary(op, operands.pop(), right))

    while True:
        # a factor: its unary minuses and opening markers, then an atom
        kind, tok, at = tokens[pos]
        pos += 1
        if tok == "-" or tok == "(" or tok in FUNCTIONS:
            if tok in FUNCTIONS:
                if tokens[pos][1] != "(":
                    raise ParseError("expected '('", tokens[pos][2])
                pos += 1
            pending.append(("neg", 3) if tok == "-" else (tok, 0))
            depth += tok != "-"
            continue
        if kind == "num":
            try:
                operands.append(_literal(tok))
            except OverflowError as exc:
                raise ParseError(str(exc), at) from None
        elif kind == "name":
            ref = symbols.get(tok)
            if ref is None:
                raise ParseError(f"unknown identifier {tok!r}", at)
            operands.append(ref)
        else:
            raise ParseError(f"unexpected token {tok!r}" if tok else "unexpected end of input", at)
        # the atom's exponent, then each closing parenthesis with its own
        while True:
            kind, tok, at = tokens[pos]
            if tok == "^":
                kind, tok, at = tokens[pos + 1]
                if kind != "num" or not _INT_RE.match(tok):
                    raise ParseError("exponent must be a non-negative integer", at)
                # the digit count first: int() refuses strings past 4300 digits
                if len(tok.lstrip("0")) > len(str(MAX_EXPONENT)) or int(tok) > MAX_EXPONENT:
                    raise ParseError(f"exponent exceeds {MAX_EXPONENT}", at)
                operands.append(Pow(operands.pop(), int(tok)))
                pos += 2
                kind, tok, at = tokens[pos]
            pos += 1
            if tok != ")" or not depth:
                break
            reduce(1)
            marker = pending.pop()[0]
            depth -= 1
            if marker != "(":
                operands.append(Unary(marker, operands.pop()))
        # then an infix operator, or the end
        if tok not in _INFIX:
            if depth or kind != "end":
                raise ParseError("expected ')'" if depth else f"unexpected token {tok!r}", at)
            reduce(1)
            return operands[0]
        reduce(_INFIX[tok][1])
        pending.append(_INFIX[tok])


# ---------------------------------------------------------------------------
# Evaluation.  A tape lists an expression's distinct node objects (by
# identity, never by structure), operands before their users and left
# operands first, so the root comes last.  Step i is (op, a, b) for node
# i: "var" and "param" hold an index in a, "const" holds its enclosure
# in a and its value in b; an operation holds operand slots in a and b,
# and a unary node holds None or its exponent ("pow") in b.  Tapes are
# built without recursion and memoized under the id of their expression
# object, for as long as it lives: a finalizer drops the entry when the
# expression dies, before its id can be reused.
#
# Beside the tape the memo keeps the kernels compiled from it, at most one
# per purpose: "forward" for ``forward_sweep``, "prune" for the solver's
# pruning, "revise" for its identification and ``hc4_revise`` (the
# relation is an argument), "pin" for its 2B+ pinning (tangent code for
# each parameter the tape reads) and "tangent" for ``derivative_interval``
# alone (the input differentiated by is an argument), each built on first
# use and freed with the entry.  Neither the steps nor the kernels hold a
# node, so the memo keeps no expression alive.

_Step = tuple[str, object, object]
_Tape = tuple[tuple[_Step, ...], dict[str, Callable]]
_TAPES: dict[int, _Tape] = {}
_LEAVES = ("var", "param", "const")
_BINARY = ("add", "sub", "mul", "div")
_UNARY = ("neg",) + FUNCTIONS

# The natural extension, one Python expression per op, written once: each
# gives the step's (lo, hi) from float locals, v{a}l, v{a}h and v{b}l,
# v{b}h for the operands.  The ops are interval.py's functions on bounds;
# k{i} is a constant's enclosure, which reaches the kernel through its
# namespace.  The bounds of the leaf "var" or "param" {a} come from the
# kernel's own leaf templates, such as _INPUTS.  The source of a kernel
# holds only these op templates, slot numbers and integers, never text
# taken from an expression.
_FORWARD = {
    "const": "k{i}.lo, k{i}.hi",
    "add": "_add(v{a}l, v{a}h, v{b}l, v{b}h)",
    "sub": "_add(v{a}l, v{a}h, -v{b}h, -v{b}l)",
    "mul": "_mul(v{a}l, v{a}h, v{b}l, v{b}h)",
    "div": "_div(v{a}l, v{a}h, v{b}l, v{b}h)",
    "neg": "-v{a}h, -v{a}l",
    "sqr": "_sqr(v{a}l, v{a}h)",  # pow with exponent 2
    "pow": "_pow(v{a}l, v{a}h, {b})",
    "sqrt": "_root(v{a}l, v{a}h, 2)",
    **{f: "_%s(v{a}l, v{a}h)" % f for f in ("exp", "log", "sin", "cos")},
}
# The chain rule beside it (forward-mode tangents, Griewank & Walther): each
# gives step i's partial d{i}l, d{i}h from the operands' partials d{a}, d{b}
# and the forward values, with the bound functions and operand order of the
# Interval arithmetic it stands for; a difference parks its negated pair in
# d{i} first.  The kernel's argument w codes the input differentiated by,
# variable j as j and parameter j as -1 - j (~j), so only that input's leaves
# get the tangent 1; a kernel may pass leaf templates of its own.  Constants
# and 0th powers take "zero".
_TANGENT = {
    "zero": "0.0, 0.0",
    "var": "(1.0, 1.0) if w == {a} else (0.0, 0.0)",
    "param": "(1.0, 1.0) if w == ~{a} else (0.0, 0.0)",
    "add": "_add(d{a}l, d{a}h, d{b}l, d{b}h)",
    "sub": "_add(d{a}l, d{a}h, -d{b}h, -d{b}l)",
    "mul": "_add(*_mul(d{a}l, d{a}h, v{b}l, v{b}h), *_mul(v{a}l, v{a}h, d{b}l, d{b}h))",
    "div": "_mul(v{a}l, v{a}h, d{b}l, d{b}h); "
    "d{i}l, d{i}h = _div(*_add(*_mul(d{a}l, d{a}h, v{b}l, v{b}h), -d{i}h, -d{i}l), *_sqr(v{b}l, v{b}h))",
    "neg": "-d{a}h, -d{a}l",
    "pow": "_mul(*_mul(*_pow(v{a}l, v{a}h, {b} - 1), {b}.0, {b}.0), d{a}l, d{a}h)",
    "sqrt": "_div(d{a}l, d{a}h, *_mul(v{i}l, v{i}h, 2.0, 2.0))",
    "exp": "_mul(v{i}l, v{i}h, d{a}l, d{a}h)",
    "log": "_div(d{a}l, d{a}h, 0.0 if 0.0 > v{a}l else v{a}l, v{a}h)",  # d_a / (v_a ∩ [0, inf))
    "sin": "_mul(*_cos(v{a}l, v{a}h), d{a}l, d{a}h)",
    "cos": "_sin(v{a}l, v{a}h); d{i}l, d{i}h = _mul(-d{i}h, -d{i}l, d{a}l, d{a}h)",
}
# The sum, difference and product rules when only the left or only the
# right operand has a nonzero tangent: the zero term dropped (see _tangent_code).
_ONE_SIDED = {
    "add": ("d{a}l, d{a}h", "d{b}l, d{b}h"),
    "sub": ("d{a}l, d{a}h", "-d{b}h, -d{b}l"),
    "mul": ("_mul(d{a}l, d{a}h, v{b}l, v{b}h)", "_mul(v{a}l, v{a}h, d{b}l, d{b}h)"),
}
# the ops that can empty a non-empty operand, or turn a zero tangent into a nonzero one
_PARTIAL = ("div", "sqrt", "log")
_MEMO_SIZE = 128  # entries per bound function; a full table is cleared
_copysign = math.copysign


def _memo(fn: Callable[..., tuple[float, float]]) -> Callable[..., tuple[float, float]]:
    """fn behind a table of its recent operands, for the compiled kernels.

    Bisection changes one coordinate per node, so sibling boxes feed the
    same operands to the same bound functions again and again (Michie's
    memo functions).  A key is the operands themselves, plus each one's
    sign when one is a zero, since 0.0 and -0.0 are equal keys yet may
    give different bounds; keys holding a NaN are equal only when they
    hold the same NaN object.  fn is pure and each write is one dict
    operation, so the shared tables keep the kernels safe to run
    concurrently: a race costs at most a recomputation, or an entry past
    the cap until the next clear.  ``memo.table`` is the table and
    ``memo.__wrapped__`` is fn.
    """
    table: dict[tuple, tuple[float, float]] = {}
    get = table.get

    def memo(*args: float) -> tuple[float, float]:
        key = args if all(args) else args + tuple([_copysign(1.0, a) for a in args])
        hit = get(key)
        if hit is None:
            if len(table) >= _MEMO_SIZE:
                table.clear()
            hit = table[key] = fn(*args)
        return hit

    memo.table = table  # type: ignore[attr-defined]
    memo.__wrapped__ = fn  # type: ignore[attr-defined]
    return memo


# The costly bound functions go through _memo.  _add (TwoSum inline) is
# cheaper than a lookup, and memoising _sqr and _root (compiled flat) gained
# nothing on the workloads that call them, so they and _iv are called directly.
_MEMOIZED = ("_mul", "_div", "_pow", "_exp", "_log", "_sin", "_cos")
_OPS = {
    f: _memo(getattr(interval, f)) if f in _MEMOIZED else getattr(interval, f)
    for f in ("_add", "_mul", "_div", "_sqr", "_pow", "_root", "_exp", "_log", "_sin", "_cos", "_iv")
}
# the leaves of forward_sweep and derivative_interval read the flat bounds xs
# and ys, which their kernel's first line reads off its argument Boxes x and y
_INPUTS = {"var": "xs[2 * {a}], xs[2 * {a} + 1]", "param": "ys[2 * {a}], ys[2 * {a} + 1]"}
_READ_INPUTS = "xs, ys = x.bounds, y.bounds"
# a step's value as forward_sweep returns it: a constant's own interval, or its bounds boxed
_BOXED = {"const": "k{i}"}


def _index(n: object) -> int:
    # the integers a kernel's source may hold: a bool would print as True or False
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"variable or parameter index {n!r} is not a non-negative integer")
    return n


def _node(e: Expression) -> tuple[str, tuple[Expression, ...], tuple[object, ...]]:
    if isinstance(e, Binary) and e.op in _BINARY:
        return e.op, (e.left, e.right), ()
    if isinstance(e, Unary) and e.op in _UNARY:
        return e.op, (e.child,), ()
    if isinstance(e, Pow):
        return "pow", (e.base,), (_exponent(e.exponent, 0),)
    if isinstance(e, Const):
        enclosure = Interval.point(e.value) if e.enclosure is None else e.enclosure
        return "const", (), (enclosure, e.value)
    if isinstance(e, VarRef):
        return ("var" if e.kind is VarKind.VARIABLE else "param"), (), (_index(e.index),)
    raise TypeError(f"not an expression node: {e!r}")


def _tape(e: Expression) -> _Tape:
    """The tape of e and its kernels, memoized while e lives."""
    hit = _TAPES.get(id(e))
    if hit is not None:
        return hit
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
    entry = _TAPES[id(e)] = (tuple(steps), {})
    weakref.finalize(e, _TAPES.pop, id(e), None)
    return entry


def _forward_code(steps: Sequence[_Step], leaves: Mapping[str, str]) -> tuple[list[str], dict[str, object]]:
    """The forward sweep, and the namespace it reads.

    Line i is step i's ``v{i}l, v{i}h = ...``; ``leaves`` gives the
    templates of the "var" and "param" leaves.
    """
    templates = {**_FORWARD, **leaves}
    lines: list[str] = []
    namespace: dict[str, object] = dict(_OPS)
    for i, (op, a, b) in enumerate(steps):
        if op == "const":
            namespace[f"k{i}"] = a
        key = "sqr" if op == "pow" and b == 2 else op
        lines.append(f"v{i}l, v{i}h = " + templates[key].format(i=i, a=a, b=b))
    return lines, namespace


def _tangent_code(
    steps: Sequence[_Step], leaves: Mapping[str, str], active: Container[int]
) -> tuple[list[str], set[int]]:
    """The chain rule over the active steps, and the steps whose forward values it reads.

    Each step i in ``active`` gets the line ``d{i}l, d{i}h = ...``, the
    "var" and "param" leaves from ``leaves`` where it gives them.  Every
    other step's tangent is zero, which is exact when ``active`` holds each
    step whose subtree reads the input differentiated by or holds a div,
    sqrt or log: the full sweep gives such an inactive step a pair of
    signed zeros, since its forward value is non-empty on non-empty inputs.
    A sum, difference or product with one active operand drops the zero
    term (``_ONE_SIDED``), a change of zero signs only, unless that
    operand's subtree holds a div, sqrt or log, whose forward value may be
    empty under a non-empty tangent: the dropped term alone carries that
    empty.  Any other rule reads an inactive operand from a zero line.
    """
    templates = {**_TANGENT, **leaves}
    lines: list[str] = []
    reads: set[int] = set()
    partial: list[bool] = []  # the step's subtree holds a div, sqrt or log
    for i, (op, a, b) in enumerate(steps):
        operands = (a, b) if op in _BINARY else () if op in _LEAVES else (a,)
        partial.append(op in _PARTIAL or any(partial[o] for o in operands))
        if i not in active:
            continue
        rule = "zero" if op == "const" or (op, b) == ("pow", 0) else op
        template = templates[rule]
        idle = [o for o in operands if o not in active and rule != "zero"]
        if op in _ONE_SIDED and len(idle) == 1 and not partial[b if idle[0] == a else a]:
            template = _ONE_SIDED[op][idle[0] == a]
        else:
            lines += [f"d{o}l, d{o}h = 0.0, 0.0" for o in dict.fromkeys(idle)]
        lines.append(f"d{i}l, d{i}h = " + template.format(i=i, a=a, b=b))
        reads.update({"a": a, "b": b, "i": i}[key] for key in re.findall(r"v\{(\w)\}", template))
    return lines, reads


def _compile(name: str, params: str, lines: list[str], namespace: dict[str, object]) -> Callable:
    """The function ``name(params)`` whose body is ``lines``, with namespace as its globals."""
    source = f"def {name}({params}):\n " + "\n ".join(lines)
    # a file name of its own, or profilers would merge every kernel into one row
    exec(compile(source, f"<qine {name} {id(namespace):x}>", "exec"), namespace)
    return namespace.pop(name)  # no cycle through its own globals


def forward_sweep(e: Expression, x: Box, y: Box) -> tuple[tuple[_Step, ...], list[Interval]]:
    """The tape of e and the natural interval extension at each step.

    The one interval evaluator: ``eval_interval`` returns the root value,
    and ``derivative_interval`` and the HC4-revise kernels inline the same code.
    The tape is compiled once into straight-line code, one line per step,
    on the Boxes' flat bounds; the values are boxed only in its return,
    where a constant gives back its own interval.
    Empty results propagate; sqrt and log keep only the part of their
    operand inside their natural domain.
    """
    steps, kernels = _tape(e)
    kernel = kernels.get("forward")
    if kernel is None:
        lines, namespace = _forward_code(steps, _INPUTS)
        boxed = [_BOXED.get(op, "_iv(v{i}l, v{i}h)").format(i=i, a=a) for i, (op, a, _) in enumerate(steps)]
        lines = [_READ_INPUTS, *lines, "return [%s]" % ", ".join(boxed)]
        kernel = kernels["forward"] = _compile("forward", "x, y", lines, namespace)
    return steps, kernel(x, y)


def eval_interval(e: Expression, x: Box, y: Box) -> Interval:
    """Natural interval extension over the joint box (x, y)."""
    return forward_sweep(e, x, y)[1][-1]


def derivative_interval(e: Expression, wrt: VarRef, x: Box, y: Box) -> Interval:
    """Enclosure of the partial derivative d e / d wrt over the joint box.

    The forward code of ``forward_sweep`` and one ``_TANGENT`` line per
    step, compiled once per tape; wrt is the kernel's argument w (variable
    j is j, parameter j is -1 - j).  The enclosure is unbounded where
    the derivative is (sqrt or log at the domain edge, division near zero),
    and an empty forward value empties it even where the tangent is zero;
    callers must treat anything not sign-definite as monotonicity unproven.
    """
    steps, kernels = _tape(e)
    w = _index(wrt.index)
    kernel = kernels.get("tangent")
    if kernel is None:
        lines, namespace = _forward_code(steps, _INPUTS)
        tangent = _tangent_code(steps, {}, range(len(steps)))[0]
        lines = [_READ_INPUTS, *lines, *tangent, f"return _iv(d{len(steps) - 1}l, d{len(steps) - 1}h)"]
        kernel = kernels["tangent"] = _compile("tangent", "x, y, w", lines, namespace)
    return kernel(x, y, w if wrt.kind is VarKind.VARIABLE else ~w)
