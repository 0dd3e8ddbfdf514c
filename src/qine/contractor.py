"""Hull-consistency contraction for a single inequality constraint.

HC4-revise: the forward sweep evaluates every node of the expression
with the natural interval extension; the root is then intersected with
the feasible half-line of the relation, and one backward sweep projects
each node interval onto its operands.  There is no internal fixpoint
iteration: callers that want more contraction call again.

Each expression is compiled once into one straight-line function of the
boxes and the relation's feasible half-line, which both relations share:
the forward code of ``expr.forward_sweep``, then one block per
visit of the backward sweep, in the order of a depth-first walk (left
operand first, a node reached along several paths visited once per
path).  The code has no loop and no dispatch on ops, and, like the
tape, no depth limit.  Its size is the number of visits, which is the
tape's length when only leaves are shared, as in every parsed
expression.  It works on float bounds: the arithmetic calls interval.py's
functions on bounds, intersections, hulls and empty checks are float
comparisons, and Intervals are built only for the returned boxes, while a
box or interval that was not cut is returned as it came.

A visit skips its projection when the narrowing left the node's forward
value as it was and the projection could not cut it (see ``hc4_revise``).

The same machinery contracts with respect to f <= 0 or f >= 0, which
lets the solver run the negation of a constraint to identify regions
where the original is satisfied everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .interval import _E, EMPTY, Box, Interval, _box, _exponent
from .expr import _BINARY, _LEAVES, _OPS, Expression, _compile, _forward_code, _Step, _tape

__all__ = [
    "Relation",
    "InequalityConstraint",
    "hc4_revise",
    "backward_project",
]

class Relation(Enum):
    LEQ = "<="  # f(x, y) <= 0
    GEQ = ">="  # f(x, y) >= 0


@dataclass(frozen=True, slots=True)
class InequalityConstraint:
    f: Expression
    relation: Relation = Relation.LEQ


# Projection rules on float bounds, written once for both the compiled
# sweeps and ``backward_project``.  For each operand a rule gives the
# (lo, hi) of the inverse image of the node's narrowed value c under the
# op, given the other operand, as one Python expression: {c}l and {c}h
# are c's bounds, {l}l, {l}h and {r}l, {r}h the operands' current values
# and {n} a pow's exponent.  The operand is then intersected with it.
# sin and cos have unbounded inverse images, so they leave the operand
# unchanged; a 0th power is constantly 1, so its inverse image is every
# real when c holds 1 and none otherwise.  An even power's inverse image
# is the root and its negation: the operand is intersected with each and
# the two parts are hulled.
_PROJECT = {
    "add": ("_add({c}l, {c}h, -{r}h, -{r}l)", "_add({c}l, {c}h, -{l}h, -{l}l)"),
    "sub": ("_add({c}l, {c}h, {r}l, {r}h)", "_add({l}l, {l}h, -{c}h, -{c}l)"),
    "mul": ("_div({c}l, {c}h, {r}l, {r}h)", "_div({c}l, {c}h, {l}l, {l}h)"),
    "div": ("_mul({c}l, {c}h, {r}l, {r}h)", "_div({l}l, {l}h, {c}l, {c}h)"),
    "neg": ("-{c}h, -{c}l",),
    "sqrt": ("_sqr(0.0 if 0.0 > {c}l else {c}l, {c}h)",),  # c cut to [0, inf), squared
    "exp": ("_log({c}l, {c}h)",),
    "log": ("_exp({c}l, {c}h)",),
    "sin": ("-_INF, _INF",),
    "cos": ("-_INF, _INF",),
    "pow0": ("(-_INF, _INF) if {c}l <= 1.0 <= {c}h else _E",),
    "pow1": ("{c}l, {c}h",),
    "pow_odd": ("_root({c}l, {c}h, {n})",),
    "pow_even": ("_root({c}l, {c}h, {n})",),
}
_NAMESPACE = {**_OPS, "_E": _E, "_INF": math.inf, "EMPTY": EMPTY, "_box": _box}


def _rule(op: str, n: object) -> str:
    if op != "pow":
        return op
    return "pow0" if n == 0 else "pow1" if n == 1 else "pow_odd" if n % 2 else "pow_even"


def _meet(dst: str, s: str, o: str) -> str:
    """The line ``dst = s ∩ o``, each operand a pair of locals such as sl, sh.

    It picks the bounds as ``Interval.intersect`` does, signed zeros
    included: o's where it lies strictly inside s, else s's.  The result
    is empty when lo > hi, though not always the pair (inf, -inf).
    """
    return f"{dst}l, {dst}h = {o}l if {o}l > {s}l else {s}l, {o}h if {o}h < {s}h else {s}h"


def _projection(rule: str, c: str, operands: Sequence[str], n: object, targets: Sequence[str]) -> list[str]:
    """Lines that set each target to its operand's projection under the rule."""
    lines: list[str] = []
    for template, s, t in zip(_PROJECT[rule], operands, targets):
        lines.append(f"{t}l, {t}h = " + template.format(c=c, l=operands[0], r=operands[-1], n=n))
        if rule == "pow_even":
            lines += [_meet("a", s, t), f"bl, bh = -{t}h, -{t}l", _meet("b", s, "b")]
            lines.append(f"{t}l, {t}h = (bl, bh) if al > ah else (al, ah) if bl > bh else "
                         f"(bl if bl < al else al, bh if bh > ah else ah)")
        else:
            lines.append(_meet(t, s, t))
    return lines


_PROJECTORS: dict[str, Callable] = {}  # backward_project's rules, built on first use


def backward_project(
    op: str,
    node_interval: Interval,
    child_intervals: Sequence[Interval],
    exponent: int | None = None,
) -> tuple[Interval, ...]:
    """Project a node interval onto its children.

    Each returned interval is the corresponding child intersected with
    the inverse image of ``node_interval`` under the operation, given
    the other children (the rules of ``_PROJECT``).  An empty result
    means the constraint is infeasible over the current domains.  A pow
    takes an integer exponent from 0 to ``interval.MAX_EXPONENT``.
    """
    if op == "pow":
        _exponent(exponent, 0)
    key = _rule(op, exponent)
    project = _PROJECTORS.get(key)
    if project is None:
        if key not in _PROJECT:
            raise ValueError(f"unknown operation {op!r}")
        k = len(_PROJECT[key])
        operands, targets = ("l", "r")[:k], ("o0", "o1")[:k]
        lines = [f"{v}l, {v}h = {v}.lo, {v}.hi" for v in ("c", *operands)]
        lines += _projection(key, "c", operands, "n", targets)
        lines.append("return " + "".join(f"EMPTY if {t}l > {t}h else _iv({t}l, {t}h), " for t in targets))
        project = _PROJECTORS[key] = _compile(f"project_{key}", "c, l, r=None, n=None", lines, dict(_NAMESPACE))
    return project(node_interval, *child_intervals, n=exponent)


def _rebuilt(k: str, first: dict[int, int]) -> str:
    # the box of the input intervals ks, each j in first rebuilt from
    # k{j}l, k{j}h if it was cut.  Slot first[j] holds the input bounds,
    # and a cut moves a bound strictly inward, so equal bounds mean none.
    # A box the tape never reads is the input box k itself.
    if not first:
        return k
    top = max(first) + 1
    items = [
        f"{k}s[{j}] if {k}{j}l == v{first[j]}l and {k}{j}h == v{first[j]}h else _iv({k}{j}l, {k}{j}h)"
        if j in first
        else f"{k}s[{j}]"
        for j in range(top)
    ]
    return f"_box(({', '.join(items)}, *{k}s[{top}:]))"


# the ops whose projection of their own forward value changes nothing (see hc4_revise)
_SETTLED_OPS = frozenset(_LEAVES + ("add", "sub", "mul", "neg", "pow", "sin", "cos"))


def _compile_revise(steps: Sequence[_Step]) -> Callable:
    """HC4-revise of one tape, as one function of (x, y, n0l, n0h).

    x and y are the boxes, and n0l, n0h the feasible half-line of the
    relation: (-inf, 0.0) for f <= 0, (0.0, inf) for f >= 0.
    Every value is a pair of float locals, named by a prefix and l or h:
    v{i} is step i's forward value, c{i} the current value of a step
    reached along several paths (a single-path step's operands are read
    before its only visit, so they still hold their forward values),
    n{w} the narrowed value handed to visit w, and x{j}, y{j} the
    contracted domains.  Only the returned boxes are built as Intervals:
    an input interval whose domain was not cut is returned as it came,
    and so is a box the tape never reads, or both boxes when the root
    stops and every op below it stops too.

    Every op maps an empty operand to an empty result, so once the root
    passes its empty check every forward value is non-empty, and a visit
    that stops needs no empty check.  A stop hands the operands their
    current values, and their visits run as they would after the
    projection, so the code needs no jumps or nesting at any depth.
    """
    lines, namespace = _forward_code(steps)
    namespace.update(_NAMESPACE)
    size: list[int] = []  # visits in a step's subtree
    for op, a, b in steps:
        size.append(1 if op in _LEAVES else 1 + size[a] + (size[b] if op in _BINARY else 0))
    paths = [0] * len(steps)
    paths[-1] = 1
    for i in reversed(range(len(steps))):
        op, a, b = steps[i]
        if op not in _LEAVES:
            paths[a] += paths[i]
            if op in _BINARY:
                paths[b] += paths[i]
    cur = [f"c{i}" if n > 1 else f"v{i}" for i, n in enumerate(paths)]
    # when every step is a leaf or an op that stops, a stop at the root is
    # followed by stops alone, shared steps included, so it returns at once
    settled = all(op in _SETTLED_OPS for op, _, _ in steps)
    first: dict[str, dict[int, int]] = {"x": {}, "y": {}}  # an input's first slot
    for i, (op, a, _) in enumerate(steps):
        if op == "var" or op == "param":
            first["x" if op == "var" else "y"].setdefault(a, i)
    # chained assignments start c{i}, x{j} and y{j} at the forward value;
    # step i's line is lines[i + 1]
    for i, n in enumerate(paths):
        if n > 1:
            lines[i + 1] = f"c{i}l, c{i}h = {lines[i + 1]}"
    for k, slots in first.items():
        for j, i in slots.items():
            lines[i + 1] = f"{k}{j}l, {k}{j}h = {lines[i + 1]}"
    fail = "return"  # None: no point of the box satisfies the constraint
    root = len(steps) - 1
    lines += [_meet("n0", f"v{root}", "n0"), f"if n0l > n0h: {fail}"]
    stack = [(root, 0)]
    while stack:
        i, w = stack.pop()
        op, a, b = steps[i]
        n = f"n{w}"
        if paths[i] > 1:
            lines.append(f"c{i}l, c{i}h = {n}l, {n}h")
        if op == "var" or op == "param":
            # no check of n itself: d only shrinks, so it is empty when n is
            d = f"{'x' if op == 'var' else 'y'}{a}"
            lines += [_meet(d, d, n), f"if {d}l > {d}h: {fail}"]
        elif op == "const":
            if w:
                lines.append(f"if {n}l > {n}h: {fail}")
        else:
            wa = w + 1
            children = [(a, wa), (b, wa + size[a])] if op in _BINARY else [(a, wa)]
            targets = [f"n{v}" for _, v in children]
            operands = [cur[j] for j, _ in children]
            project = _projection(_rule(op, b), n, operands, b, targets)
            check = [f"if {n}l > {n}h: {fail}"] if w else []  # the root was checked above
            if op in _SETTLED_OPS:
                stop = "return x, y" if settled and not w else "; ".join(
                    f"{t}l, {t}h = {o}l, {o}h" for t, o in zip(targets, operands)
                )
                lines += [f"if {n}l == v{i}l and {n}h == v{i}h: {stop}", *("el" + line for line in check)]
                lines += ["else:", *(" " + line for line in project)]
            else:
                lines += [*check, *project]
            stack.extend(reversed(children))
    lines.append("return " + _rebuilt("x", first["x"]) + ", " + _rebuilt("y", first["y"]))
    return _compile("revise", "x, y, n0l, n0h", lines, namespace)


def hc4_revise(constraint: InequalityConstraint, x: Box, y: Box) -> tuple[Box, Box]:
    """Contract variable and parameter domains against one inequality.

    Returns boxes that contain every point of (x, y) satisfying the
    constraint; both are empty when no point does.  The result never
    grows: each output coordinate is a subset of its input.  Emptiness
    always shows in the variable part, which matters when y has no
    coordinates at all.

    A visit of an add, sub, mul, neg, pow, sin or cos node stops when its
    narrowed value has the bounds of its forward value, and hands each
    operand its current value in place of the projection.  That changes
    nothing: a meet keeps an operand's own bounds unless it moves one
    strictly inward, so equal bounds mean the narrowing never cut the
    node, and for these ops the projection of the forward value onto
    operands inside their forward values returns the operands as they
    are.  The operands' own visits then run as in the full sweep, so the
    rule needs nothing of the nodes below or of other users of the node.
    sqrt and log are left out because their forward value drops the part
    of the operand outside their domain, so projecting it back cuts the
    operand; div because its projection multiplies back, and ENTIRE *
    [0, 0] = [0, 0] cuts a numerator divided by [0, 0]; exp because its
    round trip through log would rest on libm accuracy.  The comparison
    is with the forward value, never a shared node's current value, and
    the node's slot is assigned before it, as a full sweep would.

    The sweep runs as a function compiled from the expression's tape on
    the first call, for both relations (see ``_compile_revise``).
    """
    steps, kernels = _tape(constraint.f)
    kernel = kernels.get("revise")
    if kernel is None:
        kernel = kernels["revise"] = _compile_revise(steps)
    fl, fh = (-math.inf, 0.0) if constraint.relation is Relation.LEQ else (0.0, math.inf)
    contracted = kernel(x, y, fl, fh)
    return (Box.empty(len(x)), Box.empty(len(y))) if contracted is None else contracted
