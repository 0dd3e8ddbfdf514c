"""Hull-consistency contraction for a single inequality constraint.

HC4-revise: the forward sweep evaluates every node of the expression
with the natural interval extension; the root is then intersected with
the feasible half-line of the relation, and one backward sweep projects
each node interval onto its operands.  There is no internal fixpoint
iteration: callers that want more contraction call again.

Each (expression, relation) pair is compiled once into one straight-line
function: the forward code of ``expr.forward_sweep``, then one block per
visit of the backward sweep, in the order of a depth-first walk (left
operand first, a node reached along several paths visited once per
path).  The code has no loop and no dispatch on ops, and, like the
tape, no depth limit.  Its size is the number of visits, which is the
tape's length when only leaves are shared, as in every parsed
expression.

The backward sweep stops at a settled node that the narrowing never
reached (see ``hc4_revise``): projecting it would return every value
below it unchanged, so the stop changes no result.

The same machinery contracts with respect to f <= 0 or f >= 0, which
lets the solver run the negation of a constraint to identify regions
where the original is satisfied everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

from .interval import _NONNEG, EMPTY, Box, Interval, _box
from .expr import _BINARY, _LEAVES, Expression, _compile, _forward_code, _Step, _tape

__all__ = [
    "Relation",
    "InequalityConstraint",
    "hc4_revise",
    "backward_project",
]

_NONPOS = Interval(-math.inf, 0.0)


class Relation(Enum):
    LEQ = "<="  # f(x, y) <= 0
    GEQ = ">="  # f(x, y) >= 0


@dataclass(frozen=True, slots=True)
class InequalityConstraint:
    f: Expression
    relation: Relation = Relation.LEQ


# Projection rules, one Python expression per operand, written once for
# both the compiled sweeps and ``backward_project``: c is the node's
# narrowed value, l and r are its operands' current values and n is a
# pow's exponent.  Each operand is intersected with the inverse image of
# c under the op, given the other operand.  sin and cos project to the
# hull of their unbounded inverse images, i.e. they leave the operand
# unchanged; a 0th power is constantly 1, so it is infeasible when c
# excludes 1.
_PROJECT = {
    "add": ("{l}.intersect({c} - {r})", "{r}.intersect({c} - {l})"),
    "sub": ("{l}.intersect({c} + {r})", "{r}.intersect({l} - {c})"),
    "mul": ("{l}.intersect({c} / {r})", "{r}.intersect({c} / {l})"),
    "div": ("{l}.intersect({c} * {r})", "{r}.intersect({l} / {c})"),
    "neg": ("{l}.intersect(-{c})",),
    "sqrt": ("{l}.intersect({c}.intersect(_NONNEG).sqr())",),
    "exp": ("{l}.intersect({c}.log())",),
    "log": ("{l}.intersect({c}.exp())",),
    "sin": ("{l}",),
    "cos": ("{l}",),
    "pow0": ("{l} if {c}.contains(1.0) else EMPTY",),
    "pow1": ("{l}.intersect({c})",),
    "pow_odd": ("{l}.intersect({c}.root_int({n}))",),
    "pow_even": ("{l}.intersect(t := {c}.root_int({n})).hull({l}.intersect(-t))",),
}
_NAMESPACE = {"EMPTY": EMPTY, "_NONNEG": _NONNEG, "_box": _box}


def _rule(op: str, n: object) -> str:
    if op != "pow":
        return op
    return "pow0" if n == 0 else "pow1" if n == 1 else "pow_odd" if n % 2 else "pow_even"


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
    means the constraint is infeasible over the current domains.
    """
    if op == "pow" and exponent is None:
        raise ValueError("pow projection needs an exponent")
    key = _rule(op, exponent)
    project = _PROJECTORS.get(key)
    if project is None:
        if key not in _PROJECT:
            raise ValueError(f"unknown operation {op!r}")
        rule = ", ".join(t.format(c="c", l="l", r="r", n="n") for t in _PROJECT[key])
        project = _PROJECTORS[key] = eval(f"lambda c, l, r=None, n=None: ({rule},)", dict(_NAMESPACE))
    return project(node_interval, *child_intervals, n=exponent)


def _rebuilt(k: str, used: list[int]) -> str:
    # the box of the input intervals ks, with k{j} in place of ks[j] for j in used
    if not used:
        return f"_box({k}s)"
    top = used[-1] + 1
    items = [f"{k}{j}" if j in used else f"{k}s[{j}]" for j in range(top)]
    return f"_box(({', '.join(items)}, *{k}s[{top}:]))"


def _compile_revise(steps: Sequence[_Step], settled: Sequence[bool], relation: Relation) -> Callable:
    """HC4-revise of one tape against one relation, as one function of (xs, ys).

    Locals: v{i} is step i's forward value, c{i} the current value of a
    step reached along several paths (a single-path step's operands are
    read before its only visit, so they still hold their forward
    values), n{w} the narrowed value handed to visit w, and x{j}, y{j}
    the contracted domains.

    Every op maps an empty operand to an empty result, so once the root
    passes its empty check every forward value is non-empty, and a visit
    reached with its forward value needs no empty check.  A settled visit
    that stops hands its operands their current values instead of
    projecting, so each visit below it stops too, or, at a leaf, meets
    a domain already inside that value and returns it unchanged: the
    subtree's code runs but changes nothing, as the skipped walk would,
    and the code needs no jumps or nesting at any depth.  A stop with no
    visit after its subtree returns at once.
    """
    lines, namespace = _forward_code(steps)
    namespace.update(_NAMESPACE, feasible=_NONPOS if relation is Relation.LEQ else _NONNEG)
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
    first: dict[str, dict[int, int]] = {"x": {}, "y": {}}  # an input's first slot
    for i, (op, a, _) in enumerate(steps):
        if op == "var" or op == "param":
            first["x" if op == "var" else "y"].setdefault(a, i)
    # chained assignments start c{i}, x{j} and y{j} at the forward value
    for i, n in enumerate(paths):
        if n > 1:
            lines[i] = f"c{i} = {lines[i]}"
    for k, slots in first.items():
        for j, i in slots.items():
            lines[i] = f"{k}{j} = {lines[i]}"
    done = "return " + _rebuilt("x", sorted(first["x"])) + ", " + _rebuilt("y", sorted(first["y"]))
    fail = "return"  # None: no point of the box satisfies the constraint
    lines += [f"n0 = v{len(steps) - 1}.intersect(feasible)", f"if n0.is_empty: {fail}"]
    stack = [(len(steps) - 1, 0)]
    while stack:
        i, w = stack.pop()
        op, a, b = steps[i]
        n = f"n{w}"
        if paths[i] > 1:
            lines.append(f"c{i} = {n}")
        if op == "var" or op == "param":
            # no check of n itself: d starts as v{i} and only shrinks, so it
            # is empty when n is, whether or not n cuts it
            d = f"{'x' if op == 'var' else 'y'}{a}"
            cut = [f"{d} = {d}.intersect({n})", f"if {d}.is_empty: {fail}"]
            lines += [f"if {n} is not v{i}:", *(" " + line for line in cut)] if settled[i] else cut
        elif op == "const":
            if w:
                lines.append(f"if {n} is not v{i} and {n}.is_empty: {fail}")
        else:
            binary = op in _BINARY
            wa, wb = w + 1, w + 1 + size[a]
            targets = f"n{wa}, n{wb}" if binary else f"n{wa}"
            rule = (t.format(c=n, l=cur[a], r=cur[b] if binary else None, n=b) for t in _PROJECT[_rule(op, b)])
            project = f"{targets} = {', '.join(rule)}"
            check = [f"if {n}.is_empty: {fail}"] if w else []
            if settled[i]:
                stop = done if w + size[i] == size[-1] else f"{targets} = {cur[a]}{f', {cur[b]}' if binary else ''}"
                lines += [f"if {n} is v{i}: {stop}", *("el" + line for line in check), f"else: {project}"]
            else:
                lines += [*check, project]
            if binary:
                stack.append((b, wb))
            stack.append((a, wa))
    lines.append(done)
    return _compile("revise", lines, namespace)


def hc4_revise(constraint: InequalityConstraint, x: Box, y: Box) -> tuple[Box, Box]:
    """Contract variable and parameter domains against one inequality.

    Returns boxes that contain every point of (x, y) satisfying the
    constraint; both are empty when no point does.  The result never
    grows: each output coordinate is a subset of its input.  Emptiness
    always shows in the variable part, which matters when y has no
    coordinates at all.

    A node reached with its own forward value is not projected when it
    is settled: its op is a leaf, add, sub, mul, neg, pow, sin or cos,
    its operands are settled, and no internal node of the expression has
    more than one user.  For these ops the projection of the forward
    value onto operands inside their own forward values returns the
    operands unchanged.  sqrt and log are left out because their forward
    value drops the part of the operand outside their domain, so
    projecting it back cuts the operand; div because its projection
    multiplies back, and ENTIRE * [0, 0] = [0, 0] cuts a numerator
    divided by [0, 0]; exp because its round trip through log would rest
    on libm accuracy; every node above one of them because the cut must
    reach the leaves; and shared internal nodes because each visit
    re-projects their current value, and HC4 is not idempotent.  The
    node's slot is still assigned before the stop, as a full sweep would.

    The sweep runs as a function compiled from the expression's tape on
    the first call for each relation (see ``_compile_revise``).
    """
    steps, settled, kernels = _tape(constraint.f)
    kernel = kernels.get(constraint.relation)
    if kernel is None:
        kernel = kernels[constraint.relation] = _compile_revise(steps, settled, constraint.relation)
    contracted = kernel(x.dims, y.dims)
    return (Box.empty(len(x)), Box.empty(len(y))) if contracted is None else contracted
