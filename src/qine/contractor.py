"""Hull-consistency contraction for a single inequality constraint.

HC4-revise: the forward sweep (``expr.forward_sweep``) evaluates every
node of the expression with the natural interval extension; the root is
then intersected with the feasible half-line of the relation, and one
backward sweep projects each node interval onto its operands.  The
backward sweep is a loop over an explicit stack, so, like the forward
sweep, it has no depth limit.  There is no internal fixpoint iteration:
callers that want more contraction call again.

The same machinery contracts with respect to f <= 0 or f >= 0, which
lets the solver run the negation of a constraint to identify regions
where the original is satisfied everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .interval import _NONNEG, EMPTY, Box, Interval
from .expr import Expression, forward_sweep

__all__ = [
    "Relation",
    "InequalityConstraint",
    "hc4_revise",
    "backward_project",
]

_NONPOS = Interval(-math.inf, 0.0)
_BINARY = ("add", "sub", "mul", "div")


class Relation(Enum):
    LEQ = "<="  # f(x, y) <= 0
    GEQ = ">="  # f(x, y) >= 0


@dataclass(frozen=True, slots=True)
class InequalityConstraint:
    f: Expression
    relation: Relation = Relation.LEQ


def backward_project(
    op: str,
    node_interval: Interval,
    child_intervals: Sequence[Interval],
    exponent: int | None = None,
) -> tuple[Interval, ...]:
    """Project a node interval onto its children.

    Each returned interval is the corresponding child intersected with
    the inverse image of ``node_interval`` under the operation, given
    the other children.  An empty result means the constraint is
    infeasible over the current domains.  sin and cos project to the
    hull of their unbounded inverse images, i.e. they leave the child
    unchanged.
    """
    c = node_interval
    if op in _BINARY:
        l, r = child_intervals
        if op == "add":
            return l.intersect(c - r), r.intersect(c - l)
        if op == "sub":
            return l.intersect(c + r), r.intersect(l - c)
        if op == "mul":
            return l.intersect(c / r), r.intersect(c / l)
        return l.intersect(c * r), r.intersect(l / c)
    (child,) = child_intervals
    if op == "neg":
        return (child.intersect(-c),)
    if op == "sqrt":
        return (child.intersect(c.intersect(_NONNEG).sqr()),)
    if op == "exp":
        return (child.intersect(c.log()),)
    if op == "log":
        return (child.intersect(c.exp()),)
    if op in ("sin", "cos"):
        return (child,)
    if op == "pow":
        n = exponent
        if n is None:
            raise ValueError("pow projection needs an exponent")
        if n == 0:
            # node is constantly 1; infeasible when 1 is excluded
            return (child if c.contains(1.0) else EMPTY,)
        if n == 1:
            return (child.intersect(c),)
        root = c.root_int(n)
        if n % 2 == 1:
            return (child.intersect(root),)
        pos = child.intersect(root)
        neg = child.intersect(-root)
        return (pos.hull(neg),)
    raise ValueError(f"unknown operation {op!r}")


def hc4_revise(constraint: InequalityConstraint, x: Box, y: Box) -> tuple[Box, Box]:
    """Contract variable and parameter domains against one inequality.

    Returns boxes that contain every point of (x, y) satisfying the
    constraint; both are empty when no point does.  The result never
    grows: each output coordinate is a subset of its input.  Emptiness
    always shows in the variable part, which matters when y has no
    coordinates at all.
    """
    tape, values = forward_sweep(constraint.f, x, y)
    feasible = _NONPOS if constraint.relation is Relation.LEQ else _NONNEG
    vars_x = list(x.dims)
    vars_y = list(y.dims)
    # Depth first, left operand first: a node reached along several paths
    # is projected once per path, onto its operands' values at that time.
    stack = [(len(tape) - 1, values[-1].intersect(feasible))]
    while stack:
        i, narrowed = stack.pop()
        if narrowed.is_empty:
            return Box.empty(len(x)), Box.empty(len(y))
        values[i] = narrowed
        op, a, b = tape[i]
        if op == "var" or op == "param":
            dims = vars_x if op == "var" else vars_y
            dims[a] = dims[a].intersect(narrowed)
            if dims[a].is_empty:
                return Box.empty(len(x)), Box.empty(len(y))
        elif op in _BINARY:
            left, right = backward_project(op, narrowed, (values[a], values[b]))
            stack.append((b, right))
            stack.append((a, left))
        elif op != "const":
            stack.append((a, backward_project(op, narrowed, (values[a],), exponent=b)[0]))
    return Box(tuple(vars_x)), Box(tuple(vars_y))
