"""Branch-and-prune computation of inner and boundary pavings.

Solves systems of the form: find all x in the variable box such that
for every y in the parameter box every constraint f_i(x, y) <= 0 holds.
Each constraint carries its own copy of the parameter domain, so the
domains can shrink or split independently as the search proceeds.

A node is (box, store).  Processing a node optionally pins parameters
proven monotone (2B+ mode), prunes the box with each constraint
instantiated at its parameter midpoint, identifies an inner region by
contracting the negated constraints, then bisects parameter domains and
branches on the widest variable coordinate.  The loop builds its
constraints, midpoint boxes and pinned points from valid operands, with
the unchecked builders of ``interval`` (``_unchecked``, ``_box``); a
solve runs the dataclass checks only for the root store.

The volume ledger is exact.  Box bounds are doubles, so every volume is
a dyadic rational m / 2**k (``Box.dyadic_volume``); each box is measured
once, when it is queued (or emitted as inner), and its (m, k) travels
with it through the queue to the boundary list.  ``solve`` keeps the
initial, inner, boundary and queued totals as integers over one shared
2**K, raising K when a finer box arrives, and stops on ``classified_ratio``
itself by dividing those integers.  The rational ``exact_*`` fields are
written from the totals before each progress call and when the run
ends; the float ``volume_*`` figures are derived from them on read.
This makes the classified-volume ratio monotone and exactly 1.0 on
complete runs.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .interval import Box, Interval, _box, _iv, _unchecked
from .expr import Expression, VarKind, VarRef, derivative_interval
from .contractor import InequalityConstraint, Relation, hc4_revise

__all__ = [
    "Problem",
    "QuantifiedConstraint",
    "SolverConfig",
    "SolveStats",
    "Paving",
    "parameter_instantiation",
    "local_pruning",
    "global_pruning",
    "solution_identification",
    "parameter_domain_bisection",
    "branch",
    "solve",
    "classified_ratio",
]


@dataclass(frozen=True, slots=True)
class Problem:
    """A quantified system: f(x, y) <= 0 for all y, each variable domain of positive width."""

    variable_names: tuple[str, ...]
    variable_box: Box
    parameter_names: tuple[str, ...]
    parameter_box: Box
    constraints: tuple[Expression, ...]
    name: str = "problem"

    def __post_init__(self) -> None:
        if len(self.variable_names) != len(self.variable_box):
            raise ValueError("variable names and box dimensions differ")
        if len(self.parameter_names) != len(self.parameter_box):
            raise ValueError("parameter names and box dimensions differ")
        if not self.variable_names:
            raise ValueError("at least one variable is required")
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        for name, iv in zip(
            self.variable_names + self.parameter_names,
            self.variable_box.dims + self.parameter_box.dims,
        ):
            if iv.is_empty:
                raise ValueError(f"empty domain for {name}")
            if math.isinf(iv.lo) or math.isinf(iv.hi):
                raise ValueError(f"unbounded domain for {name}")
        for name, iv in zip(self.variable_names, self.variable_box.dims):
            if iv.is_degenerate:
                raise ValueError(f"zero-width domain for variable {name}")


@dataclass(frozen=True, slots=True)
class QuantifiedConstraint:
    """One constraint f <= 0 with its private copy of the parameter domain."""

    f: Expression
    param_domain: Box


_qc = _unchecked(QuantifiedConstraint)
_ineq = _unchecked(InequalityConstraint)


@dataclass
class SolverConfig:
    epsilon: float = 1e-3
    stop_ratio: float | None = None
    mode: str = "2b+"
    param_bisect: bool = True
    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        self.mode = self.mode.lower()
        if self.mode not in ("2b", "2b+"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.stop_ratio is not None and not 0.0 < self.stop_ratio <= 1.0:
            raise ValueError("stop ratio must lie in (0, 1]")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("max_nodes must be >= 1")
        if self.time_limit is not None and not self.time_limit > 0.0:  # NaN too
            raise ValueError("time_limit must be positive")


@dataclass
class SolveStats:
    """Run statistics; the exact_* fields are the rational volume ledger.

    ``solve`` writes them before each progress call and when it returns.
    The volume_* properties are the ledger rounded to the nearest float.
    """

    nodes_processed: int = 0
    elapsed: float = 0.0
    stop_reason: str = "complete"
    exact_initial: Fraction = Fraction(0)
    exact_inner: Fraction = Fraction(0)
    exact_boundary: Fraction = Fraction(0)
    exact_queued: Fraction = Fraction(0)

    @property
    def volume_initial(self) -> float:
        return float(self.exact_initial)

    @property
    def volume_inner(self) -> float:
        return float(self.exact_inner)

    @property
    def volume_boundary(self) -> float:
        return float(self.exact_boundary)


@dataclass
class Paving:
    """Solver output: proven-inner boxes, undecided boundary boxes, stats."""

    inner: list[Box]
    boundary: list[Box]
    stats: SolveStats
    initial_box: Box


def classified_ratio(paving: Paving) -> float:
    """Fraction of the initial volume classified inner or rejected.

    Equivalently 1 minus the unclassified (boundary plus still-queued)
    fraction.  Computed on the exact rational ledger, so it is monotone
    over a run and exactly 1.0 once the queue drains with nothing left
    unclassified.
    """
    s = paving.stats
    if s.exact_initial <= 0:
        raise ValueError("classified ratio needs a positive initial volume")
    return float(1 - (s.exact_boundary + s.exact_queued) / s.exact_initial)


def _ratio_met(unclassified: int, initial: int, stop_ratio: float) -> bool:
    """``classified_ratio >= stop_ratio``, from volumes over one denominator.

    float() of a Fraction is numerator / denominator, and int / int is
    correctly rounded, so this rounds the very rational that figure does.
    """
    return (initial - unclassified) / initial >= stop_ratio


def _widest_axis(box: Box) -> int:
    # an empty coordinate's hi - lo is negative, below its width 0.0
    best, widest = 0, 0.0
    for i, iv in enumerate(box.dims):
        if (w := iv.hi - iv.lo) > widest:
            best, widest = i, w
    return best


def _bisectable(iv: Interval) -> bool:
    """Whether iv's midpoint lies strictly inside, so halving shrinks it."""
    return iv.lo < iv.midpoint < iv.hi


def parameter_instantiation(
    store: Sequence[QuantifiedConstraint], box: Box
) -> list[QuantifiedConstraint]:
    """Pin parameter coordinates proven monotone over box x domain.

    If df/dy_j is non-negative everywhere, the constraint is hardest at
    the upper endpoint, so the domain coordinate collapses to it (lower
    endpoint for non-positive).  Derivative enclosures that are empty or
    not finite leave the coordinate unchanged.  Pinning goes coordinate
    by coordinate, each step seeing the domains already pinned.
    """
    out: list[QuantifiedConstraint] = []
    for qc in store:
        dom = qc.param_domain
        for j, iv in enumerate(dom.dims):
            if iv.is_degenerate:
                continue
            d = derivative_interval(qc.f, VarRef(VarKind.PARAMETER, j), box, dom)
            if d.is_empty or math.isinf(d.lo) or math.isinf(d.hi):
                continue
            if d.lo >= 0.0 and math.isfinite(iv.hi):
                dom = dom.replace(j, _iv(iv.hi, iv.hi))
            elif d.hi <= 0.0 and math.isfinite(iv.lo):
                dom = dom.replace(j, _iv(iv.lo, iv.lo))
        out.append(qc if dom is qc.param_domain else _qc(qc.f, dom))
    return out


def local_pruning(qc: QuantifiedConstraint, box: Box) -> Box:
    """Contract box against f(x, mid(domain)) <= 0.

    Sound because a solution must satisfy the constraint at every
    parameter point, the midpoint included.  With no parameters the
    midpoint is the empty tuple and the constraint is contracted as is.
    """
    dom = qc.param_domain
    y_mid = _box(tuple(_iv(m, m) for m in dom.midpoint)) if dom.dims else dom
    contracted, _ = hc4_revise(_ineq(qc.f, Relation.LEQ), box, y_mid)
    return contracted


def global_pruning(store: Sequence[QuantifiedConstraint], box: Box) -> Box:
    """Sequential local pruning over the whole store; empty means rejected."""
    cur = box
    for qc in store:
        cur = local_pruning(qc, cur)
        if cur.is_empty:
            return cur
    return cur


def solution_identification(
    store: Sequence[QuantifiedConstraint], box: Box
) -> tuple[list[QuantifiedConstraint], Box, list[Box]]:
    """Split off the part of box proven to satisfy every constraint.

    Contracts box against each negation f >= 0: points outside the
    contracted region satisfy that constraint for every parameter value
    in its domain.  Returns the surviving store (dropped constraints
    held everywhere; kept ones get their contracted parameter domain,
    reusable for the whole subtree), the hull of the negation regions,
    and the closure of box minus that hull as inner boxes.
    """
    kept: list[QuantifiedConstraint] = []
    for qc in store:
        xi, yi = hc4_revise(_ineq(qc.f, Relation.GEQ), box, qc.param_domain)
        if xi.is_empty:
            continue
        remainder = remainder.hull(xi) if kept else xi  # from the first kept region
        kept.append(_qc(qc.f, yi))
    if not kept:
        remainder = Box.empty(len(box))
    return kept, remainder, box.set_difference_closure(remainder)


def parameter_domain_bisection(
    store: Sequence[QuantifiedConstraint], epsilon: float
) -> list[QuantifiedConstraint]:
    """Halve each constraint's parameter domain once, along its widest coordinate.

    A constraint without parameters, or whose widest coordinate is at
    most epsilon wide or too thin to halve, stays whole; otherwise it is
    replaced by two copies, lower half first.
    """
    out: list[QuantifiedConstraint] = []
    for qc in store:
        dom = qc.param_domain
        axis = _widest_axis(dom)
        if not dom.dims or dom.dims[axis].width <= epsilon or not _bisectable(dom.dims[axis]):
            out.append(qc)
        else:
            lo_half, hi_half = dom.bisect(axis)
            out.append(_qc(qc.f, lo_half))
            out.append(_qc(qc.f, hi_half))
    return out


def branch(box: Box) -> tuple[Box, Box]:
    """Bisect the widest variable coordinate, lowest index on ties."""
    return box.bisect(_widest_axis(box))


def solve(
    problem: Problem,
    config: SolverConfig | None = None,
    progress: Callable[[Paving], None] | None = None,
) -> Paving:
    """Run branch-and-prune until the queue drains or a limit triggers.

    The queue is ordered by descending box width with FIFO tie-breaking,
    so runs are deterministic.  On an early stop (ratio, node or time
    limit) the remaining queue is flushed into the boundary list and the
    stop reason is recorded in the stats.  ``progress`` is invoked with
    the live paving after each processed node.
    """
    cfg = config if config is not None else SolverConfig()
    stats = SolveStats()
    paving = Paving([], [], stats, problem.variable_box)
    root_store = tuple(
        QuantifiedConstraint(f, problem.parameter_box) for f in problem.constraints
    )

    # The ledger: initial, inner, boundary and queued volume as integers
    # over one denominator 2**K.  Every box volume is m / 2**k
    # (Box.dyadic_volume); a box finer than 2**-K raises K and shifts the
    # totals left.  Heap entries are (-width, seq, box, store, m, k); seq
    # is unique, so comparisons never reach the box.
    heap: list[tuple[float, int, Box, tuple[QuantifiedConstraint, ...], int, int]] = []
    seq = K = initial = inner = boundary = queued = 0

    def scaled(m: int, k: int) -> int:
        """m / 2**k as a numerator over 2**K, raising K to k if k is larger.

        Raising K shifts the totals, so a caller reads them only after it.
        """
        nonlocal K, initial, inner, boundary, queued
        if k > K:
            initial <<= k - K
            inner <<= k - K
            boundary <<= k - K
            queued <<= k - K
            K = k
        return m << (K - k)

    def push(box: Box, store: tuple[QuantifiedConstraint, ...]) -> None:
        nonlocal seq, queued
        m, k = box.dyadic_volume()
        heapq.heappush(heap, (-box.width, seq, box, store, m, k))
        vol = scaled(m, k)
        queued += vol
        seq += 1

    def record() -> None:
        den = 1 << K
        stats.exact_inner = Fraction(inner, den)
        stats.exact_boundary = Fraction(boundary, den)
        stats.exact_queued = Fraction(queued, den)

    push(problem.variable_box, root_store)
    initial = queued
    stats.exact_initial = Fraction(initial, 1 << K)
    t0 = time.perf_counter()
    stop = "complete"
    while heap:
        if cfg.stop_ratio is not None and _ratio_met(boundary + queued, initial, cfg.stop_ratio):
            stop = "ratio"
            break
        if cfg.max_nodes is not None and stats.nodes_processed >= cfg.max_nodes:
            stop = "nodes"
            break
        if cfg.time_limit is not None and time.perf_counter() - t0 > cfg.time_limit:
            stop = "time"
            break
        neg_width, _, box, store, m, k = heapq.heappop(heap)
        vol = m << (K - k)
        queued -= vol
        stats.nodes_processed += 1
        if -neg_width <= cfg.epsilon:
            paving.boundary.append(box)
            boundary += vol
        else:
            if cfg.mode == "2b+":
                store = tuple(parameter_instantiation(store, box))
            pruned = global_pruning(store, box)
            if not pruned.is_empty:
                kept, remainder, inner_pieces = solution_identification(store, pruned)
                for piece in inner_pieces:
                    paving.inner.append(piece)
                    vol = scaled(*piece.dyadic_volume())
                    inner += vol
                # A remainder left degenerate inside the box sits on the face
                # of an emitted inner piece; its closure is already covered,
                # so exploring it further would only mint boundary boxes.
                if not remainder.is_empty and not any(
                    piece.contains_box(remainder) for piece in inner_pieces
                ):
                    if cfg.param_bisect:
                        kept = parameter_domain_bisection(kept, cfg.epsilon)
                    kept_t = tuple(kept)
                    if remainder.width <= cfg.epsilon:
                        push(remainder, kept_t)
                    elif _bisectable(remainder.dims[_widest_axis(remainder)]):
                        left, right = branch(remainder)
                        push(left, kept_t)
                        push(right, kept_t)
                    else:
                        # Wider than epsilon but at float spacing: no
                        # split can shrink it, so it stays undecided.
                        paving.boundary.append(remainder)
                        vol = scaled(*remainder.dyadic_volume())
                        boundary += vol
        if progress is not None:
            record()
            stats.elapsed = time.perf_counter() - t0
            progress(paving)
    while heap:
        paving.boundary.append(heapq.heappop(heap)[2])
    boundary += queued
    queued = 0
    record()
    stats.stop_reason = stop
    stats.elapsed = time.perf_counter() - t0
    return paving
