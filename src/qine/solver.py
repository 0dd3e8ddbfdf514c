"""Branch-and-prune computation of inner and boundary pavings.

Solves systems of the form: find all x in the variable box such that
for every y in the parameter box every constraint f_i(x, y) <= 0 holds.
Each constraint carries its own copy of the parameter domain, so the
domains can shrink or split independently as the search proceeds.

A node is (box, store).  Processing a node optionally pins parameters
proven monotone (2B+ mode, until every parameter coordinate of the store
is a point), prunes the box with each constraint instantiated at its
parameter midpoint, identifies an inner region by contracting the
negated constraints, then bisects parameter domains and branches on the
widest variable coordinate.  A store keeps the copies of
one constraint next to each other: the root store is in constraint
order, parameter bisection splits a copy in place and pinning and
identification keep the order.  Pinning, pruning and identification
therefore handle each such run of copies in one call of a compiled kernel,
the "pin", "prune" or "revise" kernel of ``contractor._compile_run``, on
float bounds.  The loop builds its constraints, boxes and pinned points from
valid operands, with the unchecked builders of ``interval``
(``_unchecked``, ``_box``); a solve runs the dataclass checks only for
the root store.

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
import numbers
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .interval import Box, Interval, _box, _iv
from .expr import Expression, _tape
from .expr import derivative_interval  # noqa: F401 -- bench/tracer.py wraps the name in this namespace
from .contractor import QuantifiedConstraint, _kernel, _qc  # qine lists QuantifiedConstraint once, from contractor
from .contractor import hc4_revise  # noqa: F401 -- bench/tracer.py wraps the name in this namespace

__all__ = [
    "Problem",
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


def _check_domain(name: str, iv: Interval, variable: bool) -> None:
    """Raise ValueError unless iv is non-empty, bounded and, for a variable, not a point."""
    if iv.is_empty:
        raise ValueError(f"empty domain for {name}")
    if math.isinf(iv.lo) or math.isinf(iv.hi):
        raise ValueError(f"unbounded domain for {name}")
    if variable and iv.is_degenerate:
        raise ValueError(f"zero-width domain for variable {name}")


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
        if "".join(self.name.splitlines()) != self.name:
            # the name is one header line of the report
            raise ValueError(f"problem name {self.name!r} holds a line break")
        for name, iv in zip(self.variable_names, self.variable_box.dims):
            _check_domain(name, iv, True)
        for name, iv in zip(self.parameter_names, self.parameter_box.dims):
            _check_domain(name, iv, False)
        sizes = {"var": len(self.variable_box), "param": len(self.parameter_box)}
        for i, f in enumerate(self.constraints, 1):
            try:
                steps = _tape(f)[0]
            except ValueError as exc:
                raise ValueError(f"constraint {i}: {exc}") from None
            for op, a, _ in steps:
                if op in sizes and a >= sizes[op]:
                    kind = "variable" if op == "var" else "parameter"
                    raise ValueError(f"constraint {i} reads {kind} index {a}, but only {sizes[op]} {kind}s exist")


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float = 1e-3
    stop_ratio: float | None = None
    mode: str = "2b+"
    param_bisect: bool = True
    max_nodes: int | None = None
    time_limit: float | None = None

    def __post_init__(self) -> None:
        # each number is stored as the type its command-line flag parses to,
        # so the report's "# flags:" line, which prints it, replays the run
        kinds = {"epsilon": float, "stop_ratio": float, "max_nodes": operator.index, "time_limit": float}
        for name, kind in kinds.items():
            if (value := getattr(self, name)) is None and name != "epsilon":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, not {value!r}")
            try:
                object.__setattr__(self, name, kind(value))
            except (TypeError, OverflowError):  # a fraction for max_nodes, or an int past the largest double
                raise ValueError(f"{name} cannot be {value!r}") from None
        if not isinstance(self.mode, str) or self.mode.lower() not in ("2b", "2b+"):
            raise ValueError(f"unknown mode {self.mode!r}")
        object.__setattr__(self, "mode", self.mode.lower())
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
    The volume_* properties round the ledger to the nearest float (or inf).
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
        return _nearest(self.exact_initial)

    @property
    def volume_inner(self) -> float:
        return _nearest(self.exact_inner)

    @property
    def volume_boundary(self) -> float:
        return _nearest(self.exact_boundary)


def _nearest(q: Fraction) -> float:
    """A volume q >= 0 rounded to the nearest double: inf from the largest plus half an ulp."""
    return float(q) if q < 2**1024 - 2**970 else math.inf


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


def parameter_instantiation(
    store: Sequence[QuantifiedConstraint], box: Box
) -> list[QuantifiedConstraint]:
    """Pin parameter coordinates proven monotone over box x domain.

    If df/dy_j is non-negative everywhere, the constraint is hardest at
    the upper endpoint, so the domain coordinate collapses to it (lower
    endpoint for non-positive).  Derivative enclosures that are empty or
    not finite leave the coordinate unchanged.  Pinning goes coordinate
    by coordinate, each step seeing the domains already pinned.  Each run
    of one constraint's copies is pinned by one call of its "pin" kernel
    (``contractor._compile_run``), as in ``global_pruning``; a copy with
    no parameter coordinates comes back as it is, without one.

    Only the coordinates that f reads are pinned; the others are left as
    they are, since f does not depend on them and ``solve``'s root store
    already collapses them at the upper endpoint.  Pins over an empty box
    are unspecified; ``solve`` never asks for them.
    """
    out: list[QuantifiedConstraint] = []
    k, end = 0, len(store)
    while k < end:
        qc = store[k]
        if qc.param_domain.dims:
            k, part = _kernel(qc.f, "pin")(box, store, k)
            out += part
        else:  # no parameter coordinate to pin
            out.append(qc)
            k += 1
    return out


def local_pruning(qc: QuantifiedConstraint, box: Box) -> Box:
    """Contract box against f(x, mid(domain)) <= 0: ``global_pruning`` of the store (qc,).

    Sound because a solution must satisfy the constraint at every
    parameter point, the midpoint included.  With no parameters the
    midpoint is the empty tuple and the constraint is contracted as is.
    """
    return global_pruning((qc,), box)


def global_pruning(store: Sequence[QuantifiedConstraint], box: Box) -> Box:
    """Sequential local pruning over the whole store; empty means rejected.

    The copies of one constraint stand next to each other in every store
    ``solve`` builds, and each such run is pruned by one kernel call.  The
    result is the empty box as soon as one copy empties it; a box that
    comes in empty comes out empty.
    """
    cur, k, end = box, 0, len(store)
    while k < end:
        k, cur = _kernel(store[k].f, "prune")(cur, store, k)
        if cur is None:
            return Box.empty(len(box))
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
    and the closure of box minus that hull as inner boxes.  The pieces
    are cut straight from the hull (``Box._cut``), which the kernels build
    inside box, and there are none when the hull is box itself.
    """
    if box.is_empty:
        return [], Box.empty(len(box)), []
    kept: list[QuantifiedConstraint] = []
    remainder, k, end = None, 0, len(store)
    while k < end:
        # one kernel call per run of one constraint's copies, as in global_pruning
        k, remainder, part = _kernel(store[k].f, "revise")(box, store, k, 0.0, math.inf, remainder)
        kept += part
    if remainder is None:
        return kept, Box.empty(len(box)), [box]
    return kept, remainder, [] if remainder is box else box._cut(remainder)


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
        if dom.dims and dom.dims[axis].width > epsilon:
            try:
                lo_half, hi_half = dom.bisect(axis)
            except ValueError:  # too thin to halve
                pass
            else:
                out += (_qc(qc.f, lo_half), _qc(qc.f, hi_half))
                continue
        out.append(qc)
    return out


def branch(box: Box) -> tuple[Box, Box]:
    """Bisect the widest variable coordinate, lowest index on ties.

    Raises ValueError, as ``Box.bisect`` does, when that coordinate is
    too thin for its midpoint to lie strictly inside.
    """
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
    # f does not depend on a parameter coordinate that its tape never reads,
    # so its copy starts collapsed there, at the upper endpoint that 2B+
    # pinning picks; parameter bisection then never splits that coordinate
    params = problem.parameter_box.dims
    root_store = []
    for f in problem.constraints:
        read = {a for op, a, _ in _tape(f)[0] if op == "param"}
        dims = tuple(iv if j in read else _iv(iv.hi, iv.hi) for j, iv in enumerate(params))
        root_store.append(QuantifiedConstraint(f, _box(dims)))
    root_store = tuple(root_store)

    # The ledger: initial, inner, boundary and queued volume as integers
    # over one denominator 2**K.  Every box volume is m / 2**k
    # (Box.dyadic_volume); a box finer than 2**-K raises K and shifts the
    # totals left.  Heap entries are (-width, seq, box, store, m, k,
    # settled); seq is unique, so comparisons never reach the box.
    heap: list[tuple[float, int, Box, tuple[QuantifiedConstraint, ...], int, int, bool]] = []
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

    def push(box: Box, store: tuple[QuantifiedConstraint, ...], settled: bool) -> None:
        nonlocal seq, queued
        m, k = box.dyadic_volume()
        heapq.heappush(heap, (-box.width, seq, box, store, m, k, settled))
        vol = scaled(m, k)
        queued += vol
        seq += 1

    def record() -> None:
        den = 1 << K
        stats.exact_inner = Fraction(inner, den)
        stats.exact_boundary = Fraction(boundary, den)
        stats.exact_queued = Fraction(queued, den)

    push(problem.variable_box, root_store, False)
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
        neg_width, _, box, store, m, k, settled = heapq.heappop(heap)
        vol = m << (K - k)
        queued -= vol
        stats.nodes_processed += 1
        if -neg_width <= cfg.epsilon:
            paving.boundary.append(box)
            boundary += vol
        else:
            if cfg.mode == "2b+" and not settled:
                store = tuple(parameter_instantiation(store, box))
                # pinning leaves a store whose every parameter coordinate is a
                # point as it is, and so the store of every node below: the
                # identification keeps a point or drops its copy, and
                # parameter bisection never splits a point
                settled = all(iv.lo == iv.hi for qc in store for iv in qc.param_domain.dims)
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
                # Each piece lies across a face of the remainder, so only a
                # remainder that is a point on some axis can lie in one.
                if not remainder.is_empty and not (
                    any(iv.lo == iv.hi for iv in remainder.dims)
                    and any(piece.contains_box(remainder) for piece in inner_pieces)
                ):
                    if cfg.param_bisect:
                        kept = parameter_domain_bisection(kept, cfg.epsilon)
                    kept_t = tuple(kept)
                    if remainder.width <= cfg.epsilon:
                        push(remainder, kept_t, settled)
                    else:
                        try:
                            left, right = branch(remainder)
                        except ValueError:
                            # Wider than epsilon but at float spacing: no
                            # split can shrink it, so it stays undecided.
                            paving.boundary.append(remainder)
                            vol = scaled(*remainder.dyadic_volume())
                            boundary += vol
                        else:
                            push(left, kept_t, settled)
                            push(right, kept_t, settled)
        if progress is not None:
            record()
            stats.elapsed = time.perf_counter() - t0
            progress(paving)
    # seq is unique, so the sorted heap is the order heappop would give
    heap.sort()
    paving.boundary += [entry[2] for entry in heap]
    boundary += queued
    queued = 0
    record()
    stats.stop_reason = stop
    stats.elapsed = time.perf_counter() - t0
    return paving
