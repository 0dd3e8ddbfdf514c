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
widest variable coordinate.  A point is a solution only where every
constraint is defined for every parameter value: a copy on which its
constraint may be undefined (a divisor that holds 0, the square root of
a negative or the logarithm of a non-positive number) proves no part of
the box inner and pins nothing.

The loop runs on float bounds end to end.  Inside ``solve`` a box is a
flat tuple (lo0, hi0, lo1, hi1, ...) and a store a list of entries
(f, domains), one per constraint that is still undecided, in constraint
order; domains lists f's copies, each its parameter domain as such a
tuple.  Pinning, pruning and identification hand each entry's domains
to one call of f's compiled "pin", "prune" or "identify" kernel
(``contractor._compile_run``), which takes and returns the bounds and
reports an empty box as None, so the loop tests no box for emptiness.
The loop measures, halves and cuts these tuples with ``interval``'s
flat-bound helpers (``_shape``, compiled once per dimension count,
``_cut``, ``_contains``): a branching node takes its widest axis from
``_shape``'s ``widest`` and both halves, each with its widest width and
its volume, from one call of its ``split``.  The loop builds a Box only for a box
that leaves it (an inner piece, a boundary box or the queue's flush),
and that Box holds the loop's tuple itself, so no solve builds an
Interval.  The public phase functions (``global_pruning`` and the rest)
are thin wrappers that take and give Boxes and QuantifiedConstraints
around the same flat-level code.

The volume ledger is exact.  Box bounds are doubles, so every volume is
a dyadic rational m / 2**k (``Box.dyadic_volume``, which wraps the
loop's ``volume`` of flat bounds); each box is measured once, and its
(m, k) travels with it through the queue to the boundary list: the two
halves of a branching node by the ``split`` that makes them, and the
root, an inner piece and a remainder that is not halved by ``volume``.
``solve`` keeps the initial, inner, boundary and queued totals as
integers over one shared 2**K, raising K when a finer box arrives, and
stops on ``classified_ratio`` itself by dividing those integers.  The
rational ``exact_*`` fields are written from the totals before each
progress call and when the run ends; the float ``volume_*`` figures are
derived from them on read.  This makes the classified-volume ratio
monotone and exactly 1.0 on complete runs.
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

from .interval import Box, Interval, _box, _contains, _cut, _halves, _rebox, _shape
from .expr import _TAPES, Expression, _tape
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
        if not isinstance(self.param_bisect, bool):  # as its flag parses to; "off" is truthy
            raise ValueError(f"param_bisect must be a bool, not {self.param_bisect!r}")
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


# ---------------------------------------------------------------------------
# The loop's level: a box is a flat tuple of float bounds (lo0, hi0, lo1,
# hi1, ...), and a store a list of entries (f, domains), domains the list of
# f's copies, each its parameter domain as such a tuple.  The phase
# functions below it are thin wrappers that take and give Boxes and
# QuantifiedConstraints.


# The kernels below are read straight from the tape memo's kernel
# table, and ``_kernel`` is called only on a miss, to compile one; an
# expression with no tape yet reads this empty table.
_UNTAPED = ((), {})


def _pin(store: Sequence[tuple], x: tuple[float, ...]) -> list[tuple]:
    """The store with 2B+ pins over x: one "pin" kernel call per entry.

    An entry whose copies have no parameter coordinates comes back as it is, without one.
    """
    return [
        (f, (_TAPES.get(id(f), _UNTAPED)[1].get("pin") or _kernel(f, "pin"))(x, ds)) if ds[0] else (f, ds)
        for f, ds in store
    ]


def _prune(store: Sequence[tuple], x: tuple[float, ...]) -> tuple[float, ...] | None:
    """x pruned by each copy at its parameter midpoint, one "prune" kernel call per entry; None when emptied."""
    for f, ds in store:
        x = (_TAPES.get(id(f), _UNTAPED)[1].get("prune") or _kernel(f, "prune"))(x, ds)
        if x is None:
            return None
    return x


def _identify(store: Sequence[tuple], x: tuple[float, ...]) -> tuple[list[tuple], tuple[float, ...] | None]:
    """The entries kept by identification over x, and the hull of their regions (None for none).

    One "identify" kernel call per entry contracts x against the negation
    f >= 0 of each copy; the points of x outside the hull satisfy every
    copy for every parameter value in its domain.  An entry none of whose
    copies is kept is dropped.
    """
    kept: list[tuple] = []
    r = None
    for f, ds in store:
        r, part = (_TAPES.get(id(f), _UNTAPED)[1].get("identify") or _kernel(f, "identify"))(x, ds, 0.0, math.inf, r)
        if part:
            kept.append((f, part))
    return kept, r


def _bisect_params(store: Sequence[tuple], epsilon: float) -> list[tuple]:
    """Each copy halved along its widest parameter coordinate when that is wider than epsilon and not too thin."""
    out: list[tuple] = []
    n = -1
    for f, ds in store:
        part: list[tuple[float, ...]] = []
        for ys in ds:
            if len(ys) != n:  # once per call on every store solve builds, whose copies share one parameter box
                n = len(ys)
                widest = _shape(n // 2)[0]
            a, w = widest(ys)
            if w > epsilon and (halves := _halves(ys, 2 * a)) is not None:
                part += halves
            else:
                part.append(ys)
        out.append((f, part))
    return out


def _flat_store(store: Sequence[QuantifiedConstraint]) -> list[tuple]:
    """store as the loop's entries, one per stretch of adjacent copies of one f."""
    flat: list[tuple] = []
    for qc in store:
        if flat and flat[-1][0] is qc.f:
            flat[-1][1].append(qc.param_domain.bounds)
        else:
            flat.append((qc.f, [qc.param_domain.bounds]))
    return flat


def _boxed_store(store: Sequence[QuantifiedConstraint], out: Sequence[tuple]) -> list[QuantifiedConstraint]:
    """The copies of the entries out as QuantifiedConstraints, in order.

    A copy that comes back as the bounds object of a qc of store is that
    qc.  Every step treats copies of one f that share a bounds object
    alike, so those that come back unmoved come back in store order, and
    each takes the next such qc.
    """
    own: dict[tuple[int, int], list[QuantifiedConstraint]] = {}
    for qc in reversed(store):
        own.setdefault((id(qc.f), id(qc.param_domain.bounds)), []).append(qc)
    return [(own.get((id(f), id(ys))) or [_qc(f, _box(ys))]).pop() for f, ds in out for ys in ds]


def parameter_instantiation(
    store: Sequence[QuantifiedConstraint], box: Box
) -> list[QuantifiedConstraint]:
    """Pin parameter coordinates proven monotone over box x domain.

    If df/dy_j is non-negative everywhere, the constraint is hardest at
    the upper endpoint, so the domain coordinate collapses to it (lower
    endpoint for non-positive).  Derivative enclosures that are empty or
    not finite leave the coordinate unchanged, and so does a copy on
    which f may be undefined.  Pinning goes coordinate by coordinate,
    each step seeing the domains already pinned.  Each stretch of
    adjacent copies of one constraint is pinned by one call of its "pin"
    kernel (``contractor._compile_run``); a copy with no parameter
    coordinates comes back as it is, without one.

    Only the coordinates that f reads are pinned; the others are left as
    they are, since f does not depend on them and ``solve``'s root store
    already collapses them at the upper endpoint.  Pins over an empty box
    are unspecified; ``solve`` never asks for them.
    """
    return _boxed_store(store, _pin(_flat_store(store), box.bounds))


def local_pruning(qc: QuantifiedConstraint, box: Box) -> Box:
    """Contract box against f(x, mid(domain)) <= 0: ``global_pruning`` of the store (qc,).

    Sound because a solution must satisfy the constraint at every
    parameter point, the midpoint included.  With no parameters the
    midpoint is the empty tuple and the constraint is contracted as is.
    """
    return global_pruning((qc,), box)


def global_pruning(store: Sequence[QuantifiedConstraint], box: Box) -> Box:
    """Sequential local pruning over the whole store; empty means rejected.

    Each stretch of adjacent copies of one constraint is pruned by one
    kernel call, in store order.  The result is the empty box as soon as
    one copy empties it; a box that comes in empty comes out empty.
    """
    x = _prune(_flat_store(store), box.bounds)
    return Box.empty(len(box)) if x is None else _rebox(box, x)


def solution_identification(
    store: Sequence[QuantifiedConstraint], box: Box
) -> tuple[list[QuantifiedConstraint], Box, list[Box]]:
    """Split off the part of box proven to satisfy every constraint.

    Contracts box against each negation f >= 0: points outside the
    contracted region satisfy that constraint for every parameter value
    in its domain.  A copy on which f may be undefined (a divisor that
    holds 0, the square root of a negative or the logarithm of a
    non-positive number) proves nothing: its region is the whole box.
    Returns the surviving store (dropped constraints held everywhere;
    kept ones get their contracted parameter domain, reusable for the
    whole subtree), the hull of the negation regions, and the closure of
    box minus that hull as inner boxes, cut straight from the hull
    (``_cut``); there are none when the hull is box itself.
    """
    if box.is_empty:
        return [], Box.empty(len(box)), []
    x = box.bounds
    kept, r = _identify(_flat_store(store), x)
    kept = _boxed_store(store, kept)
    if r is None:
        return kept, Box.empty(len(box)), [box]
    return kept, _rebox(box, r), [] if r is x else [_box(piece) for piece in _cut(x, r)]


def parameter_domain_bisection(
    store: Sequence[QuantifiedConstraint], epsilon: float
) -> list[QuantifiedConstraint]:
    """Halve each constraint's parameter domain once, along its widest coordinate.

    A constraint without parameters, or whose widest coordinate is at
    most epsilon wide or too thin to halve, stays whole; otherwise it is
    replaced by two copies, lower half first.
    """
    return _boxed_store(store, _bisect_params(_flat_store(store), epsilon))


def branch(box: Box) -> tuple[Box, Box]:
    """Bisect the widest variable coordinate, lowest index on ties.

    Raises ValueError, as ``Box.bisect`` does, when that coordinate is
    too thin for its midpoint to lie strictly inside.
    """
    return box.bisect(_shape(len(box))[0](box.bounds)[0])


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

    The loop runs on flat bounds (see ``interval._shape``) and calls the
    phases' flat level, ``_pin``, ``_prune``, ``_identify``, ``_cut``,
    ``_contains`` and ``_bisect_params``, looked up in this module when
    the solve starts, the last only when the problem has parameters.  A
    node branches with ``widest`` and one ``split`` call, which measures
    both halves, and pushes the two heap entries itself.  A Box is built
    only for a box that leaves the loop, inner or boundary.
    """
    cfg = config if config is not None else SolverConfig()
    stats = SolveStats()
    paving = Paving([], [], stats, problem.variable_box)
    widest, volume, thin, split = _shape(len(problem.variable_box))
    pin, prune, identify, cut, contains, bisect_params = _pin, _prune, _identify, _cut, _contains, _bisect_params
    heappop, heappush = heapq.heappop, heapq.heappush
    inner_append, boundary_append = paving.inner.append, paving.boundary.append
    pins, eps, stop_ratio, max_nodes, time_limit = (
        cfg.mode == "2b+", cfg.epsilon, cfg.stop_ratio, cfg.max_nodes, cfg.time_limit
    )
    # a problem without parameters has no copy for parameter bisection to split
    param_bisect = cfg.param_bisect and len(problem.parameter_box) > 0
    # f does not depend on a parameter coordinate that its tape never reads,
    # so its copy starts collapsed there, at the upper endpoint that 2B+
    # pinning picks; parameter bisection then never splits that coordinate
    params = problem.parameter_box.bounds
    root_store = []
    for f in problem.constraints:
        read = {2 * a for op, a, _ in _tape(f)[0] if op == "param"}
        ys = [b for j in range(0, len(params), 2) for b in (params[j] if j in read else params[j + 1], params[j + 1])]
        root_store.append((f, [tuple(ys)]))

    # The ledger: initial, inner, boundary and queued volume as integers
    # over one denominator 2**K.  Every box volume is m / 2**k
    # (Box.dyadic_volume); a box finer than 2**-K raises K and shifts the
    # totals left.  Heap entries are (-width, seq, x, store, m, k,
    # settled), x the flat bounds; seq is unique, so comparisons never
    # reach x.
    heap: list[tuple[float, int, tuple[float, ...], list[tuple], int, int, bool]] = []
    seq = K = initial = inner = boundary = queued = 0

    def deepen(k: int) -> None:
        """Raise K to k > K, shifting the totals so that they keep their values."""
        nonlocal K, initial, inner, boundary, queued
        initial <<= k - K
        inner <<= k - K
        boundary <<= k - K
        queued <<= k - K
        K = k

    def scaled(m: int, k: int) -> int:
        """m / 2**k as a numerator over 2**K, raising K to k if k is larger.

        Raising K shifts the totals, so a caller reads them only after it.
        """
        if k > K:
            deepen(k)
        return m << (K - k)

    def push(x: tuple[float, ...], w: float, store: list[tuple], settled: bool) -> None:
        nonlocal seq, queued
        m, k = volume(x)
        heappush(heap, (-w, seq, x, store, m, k, settled))
        vol = scaled(m, k)
        queued += vol
        seq += 1

    def record() -> None:
        den = 1 << K
        stats.exact_inner = Fraction(inner, den)
        stats.exact_boundary = Fraction(boundary, den)
        stats.exact_queued = Fraction(queued, den)

    root = problem.variable_box.bounds
    push(root, widest(root)[1], root_store, False)
    initial = queued
    stats.exact_initial = Fraction(initial, 1 << K)
    nodes = 0  # stats.nodes_processed, written back before each progress call and at the end
    t0 = time.perf_counter()
    stop = "complete"
    while heap:
        if stop_ratio is not None and _ratio_met(boundary + queued, initial, stop_ratio):
            stop = "ratio"
            break
        if max_nodes is not None and nodes >= max_nodes:
            stop = "nodes"
            break
        if time_limit is not None and time.perf_counter() - t0 > time_limit:
            stop = "time"
            break
        neg_width, _, x, store, m, k, settled = heappop(heap)
        vol = m << (K - k)
        queued -= vol
        nodes += 1
        if -neg_width <= eps:
            boundary_append(_box(x))
            boundary += vol
        else:
            if pins and not settled:
                store = pin(store, x)
                # pinning leaves a store whose every parameter coordinate is a
                # point as it is, and so the store of every node below: the
                # identification keeps a point or drops its copy, and
                # parameter bisection never splits a point
                settled = all(ys[::2] == ys[1::2] for _, ds in store for ys in ds)
            x = prune(store, x)
            if x is not None:
                kept, r = identify(store, x)
                # the kernels hand back x itself for a hull that is all of x
                pieces = [x] if r is None else [] if r is x else cut(x, r)
                for piece in pieces:
                    inner_append(_box(piece))
                    vol = scaled(*volume(piece))
                    inner += vol
                # A remainder left degenerate inside the box sits on the face
                # of an emitted inner piece; its closure is already covered,
                # so exploring it further would only mint boundary boxes.
                # Each piece lies across a face of the remainder, so only a
                # remainder that is a point on some axis can lie in one.
                if r is not None and not (
                    pieces and thin(r) and any(contains(piece, r) for piece in pieces)
                ):
                    if param_bisect:
                        kept = bisect_params(kept, eps)
                    a, w = widest(r)
                    if w <= eps:
                        push(r, w, kept, settled)
                    elif (halves := split(r, a)) is None:
                        # Wider than epsilon but at float spacing: no
                        # split can shrink it, so it stays undecided.
                        boundary_append(_box(r))
                        vol = scaled(*volume(r))
                        boundary += vol
                    else:
                        # both halves, measured by the split: queued as two
                        # pushes would queue them, lower half first
                        wl, left, ml, kl, wr, right, mr, kr = halves
                        if kl > K or kr > K:
                            deepen(kl if kl > kr else kr)
                        heappush(heap, (-wl, seq, left, kept, ml, kl, settled))
                        heappush(heap, (-wr, seq + 1, right, kept, mr, kr, settled))
                        queued += (ml << (K - kl)) + (mr << (K - kr))
                        seq += 2
        if progress is not None:
            stats.nodes_processed = nodes
            record()
            stats.elapsed = time.perf_counter() - t0
            progress(paving)
    # seq is unique, so the sorted heap is the order heappop would give
    heap.sort()
    paving.boundary += [_box(entry[2]) for entry in heap]
    boundary += queued
    queued = 0
    stats.nodes_processed = nodes
    record()
    stats.stop_reason = stop
    stats.elapsed = time.perf_counter() - t0
    return paving
