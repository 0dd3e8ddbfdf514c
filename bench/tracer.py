"""Outside-in span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side, around calls into qine's
public functions: the names ``solve`` looks up in the ``qine.solver``
namespace, and the arithmetic methods of ``Interval`` plus
``Box.exact_volume``.  Nothing in ``src/qine`` is edited; wrappers are
installed by attribute assignment and removed again by ``uninstall``.

Each span is a name, a start, an end and the index of the span that was
open when it began.  Spans stay in memory as flat arrays until the run
ends; a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Public names that qine.solver resolves at call time, and the span names
# they are recorded under.
SOLVER_NAMES = {
    "parameter_instantiation": "solver.instantiation",
    "global_pruning": "solver.pruning",
    "local_pruning": "solver.local_pruning",
    "solution_identification": "solver.identification",
    "parameter_domain_bisection": "solver.param_bisect",
    "branch": "solver.branch",
    "classified_ratio": "solver.classified_ratio",
    "hc4_revise": "contractor.hc4_revise",
    "derivative_interval": "expr.derivative_interval",
}

# Interval methods wrapped; each call is one interval op.
INTERVAL_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
    "sqr", "pow_int", "root_int", "sqrt", "exp", "log", "sin", "cos",
    "intersect", "hull",
)


class Tracer:
    """Records nested spans in memory and counts outcomes at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open = [-1]
        self.counts: dict[str, float] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, observe=None):
        """Return fn recording one span per call; observe(result, args) runs after the span closes."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, open_ = self.span_start, self.span_end, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(open_[-1])
            ends.append(0.0)
            open_.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                open_.pop()
            if observe is not None:
                observe(result, args)
            return result

        return traced

    def call(self, name, fn, /, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def patch(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, observe))

    def install(self, tree_size) -> None:
        """Wrap the solver namespace, Interval methods and Box.exact_volume.

        ``tree_size(expr)`` gives the node count of a constraint tree; it
        weights hc4_revise calls so their cost can be read per node.
        """
        import qine.solver
        from qine.interval import Box, Interval

        def hc4_seen(result, args):
            self.count("hc4_tree_nodes", tree_size(args[0].f))
            if result[0].is_empty:
                self.count("hc4_empty")

        def pruning_seen(result, args):
            if result.is_empty:
                self.count("prune_rejects")

        def ident_seen(result, args):
            self.count("inner_pieces", len(result[2]))

        observers = {
            "hc4_revise": hc4_seen,
            "global_pruning": pruning_seen,
            "solution_identification": ident_seen,
        }
        for attr, name in SOLVER_NAMES.items():
            self.patch(qine.solver, attr, name, observers.get(attr))
        for attr in INTERVAL_METHODS:
            self.patch(Interval, attr, "interval." + attr.strip("_"))
        self.patch(Box, "exact_volume", "box.exact_volume")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self.span_name)
        name = np.frombuffer(self.span_name, dtype=np.int32, count=n)
        parent = np.frombuffer(self.span_parent, dtype=np.int32, count=n)
        dur = np.frombuffer(self.span_end, count=n) - np.frombuffer(self.span_start, count=n)
        return name, parent, dur

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        name, parent, dur = self._arrays()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, nm in enumerate(self.names)
        }

    def direct_children_total(self, parent_name: str) -> dict[str, float]:
        """Inclusive seconds of each span name directly under spans of parent_name."""
        name, parent, dur = self._arrays()
        nested = parent >= 0
        under = np.zeros(len(dur), dtype=bool)
        under[nested] = name[parent[nested]] == self._ids[parent_name]
        out = np.bincount(name[under], weights=dur[under], minlength=len(self.names))
        return {nm: float(out[i]) for i, nm in enumerate(self.names) if out[i]}
