"""Broken solvers that the grid oracle must catch.

Each mutant breaks one step of the proof in-process, through
``monkeypatch``, and solves a freshly parsed problem, so every kernel it
runs is compiled while the mutant is installed.  ``tests/oracle.py`` then
checks the paving on a grid of the variable box: no grid point inside an
inner box may violate a constraint, and every grid point that solves the
problem must lie in an inner or boundary box.  The unmutated solver passes
the same check on each problem.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import oracle
from qine import contractor, solver
from qine.cli import parse_problem
from qine.expr import Expression
from qine.interval import _midpoint
from qine.solver import SolverConfig, solve

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = {
    "disc2d": ROOT / "problems" / "disc2d.qcsp",
    "ex1": ROOT / "problems" / "ex1.qcsp",
    "lens": ROOT / "bench" / "problems" / "lens.qcsp",
}
_PTS = 201  # grid points per axis, for the variables and the parameters alike
_TOL = 1e-9  # points this close to a constraint's zero count on neither side


def _flagged(name: str, mode: str, eps: float) -> dict[str, int]:
    """Solve a fresh parse of the problem and count the oracle's two kinds of failure."""
    problem = parse_problem(PROBLEMS[name].read_text(), name=name)
    paving = solve(problem, SolverConfig(epsilon=eps, mode=mode))
    pairs = [(f, problem.parameter_box) for f in problem.constraints]
    cols = oracle.grid_columns(problem.variable_box, _PTS)
    violated, worst = oracle.violated_mask(pairs, cols, pts=_PTS)
    in_inner = oracle.covered_mask(paving.inner, cols)
    solutions = ~violated & (worst < -_TOL)
    return {
        "violated inner points": int(np.sum(in_inner & violated & (worst > _TOL))),
        "uncovered solutions": int(np.sum(solutions & ~oracle.covered_mask(paving.inner + paving.boundary, cols))),
    }


# The mutants break the flat level that solve's node loop calls: a box is a
# flat tuple of bounds (lo0, hi0, lo1, hi1, ...) and a store a list of
# entries (f, domains), domains the list of f's copies, each its parameter
# domain as such a tuple.  A mutant that reads the store checks that
# layout first, so that a change of layout fails it loudly instead of
# turning it into some other mutant.


def _entries(store):
    """store, after asserting that it is a list of (f, domains) entries of flat bounds."""
    assert isinstance(store, list), store
    for entry in store:
        f, ds = entry
        assert isinstance(f, Expression) and isinstance(ds, list) and ds, entry
        for ys in ds:
            assert isinstance(ys, tuple) and len(ys) % 2 == 0 and all(type(b) is float for b in ys), entry
    return store


def _bad_cut(x, r):
    # solver._cut with each upper piece starting at r's lower bound, so the
    # piece covers the remainder it should leave out
    pieces, cur = [], list(x)
    for i in range(0, len(x), 2):
        if r[i] > x[i]:
            pieces.append(tuple(cur[:i] + [x[i], r[i]] + cur[i + 2:]))
        if r[i + 1] < x[i + 1]:
            pieces.append(tuple(cur[:i] + [r[i], x[i + 1]] + cur[i + 2:]))
        cur[i:i + 2] = r[i:i + 2]
    return pieces


def _trimmed(pruning):
    # pruning that also trims 0.5% of each coordinate's width off both faces
    def prune(store, x):
        out = pruning(store, x)
        if out is None:
            return out
        trimmed = []
        for lo, hi in zip(out[::2], out[1::2]):
            w = 0.005 * (hi - lo)
            trimmed += (lo + w, hi - w)
        return tuple(trimmed)

    return prune


def _at_midpoint(identification):
    # identification that tests each copy at its parameter midpoint only,
    # and keeps every copy
    def identify(store, x):
        points = []
        for f, ds in _entries(store):
            mids = [[_midpoint(lo, hi) for lo, hi in zip(ys[::2], ys[1::2])] for ys in ds]
            points.append((f, [tuple(b for m in ms for b in (m, m)) for ms in mids]))
        _, remainder = identification(points, x)
        return list(store), remainder

    return identify


def _wrong_endpoint(instantiation):
    # pinning that collapses each proven-monotone coordinate to the other endpoint
    def pin(store, x):
        out = []
        for (_, olds), (f, news) in zip(_entries(store), _entries(instantiation(store, x))):
            part = []
            for old, new in zip(olds, news, strict=True):
                ys = list(new)
                for i in range(0, len(ys), 2):
                    if new[i] == new[i + 1] and old[i] != old[i + 1]:
                        ys[i] = ys[i + 1] = old[i] if new[i] == old[i + 1] else old[i + 1]
                part.append(tuple(ys))
            out.append((f, part))
        return out

    return pin


# each mutant: the (problem, mode, eps) it is solved on, the failure the
# oracle must count, and how it is installed
MUTANTS = {
    # pruning at a point past the domain's upper bound; in 2b disc2d's y is not pinned
    "pruning point outside its domain": (
        ("disc2d", "2b", 0.1),
        "uncovered solutions",
        lambda mp: mp.setitem(contractor._NAMESPACE, "_midpoint", lambda lo, hi: hi + (hi - lo)),
    ),
    "upper piece of the cut starts at inner.lo": (
        ("disc2d", "2b+", 0.1),
        "violated inner points",
        lambda mp: mp.setattr(solver, "_cut", _bad_cut),
    ),
    "identification accepts every box": (
        ("disc2d", "2b+", 0.1),
        "violated inner points",
        lambda mp: mp.setattr(solver, "_identify", lambda store, x: ([], None)),
    ),
    "pruning trims 0.5% off each face": (
        ("disc2d", "2b+", 0.1),
        "uncovered solutions",
        lambda mp: mp.setattr(solver, "_prune", _trimmed(solver._prune)),
    ),
    "identification at the parameter midpoint only": (
        ("lens", "2b", 0.1),
        "violated inner points",
        lambda mp: mp.setattr(solver, "_identify", _at_midpoint(solver._identify)),
    ),
    "pinning to the wrong endpoint": (
        ("ex1", "2b+", 0.5),
        "violated inner points",
        lambda mp: mp.setattr(solver, "_pin", _wrong_endpoint(solver._pin)),
    ),
}


@pytest.mark.parametrize("case", sorted({case for case, _, _ in MUTANTS.values()}), ids=lambda case: "-".join(map(str, case)))
def test_the_oracle_passes_the_unmutated_solver(case):
    assert _flagged(*case) == {"violated inner points": 0, "uncovered solutions": 0}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_the_oracle_flags_each_mutant(mutant, monkeypatch):
    case, failure, install = MUTANTS[mutant]
    install(monkeypatch)
    assert _flagged(*case)[failure] > 0, mutant
