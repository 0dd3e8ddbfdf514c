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
from qine.interval import Box, Interval
from qine.solver import QuantifiedConstraint, SolverConfig, solve

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


def _bad_cut(self: Box, inner: Box) -> list[Box]:
    # Box._cut with each upper piece starting at inner's lower bound, so
    # the piece covers the remainder it should leave out
    pieces, cur = [], list(self.dims)
    for k, (outer_iv, inner_iv) in enumerate(zip(self.dims, inner.dims)):
        if inner_iv.lo > outer_iv.lo:
            pieces.append(Box((*cur[:k], Interval(outer_iv.lo, inner_iv.lo), *cur[k + 1:])))
        if inner_iv.hi < outer_iv.hi:
            pieces.append(Box((*cur[:k], Interval(inner_iv.lo, outer_iv.hi), *cur[k + 1:])))
        cur[k] = inner_iv
    return pieces


def _trimmed(pruning):
    # pruning that also trims 0.5% of each coordinate's width off both faces
    def prune(store, box):
        out = pruning(store, box)
        if out.is_empty:
            return out
        return Box(tuple(Interval(iv.lo + (w := 0.005 * (iv.hi - iv.lo)), iv.hi - w) for iv in out.dims))

    return prune


def _at_midpoint(identification):
    # identification that tests each copy at its parameter midpoint only,
    # and keeps every copy
    def identify(store, box):
        points = [QuantifiedConstraint(c.f, Box.point([iv.midpoint for iv in c.param_domain])) for c in store]
        _, remainder, pieces = identification(points, box)
        return list(store), remainder, pieces

    return identify


def _wrong_endpoint(instantiation):
    # pinning that collapses each proven-monotone coordinate to the other endpoint
    def pin(store, box):
        out = []
        for old, new in zip(store, instantiation(store, box)):
            dims = [
                Interval.point(o.lo if n.lo == o.hi else o.hi) if n.is_degenerate and not o.is_degenerate else n
                for o, n in zip(old.param_domain, new.param_domain)
            ]
            out.append(QuantifiedConstraint(new.f, Box(tuple(dims))))
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
        lambda mp: mp.setattr(Box, "_cut", _bad_cut),
    ),
    "identification accepts every box": (
        ("disc2d", "2b+", 0.1),
        "violated inner points",
        lambda mp: mp.setattr(solver, "solution_identification", lambda store, box: ([], Box.empty(len(box)), [box])),
    ),
    "pruning trims 0.5% off each face": (
        ("disc2d", "2b+", 0.1),
        "uncovered solutions",
        lambda mp: mp.setattr(solver, "global_pruning", _trimmed(solver.global_pruning)),
    ),
    "identification at the parameter midpoint only": (
        ("lens", "2b", 0.1),
        "violated inner points",
        lambda mp: mp.setattr(solver, "solution_identification", _at_midpoint(solver.solution_identification)),
    ),
    "pinning to the wrong endpoint": (
        ("ex1", "2b+", 0.5),
        "violated inner points",
        lambda mp: mp.setattr(solver, "parameter_instantiation", _wrong_endpoint(solver.parameter_instantiation)),
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
