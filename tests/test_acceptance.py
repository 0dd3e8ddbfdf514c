"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 1-5 pin exact worked values on the one-variable monotone
problem, 6 runs randomized problems against brute-force grid oracles,
7 and 8 cover determinism and progress-ratio monotonicity.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import oracle
from helpers import monotone_problem, ulps_between
from qine.cli import format_report, parse_problem
from qine.contractor import hc4_revise
from qine.expr import Binary, Const, Pow, Unary, VarKind, VarRef, derivative_interval
from qine.interval import Box, Interval, _midpoint
from qine.solver import (
    Problem,
    QuantifiedConstraint,
    SolverConfig,
    classified_ratio,
    global_pruning,
    parameter_domain_bisection,
    parameter_instantiation,
    solution_identification,
    solve,
)

ROOT = Path(__file__).resolve().parents[1]


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _close(iv: Interval, lo: float, hi: float, ulps: int = 1) -> bool:
    return (
        not iv.is_empty
        and ulps_between(iv.lo, lo) <= ulps
        and ulps_between(iv.hi, hi) <= ulps
    )


def _mono_qc() -> QuantifiedConstraint:
    p = monotone_problem()
    return QuantifiedConstraint(p.constraints[0], p.parameter_box)


def test_criterion_1_midpoint_pruning():
    qc = _mono_qc()
    at_mid = QuantifiedConstraint(qc.f, Box.point([0.5]))
    x, _ = hc4_revise(at_mid, Box.from_bounds([(0.0, 15.0)]))
    ok = _close(x[0], 4.75, 15.0)
    _report(1, ok, f"f(x, 0.5) <= 0 contracts [0,15] to {x[0]}")


def test_criterion_2_identification():
    qc = _mono_qc()
    x, y = hc4_revise(qc, Box.from_bounds([(4.75, 15.0)]), geq=True)
    ok = _close(x[0], 4.75, 10.0) and _close(y[0], 0.475, 1.0)

    kept, remainder, pieces = solution_identification(
        [qc], Box.from_bounds([(4.75, 15.0)])
    )
    ok = (
        ok
        and len(pieces) == 1
        and _close(pieces[0][0], 10.0, 15.0)
        and len(kept) == 1
        and _close(kept[0].param_domain[0], 0.475, 1.0)
    )
    _report(
        2,
        ok,
        f"negation contracts to ({x[0]}, {y[0]}), inner closure {pieces[0][0]}",
    )


def test_criterion_3_bisection_pipeline():
    qc = _mono_qc()
    halves = parameter_domain_bisection([qc], epsilon=1e-3)
    ok = [h.param_domain[0] for h in halves] == [
        Interval(0.0, 0.5),
        Interval(0.5, 1.0),
    ]

    pruned = global_pruning(halves, Box.from_bounds([(0.0, 15.0)]))
    ok = ok and _close(pruned[0], 6.9375, 15.0)

    kept, remainder, pieces = solution_identification(halves, pruned)
    ok = (
        ok
        and len(kept) == 1
        and _close(kept[0].param_domain[0], 0.71875, 1.0)
        and _close(remainder[0], 6.9375, 9.75)
        and len(pieces) == 1
        and _close(pieces[0][0], 9.75, 15.0)
    )
    _report(
        3,
        ok,
        f"split+prune gives {pruned[0]}, hull {remainder[0]}, "
        f"inner {pieces[0][0]}, domain {kept[0].param_domain[0]}",
    )


def test_criterion_4_instantiation_and_exact_solve():
    problem = monotone_problem()
    d = derivative_interval(
        problem.constraints[0],
        VarRef(VarKind.PARAMETER, 0),
        problem.variable_box,
        problem.parameter_box,
    )
    ok = _close(d, 8.0, 10.0)

    paving = solve(problem, SolverConfig(epsilon=1e-6, mode="2b+"))
    ok = (
        ok
        and paving.inner == [Box.from_bounds([(9.0, 15.0)])]
        and paving.boundary == []
        and paving.stats.nodes_processed <= 3
        and paving.stats.stop_reason == "complete"
    )
    _report(
        4,
        ok,
        f"df/dy = {d}; 2b+ at eps=1e-6 gives inner {paving.inner[0][0]}, "
        f"no boundary, {paving.stats.nodes_processed} node(s)",
    )


def test_criterion_5_instantiation_beats_full_domain_contraction():
    qc = _mono_qc()
    x0 = Box.from_bounds([(0.0, 15.0)])
    # existential reading: contract f <= 0 with y kept at its full domain
    full_x, full_y = hc4_revise(qc, x0)
    no_contraction = full_x == x0 and full_y == qc.param_domain

    mid_x, _ = hc4_revise(QuantifiedConstraint(qc.f, Box.point([0.5])), x0)
    ok = no_contraction and _close(mid_x[0], 4.75, 15.0)
    _report(
        5,
        ok,
        f"full-domain pass keeps {full_x[0]}, midpoint instantiation "
        f"prunes to {mid_x[0]}",
    )


# ---------------------------------------------------------------------------
# criterion 6: randomized problems against grid oracles

_SEED = 20260825
_PTS = 201  # grid resolution per axis, everywhere
_SHAPES = [(1, 1)] * 8 + [(2, 1)] * 5 + [(1, 2)] * 5 + [(2, 2)] * 4


def _random_tree(rng, n_vars, n_params, depth):
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.4:
            return VarRef(VarKind.VARIABLE, int(rng.integers(n_vars)))
        if r < 0.8:
            return VarRef(VarKind.PARAMETER, int(rng.integers(n_params)))
        return Const(round(float(rng.uniform(-3.0, 3.0)), 3))
    pick = rng.random()
    if pick < 0.65:
        op = ("add", "sub", "mul")[int(rng.integers(3))]
        return Binary(
            op,
            _random_tree(rng, n_vars, n_params, depth - 1),
            _random_tree(rng, n_vars, n_params, depth - 1),
        )
    if pick < 0.85:
        return Pow(_random_tree(rng, n_vars, n_params, depth - 1), int(rng.integers(2, 4)))
    return Unary("neg", _random_tree(rng, n_vars, n_params, depth - 1))


def _mentions(e, kind) -> bool:
    if isinstance(e, VarRef):
        return e.kind is kind
    if isinstance(e, Binary):
        return _mentions(e.left, kind) or _mentions(e.right, kind)
    if isinstance(e, Unary):
        return _mentions(e.child, kind)
    if isinstance(e, Pow):
        return _mentions(e.base, kind)
    return False


def _random_problem(rng, n_vars, n_params, index):
    var_box = Box.from_bounds(
        [
            (lo, lo + w)
            for lo, w in (
                (float(rng.uniform(-3.0, 0.0)), float(rng.uniform(0.5, 3.0)))
                for _ in range(n_vars)
            )
        ]
    )
    param_box = Box.from_bounds(
        [
            (lo, lo + w)
            for lo, w in (
                (float(rng.uniform(-2.0, 0.0)), float(rng.uniform(0.5, 2.0)))
                for _ in range(n_params)
            )
        ]
    )
    x_cols = oracle.grid_columns(var_box, 41)
    constraints = []
    quantiles = (0.5, 0.3)
    for k in range(int(rng.integers(1, 3))):
        for _ in range(50):
            f = _random_tree(rng, n_vars, n_params, 3)
            if not _mentions(f, VarKind.VARIABLE):
                continue
            m = oracle.margins([(f, param_box)], x_cols, pts=41)
            if not np.all(np.isfinite(m)) or np.max(np.abs(m)) > 1e8:
                continue
            if np.ptp(m) < 1e-6:
                continue
            # shift so part of the box solves the constraint and part does not
            c = float(np.quantile(m, quantiles[k]))
            constraints.append(Binary("sub", f, Const(c)))
            break
        else:
            constraints.append(
                Binary("sub", VarRef(VarKind.VARIABLE, 0), Const(_midpoint(var_box[0].lo, var_box[0].hi)))
            )
    return Problem(
        tuple(f"x{i + 1}" for i in range(n_vars)),
        var_box,
        tuple(f"y{j + 1}" for j in range(n_params)),
        param_box,
        tuple(constraints),
        name=f"random{index}",
    )


def _sample_box_points(box, rng, per_box):
    cols = [oracle.grid_columns(box, 2)]  # corners
    cols.append(np.array([[_midpoint(iv.lo, iv.hi)] for iv in box.dims]))
    if per_box:
        cols.append(
            np.stack(
                [rng.uniform(iv.lo, iv.hi, size=per_box) for iv in box.dims]
            )
        )
    return np.concatenate(cols, axis=1)


def _sign_changes(m_old, m_new, band=1e-7) -> int:
    """Count points whose sign differs between two stores' margins."""
    usable = (np.abs(m_old) > band) & (np.abs(m_new) > band)
    return int(np.sum(((m_old > 0) != (m_new > 0)) & usable))


def _certified_failures(pairs, cols, n_params) -> int:
    """Count points still reported satisfying by much finer grids.

    The base grid under-reports a margin whose maximum sits between two
    parameter samples by O(h^2), so a point flagged against the solver
    counts only if refined grids keep certifying it as satisfying.
    """
    scales = (4001, 80001) if n_params == 1 else (1001, 2001)
    count = 0
    for k in range(cols.shape[1]):
        col = cols[:, k : k + 1]
        if all(oracle.margins(pairs, col, pts=pts)[0] < -1e-9 for pts in scales):
            count += 1
    return count


def test_criterion_6_randomized_grid_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(_SEED)
    inner_fail = cover_fail = equiv_fail = contract_fail = 0

    for index, (n_vars, n_params) in enumerate(_SHAPES):
        problem = _random_problem(rng, n_vars, n_params, index)
        pairs = [(f, problem.parameter_box) for f in problem.constraints]
        eps = max(iv.width for iv in problem.variable_box.dims) / (
            16 if n_vars == 1 else 8
        )
        mode = "2b" if index % 5 == 4 else "2b+"
        paving = solve(problem, SolverConfig(epsilon=eps, mode=mode, max_nodes=4000))

        # 6a. inner soundness: sampled points of inner boxes solve the store;
        # the samples of all boxes are checked in one call, its (points x
        # parameters) temporaries capped as violated_mask caps its own
        if paving.inner:
            samples = np.concatenate(
                [_sample_box_points(box, rng, per_box=3) for box in paving.inner[:200]], axis=1
            )
            m = oracle.margins(pairs, samples, pts=_PTS, chunk=max(1, oracle._TEMP_ELEMS // samples.shape[1]))
            inner_fail += int(np.sum(m > 1e-9))

        # 6b. covering: uncovered grid points must violate some constraint
        x_cols = oracle.grid_columns(problem.variable_box, _PTS)
        covered = oracle.covered_mask(paving.inner + paving.boundary, x_cols)
        uncovered = x_cols[:, ~covered]
        if uncovered.size:
            violated, worst = oracle.violated_mask(pairs, uncovered, pts=_PTS, rng=rng)
            flagged = uncovered[:, ~violated & (worst < -1e-9)]
            cover_fail += _certified_failures(pairs, flagged, n_params)

        # 6c. store transformations keep the solution set
        root_store = [QuantifiedConstraint(f, problem.parameter_box) for f in problem.constraints]
        y_full = oracle.grid_columns(problem.parameter_box, _PTS)
        if n_vars == 1:
            eq_cols = oracle.grid_columns(problem.variable_box, _PTS)
        else:
            full = oracle.grid_columns(problem.variable_box, _PTS)
            eq_cols = full[:, rng.choice(full.shape[1], size=400, replace=False)]

        inst = parameter_instantiation(root_store, problem.variable_box)
        split = parameter_domain_bisection(root_store, epsilon=1e-6)
        kept, remainder, _ = solution_identification(root_store, problem.variable_box)
        # a dropped constraint holds on the whole box
        kept_fs = {k.f for k in kept}
        dropped_pairs = [(qc.f, qc.param_domain) for qc in root_store if qc.f not in kept_fs]
        m_root, m_inst, m_split, m_dropped = oracle.store_margins(
            [pairs, oracle.store_pairs(inst), oracle.store_pairs(split), dropped_pairs],
            eq_cols,
            y_full,
        )
        equiv_fail += _sign_changes(m_root, m_inst) + _sign_changes(m_root, m_split)
        equiv_fail += int(np.sum(m_dropped > 1e-7))
        if not remainder.is_empty and kept:
            r_cols = oracle.grid_columns(remainder, _PTS if n_vars == 1 else 21)
            equiv_fail += _sign_changes(
                *oracle.store_margins(
                    [[(qc.f, problem.parameter_box) for qc in kept], oracle.store_pairs(kept)],
                    r_cols,
                    y_full,
                )
            )

        # 6d. pruning never discards a strict solution of a sub-box
        for _ in range(3):
            sub = Box.from_bounds(
                [
                    (lo := float(rng.uniform(iv.lo, _midpoint(iv.lo, iv.hi))), float(rng.uniform(lo, iv.hi)))
                    for iv in problem.variable_box.dims
                ]
            )
            sub_cols = oracle.grid_columns(sub, _PTS)
            if sub_cols.shape[1] > 400:
                sel = rng.choice(sub_cols.shape[1], size=400, replace=False)
                sub_cols = sub_cols[:, sel]
            m = oracle.margins(pairs, sub_cols, pts=_PTS)
            pts = sub_cols[:, m <= -1e-9]
            if not pts.shape[1]:
                continue
            pruned = global_pruning(root_store, sub)
            if pruned.is_empty:
                contract_fail += _certified_failures(pairs, pts, n_params)
                continue
            inside = np.ones(pts.shape[1], dtype=bool)
            for i, iv in enumerate(pruned.dims):
                inside &= (pts[i] >= iv.lo) & (pts[i] <= iv.hi)
            contract_fail += _certified_failures(pairs, pts[:, ~inside], n_params)

    elapsed = time.perf_counter() - t0
    ok = (
        inner_fail == 0
        and cover_fail == 0
        and equiv_fail == 0
        and contract_fail == 0
        and elapsed < 60.0
    )
    _report(
        6,
        ok,
        f"{len(_SHAPES)} randomized problems: inner={inner_fail} "
        f"covering={cover_fail} store-equivalence={equiv_fail} "
        f"contractor={contract_fail} failures in {elapsed:.1f} s",
    )


def _stable_report(path: Path, cfg: SolverConfig) -> list[str]:
    problem = parse_problem(path.read_text(), name=path.stem)
    paving = solve(problem, cfg)
    lines = format_report(problem, cfg, paving).splitlines()
    return [l for l in lines if not l.startswith("# elapsed:")]


def test_criterion_7_determinism():
    runs = []
    for name, cfg in [
        ("ex1.qcsp", SolverConfig(epsilon=0.01, mode="2b")),
        ("disc2d.qcsp", SolverConfig(epsilon=0.1)),
        ("ring2d.qcsp", SolverConfig(epsilon=0.2)),
    ]:
        path = ROOT / "problems" / name
        first = _stable_report(path, cfg)
        second = _stable_report(path, cfg)
        runs.append((name, first == second, len(first)))
    ok = all(same for _, same, _ in runs)
    detail = ", ".join(f"{name} x2 -> {lines} identical lines" for name, _, lines in runs)
    _report(7, ok, detail)


def test_criterion_8_ratio_monotone_and_complete():
    ratios: list[float] = []
    disc = parse_problem((ROOT / "problems" / "disc2d.qcsp").read_text(), name="disc2d")
    solve(
        disc,
        SolverConfig(epsilon=0.05),
        progress=lambda p: ratios.append(classified_ratio(p)),
    )
    sampled = ratios[::100]
    monotone = all(a <= b for a, b in zip(ratios, ratios[1:]))
    monotone = monotone and all(a <= b for a, b in zip(sampled, sampled[1:]))

    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, mode="2b+"))
    drained = (
        paving.boundary == []
        and paving.stats.stop_reason == "complete"
        and classified_ratio(paving) == 1.0
    )
    ok = monotone and drained
    _report(
        8,
        ok,
        f"{len(ratios)} per-node ratios non-decreasing "
        f"({len(sampled)} sampled every 100); drained 2b+ run ends at ratio 1.0",
    )
