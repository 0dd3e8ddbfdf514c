"""Brute-force numeric oracles, independent of the interval machinery.

Classifications are made by dense floating-point sampling with numpy.
A point "solves" a store when every constraint stays <= 0 over a dense
grid of its parameter domain; NaN (domain error) counts as a violation.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from qine.expr import Binary, Const, Pow, Unary, VarKind, VarRef
from qine.interval import Box


def eval_grid(e, xs, ys):
    """Evaluate an expression over broadcastable coordinate arrays."""
    if isinstance(e, Const):
        return np.float64(e.value)
    if isinstance(e, VarRef):
        seq = xs if e.kind is VarKind.VARIABLE else ys
        return seq[e.index]
    with np.errstate(all="ignore"):
        if isinstance(e, Binary):
            l = eval_grid(e.left, xs, ys)
            r = eval_grid(e.right, xs, ys)
            if e.op == "add":
                return l + r
            if e.op == "sub":
                return l - r
            if e.op == "mul":
                return l * r
            return l / r
        if isinstance(e, Unary):
            v = eval_grid(e.child, xs, ys)
            if e.op == "neg":
                return -v
            return getattr(np, e.op)(v)
        if isinstance(e, Pow):
            return np.power(eval_grid(e.base, xs, ys), e.exponent)
    raise TypeError(f"not an expression node: {e!r}")


def axis_points(iv, pts: int) -> np.ndarray:
    if iv.lo == iv.hi:
        return np.array([iv.lo])
    return np.linspace(iv.lo, iv.hi, pts)


def grid_columns(box: Box, pts: int) -> np.ndarray:
    """All grid points of a box as an (ndim, count) array."""
    axes = [axis_points(iv, pts) for iv in box.dims]
    if not axes:
        return np.empty((0, 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh])


def margins(constraints, x_cols: np.ndarray, pts: int = 201, chunk: int = 8192) -> np.ndarray:
    """Worst constraint value per x point: max_i max_y f_i(x, y).

    ``constraints`` is a sequence of (expression, parameter Box) pairs;
    x_cols has shape (n, count).  A point solves the store iff its
    margin is <= 0.
    """
    count = x_cols.shape[1]
    worst = np.full(count, -np.inf)
    xs = [x_cols[i][:, None] for i in range(x_cols.shape[0])]
    for f, dom in constraints:
        y_cols = grid_columns(dom, pts)
        total = y_cols.shape[1]
        for start in range(0, total, chunk):
            ys = [y_cols[j, start : start + chunk][None, :] for j in range(y_cols.shape[0])]
            vals = np.asarray(eval_grid(f, xs, ys), dtype=float)
            vals = np.where(np.isnan(vals), np.inf, vals)
            vals = np.broadcast_to(vals, (count, min(chunk, total - start)))
            worst = np.maximum(worst, vals.max(axis=1))
    return worst


# Cap on the elements of one (points x parameters) temporary in
# violated_mask; larger ones spend their time in page faults.
_TEMP_ELEMS = 2**20


def violated_mask(
    constraints,
    x_cols: np.ndarray,
    pts: int = 201,
    chunk: int = 4096,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """True where some constraint exceeds 0 at some parameter grid point.

    Equivalent to ``margins(...) > 0`` but sweeps the parameter grid in
    chunks (optionally shuffled) and drops a point as soon as it is
    disproved, which keeps dense two-parameter grids affordable.  A chunk
    holds at most ``chunk`` parameter points and is cut further so that
    its (alive x chunk) temporaries stay near ``_TEMP_ELEMS`` elements;
    the answer does not depend on how the grid is cut.
    """
    count = x_cols.shape[1]
    out = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    for f, dom in constraints:
        if alive.size == 0:
            break
        y_cols = grid_columns(dom, pts)
        total = y_cols.shape[1]
        order = np.arange(total) if rng is None else rng.permutation(total)
        start = 0
        while start < total and alive.size:
            step = max(1, min(chunk, _TEMP_ELEMS // alive.size))
            sel = order[start : start + step]
            start += step
            xs = [x_cols[i][alive][:, None] for i in range(x_cols.shape[0])]
            ys = [y_cols[j, sel][None, :] for j in range(y_cols.shape[0])]
            vals = np.asarray(eval_grid(f, xs, ys), dtype=float)
            vals = np.where(np.isnan(vals), np.inf, vals)
            vals = np.broadcast_to(vals, (alive.size, sel.size))
            bad = np.any(vals > 0.0, axis=1)
            out[alive[bad]] = True
            alive = alive[~bad]
    return out


def covered_mask(boxes, x_cols: np.ndarray) -> np.ndarray:
    """True where a point lies inside at least one of the boxes."""
    count = x_cols.shape[1]
    covered = np.zeros(count, dtype=bool)
    for b in boxes:
        m = np.ones(count, dtype=bool)
        for i, iv in enumerate(b.dims):
            m &= (x_cols[i] >= iv.lo) & (x_cols[i] <= iv.hi)
        covered |= m
    return covered


def store_pairs(store):
    """Adapt a solver store to the (expression, domain) pairs used here."""
    return [(qc.f, qc.param_domain) for qc in store]


def exact_value(e, px, py) -> Fraction:
    """Exact rational value at a point, for division-free expressions."""
    if isinstance(e, Const):
        return Fraction(e.value)
    if isinstance(e, VarRef):
        seq = px if e.kind is VarKind.VARIABLE else py
        return Fraction(seq[e.index])
    if isinstance(e, Binary):
        l = exact_value(e.left, px, py)
        r = exact_value(e.right, px, py)
        if e.op == "add":
            return l + r
        if e.op == "sub":
            return l - r
        if e.op == "mul":
            return l * r
        raise ValueError(f"not exactly evaluable: {e.op}")
    if isinstance(e, Unary):
        if e.op != "neg":
            raise ValueError(f"not exactly evaluable: {e.op}")
        return -exact_value(e.child, px, py)
    if isinstance(e, Pow):
        return exact_value(e.base, px, py) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")
