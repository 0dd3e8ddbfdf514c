"""Correctness check of a paving, independent of qine.

Reads the problem text and the report text with its own parsers and
evaluates constraints with numpy floats, so a defect in qine's interval
code, parser or report writer cannot hide itself.  Three checks:

- inner soundness: seeded points inside inner boxes satisfy every
  constraint at every point of a parameter grid;
- rejection soundness: seeded points outside the paving do not satisfy
  every constraint at every grid point with room to spare;
- ledger closure: inner + boundary + rejected volume = initial volume,
  in exact rationals, matching the solver's own ledger, with the
  rejected share confirmed by the same seeded points.

Grid evaluation can only under-report a constraint's maximum over the
parameter domain, which makes the inner check conservative.  For the
rejection check the benchmark's workloads reach their maximum at a grid
point (endpoint or monotone in each parameter).
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

MARGIN = 1e-9
PARAM_GRID = {0: 1, 1: 201, 2: 41}
INNER_BOXES = 1000
OUTSIDE_POINTS = 20000
CHUNK = 256

_DECL = re.compile(r"\s*(var|param)\s+(\w+)\s+in\s+\[([^,\]]+),([^\]]+)\]\s*\Z")
_CONSTRAINT = re.compile(r"\s*constraint\s+(.*?)\s*(<=|>=)\s*(\S+)\s*\Z", re.S)
_FUNCS = {"sqrt": np.sqrt, "exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}
_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load, ast.Constant,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
)


@dataclass
class Spec:
    variables: list[tuple[str, float, float]] = field(default_factory=list)
    parameters: list[tuple[str, float, float]] = field(default_factory=list)
    constraints: list[object] = field(default_factory=list)  # compiled g with g <= 0


def parse_problem_text(text: str) -> Spec:
    spec = Spec()
    body = re.sub(r"#[^\n]*", "", text)
    for stmt in filter(str.strip, body.split(";")):
        m = _DECL.match(stmt)
        if m:
            kind, name, lo, hi = m.groups()
            (spec.variables if kind == "var" else spec.parameters).append((name, float(lo), float(hi)))
            continue
        m = _CONSTRAINT.match(stmt)
        if m is None:
            raise ValueError(f"cannot read statement {stmt.strip()!r}")
        lhs, rel, rhs = m.groups()
        src = f"({lhs}) - ({rhs})" if rel == "<=" else f"({rhs}) - ({lhs})"
        tree = ast.parse(src.replace("^", "**"), mode="eval")
        for node in ast.walk(tree):
            if not isinstance(node, _NODES):
                raise ValueError(f"unsupported syntax in {lhs!r}")
        spec.constraints.append(compile(tree, "<constraint>", "eval"))
    return spec


@dataclass
class Report:
    header: dict[str, str]
    inner: np.ndarray  # (count, dims, 2)
    boundary: np.ndarray
    inner_rows: list[list[float]]
    boundary_rows: list[list[float]]


def parse_report_text(text: str, dims: int) -> Report:
    header: dict[str, str] = {}
    rows: dict[str, list[list[float]]] = {"inner": [], "boundary": []}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        label, *bounds = line.split()
        if label not in rows or len(bounds) != 2 * dims:
            raise ValueError(f"malformed record {line[:80]!r}")
        rows[label].append([float(v) for v in bounds])

    def arr(r):
        return np.array(r, dtype=float).reshape(len(r), dims, 2)

    return Report(header, arr(rows["inner"]), arr(rows["boundary"]), rows["inner"], rows["boundary"])


# Every finite double is an integer multiple of 2**-1074, so bounds scaled
# by 2**1074 are exact Python integers and volumes are exact sums of them.
_SCALE_BITS = 1074


def _scaled(v: float) -> int:
    n, d = v.as_integer_ratio()
    return n << (_SCALE_BITS - d.bit_length() + 1)


def exact_volume(rows: list[list[float]]) -> Fraction:
    """Total volume of report records (lo, hi pairs per axis) as an exact rational."""
    total = 0
    for r in rows:
        v = 1
        for lo, hi in zip(r[0::2], r[1::2]):
            v *= _scaled(hi) - _scaled(lo)
        total += v
    dims = len(rows[0]) // 2 if rows else 0
    return Fraction(total, 1 << (_SCALE_BITS * dims))


def worst_value(spec: Spec, points: np.ndarray) -> np.ndarray:
    """max over constraints and the parameter grid of g(x, y); NaN counts as +inf."""
    pts = PARAM_GRID.get(len(spec.parameters), 11)
    axes = [np.linspace(lo, hi, pts) if lo < hi else np.array([lo]) for _, lo, hi in spec.parameters]
    grid = [m.ravel()[None, :] for m in np.meshgrid(*axes, indexing="ij")] if axes else []
    env: dict[str, object] = dict(_FUNCS)
    for j, (name, _, _) in enumerate(spec.parameters):
        env[name] = grid[j]
    worst = np.full(points.shape[0], -np.inf)
    for start in range(0, points.shape[0], CHUNK):
        chunk = points[start : start + CHUNK]
        for i, (name, _, _) in enumerate(spec.variables):
            env[name] = chunk[:, i][:, None]
        with np.errstate(all="ignore"):
            for g in spec.constraints:
                vals = np.asarray(eval(g, {"__builtins__": {}}, env), dtype=float)
                vals = np.where(np.isnan(vals), np.inf, vals)
                vals = np.broadcast_to(vals, (len(chunk), vals.shape[-1] if vals.ndim else 1))
                worst[start : start + CHUNK] = np.maximum(worst[start : start + CHUNK], vals.max(axis=1))
    return worst


def _count_containing(boxes: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, how many closed boxes and how many open boxes hold it.

    Candidate (box, point) pairs come from the points sorted on the first
    axis, so the cost follows the number of pairs that share that axis.
    """
    if not len(boxes):
        return np.zeros(len(points), dtype=np.int64), np.zeros(len(points), dtype=np.int64)
    order = np.argsort(points[:, 0], kind="stable")
    first = points[order, 0]
    start = np.searchsorted(first, boxes[:, 0, 0], side="left")
    stop = np.searchsorted(first, boxes[:, 0, 1], side="right")
    counts = stop - start
    box = np.repeat(np.arange(len(boxes)), counts)
    offset = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    pt = order[np.repeat(start, counts) + offset]
    p, lo, hi = points[pt], boxes[box, :, 0], boxes[box, :, 1]
    in_closed = np.all((lo <= p) & (p <= hi), axis=1)
    in_open = np.all((lo < p) & (p < hi), axis=1)
    return (
        np.bincount(pt[in_closed], minlength=len(points)),
        np.bincount(pt[in_open], minlength=len(points)),
    )


def check(problem_text: str, report_text: str, ledger: dict[str, str], rng: np.random.Generator) -> tuple[list[str], dict]:
    """Return (failures, facts) for one paving; an empty failure list means correct."""
    spec = parse_problem_text(problem_text)
    dims = len(spec.variables)
    rep = parse_report_text(report_text, dims)
    boxes = np.concatenate([rep.inner, rep.boundary])
    init_lo = np.array([lo for _, lo, _ in spec.variables])
    init_hi = np.array([hi for _, _, hi in spec.variables])
    failures: list[str] = []

    if len(boxes) and not (
        np.all(boxes[:, :, 0] <= boxes[:, :, 1])
        and np.all(boxes[:, :, 0] >= init_lo)
        and np.all(boxes[:, :, 1] <= init_hi)
    ):
        failures.append("a box is inverted or leaves the initial box")

    # inner soundness
    if len(rep.inner):
        pick = rng.choice(len(rep.inner), size=min(INNER_BOXES, len(rep.inner)), replace=False)
        chosen = rep.inner[pick]
        pts = chosen[:, :, 0] + rng.random(chosen.shape[:2]) * (chosen[:, :, 1] - chosen[:, :, 0])
        bad = int(np.sum(worst_value(spec, pts) > MARGIN))
        if bad:
            failures.append(f"{bad} sampled inner points violate a constraint")

    # rejection soundness, overlap, and the rejected share of the volume
    pts = init_lo + rng.random((OUTSIDE_POINTS, dims)) * (init_hi - init_lo)
    closed, open_ = _count_containing(boxes, pts)
    outside = pts[closed == 0]
    if len(outside):
        bad = int(np.sum(worst_value(spec, outside) < -MARGIN))
        if bad:
            failures.append(f"{bad} sampled points outside the paving satisfy every constraint")
    if np.any(open_ > 1):
        failures.append("two boxes of the paving overlap")

    # ledger closure, in exact rationals
    v_init = Fraction(1)
    for lo, hi in zip(init_lo, init_hi):
        v_init *= Fraction(float(hi)) - Fraction(float(lo))
    v_inner = exact_volume(rep.inner_rows)
    v_boundary = exact_volume(rep.boundary_rows)
    v_rejected = v_init - v_inner - v_boundary
    solver_ledger = {k: Fraction(v) for k, v in ledger.items()}
    if solver_ledger != {"initial": v_init, "inner": v_inner, "boundary": v_boundary, "queued": 0}:
        failures.append("the solver's volume ledger differs from the report's boxes")
    if v_rejected < 0:
        failures.append("inner + boundary volume exceeds the initial volume")
    ratio = float((v_inner + v_rejected) / v_init)
    if rep.header.get("ratio") != repr(ratio):
        failures.append(f"report ratio {rep.header.get('ratio')} differs from the ledger's {ratio!r}")
    share = float(v_rejected / v_init)
    expect = OUTSIDE_POINTS * share
    slack = 6.0 * math.sqrt(OUTSIDE_POINTS * share * (1.0 - share)) + 1.0
    if abs(len(outside) - expect) > slack:
        failures.append(
            f"{len(outside)} of {OUTSIDE_POINTS} points are outside the paving; the ledger predicts {expect:.0f}"
        )

    facts = {
        "inner": len(rep.inner),
        "boundary": len(rep.boundary),
        "nodes": int(rep.header.get("nodes", "0")),
        "stop": rep.header.get("stop", ""),
        "classified_ratio": ratio,
        "inner_volume_frac": float(v_inner / v_init),
    }
    return failures, facts
