"""Command line front end and the problem/paving text formats.

Problem files are sequences of statements terminated by semicolons:

    var x in [0,15];
    param y in [0,1];
    constraint 10*y - x - y^2 <= 0;

Inequalities may use <= or >= with a numeric right-hand side; both are
normalized to f <= 0 form.  '#' starts a comment running to end of line.

Pavings are written as text: '#'-prefixed header lines carrying the
problem name, the flags that reproduce the run and the volume totals,
then one record per box, 'inner' or 'boundary' followed by lo/hi pairs
per variable.  Everything except the elapsed-time line is deterministic
for a given problem and flags.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from pathlib import Path
from typing import Sequence

from .interval import _NUMBER, Box, Interval
from .expr import FUNCTIONS, Binary, Expression, ParseError, VarKind, VarRef, _literal, parse_expression
from .solver import Paving, Problem, SolverConfig, _check_domain, classified_ratio, solve

__all__ = [
    "ProblemError",
    "parse_problem",
    "format_report",
    "parse_report",
    "emit_svg",
    "run",
    "main",
]

_NUMBER_RE = re.compile(rf"[+-]?{_NUMBER}\Z")
_DECL_RE = re.compile(
    r"\s*(var|param)\s+([A-Za-z_][A-Za-z_0-9]*)\s+in\s+(\S.*?)\s*\Z", re.S
)
_CONSTRAINT_RE = re.compile(r"(\s*constraint\s)(.*)\Z", re.S)
_RELOP_RE = re.compile(r"<=|>=")


class ProblemError(ValueError):
    """Problem file error with the character offset where it occurred."""

    def __init__(self, message: str, position: int, text: str = ""):
        line = text.count("\n", 0, position) + 1 if text else None
        suffix = f" (line {line}, offset {position})" if line else f" (offset {position})"
        super().__init__(message + suffix)
        self.message = message
        self.position = position


def _strip_comments(text: str) -> str:
    # replaced by spaces so offsets keep pointing into the original text
    return re.sub(r"#[^\n]*", lambda m: " " * len(m.group()), text)


def parse_problem(text: str, name: str = "problem") -> Problem:
    """Parse a problem file into a Problem.

    Declarations may appear in any order relative to constraints; a
    constraint may reference any declared name.  Raises ProblemError
    with a position on syntax errors, duplicate or unknown names, empty
    or unbounded domains, and missing variables or constraints.
    """
    stripped = _strip_comments(text)
    statements: list[tuple[int, str]] = []
    start = 0
    while True:
        cut = stripped.find(";", start)
        if cut < 0:
            if stripped[start:].strip():
                raise ProblemError("missing ';' after statement", start, text)
            break
        statements.append((start, stripped[start:cut]))
        start = cut + 1

    var_names: list[str] = []
    var_domains: list[Interval] = []
    param_names: list[str] = []
    param_domains: list[Interval] = []
    pending: list[tuple[int, str]] = []
    seen: set[str] = set()

    for offset, stmt in statements:
        if not stmt.strip():
            raise ProblemError("empty statement", offset, text)
        m = _DECL_RE.match(stmt)
        if m:
            kind, ident, literal = m.groups()
            if ident in seen:
                raise ProblemError(f"duplicate name {ident!r}", offset + m.start(2), text)
            if ident in FUNCTIONS:
                raise ProblemError(f"{ident!r} is a function name", offset + m.start(2), text)
            seen.add(ident)
            try:
                domain = Interval.parse(literal)
                _check_domain(ident, domain, kind == "var")  # as Problem does, at the declaration
            except ValueError as exc:
                raise ProblemError(str(exc), offset + m.start(3), text) from exc
            if kind == "var":
                var_names.append(ident)
                var_domains.append(domain)
            else:
                param_names.append(ident)
                param_domains.append(domain)
            continue
        m = _CONSTRAINT_RE.match(stmt)
        if m:
            pending.append((offset + m.end(1), m.group(2)))
            continue
        at = offset + len(stmt) - len(stmt.lstrip())
        raise ProblemError("expected var, param or constraint", at, text)

    symbols = {
        name_: VarRef(VarKind.VARIABLE, i) for i, name_ in enumerate(var_names)
    }
    symbols.update(
        {name_: VarRef(VarKind.PARAMETER, j) for j, name_ in enumerate(param_names)}
    )

    constraints: list[Expression] = []
    for offset, body in pending:
        rel = _RELOP_RE.search(body)
        if rel is None:
            raise ProblemError("expected '<=' or '>='", offset + len(body), text)
        lhs_text = body[: rel.start()]
        rhs_text = body[rel.end() :].strip()
        if not _NUMBER_RE.match(rhs_text):
            raise ProblemError(
                "right-hand side must be a number", offset + rel.end(), text
            )
        try:
            f = parse_expression(lhs_text, symbols)
        except ParseError as exc:
            raise ProblemError(exc.message, offset + exc.position, text) from exc
        try:
            bound = _literal(rhs_text)
        except OverflowError as exc:
            at = offset + body.index(rhs_text, rel.end())
            raise ProblemError(str(exc), at, text) from None
        if rel.group() == "<=":
            exact_zero = bound.value == 0.0 and bound.enclosure is None
            normalized = f if exact_zero else Binary("sub", f, bound)
        else:
            normalized = Binary("sub", bound, f)
        constraints.append(normalized)

    try:
        return Problem(
            tuple(var_names),
            Box(tuple(var_domains)),
            tuple(param_names),
            Box(tuple(param_domains)),
            tuple(constraints),
            name=name,
        )
    except ValueError as exc:
        raise ProblemError(str(exc), 0, text) from exc


# ---------------------------------------------------------------------------
# Paving text format.


def _flags_text(cfg: SolverConfig) -> str:
    parts = [
        f"--mode {cfg.mode}",
        f"--eps {cfg.epsilon!r}",
        f"--param-bisect {'on' if cfg.param_bisect else 'off'}",
    ]
    if cfg.stop_ratio is not None:
        parts.append(f"--ratio {cfg.stop_ratio!r}")
    if cfg.max_nodes is not None:
        parts.append(f"--max-nodes {cfg.max_nodes}")
    if cfg.time_limit is not None:
        parts.append(f"--time-limit {cfg.time_limit!r}")
    return " ".join(parts)


def format_report(problem: Problem, cfg: SolverConfig, paving: Paving) -> str:
    """Render a paving as deterministic text; timing sits on its own line."""
    s = paving.stats
    lines = [
        f"# problem: {problem.name}",
        f"# vars: {' '.join(problem.variable_names)}",
        f"# params: {' '.join(problem.parameter_names)}" if problem.parameter_names else "# params:",
        f"# flags: {_flags_text(cfg)}",
        f"# nodes: {s.nodes_processed}",
        f"# stop: {s.stop_reason}",
        f"# ratio: {classified_ratio(paving)!r}",
        f"# volume: initial={s.volume_initial!r} inner={s.volume_inner!r} boundary={s.volume_boundary!r}",
        f"# elapsed: {s.elapsed:.3f} s",
    ]
    for label, boxes in (("inner", paving.inner), ("boundary", paving.boundary)):
        for box in boxes:
            bounds = " ".join(f"{iv.lo!r} {iv.hi!r}" for iv in box.dims)
            lines.append(f"{label} {bounds}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> tuple[dict[str, str], list[Box], list[Box]]:
    """Parse report text back into header fields and inner/boundary boxes.

    Every record must have one bound pair per name of the ``# vars:``
    header, or, without one, as many as the first record; anything else
    raises ValueError.
    """
    meta: dict[str, str] = {}
    inner: list[Box] = []
    boundary: list[Box] = []
    width = 0  # bounds per record
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
            continue
        fields = line.split()
        label, bounds = fields[0], [float(v) for v in fields[1:]]
        width = width or (2 * len(meta["vars"].split()) if "vars" in meta else len(bounds))
        if label not in ("inner", "boundary") or not bounds or len(bounds) % 2 or len(bounds) != width:
            raise ValueError(f"malformed record: {line!r}")
        box = Box.from_bounds(list(zip(bounds[0::2], bounds[1::2])))
        (inner if label == "inner" else boundary).append(box)
    return meta, inner, boundary


# ---------------------------------------------------------------------------
# SVG projection.


def _check_axes(box: Box, var_i: int, var_j: int) -> None:
    n = len(box)
    if n < 2:
        raise ValueError("SVG projection needs at least two variables")
    if var_i == var_j or not (0 <= var_i < n and 0 <= var_j < n):
        raise ValueError(f"bad axes ({var_i}, {var_j}) for {n} variables")
    for k in (var_i, var_j):
        if not math.isfinite(box.dims[k].width):
            raise ValueError(f"the span of axis {k} is past the largest double")


def emit_svg(
    paving: Paving, var_i: int = 0, var_j: int = 1, path: str | Path | None = None
) -> str:
    """Project a paving onto two variable axes as an SVG drawing.

    One rect per record, inner boxes light gray and boundary boxes dark
    gray, no background rect.  The viewBox is the initial domain of the
    chosen axes (the j axis is flipped so larger values point up); the
    height keeps the aspect ratio within 1..64,000 pixels.  Raises
    ValueError for fewer than two variables, for equal or out-of-range
    axes, and for an axis whose span is past the largest double.
    """
    init = paving.initial_box
    _check_axes(init, var_i, var_j)
    dom_x = init.dims[var_i]
    dom_y = init.dims[var_j]
    span_x = dom_x.width
    span_y = dom_y.width
    px_w = 640
    px_h = round(min(max(px_w * span_y / span_x, 1.0), 64000.0)) if span_x > 0 else px_w
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{px_w}" height="{px_h}" '
        f'viewBox="{dom_x.lo!r} {dom_y.lo!r} {span_x!r} {span_y!r}">',
    ]
    flip = dom_y.lo + dom_y.hi
    for fill, boxes in (("#d3d3d3", paving.inner), ("#696969", paving.boundary)):
        for box in boxes:
            bx = box.dims[var_i]
            by = box.dims[var_j]
            parts.append(
                f'<rect x="{bx.lo!r}" y="{flip - by.hi!r}" '
                f'width="{bx.width!r}" height="{by.width!r}" fill="{fill}"/>'
            )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# Entry point.


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qine", description="Paving solver for quantified inequality systems.")
    sub = parser.add_subparsers(dest="command")
    s = sub.add_parser("solve", help="solve a problem file and write the paving")
    s.add_argument("file", help="problem file")
    s.add_argument("--mode", choices=["2b", "2b+"], default="2b+")
    s.add_argument("--eps", type=float, default=1e-3, help="width cutoff for boundary boxes")
    s.add_argument("--ratio", type=float, default=None, help="stop once this classified fraction is reached")
    s.add_argument("--param-bisect", choices=["on", "off"], default="on", dest="param_bisect")
    s.add_argument("--max-nodes", type=int, default=None)
    s.add_argument("--time-limit", type=float, default=None, help="seconds")
    s.add_argument("--out", default=None, help="paving output path (default stdout)")
    s.add_argument("--svg", default=None, help="also write an SVG projection here")
    s.add_argument("--axes", default="0,1", help="variable axes for the SVG, as i,j")
    s.add_argument("--stats", action="store_true", help="print run statistics to stderr")
    return parser


def _parse_axes(text: str) -> tuple[int, int]:
    try:
        i_text, j_text = text.split(",")
        return int(i_text), int(j_text)
    except ValueError as exc:
        raise _CliError(f"bad --axes value {text!r}, expected i,j") from exc


def run(argv: Sequence[str] | None = None) -> int:
    """Returns 0 on success, 1 on usage or input errors, 2 on limit stops."""
    try:
        args = _build_parser().parse_args(argv)
        if args.command != "solve":
            raise _CliError("a subcommand is required (try 'solve')")
        try:
            text = Path(args.file).read_text()
        except (OSError, UnicodeDecodeError) as exc:  # the latter has no strerror
            raise _CliError(f"cannot read {args.file}: {getattr(exc, 'strerror', None) or exc}") from exc
        try:
            problem = parse_problem(text, name=Path(args.file).stem)
        except ProblemError as exc:
            raise _CliError(f"{args.file}: {exc}") from exc
        try:
            cfg = SolverConfig(
                epsilon=args.eps,
                stop_ratio=args.ratio,
                mode=args.mode,
                param_bisect=args.param_bisect == "on",
                max_nodes=args.max_nodes,
                time_limit=args.time_limit,
            )
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        axes = _parse_axes(args.axes)
        if args.svg is not None:
            try:
                _check_axes(problem.variable_box, *axes)
            except ValueError as exc:
                raise _CliError(f"--axes {args.axes}: {exc}") from exc
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    paving = solve(problem, cfg)
    report = format_report(problem, cfg, paving)
    if args.out is None:
        try:
            sys.stdout.write(report)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left; keep the exit flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    path = args.out
    try:
        if path is not None:
            Path(path).write_text(report)
        if args.svg is not None:
            path = args.svg
            emit_svg(paving, axes[0], axes[1], path)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    if args.stats:
        s = paving.stats
        print(
            f"nodes={s.nodes_processed} stop={s.stop_reason} "
            f"ratio={classified_ratio(paving):.6f} inner={s.volume_inner:.6g} "
            f"boundary={s.volume_boundary:.6g} elapsed={s.elapsed:.3f}s",
            file=sys.stderr,
        )
    return 2 if paving.stats.stop_reason in ("nodes", "time") else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
