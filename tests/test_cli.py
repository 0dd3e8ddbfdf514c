"""Problem files, paving reports, SVG output and the command line."""

from __future__ import annotations

import dataclasses
import math
import os
import re
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qine import cli
from qine.cli import (
    ProblemError,
    emit_svg,
    format_report,
    parse_problem,
    parse_report,
)
from qine.expr import Binary, Const, Pow, VarKind, VarRef, parse_expression
from qine.interval import Box, Interval
from qine.solver import Paving, SolveStats, SolverConfig, solve
from test_expr import preorder

EX1 = """\
# one variable, one parameter
var x in [0, 15];
param y in [0, 1];
constraint 10*y - x - y^2 <= 0;
"""


# ---------------------------------------------------------------------------
# problem files


def test_parse_problem_basic():
    p = parse_problem(EX1, name="ex1")
    assert p.name == "ex1"
    assert p.variable_names == ("x",)
    assert p.parameter_names == ("y",)
    assert p.variable_box[0] == Interval(0.0, 15.0)
    assert p.parameter_box[0] == Interval(0.0, 1.0)
    x = VarRef(VarKind.VARIABLE, 0)
    y = VarRef(VarKind.PARAMETER, 0)
    assert p.constraints == (
        Binary("sub", Binary("sub", Binary("mul", Const(10.0), y), x), Pow(y, 2)),
    )


def test_parse_problem_normalizes_relations():
    p = parse_problem(
        "var u in [-2,2]; var v in [-2,2];"
        "constraint u^2 + v^2 <= 3; constraint u^2 + v^2 >= 1;"
    )
    lhs = p.constraints[0]
    # f <= c becomes f - c <= 0
    assert isinstance(lhs, Binary) and lhs.op == "sub" and lhs.right == Const(3.0)
    rhs = p.constraints[1]
    # f >= c becomes c - f <= 0
    assert isinstance(rhs, Binary) and rhs.op == "sub" and rhs.left == Const(1.0)


def test_parse_problem_zero_bound_keeps_expression():
    p = parse_problem("var x in [0,1]; constraint x <= 0;")
    assert p.constraints[0] == VarRef(VarKind.VARIABLE, 0)


def test_parse_problem_any_statement_order():
    p = parse_problem(
        "constraint 10*y - x - y^2 <= 0;\nparam y in [0,1];\nvar x in [0,15];"
    )
    assert p.variable_names == ("x",) and p.parameter_names == ("y",)


def test_parse_problem_comments_anywhere():
    p = parse_problem("var x in [0,1]; # domain\n# a note\nconstraint x <= 0;")
    assert p.variable_names == ("x",)


def test_parse_problem_outward_decimal_bounds():
    p = parse_problem("var x in [0.1, 0.2]; constraint x <= 1;")
    iv = p.variable_box[0]
    assert Fraction(iv.lo) <= Fraction(1, 10) and Fraction(2, 10) <= Fraction(iv.hi)
    # and not a single float wider than necessary
    assert Fraction(math.nextafter(iv.lo, math.inf)) > Fraction(1, 10)
    assert Fraction(math.nextafter(iv.hi, -math.inf)) < Fraction(2, 10)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("var x in [0,1]", "missing ';'"),
        ("vra x in [0,1];", "expected var, param or constraint"),
        ("var x in [0,1]; param x in [0,1]; constraint x <= 0;", "duplicate name"),
        ("var x in [3,1]; constraint x <= 0;", "inverted interval bounds"),
        ("var x in [0,1e999]; constraint x <= 0;", "unbounded domain"),
        ("var x in [0,1]; constraint x + y <= 0;", "unknown identifier"),
        ("var x in [0,1]; constraint x;", "expected '<=' or '>='"),
        ("var x in [0,1]; constraint x <= y;", "right-hand side must be a number"),
        ("var x in [0,1]; constraint x <= \u0661\u0660;", "right-hand side must be a number"),
        ("param y in [0,1]; constraint y <= 0;", "at least one variable"),
        ("var x in [0,1];", "at least one constraint"),
        ("var x in [zz];", "not an interval literal"),
        ("var x in [0,1]; constraint x ^ 1.5 <= 0;", "exponent"),
        (";", "empty statement"),
    ],
)
def test_parse_problem_errors(text, fragment):
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("kind", ["var", "param"])
@pytest.mark.parametrize("name", ["sin", "sqrt"])
def test_a_function_name_is_not_a_declared_name(kind, name):
    text = f"var x in [0,1];\n{kind} {name} in [0,1];\nconstraint x - 1 <= 0;\n"
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert err.value.message == f"{name!r} is a function name"
    assert err.value.position == text.index(name)
    assert "(line 2" in str(err.value)


def test_parse_problem_error_reports_line():
    text = "var x in [0,1];\nparam y in [0,1];\nconstraint x + z <= 0;\n"
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert "(line 3" in str(err.value)
    assert err.value.position == text.index("z")


# ---------------------------------------------------------------------------
# report format


def solved_ex1(**kwargs):
    problem = parse_problem(EX1, name="ex1")
    cfg = SolverConfig(**kwargs)
    return problem, cfg, solve(problem, cfg)


def test_format_report_round_trips():
    problem, cfg, paving = solved_ex1(epsilon=0.01, mode="2b")
    text = format_report(problem, cfg, paving)
    meta, inner, boundary = parse_report(text)
    assert meta["problem"] == "ex1"
    assert meta["vars"] == "x"
    assert meta["params"] == "y"
    assert meta["nodes"] == str(paving.stats.nodes_processed)
    assert meta["stop"] == "complete"
    assert "--mode 2b" in meta["flags"] and "--eps 0.01" in meta["flags"]
    assert inner == paving.inner
    assert boundary == paving.boundary
    # header volumes agree with the records they summarize
    vol = lambda boxes: sum((b.exact_volume() for b in boxes), Fraction(0))
    m = re.match(r"initial=(\S+) inner=(\S+) boundary=(\S+)", meta["volume"])
    assert float(m.group(1)) == 15.0
    assert float(m.group(2)) == float(vol(inner))
    assert float(m.group(3)) == float(vol(boundary))
    assert float(meta["ratio"]) == float(1 - vol(boundary) / 15)


def test_report_floats_survive_round_trip_exactly():
    problem, cfg, paving = solved_ex1(epsilon=0.01, mode="2b")
    text = format_report(problem, cfg, paving)
    _, inner, boundary = parse_report(text)
    assert [b.dims for b in inner] == [b.dims for b in paving.inner]
    assert [b.dims for b in boundary] == [b.dims for b in paving.boundary]
    # a blank or all-space line between records is skipped, not a malformed record
    lines = text.splitlines(True)
    spaced = "".join(line + ("\n" if k % 2 else " \t\n") for k, line in enumerate(lines))
    assert parse_report(spaced)[1:] == (inner, boundary)


def test_report_elapsed_has_its_own_line():
    problem, cfg, paving = solved_ex1(epsilon=1e-6)
    text = format_report(problem, cfg, paving)
    (elapsed_line,) = [l for l in text.splitlines() if l.startswith("# elapsed:")]
    assert re.fullmatch(r"# elapsed: \d+\.\d{3} s", elapsed_line)


def _format_ref(paving: Paving) -> str:
    """The records as format_report wrote them with one repr call per bound."""
    lines = []
    for label, boxes in (("inner", paving.inner), ("boundary", paving.boundary)):
        for box in boxes:
            bounds = " ".join(f"{iv.lo!r} {iv.hi!r}" for iv in box.dims)
            lines.append(f"{label} {bounds}\n")
    return "".join(lines)


def _records(report: str) -> str:
    return "".join(line for line in report.splitlines(True) if not line.startswith("#"))


PROBLEM_FILES = sorted((Path(__file__).resolve().parents[1] / "problems").glob("*.qcsp"))


@pytest.mark.parametrize("mode", ["2b", "2b+"])
@pytest.mark.parametrize("path", PROBLEM_FILES, ids=[p.stem for p in PROBLEM_FILES])
def test_report_records_match_the_reference_rendering(path, mode):
    # each distinct bound's repr is taken once; the text is the same
    problem = parse_problem(path.read_text(), name=path.stem)
    cfg = SolverConfig(epsilon=0.01, mode=mode)
    paving = solve(problem, cfg)
    assert _records(format_report(problem, cfg, paving)) == _format_ref(paving)


def test_report_keeps_the_sign_of_each_zero_and_infinite_bounds():
    # 0.0 and -0.0 are equal dict keys: a cached "0.0" must not print for
    # -0.0, nor the reverse, in either order of first appearance
    boxes = [
        Box.from_bounds(b)
        for b in (
            [(-0.0, 1.0), (0.0, 2.0)],
            [(0.0, 1.0), (-0.0, -0.0)],
            [(-math.inf, 0.0), (-0.0, math.inf)],
            [(0.0, 0.0), (-math.inf, -0.0)],
            [(1.0, math.inf), (-0.0, 0.0)],
        )
    ]
    problem = parse_problem("var x in [-1, 1]; var z in [-1, 1]; constraint x + z <= 0;", name="zeros")
    paving = Paving(boxes[:3], boxes[3:], SolveStats(exact_initial=Fraction(4)), problem.variable_box)
    records = _records(format_report(problem, SolverConfig(), paving))
    assert records == _format_ref(paving)
    assert records.splitlines()[:2] == ["inner -0.0 1.0 0.0 2.0", "inner 0.0 1.0 -0.0 -0.0"]


# One value for each SolverConfig field, none of them the default.
NON_DEFAULT_CONFIG = {
    "epsilon": 0.01,
    "stop_ratio": 0.5,
    "mode": "2b",
    "param_bisect": False,
    "max_nodes": 7,
    "time_limit": 100.0,
}


def solve_to_text(argv, tmp_path, capsys) -> str:
    out = tmp_path / "report.txt"
    code = cli.run(["solve", *argv, "--out", str(out)])
    assert code in (0, 2), capsys.readouterr().err
    return out.read_text()


def test_every_config_field_is_a_flag_in_the_report(problems_dir, tmp_path, capsys):
    assert set(NON_DEFAULT_CONFIG) == {f.name for f in dataclasses.fields(SolverConfig)}
    ex1 = str(problems_dir / "ex1.qcsp")
    default_flags = cli._flags_text(SolverConfig())
    for name, value in NON_DEFAULT_CONFIG.items():
        flags = cli._flags_text(SolverConfig(**{name: value}))
        assert flags != default_flags, f"{name} is missing from '# flags:'"
        # the CLI reads the printed flags back into the same configuration
        meta, _, _ = parse_report(solve_to_text([ex1, *flags.split()], tmp_path, capsys))
        assert meta["flags"] == flags, name


@pytest.mark.parametrize(
    "fields",
    [
        {},
        NON_DEFAULT_CONFIG,
        {"epsilon": 1, "stop_ratio": 1, "max_nodes": 10**30, "time_limit": 600},
        {"epsilon": Fraction(1, 3), "stop_ratio": Fraction(99, 100), "time_limit": math.inf},
        {"epsilon": np.float64(0.01), "stop_ratio": np.float32(0.9), "max_nodes": np.int64(40), "mode": "2B+"},
        {"epsilon": 5e-324, "time_limit": np.int32(3), "max_nodes": np.uint8(1), "param_bisect": False},
    ],
    ids=["defaults", "non-default", "ints", "fractions", "numpy", "edges"],
)
def test_the_flags_line_parses_back_into_an_equal_config(fields):
    # the report's "# flags:" line, read by the CLI's own parser, gives the
    # config back, each field of the same type: numbers are stored as the
    # float or int their flag parses to, so the line never prints a repr
    # such as True or np.float64(0.01) that the parser rejects
    cfg = SolverConfig(**fields)
    args = cli._build_parser().parse_args(["solve", "problem.qcsp", *cli._flags_text(cfg).split()])
    again = SolverConfig(
        epsilon=args.eps,
        stop_ratio=args.ratio,
        mode=args.mode,
        param_bisect=args.param_bisect == "on",
        max_nodes=args.max_nodes,
        time_limit=args.time_limit,
    )
    assert again == cfg
    assert [type(v) for v in dataclasses.astuple(again)] == [type(v) for v in dataclasses.astuple(cfg)]


@pytest.mark.parametrize(
    "name,argv",
    [
        ("ex1", ["--mode", "2b", "--eps", "0.01", "--param-bisect", "off", "--max-nodes", "40"]),
        ("ring2d", ["--eps", "0.01", "--ratio", "0.99", "--time-limit", "600"]),
    ],
    ids=["ex1", "ring2d-ratio"],
)
def test_flags_line_reproduces_the_report(name, argv, problems_dir, tmp_path, capsys):
    path = str(problems_dir / f"{name}.qcsp")
    first = solve_to_text([path, *argv], tmp_path, capsys)
    meta, _, _ = parse_report(first)
    again = solve_to_text([path, *meta["flags"].split()], tmp_path, capsys)
    drop_elapsed = lambda text: re.sub(r"^# elapsed: .*\n", "", text, flags=re.M)
    assert drop_elapsed(again) == drop_elapsed(first)


def test_parse_report_rejects_malformed_records():
    with pytest.raises(ValueError):
        parse_report("inner 1.0\n")
    with pytest.raises(ValueError):
        parse_report("middle 0.0 1.0\n")
    # a box of no dimension, records of two dimensions, and records that
    # disagree with the header's variables are in no report format_report writes
    for text in (
        "inner\n",
        "inner 0.0 1.0\nboundary 0.0 1.0 2.0 3.0\n",
        "# vars: x y\ninner 0.0 1.0\n",
        "# vars: x\nboundary 0.0 1.0 2.0 3.0\n",
        # a bound outside the one number grammar, which float() would read
        "inner 1_0 2_0\n",
        "inner -Infinity 0.0\n",
        "inner 0.0 INF\n",
        "inner nan 1.0\n",
        "inner 0x1p0 2.0\n",
        "inner \uff11 2.0\n",
        "inner 0.0 1.0e\n",
    ):
        with pytest.raises(ValueError, match="malformed record"):
            parse_report(text)
    # every bound repr writes parses back bit for bit
    edges = (-math.inf, -2.5, -0.0, 5e-324, 1e-05, 0.1, 1e300, math.inf)
    records = list(zip(edges, edges[1:]))
    text = "".join(f"inner {lo!r} {hi!r}\n" for lo, hi in records)
    _, inner, _ = parse_report(text)
    assert [[b.hex() for b in box.bounds] for box in inner] == [[lo.hex(), hi.hex()] for lo, hi in records]
    assert parse_report("inner +1.5 +inf\n")[1] == [Box.from_bounds([(1.5, math.inf)])]


# ---------------------------------------------------------------------------
# SVG


def hand_paving():
    initial = Box.from_bounds([(0.0, 4.0), (0.0, 2.0)])
    stats = SolveStats(exact_initial=Fraction(8))
    return Paving(
        [Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])],
        [Box.from_bounds([(3.0, 4.0), (1.5, 2.0)])],
        stats,
        initial,
    )


def test_svg_geometry():
    text = emit_svg(hand_paving())
    assert 'viewBox="0.0 0.0 4.0 2.0"' in text
    assert 'width="640" height="320"' in text
    rects = re.findall(r"<rect [^>]*/>", text)
    assert len(rects) == 2
    # y axis is flipped: box tops map to viewBox y = flip - hi
    assert '<rect x="0.0" y="1.0" width="1.0" height="1.0" fill="#d3d3d3"/>' in text
    assert '<rect x="3.0" y="0.0" width="1.0" height="0.5" fill="#696969"/>' in text
    assert "background" not in text


def test_svg_axis_selection():
    p = hand_paving()
    flipped = emit_svg(p, 1, 0)
    assert 'viewBox="0.0 0.0 2.0 4.0"' in flipped


def test_svg_empty_paving_has_no_rects():
    p = hand_paving()
    p.inner.clear()
    p.boundary.clear()
    assert re.findall(r"<rect", emit_svg(p)) == []


def test_svg_rejects_bad_axes():
    p = hand_paving()
    with pytest.raises(ValueError):
        emit_svg(p, 0, 0)
    with pytest.raises(ValueError):
        emit_svg(p, 0, 5)
    # a bool is an int, and True drew variable 1 against variable 0; a
    # float escaped as a TypeError from indexing the bounds
    for axes in ((True, 0), (False, 1), (0.5, 1), (0, 1.0), ("0", 1)):
        with pytest.raises(ValueError, match="bad axes"):
            emit_svg(p, *axes)
    one_d = Paving([], [], SolveStats(), Box.from_bounds([(0.0, 1.0)]))
    with pytest.raises(ValueError):
        emit_svg(one_d)


def test_svg_writes_file(tmp_path):
    out = tmp_path / "paving.svg"
    text = emit_svg(hand_paving(), path=out)
    assert out.read_text() == text


def test_svg_height_of_extreme_spans_is_clamped():
    # 640 * 1e300 / 1e-300 overflows to inf; the height stops at 64,000 pixels
    tall = Box.from_bounds([(0.0, 1e-300), (0.0, 1e300)])
    assert 'width="640" height="64000"' in emit_svg(Paving([tall], [], SolveStats(), tall))
    flat = Box.from_bounds([(0.0, 1e300), (0.0, 1e-300)])
    assert 'width="640" height="1"' in emit_svg(Paving([flat], [], SolveStats(), flat))


# The sha256 of emit_svg's text before it came to read Box.bounds in place
# of each box's Intervals: ring2d at eps 0.05, and hand_paving with the
# records of _signed_zero_records added.
SVG_GOLDEN = {
    "ring2d": "1e1ff693104ea228f511c56103e99849822c04ed0c7273a0f4db4ca66da720c3",
    "hand": "627d606832d91979d37615ae051396bb03952e985499c3f7fb4ff9004331c249",
}


def _signed_zero_records(paving: Paving) -> Paving:
    # -0.0 and subnormal bounds, and a coordinate [0.0, -0.0] whose width is -0.0
    paving.inner.append(Box.from_bounds([(-0.0, 5e-324), (0.0, -0.0)]))
    paving.boundary.append(Box.from_bounds([(2.5e-310, 1.0), (-5e-324, -0.0)]))
    return paving


def test_svg_is_byte_identical_to_its_golden_and_builds_no_interval_per_rect(problems_dir, monkeypatch):
    import hashlib

    from qine import interval

    problem = parse_problem((problems_dir / "ring2d.qcsp").read_text(), name="ring2d")
    pavings = {"ring2d": solve(problem, SolverConfig(epsilon=0.05)), "hand": _signed_zero_records(hand_paving())}
    built: list[type] = []
    new = interval._new
    monkeypatch.setattr(interval, "_new", lambda cls: built.append(cls) or new(cls))
    for name, paving in pavings.items():
        built.clear()
        text = emit_svg(paving)
        assert hashlib.sha256(text.encode()).hexdigest() == SVG_GOLDEN[name], name
        per_paving = built.count(Interval)
        # the Intervals built are those of the initial box's axes, as many
        # as for a paving without records
        built.clear()
        emit_svg(Paving([], [], paving.stats, paving.initial_box))
        assert per_paving == built.count(Interval), name
    assert len(pavings["ring2d"].inner) + len(pavings["ring2d"].boundary) == 752


def test_svg_rejects_an_axis_whose_span_overflows():
    # 1e308 - -1e308 rounds to inf, and the aspect ratio would be NaN
    wide = Box.from_bounds([(-1e308, 1e308), (0.0, 1.0)])
    with pytest.raises(ValueError, match="span of axis 0"):
        emit_svg(Paving([], [], SolveStats(), wide))
    with pytest.raises(ValueError, match="span of axis 0"):
        emit_svg(Paving([], [], SolveStats(), wide), 1, 0)


# ---------------------------------------------------------------------------
# command line


def test_cli_solve_to_stdout(problems_dir, capsys):
    code = cli.run(["solve", str(problems_dir / "ex1.qcsp"), "--eps", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "# problem: ex1" in out
    assert "# stop: complete" in out
    assert "inner 9.0 15.0" in out


def test_cli_out_file(problems_dir, tmp_path, capsys):
    out = tmp_path / "paving.txt"
    code = cli.run(
        ["solve", str(problems_dir / "ex1.qcsp"), "--eps", "1e-6", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert "inner 9.0 15.0" in out.read_text()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_cli_unwritable_output_is_a_clean_error(flag, problems_dir, tmp_path, capsys):
    target = tmp_path / "missing" / "paving.out"
    code = cli.run(["solve", str(problems_dir / "ring2d.qcsp"), "--eps", "0.5", flag, str(target)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
    assert not target.parent.exists()


@pytest.mark.parametrize("value", ["nan", "0", "-1"])
def test_cli_rejects_a_time_limit_that_is_not_positive(value, problems_dir, capsys):
    code = cli.run(["solve", str(problems_dir / "ex1.qcsp"), "--time-limit", value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: time_limit must be positive\n"


def test_cli_ratio_stop_is_success(problems_dir, capsys):
    code = cli.run(
        [
            "solve",
            str(problems_dir / "ex1.qcsp"),
            "--mode",
            "2b",
            "--eps",
            "1e-4",
            "--ratio",
            "0.99",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "# stop: ratio" in out
    assert "--ratio 0.99" in out


def test_cli_infeasible_problem(problems_dir, capsys):
    code = cli.run(["solve", str(problems_dir / "infeasible.qcsp")])
    out = capsys.readouterr().out
    assert code == 0
    assert "# ratio: 1.0" in out
    assert not [l for l in out.splitlines() if not l.startswith("#")]


def test_cli_no_parameter_problem(problems_dir, tmp_path, capsys):
    svg = tmp_path / "ring.svg"
    code = cli.run(
        ["solve", str(problems_dir / "ring2d.qcsp"), "--eps", "0.2", "--svg", str(svg)]
    )
    out = capsys.readouterr().out
    assert code == 0
    records = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(re.findall(r"<rect", svg.read_text())) == len(records)
    assert any(l.startswith("inner ") for l in records)


def test_cli_stats_line(problems_dir, capsys):
    code = cli.run(["solve", str(problems_dir / "ex1.qcsp"), "--eps", "1e-6", "--stats"])
    captured = capsys.readouterr()
    assert code == 0
    assert re.match(r"nodes=\d+ stop=complete ratio=1\.000000 ", captured.err)


def test_cli_eps_below_float_spacing_completes(problems_dir, tmp_path, capsys):
    out = tmp_path / "paving.txt"
    argv = ["solve", str(problems_dir / "ex1.qcsp"), "--mode", "2b", "--eps", "1e-300"]
    code = cli.run(argv + ["--out", str(out)])
    assert code == 0, capsys.readouterr().err
    meta, inner, boundary = parse_report(out.read_text())
    assert meta["stop"] == "complete"
    assert boundary, "the undecidable sliver at x = 9 is reported as boundary"
    volume = sum((b.exact_volume() for b in inner + boundary), Fraction(0))
    assert 6 <= volume <= 15


def test_cli_solves_a_sum_deeper_than_the_recursion_limit(tmp_path, capsys):
    problem = tmp_path / "sum.qcsp"
    terms = " + ".join(["0.001*x"] * 1500)
    problem.write_text(f"var x in [0, 1];\nconstraint {terms} <= 1;\n")
    out = tmp_path / "paving.txt"
    code = cli.run(["solve", str(problem), "--eps", "0.1", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    meta, inner, boundary = parse_report(out.read_text())
    assert meta["stop"] == "complete"
    # the ledger closes: the header totals are the records' volumes, and
    # everything else of [0, 1] was rejected
    inner_v = sum((b.exact_volume() for b in inner), Fraction(0))
    boundary_v = sum((b.exact_volume() for b in boundary), Fraction(0))
    assert meta["volume"] == (
        f"initial=1.0 inner={float(inner_v)!r} boundary={float(boundary_v)!r}"
    )
    assert float(meta["ratio"]) == float(1 - boundary_v)
    # 1.5 x <= 1: inner boxes stay left of 2/3, a boundary box holds it
    assert inner and all(b[0].hi <= 2 / 3 for b in inner)
    assert any(b[0].lo <= 2 / 3 <= b[0].hi for b in boundary)


@pytest.mark.parametrize(
    "expression, nodes",
    [("(" * 3000 + "x" + ")" * 3000, []), ("-" * 3000 + "x", [("unary", "neg")] * 3000)],
    ids=["parentheses", "unary-minus"],
)
def test_cli_solves_nesting_deeper_than_the_recursion_limit(expression, nodes, tmp_path, capsys):
    # the parser keeps open parentheses and pending minuses on a stack of
    # its own; an even number of minuses leaves x <= 0, whose only solution
    # in [0, 1] is the point 0
    x = VarRef(VarKind.VARIABLE, 0)
    assert preorder(parse_expression(expression, {"x": x})) == nodes + [x]
    problem = tmp_path / "deep.qcsp"
    problem.write_text(f"var x in [0, 1];\nconstraint {expression} <= 0;\n")
    out = tmp_path / "paving.txt"
    assert cli.run(["solve", str(problem), "--out", str(out)]) == 0, capsys.readouterr().err
    meta, inner, boundary = parse_report(out.read_text())
    assert meta["stop"] == "complete" and meta["volume"] == "initial=1.0 inner=0.0 boundary=0.0"
    assert inner == [] and boundary == [Box.from_bounds([(0.0, 0.0)])]


def test_nesting_depth_needs_no_recursion(tmp_path):
    # parse, solve in 2b and 2b+ (the tangent kernels included) and format a
    # problem 3000 levels deep in a process whose recursion limit is 120; an
    # even number of minuses is exact, so the reports are those of the flat form
    code = (
        "import sys\n"
        "from qine.cli import format_report, parse_problem\n"
        "from qine.solver import SolverConfig, solve\n"
        "sys.setrecursionlimit(120)\n"
        "for f in sys.argv[1:]:\n"
        "    problem = parse_problem(f'var x in [-1, 1];\\nparam y in [0, 1];\\nconstraint {f} <= 0.5;\\n')\n"
        "    for mode in ('2b', '2b+'):\n"
        "        cfg = SolverConfig(mode=mode, epsilon=0.05)\n"
        "        print(format_report(problem, cfg, solve(problem, cfg)), end='')\n"
    )
    deep = "-" * 3000 + "(x - y) + " + "(" * 3000 + "x" + ")" * 3000
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code, deep, "(x - y) + x"], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    reports = re.split(r"(?m)^(?=# problem: )", re.sub(r"(?m)^# elapsed: .*\n", "", proc.stdout))[1:]
    assert len(reports) == 4 and reports[:2] == reports[2:]
    assert [parse_report(r)[0]["flags"].split()[1] for r in reports[:2]] == ["2b", "2b+"]


@pytest.mark.parametrize("constraint", ["x + 1e999 <= 0", "x <= 1e999"], ids=["lhs", "rhs"])
def test_cli_rejects_a_literal_that_overflows(constraint, tmp_path, capsys):
    problem = tmp_path / "huge.qcsp"
    text = f"var x in [0, 1];\nconstraint {constraint};\n"
    problem.write_text(text)
    assert cli.run(["solve", str(problem)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'1e999' overflows to infinity" in err
    assert f"(line 2, offset {text.index('1e999')})" in err


def test_cli_rejects_a_problem_file_whose_name_holds_a_line_break(tmp_path, capsys):
    # its report's '# problem:' header was split over two lines, which
    # parse_report then rejected as a malformed record
    problem = tmp_path / "a\nb.qcsp"
    problem.write_text("var x in [0,1]; constraint x - 0.5 <= 0;\n")
    assert cli.run(["solve", str(problem)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "holds a line break" in captured.err


@pytest.mark.parametrize("flags", [[], ["--stats"]])
def test_cli_rejects_a_zero_width_variable_domain(flags, tmp_path, capsys):
    problem = tmp_path / "fixed.qcsp"
    problem.write_text("var x in [0,1]; var z in [2,2]; constraint x + z - 2.5 <= 0;\n")
    assert cli.run(["solve", str(problem), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "zero-width domain for variable z" in captured.err


@pytest.mark.parametrize(
    "declaration, message",
    [
        ("var z in [2, 2];", "zero-width domain for variable z"),
        ("var z in [2, inf];", "unbounded domain for z"),
        ("param z in [-1e999, 0];", "unbounded domain for z"),
        ("var z in [inf, -inf];", "empty domain for z"),
        # bounds take the ASCII number grammar of expressions, not float()'s
        ("var z in [0, 1_0];", "not an interval literal: '[0, 1_0]'"),
        ("param z in [0, \u0661\u0660];", "not an interval literal: '[0, \u0661\u0660]'"),
    ],
)
def test_domain_errors_point_at_the_declaration(declaration, message, tmp_path, capsys):
    text = f"var x in [0, 1];\n\n{declaration}\nconstraint x + z - 2.5 <= 0;\n"
    with pytest.raises(ProblemError) as err:
        parse_problem(text)
    assert err.value.message == message
    assert err.value.position == text.index("[", text.index("z in"))
    problem = tmp_path / "bad.qcsp"
    problem.write_text(text)
    assert cli.run(["solve", str(problem)]) == 1
    assert f"{message} (line 3, offset {err.value.position})" in capsys.readouterr().err


def _run_module(*args: str, module: str = "qine") -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-m", module, *args], capture_output=True, text=True, timeout=60, env=env
    )


def test_python_dash_m_runs_the_command_line(problems_dir, tmp_path, capsys):
    drop_elapsed = lambda text: re.sub(r"^# elapsed: .*\n", "", text, flags=re.M)
    ex1 = str(problems_dir / "ex1.qcsp")
    proc = _run_module("solve", ex1)
    assert proc.returncode == 0 and proc.stderr == ""
    assert cli.run(["solve", ex1]) == 0
    assert drop_elapsed(proc.stdout) == drop_elapsed(capsys.readouterr().out)
    bad = tmp_path / "bad.qcsp"
    bad.write_text("var x in [0, 1];\nconstraint x + <= 0;\n")
    proc = _run_module("solve", str(bad))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")


@pytest.mark.parametrize("module", ["qine", "qine.cli"])
def test_both_module_entries_run_without_a_warning(problems_dir, module):
    # importing the package must not load qine.cli, or running it as a
    # module prints runpy's RuntimeWarning first
    proc = _run_module("solve", str(problems_dir / "ex1.qcsp"), module=module)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("# ")


def test_package_reaches_the_command_line_names():
    import qine

    assert qine.parse_problem is cli.parse_problem and qine.run is cli.run
    assert set(qine._CLI_NAMES) <= set(qine.__all__)
    with pytest.raises(AttributeError):
        qine.no_such_name


def test_parsing_a_problem_does_not_import_argparse():
    # only the command line needs argparse; it is imported when run parses argv
    code = (
        "import sys, qine\n"
        "qine.parse_problem('var x in [0, 1]; constraint x <= 1;')\n"
        "print('argparse' in sys.modules, 'qine.cli' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_the_readme_library_snippet_runs_and_prints_its_paving():
    # the "Library" block of README.md, run from the repository root: it
    # prints the inner Boxes' reprs, so a change to the public surface or
    # to the repr of a Box or an Interval shows here
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    snippet = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, timeout=60, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[Box(dims=(Interval(lo=9.0, hi=15.0),))] 1.0\n"


def test_the_package_exports_each_name_once_and_resolves_it():
    import qine

    assert len(qine.__all__) == len(set(qine.__all__)), sorted(qine.__all__)
    assert [name for name in qine.__all__ if not hasattr(qine, name)] == []


def test_a_closed_stdout_pipe_is_a_clean_error(problems_dir, tmp_path, monkeypatch):
    # the read end is closed before the child writes its report, so the
    # write fails with EPIPE; no traceback follows, at the write or at exit
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qine", "solve", str(problems_dir / "ring2d.qcsp"), "--eps", "0.01"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err

    # the same write in this process, on a stdout whose reader has left:
    # run returns 1, and the stdout descriptor now writes to the null device
    class Closed:
        def __init__(self, fd: int) -> None:
            self.fd = fd

        def write(self, text: str) -> int:
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self) -> None:
            pass

        def fileno(self) -> int:
            return self.fd

    sink = tmp_path / "stdout"
    fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", Closed(fd))
        assert cli.run(["solve", str(problems_dir / "ex1.qcsp")]) == 1
        monkeypatch.undo()
        os.write(fd, b"lost")
    finally:
        os.close(fd)
    assert sink.read_bytes() == b""


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_cli_reads_a_vanishing_literal_quickly(tmp_path):
    # 1e-999999999 rounds to a signed zero, and its exact rational form
    # would hold a billion-digit power of ten; the solve runs in a child
    # with a time and memory cap, so a regression fails instead of hanging
    problem = tmp_path / "tiny.qcsp"
    problem.write_text(
        "var x in [-1, 1];\n"
        "constraint x <= 1e-999999999;\n"
        "constraint -x - 1e-999999999 <= 0;\n"
    )
    code = "import sys; from qine import cli; sys.exit(cli.run(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "solve", str(problem), "--eps", "0.1"],
        capture_output=True, text=True, timeout=20, preexec_fn=_cap_memory,
        env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "# stop: complete" in proc.stdout
    one = Interval.parse("[1e-999999999, 1e-999999999]")
    assert (one.lo, one.hi) == (0.0, math.nextafter(0.0, 1.0))
    neg = Interval.parse("[-1e-999999999, -1e-999999999]")
    assert (neg.lo, neg.hi) == (-math.nextafter(0.0, 1.0), 0.0)


@pytest.mark.parametrize(
    "text",
    [
        "var x in [0, 1]; constraint x - 1e-9999999999999999999 <= 0;",
        "var x in [0, 1]; constraint x <= 1e-9999999999999999999;",
        "var x in [-1e-9999999999999999999, 1]; constraint x <= 0.5;",
    ],
    ids=["lhs", "rhs", "domain"],
)
def test_cli_reads_a_literal_past_the_decimal_exponent_range(text, tmp_path, capsys):
    problem = tmp_path / "tiny.qcsp"
    problem.write_text(text + "\n")
    assert cli.run(["solve", str(problem), "--eps", "0.1"]) == 0
    assert "# stop: complete" in capsys.readouterr().out


def test_cli_reports_a_volume_past_the_largest_double(tmp_path, capsys):
    # the domain's width 2e308 is not a double; the exact ledger holds it
    problem = tmp_path / "wide.qcsp"
    problem.write_text("var x in [-1e308, 1e308]; constraint x <= 1;\n")
    assert cli.run(["solve", str(problem), "--stats"]) == 0
    captured = capsys.readouterr()
    assert "# volume: initial=inf inner=1e+308 boundary=0.0" in captured.out
    assert "nodes=1 stop=complete" in captured.err


@pytest.mark.parametrize(
    "constraint, below",
    [("x <= 0.1", True), ("x - 0.1 <= 0", True), ("x >= 0.1", False), ("0.1 - x <= 0", False)],
    ids=["rhs-leq", "lhs-leq", "rhs-geq", "lhs-geq"],
)
def test_inner_boxes_hold_for_the_decimal_literal_as_written(constraint, below):
    # the double 0.1 lies above 1/10, so x <= 0.1 holds there only for the double
    problem = parse_problem(f"var x in [0, 1]; constraint {constraint};")
    paving = solve(problem, SolverConfig(epsilon=0.01))
    assert paving.inner
    for b in paving.inner:
        if below:
            assert Fraction(b[0].hi) <= Fraction(1, 10)
        else:
            assert Fraction(b[0].lo) >= Fraction(1, 10)


def test_cli_node_budget_exit_code(problems_dir, tmp_path, capsys):
    out = tmp_path / "partial.txt"
    code = cli.run(
        [
            "solve",
            str(problems_dir / "ex1.qcsp"),
            "--mode",
            "2b",
            "--eps",
            "1e-6",
            "--max-nodes",
            "3",
            "--out",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 2
    assert "# stop: nodes" in out.read_text()  # paving still written


def test_cli_time_limit_exit_code(problems_dir, capsys):
    code = cli.run(
        ["solve", str(problems_dir / "ex1.qcsp"), "--time-limit", "1e-9"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "# stop: time" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["solve"],
        ["frobnicate", "x.qcsp"],
        ["solve", "x.qcsp", "--mode", "4b"],
        ["solve", "/nonexistent/path.qcsp"],
        ["solve", "PROBLEMS/ex1.qcsp", "--eps", "zero"],
    ],
)
def test_cli_usage_errors(argv, capsys):
    assert cli.run(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_bad_eps_value(problems_dir, capsys):
    code = cli.run(["solve", str(problems_dir / "ex1.qcsp"), "--eps", "-0.5"])
    assert code == 1
    assert "epsilon" in capsys.readouterr().err


def test_cli_parse_error_names_file(problems_dir, tmp_path, capsys):
    bad = tmp_path / "bad.qcsp"
    bad.write_text("var x in [0,1];\nconstraint x <= 0\n")
    assert cli.run(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert str(bad) in err and "missing ';'" in err


def test_cli_svg_needs_two_variables(problems_dir, tmp_path, capsys):
    svg = tmp_path / "x.svg"
    code = cli.run(["solve", str(problems_dir / "ex1.qcsp"), "--svg", str(svg)])
    assert code == 1
    assert "two variables" in capsys.readouterr().err
    assert not svg.exists()


@pytest.mark.parametrize("axes", ["0,0", "0,9", "1", "a,b"])
def test_cli_rejects_bad_axes(problems_dir, tmp_path, axes, capsys):
    svg = tmp_path / "x.svg"
    code = cli.run(
        ["solve", str(problems_dir / "disc2d.qcsp"), "--svg", str(svg), "--axes", axes]
    )
    assert code == 1
    assert "--axes" in capsys.readouterr().err


def test_cli_svg_of_extreme_spans(tmp_path, capsys):
    problem = tmp_path / "tall.qcsp"
    problem.write_text("var x in [0, 1e-300]; var y in [0, 1e300]; constraint x <= 1;\n")
    svg = tmp_path / "tall.svg"
    assert cli.run(["solve", str(problem), "--svg", str(svg)]) == 0
    assert 'height="64000"' in svg.read_text()


def test_cli_svg_rejects_an_overflowing_span_before_solving(tmp_path, capsys):
    problem = tmp_path / "wide.qcsp"
    problem.write_text("var x in [-1e308, 1e308]; var y in [-1e308, 1e308]; constraint x <= 1;\n")
    svg = tmp_path / "wide.svg"
    assert cli.run(["solve", str(problem), "--svg", str(svg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --axes 0,1: ") and "span of axis 0" in captured.err
    assert not svg.exists()


def test_cli_svg_written_with_axes(problems_dir, tmp_path, capsys):
    svg = tmp_path / "disc.svg"
    code = cli.run(
        [
            "solve",
            str(problems_dir / "disc2d.qcsp"),
            "--eps",
            "0.2",
            "--svg",
            str(svg),
            "--axes",
            "1,0",
        ]
    )
    capsys.readouterr()
    assert code == 0
    text = svg.read_text()
    assert 'viewBox="-2.0 -2.0 4.0 4.0"' in text
    assert "#d3d3d3" in text


def test_cli_output_is_deterministic(problems_dir, tmp_path, capsys):
    argv = ["solve", str(problems_dir / "disc2d.qcsp"), "--eps", "0.2"]

    def run_once():
        assert cli.run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        return [l for l in lines if not l.startswith("# elapsed:")]

    assert run_once() == run_once()


@pytest.mark.parametrize("exponent", ["1025", "9" * 5000], ids=["1025", "5000-digits"])
def test_cli_rejects_an_exponent_above_the_cap(exponent, tmp_path, capsys):
    # x^1100 overflowed the integer root's start and x^99999999 hung; int()
    # refuses a text of more than 4300 digits
    problem = tmp_path / "pow.qcsp"
    text = f"var x in [0, 2];\nconstraint x^{exponent} <= 1;\n"
    problem.write_text(text)
    assert cli.run(["solve", str(problem)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "exponent exceeds 1024" in err
    assert f"(line 2, offset {text.index(exponent)})" in err


def test_cli_solves_the_largest_exponent(tmp_path, capsys):
    problem = tmp_path / "pow.qcsp"
    problem.write_text("var x in [0, 2];\nconstraint x^1024 >= 0.5;\n")
    assert cli.run(["solve", str(problem), "--eps", "0.01"]) == 0
    assert "# stop: complete" in capsys.readouterr().out


def test_a_file_that_is_not_utf8_is_a_clean_error(tmp_path):
    bad = tmp_path / "bad.qcsp"
    bad.write_bytes(b"var x in [0,1];\xff constraint x <= 0.5;")
    proc = _run_module("solve", str(bad))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: cannot read {bad}: ") and "Traceback" not in proc.stderr
