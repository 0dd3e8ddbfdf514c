"""Branch-and-prune steps and the full solve loop."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from helpers import assert_interval, monotone_problem
from qine.cli import parse_problem
from qine.expr import parse_expression
from qine.interval import Box, Interval
from qine.solver import (
    Paving,
    Problem,
    QuantifiedConstraint,
    SolveStats,
    SolverConfig,
    branch,
    classified_ratio,
    global_pruning,
    local_pruning,
    parameter_domain_bisection,
    parameter_instantiation,
    solution_identification,
    solve,
    _ratio_met,
)
from test_expr import SYMS


def qc(text: str, bounds) -> QuantifiedConstraint:
    dom = Box(()) if bounds is None else Box.from_bounds(bounds)
    return QuantifiedConstraint(parse_expression(text, SYMS), dom)


MONO = qc("10*y - x - y^2", [(0.0, 1.0)])
X_BOX = Box.from_bounds([(0.0, 15.0)])


# ---------------------------------------------------------------------------
# parameter instantiation


def test_instantiation_pins_increasing_constraint_to_upper_endpoint():
    # df/dy = 10 - 2y >= 8 on [0,1], so only y = 1 matters
    (out,) = parameter_instantiation([MONO], X_BOX)
    assert out.param_domain[0] == Interval(1.0, 1.0)
    assert out.f is MONO.f


def test_instantiation_pins_decreasing_constraint_to_lower_endpoint():
    (out,) = parameter_instantiation(
        [qc("x - y", [(0.0, 1.0)])], Box.from_bounds([(0.0, 1.0)])
    )
    assert out.param_domain[0] == Interval(0.0, 0.0)


def test_instantiation_leaves_indefinite_sign_alone():
    # df/dy = 2y - 1 changes sign on [0,1]
    c = qc("y^2 - y - x", [(0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_no_parameters_is_identity():
    c = qc("x1^2 + x2^2 - 3", None)
    (out,) = parameter_instantiation([c], Box.from_bounds([(-2.0, 2.0), (-2.0, 2.0)]))
    assert out is c


def test_instantiation_skips_unbounded_derivative():
    # df/dy = 1/(2 sqrt y) blows up at 0
    c = qc("sqrt(y) - x", [(0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_skips_infinite_endpoint():
    c = QuantifiedConstraint(
        parse_expression("y - x", SYMS), Box.from_bounds([(0.0, math.inf)])
    )
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out is c


def test_instantiation_later_coordinates_see_earlier_pins():
    # df/dy1 = exp(y2) > 0 pins y1 to 2; only then is df/dy2 = y1 exp(y2)
    # sign-definite, pinning y2 as well
    c = qc("y1 * exp(y2)", [(-1.0, 2.0), (0.0, 1.0)])
    (out,) = parameter_instantiation([c], Box.from_bounds([(0.0, 1.0)]))
    assert out.param_domain[0] == Interval(2.0, 2.0)
    assert out.param_domain[1] == Interval(1.0, 1.0)


# ---------------------------------------------------------------------------
# pruning


def test_local_pruning_uses_domain_midpoint():
    # f(x, 0.5) = 4.75 - x <= 0 cuts everything below 4.75
    out = local_pruning(MONO, X_BOX)
    assert out[0] == Interval(4.75, 15.0)


def test_global_pruning_applies_constraints_sequentially():
    halves = [
        qc("10*y - x - y^2", [(0.0, 0.5)]),
        qc("10*y - x - y^2", [(0.5, 1.0)]),
    ]
    out = global_pruning(halves, X_BOX)
    # midpoints 0.25 and 0.75 force x >= 2.4375 then x >= 6.9375
    assert out[0] == Interval(6.9375, 15.0)


def test_global_pruning_rejects_infeasible_box():
    out = global_pruning([qc("x + y + 20", [(0.0, 1.0)])], Box.from_bounds([(0.0, 1.0)]))
    assert out.is_empty


# ---------------------------------------------------------------------------
# solution identification


def test_identification_on_pruned_root():
    kept, remainder, pieces = solution_identification([MONO], Box.from_bounds([(4.75, 15.0)]))
    assert len(kept) == 1
    assert_interval(kept[0].param_domain[0], 0.475, 1.0)
    assert_interval(remainder[0], 4.75, 10.0)
    assert len(pieces) == 1
    assert_interval(pieces[0][0], 10.0, 15.0)


def test_identification_drops_constraints_held_everywhere():
    halves = [
        qc("10*y - x - y^2", [(0.0, 0.5)]),
        qc("10*y - x - y^2", [(0.5, 1.0)]),
    ]
    box = Box.from_bounds([(6.9375, 15.0)])
    kept, remainder, pieces = solution_identification(halves, box)
    # max over y in [0,0.5] is 4.75 - x < 0 on the box, so that half is dropped
    assert len(kept) == 1
    assert kept[0].param_domain[0] == Interval(0.5, 1.0).intersect(kept[0].param_domain[0])
    assert_interval(kept[0].param_domain[0], 0.71875, 1.0)
    assert_interval(remainder[0], 6.9375, 9.75)
    assert len(pieces) == 1
    assert_interval(pieces[0][0], 9.75, 15.0)


def test_identification_without_parameters():
    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(-1.0, 1.0)])
    )
    assert len(kept) == 1
    assert remainder[0] == Interval(0.0, 1.0)
    assert len(pieces) == 1 and pieces[0][0] == Interval(-1.0, 0.0)

    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(1.0, 2.0)])
    )
    # the negation holds on the whole box: nothing identified, nothing dropped
    assert len(kept) == 1
    assert remainder[0] == Interval(1.0, 2.0)
    assert pieces == []


def test_identification_infeasible_negation_drops_constraint():
    kept, remainder, pieces = solution_identification(
        [qc("x", None)], Box.from_bounds([(-2.0, -1.0)])
    )
    assert kept == []
    assert remainder.is_empty
    assert len(pieces) == 1 and pieces[0][0] == Interval(-2.0, -1.0)


# ---------------------------------------------------------------------------
# parameter domain bisection and branching


def test_bisection_splits_widest_coordinate():
    out = parameter_domain_bisection([MONO], epsilon=1e-3)
    assert [c.param_domain[0] for c in out] == [Interval(0.0, 0.5), Interval(0.5, 1.0)]
    assert all(c.f is MONO.f for c in out)


def test_bisection_picks_widest_axis_only():
    c = qc("y1 + y2 - x", [(0.0, 1.0), (0.0, 4.0)])
    out = parameter_domain_bisection([c], epsilon=1e-3)
    assert [tuple(d) for d in (out[0].param_domain, out[1].param_domain)] == [
        (Interval(0.0, 1.0), Interval(0.0, 2.0)),
        (Interval(0.0, 1.0), Interval(2.0, 4.0)),
    ]


def test_bisection_respects_epsilon():
    assert parameter_domain_bisection([MONO], epsilon=2.0) == [MONO]
    assert parameter_domain_bisection([qc("x", None)], epsilon=1e-3) == [qc("x", None)]


def test_branch_bisects_widest_axis_lowest_index_on_ties():
    left, right = branch(X_BOX)
    assert left[0] == Interval(0.0, 7.5) and right[0] == Interval(7.5, 15.0)
    left, right = branch(Box.from_bounds([(0.0, 1.0), (0.0, 1.0)]))
    assert left[0] == Interval(0.0, 0.5) and left[1] == Interval(0.0, 1.0)


# ---------------------------------------------------------------------------
# full solve


def test_solve_monotone_problem_exactly():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, mode="2b+"))
    assert paving.inner == [Box.from_bounds([(9.0, 15.0)])]
    assert paving.boundary == []
    assert paving.stats.nodes_processed <= 3
    assert paving.stats.stop_reason == "complete"
    assert classified_ratio(paving) == 1.0


def test_solve_without_instantiation_still_converges():
    paving = solve(monotone_problem(), SolverConfig(epsilon=0.01, mode="2b"))
    assert paving.stats.stop_reason == "complete"
    assert paving.stats.volume_inner >= 5.9
    for b in paving.inner:
        assert b[0].lo >= 9.0 - 0.011 and b[0].hi <= 15.0 + 1e-12
    for b in paving.boundary:
        assert b.width <= 0.01 + 1e-12
    # ledger closes: everything is inner, boundary or rejected
    s = paving.stats
    assert s.exact_queued == 0
    assert s.exact_inner + s.exact_boundary <= s.exact_initial
    assert classified_ratio(paving) > 0.99


def test_solve_infeasible_problem_rejects_everything():
    f = parse_expression("x + y + 20", SYMS)
    problem = Problem(
        ("x",),
        Box.from_bounds([(0.0, 1.0)]),
        ("y",),
        Box.from_bounds([(0.0, 1.0)]),
        (f,),
        name="infeasible",
    )
    paving = solve(problem)
    assert paving.inner == [] and paving.boundary == []
    assert paving.stats.nodes_processed == 1
    assert classified_ratio(paving) == 1.0


def test_solve_is_deterministic():
    cfg = SolverConfig(epsilon=0.01, mode="2b")
    a = solve(monotone_problem(), cfg)
    b = solve(monotone_problem(), cfg)
    assert a.inner == b.inner
    assert a.boundary == b.boundary
    assert a.stats.nodes_processed == b.stats.nodes_processed


def test_solve_ratio_stop():
    paving = solve(
        monotone_problem(), SolverConfig(epsilon=1e-4, mode="2b", stop_ratio=0.98)
    )
    assert paving.stats.stop_reason == "ratio"
    assert classified_ratio(paving) >= 0.98
    # unclassified volume, queue included, is at most 2% of the initial box
    assert paving.stats.volume_boundary <= 0.02 * 15.0 + 1e-12
    assert paving.stats.exact_queued == 0


def test_solve_node_budget_stop():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, mode="2b", max_nodes=3))
    assert paving.stats.stop_reason == "nodes"
    assert paving.stats.nodes_processed == 3
    s = paving.stats
    assert s.exact_queued == 0
    rejected = s.exact_initial - s.exact_inner - s.exact_boundary
    assert rejected >= 0


def test_solve_time_limit_stop():
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-6, time_limit=1e-9))
    assert paving.stats.stop_reason == "time"
    # the whole queue lands in the boundary
    assert paving.stats.exact_inner + paving.stats.exact_boundary == paving.stats.exact_initial


def test_progress_reports_every_node_with_monotone_ratio():
    ratios = []
    paving = solve(
        monotone_problem(),
        SolverConfig(epsilon=0.01, mode="2b"),
        progress=lambda p: ratios.append(classified_ratio(p)),
    )
    assert len(ratios) == paving.stats.nodes_processed
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == classified_ratio(paving)


def disc_problem() -> Problem:
    f = parse_expression("x1^2 + x2^2 - 1", SYMS)
    return Problem(
        ("x1", "x2"), Box.from_bounds([(-2.0, 2.0), (-1.5, 1.5)]), (), Box(()), (f,), name="disc"
    )


def test_progress_sees_volumes_derived_from_the_ledger():
    def check(p):
        s = p.stats
        for key in ("initial", "inner", "boundary"):
            assert getattr(s, "volume_" + key) == float(getattr(s, "exact_" + key))
        assert s.exact_inner == sum((b.exact_volume() for b in p.inner), Fraction(0))
        assert s.exact_boundary == sum((b.exact_volume() for b in p.boundary), Fraction(0))
        seen.append(s.nodes_processed)

    seen = []
    paving = solve(disc_problem(), SolverConfig(epsilon=0.05), progress=check)
    assert seen == list(range(1, paving.stats.nodes_processed + 1))
    check(paving)


def test_ratio_stop_is_the_first_node_reaching_the_ratio():
    # ratios[k] is the classified ratio once k nodes have been processed
    ratios = [0.0]
    full = solve(
        disc_problem(),
        SolverConfig(epsilon=0.05),
        progress=lambda p: ratios.append(classified_ratio(p)),
    )
    assert full.stats.stop_reason == "complete"
    hits = sorted(set(ratios[1:-1]))
    # each target is hit exactly by a node, or lies one float above a hit
    picks = hits[:: max(1, len(hits) // 6)] + [hits[-1]]
    targets = picks + [math.nextafter(r, 1.0) for r in picks]
    total = full.stats.nodes_processed
    for target in targets:
        paving = solve(disc_problem(), SolverConfig(epsilon=0.05, stop_ratio=target))
        first = next((k for k, r in enumerate(ratios) if r >= target), total)
        assert paving.stats.nodes_processed == first, target
        assert paving.stats.stop_reason == ("ratio" if first < total else "complete")


@pytest.mark.parametrize("stop_ratio", [1.0, 0.75, 0.998, 0.1, math.nextafter(1.0, 0.0), 5e-324])
@pytest.mark.parametrize("initial", [Fraction(1), Fraction(15), Fraction(3, 7)])
def test_ratio_test_agrees_with_float_rounding_at_ties(stop_ratio, initial):
    below = math.nextafter(stop_ratio, 0.0)
    mid = (Fraction(below) + Fraction(stop_ratio)) / 2  # rounds to the even neighbour
    tiny = Fraction(1, 2**1200)
    a, b = initial.numerator, initial.denominator
    for ratio in (mid - tiny, mid, mid + tiny, Fraction(below), Fraction(stop_ratio)):
        u = (1 - ratio) * initial  # the unclassified volume
        met = _ratio_met(u.numerator * b, a * u.denominator, stop_ratio)
        assert met == (float(ratio) >= stop_ratio), ratio


# The ledger is kept in integers over a shared 2**K.  Near the subnormal
# literal the boxes' bounds are subnormal, so K passes 2,000 bits.
SUBNORMAL = "var x in [0,1]; var y in [0,1]; constraint x*y <= 1e-310;"


def assert_ledger_is_the_box_sums(p: Paving) -> None:
    s = p.stats
    assert s.exact_inner == sum((b.exact_volume() for b in p.inner), Fraction(0))
    assert s.exact_boundary == sum((b.exact_volume() for b in p.boundary), Fraction(0))


@pytest.mark.parametrize("mode", ["2b", "2b+"])
def test_ledger_is_exact_at_tiny_eps(mode):
    ex1 = solve(monotone_problem(), SolverConfig(epsilon=1e-300, mode=mode))
    assert ex1.stats.stop_reason == "complete"
    assert_ledger_is_the_box_sums(ex1)
    deep = solve(parse_problem(SUBNORMAL), SolverConfig(epsilon=1e-300, mode=mode, max_nodes=400))
    assert max(b.dyadic_volume()[1] for b in deep.inner + deep.boundary) > 2000
    assert_ledger_is_the_box_sums(deep)


@pytest.mark.parametrize(
    "problem, cfg",
    [
        (disc_problem(), SolverConfig(epsilon=0.05)),
        (parse_problem(SUBNORMAL), SolverConfig(epsilon=1e-300, mode="2b", max_nodes=400)),
    ],
    ids=["disc", "subnormal"],
)
def test_rejected_volume_never_decreases(problem, cfg):
    rejected = [Fraction(0)]

    def check(p):
        s = p.stats
        rejected.append(s.exact_initial - s.exact_inner - s.exact_boundary - s.exact_queued)

    paving = solve(problem, cfg, progress=check)
    assert len(rejected) == paving.stats.nodes_processed + 1
    assert all(a <= b for a, b in zip(rejected, rejected[1:]))


def test_ratio_stop_on_the_ledger_agrees_with_classified_ratio():
    # K grows from 0 to over 1,000 bits in this run; the stop must land on
    # the first node whose classified ratio reaches the target, for targets
    # one float below, at and one float above a node's ratio
    problem = parse_problem("var x in [-1,1]; constraint x + x^2 <= 0;")
    cfg = dict(epsilon=1e-300, mode="2b")
    ratios = [0.0]
    full = solve(problem, SolverConfig(**cfg), progress=lambda p: ratios.append(classified_ratio(p)))
    assert full.stats.stop_reason == "complete"
    total = full.stats.nodes_processed
    hits = sorted(set(ratios[1:]))
    targets = set()
    for r in hits[:: max(1, len(hits) // 8)] + [hits[-1]]:
        targets.update(t for t in (math.nextafter(r, 0.0), r, math.nextafter(r, 2.0)) if 0.0 < t <= 1.0)
    for target in sorted(targets):
        paving = solve(problem, SolverConfig(stop_ratio=target, **cfg))
        first = next((k for k, r in enumerate(ratios) if r >= target), total)
        assert paving.stats.nodes_processed == first, target
        assert paving.stats.stop_reason == ("ratio" if first < total else "complete")


def test_solve_emits_unsplittable_remainders_as_boundary():
    # with eps far below float spacing the remainder at x = 9 runs out of
    # midpoints; it must land in the boundary, not raise
    paving = solve(monotone_problem(), SolverConfig(epsilon=1e-300, mode="2b"))
    s = paving.stats
    assert s.stop_reason == "complete"
    assert paving.boundary and all(b.width > 1e-300 for b in paving.boundary)
    # the ledger closes on the boxes: inner + boundary + rejected = initial
    # with nothing queued, and the solutions are exactly x in [9, 15]
    assert s.exact_queued == 0
    assert s.exact_inner == sum((b.exact_volume() for b in paving.inner), Fraction(0))
    assert s.exact_boundary == sum((b.exact_volume() for b in paving.boundary), Fraction(0))
    rejected = s.exact_initial - s.exact_inner - s.exact_boundary
    assert 6 - 1e-12 < s.exact_inner <= 6
    assert 9 - 1e-12 < rejected <= 9
    for b in paving.boundary:
        assert 9.0 - 1e-13 < b[0].lo and b[0].hi < 9.0 + 1e-13


def test_bisection_leaves_unsplittable_domain_whole():
    c = qc("10*y - x - y^2", [(0.5, math.nextafter(0.5, 1.0))])
    assert parameter_domain_bisection([c], epsilon=1e-300) == [c]


def test_classified_ratio_counts_rejected_volume():
    stats = SolveStats(exact_initial=Fraction(15), exact_queued=Fraction(15))
    paving = Paving([], [], stats, X_BOX)
    assert classified_ratio(paving) == 0.0
    stats.exact_queued = Fraction(0)
    stats.exact_inner = Fraction(6)
    assert classified_ratio(paving) == 1.0  # the other 9 count as rejected
    stats.exact_boundary = Fraction(3)
    stats.exact_inner = Fraction(6)
    assert classified_ratio(paving) == pytest.approx(12 / 15)


def test_classified_ratio_requires_volume():
    stats = SolveStats()
    with pytest.raises(ValueError):
        classified_ratio(Paving([], [], stats, Box(())))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mode="3b")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=math.inf)
    with pytest.raises(ValueError):
        SolverConfig(stop_ratio=0.0)
    with pytest.raises(ValueError):
        SolverConfig(stop_ratio=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_nodes=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0.0)
    assert SolverConfig(mode="2B+").mode == "2b+"


def test_problem_rejects_a_zero_width_variable_domain():
    f = parse_expression("x1 + x2 - 2.5", SYMS)
    with pytest.raises(ValueError, match="zero-width domain for variable z"):
        Problem(("x", "z"), Box.from_bounds([(0.0, 1.0), (2.0, 2.0)]), (), Box(()), (f,))
    # a parameter domain may still be a point
    g = parse_expression("x - y", SYMS)
    point = Problem(("x",), Box.from_bounds([(0.0, 1.0)]), ("y",), Box.from_bounds([(0.5, 0.5)]), (g,))
    assert classified_ratio(solve(point, SolverConfig(epsilon=0.1))) == 1.0


def test_problem_validation():
    f = parse_expression("x - y", SYMS)
    with pytest.raises(ValueError):
        Problem((), Box(()), ("y",), Box.from_bounds([(0.0, 1.0)]), (f,))
    with pytest.raises(ValueError):
        Problem(("x",), Box.from_bounds([(0.0, 1.0)]), (), Box(()), ())
    with pytest.raises(ValueError):
        Problem(
            ("x", "z"),
            Box.from_bounds([(0.0, 1.0)]),
            (),
            Box(()),
            (f,),
        )
    with pytest.raises(ValueError):
        Problem(
            ("x",),
            Box.from_bounds([(0.0, math.inf)]),
            (),
            Box(()),
            (f,),
        )


# ---------------------------------------------------------------------------
# the node loop builds no checked objects


@pytest.mark.parametrize(
    "path, mode, coarse, fine",
    [
        ("problems/ring2d.qcsp", "2b+", 0.1, 0.05),
        ("bench/problems/lens.qcsp", "2b", 0.1, 0.05),
        ("bench/problems/mixed3d.qcsp", "2b+", 0.6, 0.3),
    ],
)
def test_solve_constructs_no_checked_object_per_node(path, mode, coarse, fine, problems_dir, monkeypatch):
    # constraints, intervals and boxes built inside the loop skip their
    # dataclass __init__ and __post_init__, so a solve runs them only for
    # the root store, however many nodes it processes
    from qine.contractor import InequalityConstraint

    problem = parse_problem((problems_dir.parent / path).read_text())
    solve(problem, SolverConfig(epsilon=coarse, mode=mode))  # compiles the kernels
    counts: dict[str, int] = {}
    for cls, attr in (
        (Interval, "__post_init__"),
        (Box, "__post_init__"),
        (QuantifiedConstraint, "__init__"),
        (InequalityConstraint, "__init__"),
    ):
        def counted(self, *args, _orig=getattr(cls, attr), _key=f"{cls.__name__}.{attr}", **kwargs):
            counts[_key] = counts.get(_key, 0) + 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(cls, attr, counted)
    nodes = []
    for eps in (coarse, fine):
        counts.clear()
        nodes.append(solve(problem, SolverConfig(epsilon=eps, mode=mode)).stats.nodes_processed)
        assert counts == {"QuantifiedConstraint.__init__": len(problem.constraints)}, eps
    assert nodes[1] > 2 * nodes[0] > 20
