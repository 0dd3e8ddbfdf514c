"""Interval and box arithmetic: exactness, containment, set operations."""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import assert_interval, contains_fraction
from qine.interval import (
    EMPTY,
    Box,
    Interval,
    _add,
    _div_down,
    _div_up,
    _mul_down,
    _mul_up,
    _prod_cmp,
    _root_down,
    _root_up,
)

INF = math.inf


# ---------------------------------------------------------------------------
# construction and invariants


def test_constructor_rejects_nan_and_inverted_bounds():
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.nan)
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)
    with pytest.raises(ValueError):
        Interval(INF, INF)
    with pytest.raises(ValueError):
        Interval(-INF, -INF)
    with pytest.raises(ValueError):
        Interval.point(math.nan)
    with pytest.raises(ValueError):
        Interval.point(INF)
    with pytest.raises(ValueError):
        Box.from_bounds([(0.0, 1.0), (2.0, 1.0)])


def test_empty_interval_is_canonical():
    assert EMPTY.is_empty
    assert not Interval(1.0, 1.0).is_empty
    assert EMPTY.width == 0.0
    with pytest.raises(ValueError):
        EMPTY.midpoint


def test_unbounded_intervals_are_allowed():
    iv = Interval(-INF, 3.0)
    assert iv.contains(-1e308)
    assert iv.width == INF


# ---------------------------------------------------------------------------
# arithmetic: frozen values whose oracles are exact rational arithmetic,
# executed right here


def test_add_sub_exact_dyadic():
    a = Interval(1.0, 2.0)
    b = Interval(3.0, 4.0)
    assert a + b == Interval(4.0, 6.0)
    c = Interval(0.0, 1.0)
    assert c - c == Interval(-1.0, 1.0)


def test_mul_exact_dyadic():
    # all candidate products are integers, so bounds stay exact
    assert Interval(-1.0, 2.0) * Interval(-3.0, 4.0) == Interval(-6.0, 8.0)
    assert Interval(0.0, 1.0) * 10 == Interval(0.0, 10.0)


def test_inexact_product_is_outward_and_tight():
    tenth = Interval.point(0.1)
    r = tenth * tenth
    exact = Fraction(0.1) * Fraction(0.1)
    assert r.lo < r.hi, "inexact result must not collapse to a point"
    assert Fraction(r.lo) < exact < Fraction(r.hi)
    # tightest possible: bounds are adjacent floats
    assert math.nextafter(r.lo, INF) == r.hi


def test_sum_rounding_is_outward_and_tight():
    r = Interval.point(0.1) + Interval.point(0.2)
    exact = Fraction(0.1) + Fraction(0.2)
    assert Fraction(r.lo) < exact < Fraction(r.hi)
    assert math.nextafter(r.lo, INF) == r.hi


def test_division_plain():
    r = Interval(1.0, 2.0) / Interval(4.0, 8.0)
    assert r == Interval(0.125, 0.5)


def test_division_divisor_touching_zero():
    assert Interval(1.0, 2.0) / Interval(0.0, 1.0) == Interval(1.0, INF)
    assert Interval(1.0, 2.0) / Interval(-1.0, 0.0) == Interval(-INF, -1.0)
    assert Interval(-2.0, -1.0) / Interval(0.0, 4.0) == Interval(-INF, -0.25)
    # zero interior and numerator clear of zero: both rays, hull is the line
    assert Interval(1.0, 2.0) / Interval(-1.0, 1.0) == Interval(-INF, INF)


def test_division_by_zero_interval():
    assert (Interval(1.0, 2.0) / Interval(0.0, 0.0)).is_empty
    assert Interval(-1.0, 1.0) / Interval(0.0, 0.0) == Interval(-INF, INF)


def test_multiplication_with_unbounded_operand():
    # the 0 * inf convention keeps zero a hard zero
    r = Interval(0.0, 5.0) * Interval(-INF, 3.0)
    assert r == Interval(-INF, 15.0)
    r2 = Interval(0.0, 0.0) * Interval(-INF, 3.0)
    assert r2 == Interval(0.0, 0.0)


def test_sqr_and_pow():
    assert Interval(-2.0, 3.0).sqr() == Interval(0.0, 9.0)
    assert Interval(-2.0, 3.0).pow_int(3) == Interval(-8.0, 27.0)
    assert Interval(-2.0, 3.0).pow_int(0) == Interval(1.0, 1.0)
    assert Interval(-3.0, -2.0).pow_int(4) == Interval(16.0, 81.0)
    with pytest.raises(ValueError):
        Interval(1.0, 2.0).pow_int(-1)


def test_sqrt():
    assert Interval(4.0, 9.0).sqrt() == Interval(2.0, 3.0)
    assert Interval(-2.0, -1.0).sqrt().is_empty
    # partial domain keeps the defined part
    assert Interval(-1.0, 4.0).sqrt() == Interval(0.0, 2.0)


def test_log_domain():
    assert Interval(-2.0, -1.0).log().is_empty
    assert Interval(0.0, 0.0).log().is_empty
    r = Interval(0.0, 1.0).log()
    assert r.lo == -INF and r.hi >= 0.0


def test_exp_extremes():
    r = Interval(-INF, 0.0).exp()
    assert r.lo == 0.0 and r.hi >= 1.0
    assert Interval(0.0, 1000.0).exp().hi == INF


def test_sin_cos_basic():
    r = Interval(0.0, math.pi).sin()
    assert r.hi == 1.0 and r.lo <= 0.0
    r2 = Interval(0.0, math.tau).cos()
    assert r2 == Interval(-1.0, 1.0)
    r3 = Interval(0.0, 1e18).sin()
    assert r3 == Interval(-1.0, 1.0)


def test_sin_cos_of_a_point_far_from_zero_returns():
    # the slack window around 1e300 / 3 spans many periods, but a step of
    # 2pi there is far below the float spacing, so a search for a critical
    # point k by k does not advance
    v = 1e300 / 3
    assert Interval.point(v).sin() == Interval(-1.0, 1.0)
    assert Interval.point(v).cos() == Interval(-1.0, 1.0)


def test_empty_propagates_through_arithmetic():
    a = Interval(1.0, 2.0)
    for result in (a + EMPTY, EMPTY - a, a * EMPTY, EMPTY / a, -EMPTY,
                   EMPTY.sqr(), EMPTY.sqrt(), EMPTY.exp(), EMPTY.log(),
                   EMPTY.sin(), EMPTY.cos(), EMPTY.pow_int(3)):
        assert result.is_empty


# ---------------------------------------------------------------------------
# set operations


def test_hull_examples():
    assert Interval(-1.0, 1.0).hull(Interval(2.0, 3.0)) == Interval(-1.0, 3.0)
    b = Interval(2.0, 3.0)
    assert EMPTY.hull(b) == b
    assert b.hull(EMPTY) == b


def test_intersect_examples():
    assert Interval(0.0, 2.0).intersect(Interval(1.0, 3.0)) == Interval(1.0, 2.0)
    assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)).is_empty
    # touching endpoints intersect in a point
    assert Interval(0.0, 1.0).intersect(Interval(1.0, 2.0)) == Interval(1.0, 1.0)


def test_intersect_keeps_the_signed_zeros_of_max_and_min():
    # equal-valued bounds of opposite sign: max/min keep the first operand's
    def sign(x: float) -> float:
        return math.copysign(1.0, x)

    assert sign(Interval(0.0, 2.0).intersect(Interval(-0.0, 1.0)).lo) == 1.0
    assert sign(Interval(-0.0, 1.0).intersect(Interval(0.0, 2.0)).lo) == -1.0
    assert sign(Interval(-1.0, 0.0).intersect(Interval(-2.0, -0.0)).hi) == 1.0
    assert sign(Interval(-2.0, -0.0).intersect(Interval(-1.0, 0.0)).hi) == -1.0


def test_parse_and_format_round_trip():
    iv = Interval.parse("[0,15]")
    assert iv == Interval(0.0, 15.0)
    assert Interval.parse(str(iv)) == iv
    assert Interval.parse("[-1.5e1, 2.25e+1]") == Interval(-15.0, 22.5)


def test_parse_rounds_decimal_bounds_outward():
    iv = Interval.parse("[0.1,0.2]")
    assert Fraction(iv.lo) <= Fraction(1, 10)
    assert Fraction(iv.hi) >= Fraction(2, 10)
    # representable bounds stay put
    assert Interval.parse("[0.5,0.75]") == Interval(0.5, 0.75)


def test_parse_rejects_garbage():
    for text in ("[1,0]", "[a,b]", "1,2", "[1;2]", "[1,2", "[nan,0]", "[inf,inf]"):
        with pytest.raises(ValueError):
            Interval.parse(text)


# ---------------------------------------------------------------------------
# validity of results: the operations build their results without the
# constructor's checks, so every result must pass them here


_EDGE_VALUES = (
    0.0, -0.0, INF, -INF, sys.float_info.max, -sys.float_info.max,
    5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
)


def _edge_intervals() -> list[Interval]:
    rng = random.Random(4)
    values = _EDGE_VALUES + tuple(rng.uniform(-10.0, 10.0) for _ in range(4))
    out = [EMPTY]
    for lo in values:
        for hi in values:
            if lo <= hi and not (lo == hi and math.isinf(lo)):
                out.append(Interval(lo, hi))
    return out


def _assert_valid(r: Interval) -> None:
    assert type(r.lo) is float and type(r.hi) is float, r
    assert Interval(r.lo, r.hi) == r
    if r.lo > r.hi:
        assert r == EMPTY


def test_every_operation_result_passes_the_constructor():
    ivs = _edge_intervals()
    for a in ivs:
        _assert_valid(-a)
        for fn in ("sqr", "sqrt", "exp", "log", "sin", "cos"):
            _assert_valid(getattr(a, fn)())
        for n in range(7):
            _assert_valid(a.pow_int(n))
        for n in range(1, 7):
            _assert_valid(a.root_int(n))
        for c in (-0.0, 1.5):
            for r in (a + c, c + a, a - c, c - a, a * c, c * a, a / c, c / a):
                _assert_valid(r)
        for b in ivs:
            for r in (a + b, a - b, a * b, a / b, a.intersect(b), a.hull(b)):
                _assert_valid(r)


# ---------------------------------------------------------------------------
# hypothesis strategies


def finite_floats(bound=1e9):
    return st.floats(min_value=-bound, max_value=bound, allow_nan=False)


@st.composite
def intervals(draw, bound=1e9):
    a = draw(finite_floats(bound))
    b = draw(finite_floats(bound))
    return Interval(min(a, b), max(a, b))


@st.composite
def interval_and_point(draw, bound=1e9):
    iv = draw(intervals(bound))
    p = draw(st.floats(min_value=iv.lo, max_value=iv.hi, allow_nan=False))
    return iv, p


@st.composite
def nested_intervals(draw, bound=1e6):
    outer = draw(intervals(bound))
    lo = draw(st.floats(min_value=outer.lo, max_value=outer.hi, allow_nan=False))
    hi = draw(st.floats(min_value=lo, max_value=outer.hi, allow_nan=False))
    return Interval(lo, hi), outer


# ---------------------------------------------------------------------------
# containment: the fundamental theorem, checked against exact rationals


@given(interval_and_point(), interval_and_point(), st.sampled_from("+-*/"))
def test_field_ops_contain_exact_result(ap, bp, op):
    (a, p), (b, q) = ap, bp
    if op == "+":
        result, exact = a + b, Fraction(p) + Fraction(q)
    elif op == "-":
        result, exact = a - b, Fraction(p) - Fraction(q)
    elif op == "*":
        result, exact = a * b, Fraction(p) * Fraction(q)
    else:
        assume(q != 0.0)
        result, exact = a / b, Fraction(p) / Fraction(q)
    assert contains_fraction(result, exact)


@given(interval_and_point(), st.integers(min_value=0, max_value=7))
def test_pow_contains_exact_result(ap, n):
    iv, p = ap
    assert contains_fraction(iv.pow_int(n), Fraction(p) ** n)


@given(interval_and_point(bound=1e8), st.sampled_from(["sqrt", "exp", "log", "sin", "cos"]))
def test_transcendentals_contain_high_precision_result(ap, fn):
    iv, p = ap
    result = getattr(iv, fn)()
    with mpmath.workprec(120):
        if fn == "sqrt":
            assume(p >= 0.0)
            val = mpmath.sqrt(p)
        elif fn == "log":
            assume(p > 0.0)
            val = mpmath.log(p)
        else:
            val = getattr(mpmath, fn)(p)
        assert not result.is_empty
        assert result.lo <= val <= result.hi


@given(nested_intervals(), nested_intervals(), st.sampled_from("+-*/"))
def test_inclusion_monotonicity_binary(ab, cd, op):
    a, big_a = ab
    c, big_c = cd
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
           "*": lambda u, v: u * v, "/": lambda u, v: u / v}
    small = ops[op](a, c)
    large = ops[op](big_a, big_c)
    assert small.subset_of(large)


@given(nested_intervals(), st.sampled_from(["sqr", "sqrt", "exp", "log", "sin", "cos"]))
def test_inclusion_monotonicity_unary(ab, fn):
    a, big_a = ab
    assert getattr(a, fn)().subset_of(getattr(big_a, fn)())


@given(intervals(), intervals(), intervals())
def test_hull_algebra(a, b, c):
    assert a.hull(b) == b.hull(a)
    assert a.hull(a) == a
    assert a.subset_of(a.hull(b))
    assert a.hull(b).hull(c) == a.hull(b.hull(c))


@given(intervals(), intervals())
def test_intersection_is_largest_common_subset(a, b):
    r = a.intersect(b)
    assert r.subset_of(a) and r.subset_of(b)
    if not r.is_empty:
        assert a.contains(r.lo) and b.contains(r.lo)


# ---------------------------------------------------------------------------
# boxes


def test_box_width_is_max_coordinate_width():
    b = Box.from_bounds([(0.0, 15.0), (1.0, 2.0)])
    assert b.width == 15.0
    assert Box(()).width == 0.0
    assert Box.from_bounds([(0.0, 15.0)]).width == 15.0


def test_box_emptiness_and_zero_dim():
    assert Box.empty(2).is_empty
    assert not Box(()).is_empty, "the empty product is a point, not empty"
    partial = Box((Interval(0.0, 1.0), EMPTY))
    assert partial.is_empty


def test_box_midpoint_and_volume():
    b = Box.from_bounds([(0.0, 15.0), (1.0, 2.0)])
    assert b.midpoint == (7.5, 1.5)
    assert b.exact_volume() == Fraction(15)
    assert Box.empty(2).exact_volume() == 0
    assert Box(()).exact_volume() == 1


def test_box_contains():
    b = Box.from_bounds([(0.0, 1.0), (0.0, 1.0)])
    assert b.contains((0.0, 1.0))
    assert not b.contains((1.5, 0.5))
    with pytest.raises(ValueError):
        b.contains((0.5,))


def test_box_bisect():
    b = Box.from_bounds([(0.0, 15.0)])
    lo_half, hi_half = b.bisect(0)
    assert lo_half.dims[0] == Interval(0.0, 7.5)
    assert hi_half.dims[0] == Interval(7.5, 15.0)
    with pytest.raises(ValueError):
        Box.from_bounds([(1.0, 1.0)]).bisect(0)


def test_box_hull_empty_identity():
    b = Box.from_bounds([(0.0, 1.0), (2.0, 3.0)])
    assert Box.empty(2).hull(b) == b
    assert b.hull(Box.empty(2)) == b
    with pytest.raises(ValueError):
        b.hull(Box.from_bounds([(0.0, 1.0)]))


def test_set_difference_closure_examples():
    outer = Box.from_bounds([(-10.0, 10.0)])
    inner = Box.from_bounds([(-1.0, 1.0)])
    pieces = outer.set_difference_closure(inner)
    assert [(p.dims[0].lo, p.dims[0].hi) for p in pieces] == [(-10.0, -1.0), (1.0, 10.0)]
    assert outer.set_difference_closure(outer) == []
    assert outer.set_difference_closure(Box.empty(1)) == [outer]
    tail = Box.from_bounds([(4.75, 15.0)]).set_difference_closure(
        Box.from_bounds([(4.75, 10.0)])
    )
    assert len(tail) == 1 and tail[0].dims[0] == Interval(10.0, 15.0)


@st.composite
def box_and_inner(draw, max_dim=3):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    outer = []
    inner = []
    for _ in range(n):
        a = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        b = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
        lo, hi = min(a, b), max(a, b)
        outer.append((lo, hi))
        ilo = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
        ihi = draw(st.floats(min_value=ilo, max_value=hi, allow_nan=False))
        inner.append((ilo, ihi))
    return Box.from_bounds(outer), Box.from_bounds(inner)


@given(box_and_inner())
def test_set_difference_closure_is_exact_partition(pair):
    outer, inner = pair
    pieces = outer.set_difference_closure(inner)
    assert len(pieces) <= 2 * len(outer)
    for piece in pieces:
        assert outer.contains_box(piece)
    # pieces plus the inner box partition the outer box, volume-exactly
    total = sum((p.exact_volume() for p in pieces), start=Fraction(0))
    assert total + inner.exact_volume() == outer.exact_volume()


@given(box_and_inner(max_dim=2), st.data())
def test_set_difference_closure_covers_outside_points(pair, data):
    outer, inner = pair
    pieces = outer.set_difference_closure(inner)
    point = tuple(
        data.draw(st.floats(min_value=iv.lo, max_value=iv.hi, allow_nan=False))
        for iv in outer.dims
    )
    if not inner.contains(point):
        assert any(p.contains(point) for p in pieces)


@given(box_and_inner(max_dim=2))
def test_bisect_partitions_volume(pair):
    box, _ = pair
    axis = max(range(len(box)), key=lambda i: box.dims[i].width)
    if box.dims[axis].width == 0.0:
        return
    try:
        lo_half, hi_half = box.bisect(axis)
    except ValueError:
        return  # too thin to split at a strictly interior midpoint
    assert lo_half.exact_volume() + hi_half.exact_volume() == box.exact_volume()
    assert lo_half.dims[axis].hi == hi_half.dims[axis].lo


# ---------------------------------------------------------------------------
# directed-rounding kernels against an exact rational reference

MAX = sys.float_info.max
TINY = 5e-324  # smallest subnormal
# 2**+-450 bound the operands whose rounding errors are found in floats;
# they and their neighbours run both that path and the integer fallback
EFT_EDGES = [
    f for e in (2.0**-450, 2.0**450) for f in (math.nextafter(e, 0.0), e, math.nextafter(e, INF))
]
SPECIAL = [
    TINY, -TINY, 3 * TINY, sys.float_info.min, MAX, -MAX, 1.0, -3.0, 0.1, 2.0**-1070,
    *EFT_EDGES, *(-f for f in EFT_EDGES),
]


def floor_float(x: Fraction) -> float:
    """Largest double <= x, with -inf below -MAX and MAX above it."""
    if x > MAX:
        return MAX
    if x < -MAX:
        return -INF
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -INF)


def ceil_float(x: Fraction) -> float:
    return -floor_float(-x)


def kernel_floats():
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL)
    )


def check_div(a: float, b: float) -> None:
    exact = Fraction(a) / Fraction(b)
    assert _div_down(a, b) == floor_float(exact), (a, b)
    assert _div_up(a, b) == ceil_float(exact), (a, b)


@given(kernel_floats(), kernel_floats().filter(lambda b: b != 0.0))
def test_div_kernels_are_the_tightest_outward_floats(a, b):
    check_div(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (6.0, 3.0),  # exact quotient
        (-6.0, 3.0),
        (6.0, -3.0),  # negative divisor
        (-1.0, -3.0),
        (1.0, 3.0),
        (MAX, 2.0),  # exact, top binade
        (MAX, -1.0),
        (MAX, 0.5),  # overflows
        (-MAX, 0.5),
        (MAX, -0.5),
        (2 * TINY, 2.0),  # exact subnormal quotient
        (TINY, 3.0),  # below the smallest subnormal
        (-TINY, 3.0),
        (TINY, -2.0),  # exact tie at half the smallest subnormal
        (3 * TINY, MAX),
        (1.0, MAX),
        (MAX, TINY),
        (-MAX, -TINY),
        (sys.float_info.min, 3.0),  # normal to subnormal
    ],
)
def test_div_kernels_at_the_edges(a, b):
    check_div(a, b)


def check_mul(a: float, b: float) -> None:
    exact = Fraction(a) * Fraction(b)
    assert _mul_down(a, b) == floor_float(exact), (a, b)
    assert _mul_up(a, b) == ceil_float(exact), (a, b)


@given(kernel_floats(), kernel_floats())
def test_mul_kernels_are_the_tightest_outward_floats(a, b):
    check_mul(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (0.1, 0.1),  # inexact, float path
        (-0.1, 3.0),
        (2.0**449, 2.0**449),  # largest products the float path sees
        (math.nextafter(2.0**450, 0.0), -0.1),
        (2.0**450, 0.1),  # just outside: integer fallback
        (2.0**-450, 0.1),
        (math.nextafter(2.0**-450, INF), 0.1),  # smallest operands inside
        (2.0**-449, -(2.0**-449)),
        (MAX, 0.5),  # exact, top binade
        (MAX, 2.0),  # overflows
        (-MAX, 3.0),
        (TINY, 0.5),  # ties to zero
        (-TINY, 0.5),
        (3 * TINY, 0.1),
        (sys.float_info.min, 0.1),  # normal to subnormal
    ],
)
def test_mul_kernels_at_the_edges(a, b):
    check_mul(a, b)


def check_prod_cmp(x: float, y: float, v: float) -> None:
    exact = Fraction(x) * Fraction(y) - Fraction(v)
    assert _prod_cmp(x, y, v) == (exact > 0) - (exact < 0), (x, y, v)


def near_product(x: float, y: float) -> list[float]:
    """fl(x*y) and its two neighbours, the finite ones among them."""
    p = x * y
    return [f for f in (p, math.nextafter(p, INF), math.nextafter(p, -INF)) if math.isfinite(f)]


@given(kernel_floats(), kernel_floats(), st.data())
def test_prod_cmp_is_the_exact_sign(x, y, data):
    v = data.draw(st.one_of(st.sampled_from(near_product(x, y)), kernel_floats()))
    check_prod_cmp(x, y, v)


@pytest.mark.parametrize(
    "x, y",
    [
        (0.1, 0.1),  # inexact: fl(x*y) != x*y
        (3.0, -7.0),  # exact
        (TINY, 0.5),  # subnormal products
        (3 * TINY, 0.1),
        (2.0**-540, 2.0**-530),
        (sys.float_info.min, -0.1),
        (MAX, 0.5),  # top binade
        (math.nextafter(MAX, 0.0), math.nextafter(1.0, 0.0)),
        (2.0**512, 2.0**511 * 1.9999999999999998),
        (MAX, 2.0),  # overflowing products
        (-MAX, math.nextafter(1.0, INF)),
        (math.nextafter(2.0**450, 0.0), 2.0**450),  # across the float path's range
        (2.0**-450, math.nextafter(2.0**-450, INF)),
    ],
)
def test_prod_cmp_at_the_edges(x, y):
    for v in near_product(x, y) + [0.0, -0.0, TINY, -TINY, MAX, -MAX]:
        check_prod_cmp(x, y, v)
        check_prod_cmp(-x, y, -v)


@given(kernel_floats().map(abs))
def test_sqrt_kernels_are_the_tightest_outward_floats(v):
    down, up = _root_down(v, 2), _root_up(v, 2)
    assert Fraction(down) ** 2 <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** 2
    assert Fraction(v) <= Fraction(up) ** 2
    assert up == 0.0 or Fraction(math.nextafter(up, -INF)) ** 2 < Fraction(v)


@given(kernel_floats().map(abs))
def test_square_root_kernels_bracket_the_root(v):
    down, up = _root_down(v, 2), _root_up(v, 2)
    assert Fraction(down) ** 2 <= Fraction(v) <= Fraction(up) ** 2


@given(kernel_floats().map(abs), st.integers(min_value=3, max_value=6))
def test_root_kernels_are_the_tightest_outward_floats(v, n):
    down, up = _root_down(v, n), _root_up(v, n)
    assert Fraction(down) ** n <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** n
    assert Fraction(v) <= Fraction(up) ** n
    assert up == 0.0 or Fraction(math.nextafter(up, -INF)) ** n < Fraction(v)


MIN_NORMAL = sys.float_info.min
ROOT_EDGES = [TINY, 2 * TINY, 3 * TINY, 2.0**-1060, math.nextafter(MIN_NORMAL, 0.0), MIN_NORMAL,
              MAX / 3, math.nextafter(MAX, 0.0), MAX]


def check_root(v: float, n: int) -> None:
    down, up = _root_down(v, n), _root_up(v, n)
    assert Fraction(down) ** n <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** n, (v, n)
    assert Fraction(math.nextafter(up, -INF)) ** n < Fraction(v) <= Fraction(up) ** n, (v, n)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_root_walk_is_tight_at_the_ends_of_the_range(n):
    for v in ROOT_EDGES:
        check_root(v, n)


@given(
    st.one_of(
        st.floats(min_value=TINY, max_value=MIN_NORMAL),
        st.floats(min_value=MAX / 2, max_value=MAX),
        st.floats(min_value=TINY, max_value=MAX),
    ),
    st.sampled_from([3, 4, 5, 7]),
)
def test_root_walk_is_the_tightest_double(v, n):
    check_root(v, n)


def test_cube_root_of_a_huge_bound_is_the_tightest_double():
    # the unscaled start 1e300 ** (1/3) is more than 64 ulps off the root
    r = Interval(8.0, 1e300).root_int(3)
    assert r.lo == 2.0
    assert Fraction(r.hi) ** 3 >= Fraction(1e300) > Fraction(math.nextafter(r.hi, 0.0)) ** 3
    assert Fraction(_root_down(1e-300, 3)) ** 3 <= Fraction(1e-300)
    assert Fraction(math.nextafter(_root_down(1e-300, 3), INF)) ** 3 > Fraction(1e-300)


def check_add(a: float, b: float) -> Interval:
    exact = Fraction(a) + Fraction(b)
    r = Interval(*_add(a, a, b, b))
    assert r.lo == floor_float(exact), (a, b)
    assert r.hi == ceil_float(exact), (a, b)
    return r


@given(kernel_floats(), kernel_floats())
def test_add_kernels_are_the_tightest_outward_floats(a, b):
    check_add(a, b)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_add_kernels_when_the_error_term_overflows(sign):
    # a + b = MAX - 2**971 - 2**970 ties to MAX - 2**971, and s - a overflows
    a, b = sign * -3 * 2.0**970, sign * MAX
    assert math.isinf((a + b) - a)
    r = check_add(a, b)
    assert math.nextafter(r.lo, INF) == r.hi


# ---------------------------------------------------------------------------
# products and quotients bit for bit against the hull of all four
# directed candidates, signed zeros included


def four_candidate_hull(x: Interval, y: Interval, down, up) -> tuple[float, float]:
    """min of the rounded-down and max of the rounded-up candidates, in this
    order; min and max keep the first of tied zeros."""
    pairs = ((x.lo, y.lo), (x.lo, y.hi), (x.hi, y.lo), (x.hi, y.hi))
    return min(down(a, b) for a, b in pairs), max(up(a, b) for a, b in pairs)


HULL_EDGES = [0.0, -0.0, INF, -INF, 1e-170, -1e-170, 1e-300, -1e-300, *SPECIAL]


def edge_interval(rng: random.Random) -> Interval:
    while True:
        bounds = []
        for _ in range(2):
            r = rng.random()
            if r < 0.5:
                bounds.append(rng.choice(HULL_EDGES))
            elif r < 0.75:
                bounds.append(rng.uniform(-10.0, 10.0))
            else:
                bounds.append(math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024)))
        lo, hi = min(bounds), max(bounds)
        if not (lo == hi and math.isinf(lo)):
            return Interval(lo, hi)


def hexes(lo: float, hi: float) -> tuple[str, str]:
    return lo.hex(), hi.hex()


def test_mul_and_div_match_the_four_candidate_hull_bit_for_bit():
    rng = random.Random(1971)
    for _ in range(20_000):
        x, y = edge_interval(rng), edge_interval(rng)
        r = x * y
        assert hexes(r.lo, r.hi) == hexes(*four_candidate_hull(x, y, _mul_down, _mul_up)), (x, y)
        if y.lo > 0.0 or y.hi < 0.0:
            r = x / y
            assert hexes(r.lo, r.hi) == hexes(*four_candidate_hull(x, y, _div_down, _div_up)), (x, y)


def test_mul_keeps_the_sign_of_an_underflowed_zero_upper_bound():
    # the first candidate, lo * lo, underflows from below to -0.0
    r = Interval(3.3589380537835444e-139, 5.969158481563145) * Interval(-TINY, 0.0)
    assert r.hi.hex() == "-0x0.0p+0"
    assert r.lo == -6 * TINY  # hi * lo = -5.97 * TINY, rounded down


def fraction_volume(box: Box) -> Fraction:
    v = Fraction(1)
    for iv in box.dims:
        v *= Fraction(iv.hi) - Fraction(iv.lo)
    return v


@st.composite
def finite_boxes(draw, values):
    n = draw(st.integers(min_value=0, max_value=4))
    bounds = []
    for _ in range(n):
        a, b = draw(values), draw(values)
        bounds.append((min(a, b), max(a, b)))
    return Box.from_bounds(bounds)


@given(
    st.one_of(
        finite_boxes(st.floats(allow_nan=False, allow_infinity=False)),
        finite_boxes(st.floats(min_value=-1e-300, max_value=1e-300)),
        finite_boxes(st.sampled_from(SPECIAL)),
    )
)
def test_exact_volume_is_the_rational_product(box):
    assert box.exact_volume() == fraction_volume(box)


def test_exact_volume_edge_boxes():
    assert Box.empty(3).exact_volume() == 0
    assert Box(()).exact_volume() == 1
    sub = Box.from_bounds([(0.0, TINY), (-TINY, 2 * TINY)])
    assert sub.exact_volume() == Fraction(3, 2**2148)
    big = Box.from_bounds([(-MAX, MAX)] * 2)
    assert big.exact_volume() == (2 * Fraction(MAX)) ** 2
    with pytest.raises(ValueError):
        Box.from_bounds([(0.0, INF)]).exact_volume()


# ---------------------------------------------------------------------------
# the one-pass Box code against the code it replaced, bit for bit


def _width_ref(box: Box) -> float:
    """Reference: Box.width as the max of the coordinates' width properties."""
    if box.is_empty or not box.dims:
        return 0.0
    return max(iv.width for iv in box.dims)


def _widest_axis_ref(box: Box) -> int:
    """Reference: solver._widest_axis reading two width properties per step."""
    best = 0
    for i in range(1, len(box)):
        if box.dims[i].width > box.dims[best].width:
            best = i
    return best


def _dyadic_volume_ref(box: Box) -> tuple[int, int]:
    """Reference: each width as hi - lo over the product of the bounds' ratios."""
    if box.is_empty:
        return 0, 0
    num = den = 1
    for iv in box.dims:
        lo, hi = iv.lo, iv.hi
        if lo == -INF or hi == INF:
            raise ValueError("exact volume of an unbounded box")
        hm, hd = hi.as_integer_ratio()
        lm, ld = lo.as_integer_ratio()
        num *= hm * ld - lm * hd
        den *= hd * ld
    return num, den.bit_length() - 1


def _intersect_ref(a: Box, b: Box) -> Box:
    """Reference: Box.intersect building a new box every time."""
    return Box(tuple(x.intersect(y) for x, y in zip(a.dims, b.dims)))


def _hull_ref(a: Box, b: Box) -> Box:
    """Reference: Box.hull, which the identification folded from the empty box."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Box(tuple(x.hull(y) for x, y in zip(a.dims, b.dims)))


def _closure_ref(outer: Box, inner: Box) -> list[Box]:
    """Reference: set_difference_closure rebuilding every coordinate tuple."""
    if outer.is_empty:
        return []
    inner = _intersect_ref(outer, inner)
    if inner.is_empty:
        return [outer]
    pieces: list[Box] = []
    cur = list(outer.dims)
    for k, (outer_iv, inner_iv) in enumerate(zip(outer.dims, inner.dims)):
        if inner_iv.lo > outer_iv.lo:
            pieces.append(Box(tuple(cur[:k]) + (Interval(outer_iv.lo, inner_iv.lo),) + tuple(cur[k + 1:])))
        if inner_iv.hi < outer_iv.hi:
            pieces.append(Box(tuple(cur[:k]) + (Interval(inner_iv.hi, outer_iv.hi),) + tuple(cur[k + 1:])))
        cur[k] = inner_iv
    return pieces


def _box_bits(box: Box) -> tuple:
    # float.hex tells -0.0 from 0.0
    return tuple((iv.lo.hex(), iv.hi.hex()) for iv in box.dims)


# hi - lo overflows on [-1e308, 1e308], where the exact-width path must not run
BOX_EDGES = [0.0, -0.0, TINY, -TINY, 1e308, -1e308, MAX, -MAX, 1.0, 0.1, -3.0, 2.0**-1070]


@st.composite
def edge_intervals(draw, finite=False):
    if draw(st.integers(0, 9)) == 0:
        return EMPTY
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=not finite), st.sampled_from(BOX_EDGES))
    a, b = draw(values), draw(values)
    assume(not (a == b and math.isinf(a)))
    return Interval(min(a, b), max(a, b))


@st.composite
def box_pairs(draw, finite=False):
    """(a, b) of one dimension; each of b's coordinates is a's own object, a's
    with its zeros' signs flipped, a wider or narrower copy, or any interval."""
    n = draw(st.integers(min_value=0, max_value=4))
    a = Box(tuple(draw(edge_intervals(finite)) for _ in range(n)))
    dims = []
    for iv in a.dims:
        kind = draw(st.integers(0, 3))
        if kind == 0 or iv.is_empty:
            dims.append(iv)
        elif kind == 1:
            dims.append(Interval(-iv.lo if iv.lo == 0.0 else iv.lo, -iv.hi if iv.hi == 0.0 else iv.hi))
        elif kind == 2:
            lo, hi = draw(st.sampled_from([(iv.lo, iv.hi), (-INF, iv.hi), (iv.lo, INF), (iv.lo, iv.lo)]))
            dims.append(Interval(lo, hi))
        else:
            dims.append(draw(edge_intervals(finite)))
    return a, Box(tuple(dims))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=400)
@given(box_pairs())
def test_box_code_matches_its_reference_bit_for_bit(pair):
    from qine.solver import _widest_axis

    a, b = pair
    for box in pair:
        assert box.width.hex() == _width_ref(box).hex()
        assert _widest_axis(box) == _widest_axis_ref(box)
        got, ref = _outcome(Box.dyadic_volume, box), _outcome(_dyadic_volume_ref, box)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert Fraction(got[0], 1 << got[1]) == Fraction(ref[0], 1 << ref[1])
    assert _box_bits(a.intersect(b)) == _box_bits(_intersect_ref(a, b))
    got, ref = a.set_difference_closure(b), _closure_ref(a, b)
    assert [_box_bits(p) for p in got] == [_box_bits(p) for p in ref]
    assert _box_bits(a.hull(b)) == _box_bits(_hull_ref(a, b))
    # the identification's hull starts from the first region
    regions = [box for box in (a, b, a.intersect(b)) if not box.is_empty]
    folded = Box.empty(len(a))
    for box in regions:
        folded = _hull_ref(folded, box)
    if regions:
        first = regions[0]
        for box in regions[1:]:
            first = first.hull(box)
        assert _box_bits(first) == _box_bits(folded)


def test_box_intersect_returns_self_when_no_coordinate_is_cut():
    a = Box.from_bounds([(0.0, 1.0), (-0.0, 2.0)])
    # b holds a with its zeros signed the other way: a's own zeros come back
    assert a.intersect(Box.from_bounds([(-0.0, 1.0), (0.0, 2.0)])) is a
    cut = a.intersect(Box.from_bounds([(-1.0, 1.0), (0.0, 1.0)]))
    assert cut is not a and cut.dims[0] is a.dims[0]
    assert _box_bits(cut) == ((0.0.hex(), 1.0.hex()), ((-0.0).hex(), 1.0.hex()))


def test_dyadic_volume_falls_back_where_the_width_is_inexact():
    for bounds in ([(-1e308, 1e308)], [(-MAX, MAX), (0.0, TINY)], [(0.1, 1e20)], [(-TINY, 1.0)]):
        box = Box.from_bounds(bounds)
        m, k = box.dyadic_volume()
        assert Fraction(m, 1 << k) == fraction_volume(box)
        rm, rk = _dyadic_volume_ref(box)
        assert Fraction(m, 1 << k) == Fraction(rm, 1 << rk)
    half_empty = Box((Interval(-INF, 0.0), EMPTY))
    assert half_empty.dyadic_volume() == _dyadic_volume_ref(half_empty) == (0, 0)
