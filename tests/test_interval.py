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

from helpers import assert_interval, contains_fraction, subset
from qine import interval
from qine.interval import (
    EMPTY,
    Box,
    Interval,
    _add,
    _div_bound,
    _mul_bound,
    _root,
    _root_walk,
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
        interval._midpoint(EMPTY.lo, EMPTY.hi)


def test_unbounded_intervals_are_allowed():
    iv = Interval(-INF, 3.0)
    assert iv.lo <= -1e308 <= iv.hi
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


@pytest.mark.parametrize(
    "method, n",
    [("root_int", 0), ("root_int", -2), ("root_int", -3), ("root_int", 100000), ("root_int", 2.5),
     ("pow_int", -1), ("pow_int", 1025)],
)
def test_an_exponent_out_of_range_is_refused_before_any_arithmetic(method, n, monkeypatch):
    # root_int(0) divided by zero, root_int(-2) of [4, 9] was empty and
    # root_int(100000) walked for seconds
    def unreached(*args):
        raise AssertionError("the exponent was not checked first")

    monkeypatch.setattr(interval, "_root", unreached)
    monkeypatch.setattr(interval, "_pow", unreached)
    with pytest.raises(ValueError, match="exponent"):
        getattr(Interval(0.5, 2.0), method)(n)


@pytest.mark.parametrize("method, n", [("pow_int", True), ("pow_int", False), ("root_int", True), ("root_int", False)])
def test_a_bool_exponent_is_refused(method, n):
    # a bool is an int, but the kernels' sources would hold it as True or False
    with pytest.raises(ValueError, match=f"exponent {n} is not an integer"):
        getattr(Interval(0.5, 2.0), method)(n)


@pytest.mark.parametrize("v", [0.1, 1e-300])
def test_a_power_bound_stuck_at_zero_or_the_least_subnormal_stops_multiplying(v, monkeypatch):
    # v's exponent alone puts v**400 and v**1024 below the least subnormal,
    # so no product is rounded and no integer power is formed
    def unreached(*args):
        raise AssertionError("a power below the least subnormal was computed")

    monkeypatch.setattr(interval, "_mul_edge", unreached)
    monkeypatch.setattr(interval, "_round", unreached)
    for n in (400, 1024):
        assert interval._pow(v, v, n) == (0.0, 5e-324)


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
    # the slack around 1e300 / 3 is about 3e287, so the window counts far
    # more than two half periods and holds a maximum and a minimum
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


@pytest.mark.parametrize(
    "text, bounds",
    [
        ("1e-9999999999999999999", (0.0, 5e-324)),
        ("-1e-9999999999999999999", (-5e-324, -0.0)),
        ("0e-9999999999999999999", (0.0, 0.0)),
    ],
)
def test_literal_bounds_past_the_decimal_exponent_range(text, bounds):
    # Decimal cannot hold this exponent; the signed zero and the mantissa's
    # digits decide the side
    assert [b.hex() for b in interval._literal_bounds(text)] == [b.hex() for b in bounds]


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


def _sin_cos_intervals(rng: random.Random, n: int):
    """Random intervals: 40% with a bound 1e-12 to 1e-7 from some k*pi/2
    up to 1.1e6, 20% one ulp wide around some k*pi/2 near 1e10, the rest
    up to 1e6 in magnitude.

    Near 1e10 the true sin and cos at such bounds are not within two ulps
    of 1 or -1, so the clamp after widening cannot hide a missed extremum.
    """
    for _ in range(n):
        kind = rng.random()
        lo = rng.uniform(-1e6, 1e6) * 10 ** rng.uniform(-7, 0)
        hi = lo + 10 ** rng.uniform(-12, 1)
        if kind < 0.4:
            k = rng.randint(-700_000, 700_000)
            lo = float(k * mpmath.pi / 2) + rng.choice((-1, 1)) * 10 ** rng.uniform(-12, -7)
            hi = lo + 10 ** rng.uniform(-12, 1)
        elif kind < 0.6:
            t = rng.randint(10**9, 10**10) * mpmath.pi / 2
            c = float(t)
            lo, hi = (c, math.nextafter(c, INF)) if c < t else (math.nextafter(c, -INF), c)
        yield (lo, hi) if rng.random() < 0.5 else (-hi, -lo)


def _extremum_parities(lo: float, hi: float, peak, margin) -> set[int]:
    """{0} for a maximum, {1} for a minimum at peak + j*pi within [lo - margin, hi + margin]."""
    first = int(mpmath.ceil((lo - margin - peak) / mpmath.pi))
    last = int(mpmath.floor((hi + margin - peak) / mpmath.pi))
    return {j % 2 for j in range(first, min(last, first + 1) + 1)}


def test_sin_cos_extrema_against_mpmath():
    # the slack is 1e-9 + 1e-12 * max(|lo|, |hi|); beside an extremum that
    # close, 1 or -1 may also come from widening a value within two ulps
    # of it and clamping
    rng = random.Random(20081)
    with mpmath.workprec(200):
        for lo, hi in _sin_cos_intervals(rng, 3000):
            slack = mpmath.mpf(1e-9 + 1e-12 * max(abs(lo), abs(hi)))
            for name, peak in (("sin", mpmath.pi / 2), ("cos", mpmath.mpf(0))):
                r = getattr(Interval(lo, hi), name)()
                fn = getattr(mpmath, name)
                low, high = sorted((fn(lo), fn(hi)))
                inside = _extremum_parities(lo, hi, peak, 0)
                near = _extremum_parities(lo, hi, peak, 2 * slack)
                case = (name, lo, hi)
                assert r.lo <= low and high <= r.hi, case
                if 0 in inside:
                    assert r.hi == 1.0, case
                if 1 in inside:
                    assert r.lo == -1.0, case
                if r.hi == 1.0:
                    assert 0 in near or high > 1 - 2**-50, case
                if r.lo == -1.0:
                    assert 1 in near or low < -1 + 2**-50, case


@given(nested_intervals(), nested_intervals(), st.sampled_from("+-*/"))
def test_inclusion_monotonicity_binary(ab, cd, op):
    a, big_a = ab
    c, big_c = cd
    ops = {"+": lambda u, v: u + v, "-": lambda u, v: u - v,
           "*": lambda u, v: u * v, "/": lambda u, v: u / v}
    small = ops[op](a, c)
    large = ops[op](big_a, big_c)
    assert subset(small, large)


@given(nested_intervals(), st.sampled_from(["sqr", "sqrt", "exp", "log", "sin", "cos"]))
def test_inclusion_monotonicity_unary(ab, fn):
    a, big_a = ab
    assert subset(getattr(a, fn)(), getattr(big_a, fn)())


@given(intervals(), intervals(), intervals())
def test_hull_algebra(a, b, c):
    assert a.hull(b) == b.hull(a)
    assert a.hull(a) == a
    assert subset(a, a.hull(b))
    assert a.hull(b).hull(c) == a.hull(b.hull(c))


@given(intervals(), intervals())
def test_intersection_is_largest_common_subset(a, b):
    r = a.intersect(b)
    assert subset(r, a) and subset(r, b)
    if not r.is_empty:
        assert a.lo <= r.lo <= a.hi and b.lo <= r.lo <= b.hi


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
    assert b.exact_volume() == Fraction(15)
    assert Box.empty(2).exact_volume() == 0
    assert Box(()).exact_volume() == 1


def _value_cases(rng: random.Random):
    """(box, ref) pairs: a Box and the tuple of Intervals it is built from, 0 to 3 of them.

    The coordinates take signed zeros, subnormals, infinities, the largest
    double and the empty interval; every other case is the previous one with
    the sign of each zero flipped, which an Interval compares equal.
    """
    edges = (0.0, -0.0, TINY, -TINY, 2.5e-310, -1e-310, 1.0, -1.5, INF, -INF, MAX, -MAX)
    ref: tuple[Interval, ...] = ()
    for case in range(3000):
        if case % 2:
            ref = tuple(iv if iv.is_empty else Interval(-iv.lo if iv.lo == 0.0 else iv.lo,
                                                        -iv.hi if iv.hi == 0.0 else iv.hi) for iv in ref)
        else:
            dims = []
            while len(dims) < case // 2 % 4:
                lo, hi = sorted((rng.choice(edges + (rng.uniform(-3.0, 3.0),)) for _ in "ab"))
                if rng.random() < 0.1:
                    dims.append(EMPTY)
                elif not (lo == hi and math.isinf(lo)):
                    dims.append(Interval(lo, hi))
            ref = tuple(dims)
        yield Box(ref), ref


def test_box_value_semantics_match_a_tuple_of_intervals():
    # a Box holds one flat tuple of bounds; read through dims, [i],
    # iteration, len, ==, hash, str and repr it behaves as the tuple of
    # Intervals it was built from, bit for bit, and the flat _contains
    # tells its points as the Intervals' bounds do
    import dataclasses

    def bits(intervals):
        return [(iv.lo.hex(), iv.hi.hex()) for iv in intervals]

    rng = random.Random(3301)
    seen = {"signed zero": 0, "subnormal": 0, "infinite": 0, "empty": 0, "equal twins": 0, "0-d": 0}
    prev_box, prev_ref = Box(()), ()
    for box, ref in _value_cases(rng):
        n = len(ref)
        assert bits(box.dims) == bits(ref) and [b.hex() for b in box.bounds] == [b for p in bits(ref) for b in p]
        assert len(box) == n and bits(box) == bits(ref)
        assert all(bits([box[i]]) == bits([ref[i]]) for i in range(-n, n))
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                box[i]
        # equality and hashing against the reference's relation
        assert (box == prev_box) == (ref == prev_ref) and (box != prev_box) == (ref != prev_ref)
        if box == prev_box:
            assert hash(box) == hash(prev_box)
            seen["equal twins"] += box.bounds != () and [b.hex() for b in box.bounds] != [b.hex() for b in prev_box.bounds]
        assert Box(box.dims) == box and hash(Box(box.dims)) == hash(box)
        assert box.is_empty == any(iv.is_empty for iv in ref)
        assert str(box) == ("x".join(map(str, ref)) if ref else "()")
        assert bits(eval(repr(box), {"Box": Box, "Interval": Interval, "inf": INF}).dims) == bits(ref)
        point = [rng.choice((iv.lo, iv.hi, 0.0, -0.0, rng.uniform(-3.0, 3.0))) for iv in ref]
        flat_point = tuple(b for p in point for b in (p, p))
        assert interval._contains(box.bounds, flat_point) == all(iv.lo <= p <= iv.hi for iv, p in zip(ref, point))
        with pytest.raises(dataclasses.FrozenInstanceError):
            box.bounds = ()
        prev_box, prev_ref = box, ref
        flat = box.bounds
        seen["signed zero"] += any(b == 0.0 and math.copysign(1.0, b) < 0 for b in flat)
        seen["subnormal"] += any(0.0 < abs(b) < sys.float_info.min for b in flat)
        seen["infinite"] += any(math.isinf(b) for iv in ref if not iv.is_empty for b in (iv.lo, iv.hi))
        seen["empty"] += box.is_empty
        seen["0-d"] += n == 0
    assert min(seen.values()) >= 100, seen
    for n in range(4):
        empty, ref = Box.empty(n), (EMPTY,) * n
        assert empty == Box(ref) and hash(empty) == hash(Box(ref)) and bits(empty) == bits(ref)
        assert len(empty) == n and empty.is_empty == (n > 0)
    assert (Box(()).dims, list(Box(())), len(Box(())), Box(()).bounds) == ((), [], 0, ())


def test_box_bisect():
    b = Box.from_bounds([(0.0, 15.0)])
    lo_half, hi_half = b.bisect(0)
    assert lo_half.dims[0] == Interval(0.0, 7.5)
    assert hi_half.dims[0] == Interval(7.5, 15.0)
    with pytest.raises(ValueError):
        Box.from_bounds([(1.0, 1.0)]).bisect(0)


def test_set_difference_closure_examples():
    # the closure of a box minus a box inside it, cut on flat bounds
    assert interval._cut((-10.0, 10.0), (-1.0, 1.0)) == [(-10.0, -1.0), (1.0, 10.0)]
    assert interval._cut((-10.0, 10.0), (-10.0, 10.0)) == []
    assert interval._cut((4.75, 15.0), (4.75, 10.0)) == [(10.0, 15.0)]


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
    r = _intersect_ref(outer, inner)
    pieces = interval._cut(outer.bounds, r.bounds)
    assert [_box_bits(interval._box(p)) for p in pieces] == [_box_bits(p) for p in _closure_ref(outer, inner)]
    assert len(pieces) <= 2 * len(outer)
    for piece in pieces:
        assert interval._contains(outer.bounds, piece)
    # pieces plus the inner box partition the outer box, volume-exactly
    total = sum((interval._box(p).exact_volume() for p in pieces), start=Fraction(0))
    assert total + r.exact_volume() == outer.exact_volume()


@given(box_and_inner(max_dim=2), st.data())
def test_set_difference_closure_covers_outside_points(pair, data):
    outer, inner = pair
    r = _intersect_ref(outer, inner)
    pieces = interval._cut(outer.bounds, r.bounds)
    point = tuple(
        data.draw(st.floats(min_value=iv.lo, max_value=iv.hi, allow_nan=False))
        for iv in outer.dims
    )

    def holds(x):
        return all(x[2 * i] <= p <= x[2 * i + 1] for i, p in enumerate(point))

    if not holds(r.bounds):
        assert any(holds(p) for p in pieces)


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
    assert _div_bound(a, b, False) == floor_float(exact), (a, b)
    assert _div_bound(a, b, True) == ceil_float(exact), (a, b)


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
    assert _mul_bound(a, b, False) == floor_float(exact), (a, b)
    assert _mul_bound(a, b, True) == ceil_float(exact), (a, b)


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


def check_pow(v: float, n: int) -> None:
    """_pow of the point v: the tightest doubles around v**n, for each sign of v."""
    for x in (v, -v):
        if math.isinf(x):
            assert interval._pow(x, x, n) == (x**n, x**n), (x, n)
            continue
        exact = Fraction(x) ** n
        assert interval._pow(x, x, n) == (floor_float(exact), ceil_float(exact)), (x, n)


@given(kernel_floats(), st.integers(min_value=3, max_value=6))
def test_pow_bounds_are_the_tightest_outward_floats(v, n):
    check_pow(v, n)


@pytest.mark.parametrize("n", [3, 64, 1023, 1024])
@pytest.mark.parametrize(
    "v", [0.0, -0.0, TINY, sys.float_info.min, 1e-300, 1.1, 1e300, MAX, INF]
)
def test_pow_bounds_at_the_edges(v, n):
    # the tightest upper bound of 1.1**3 is 1.3310000000000004
    check_pow(v, n)


@pytest.mark.parametrize(
    "exact",
    [
        Fraction(3, 4),  # a double
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(MAX) + Fraction(MAX - math.nextafter(MAX, 0.0)) / 4,  # rounds to MAX
        Fraction(MAX) + Fraction(MAX - math.nextafter(MAX, 0.0)) / 2,  # ties to inf
        -Fraction(MAX) - Fraction(MAX - math.nextafter(MAX, 0.0)) / 2,
        Fraction(MAX) ** 2,  # far past MAX
        -(Fraction(MAX) ** 2),
        Fraction(1, 1 << 1075),  # half the least subnormal: ties to 0
        Fraction(3, 1 << 1076),  # above the tie: rounds to the least subnormal
        Fraction(-1, 1 << 1075),
        Fraction(-1, 1 << 1100),  # underflows
    ],
)
def test_round_gives_the_tightest_double_on_each_side(exact):
    num, den = exact.numerator, exact.denominator
    assert interval._round(num, den, False) == floor_float(exact)
    assert interval._round(num, den, True) == ceil_float(exact)


def test_round_keeps_the_sign_of_a_negative_ratio_that_underflows():
    # -0.0, as the float product -2**-600 * 2**-600 gives it: _mul's zero
    # fix-up takes a zero bound's sign from _mul_bound rounding up
    assert math.copysign(1.0, interval._round(-1, 1 << 1100, True)) == -1.0
    assert math.copysign(1.0, _mul_bound(-(2.0**-600), 2.0**-600, True)) == -1.0
    # rounding down, the same product is the least negative subnormal
    assert interval._round(-1, 1 << 1100, False) == -TINY
    assert _mul_bound(-(2.0**-600), 2.0**-600, False) == -TINY


def check_tie(x: float, y: float) -> None:
    """The sign of x*y - p from the directed products, p = fl(x*y).

    ``_div_bound`` and ``_root`` compare fl(x*y) with a double v inline
    and, on a tie outside TwoProduct's range, take the error's sign as
    this expression does; ``check_div`` and the square-root bit-for-bit
    tests cover the other side.
    """
    p = x * y
    exact = Fraction(x) * Fraction(y) - Fraction(p)
    got = (_mul_bound(x, y, True) > p) - (_mul_bound(x, y, False) < p)
    assert got == (exact > 0) - (exact < 0), (x, y)


@given(kernel_floats(), kernel_floats())
def test_prod_cmp_is_the_exact_sign(x, y):
    assume(math.isfinite(x * y))
    check_tie(x, y)


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
        (math.nextafter(2.0**450, 0.0), 2.0**450),  # across the float path's range
        (2.0**-450, math.nextafter(2.0**-450, INF)),
    ],
)
def test_prod_cmp_at_the_edges(x, y):
    for a, b in ((x, y), (-x, y)):
        check_tie(a, b)


@pytest.mark.parametrize(
    "a, b",
    [
        (6.0, 3.0),  # exact quotients: a tie whose error is 0
        (-6.0, 3.0),
        (7.5, -2.5),
        (2.0**-400, 2.0**-40),  # quotient below 2**-450: the integer fallback
        (2.0**500, 4.0),  # quotient above 2**450
        (3.0 * 2.0**-449, 3.0),  # operands at the edge of the float path
        (1.0, 3.0),  # (1/3)*3 rounds to 1: a tie with a nonzero error
        (-1.0, 3.0),
        (1.0, -3.0),
        (10.0, 3.0),
        (1.0, 3.0 * 2.0**-460),  # divisor below 2**-450
    ],
)
def test_div_kernels_on_a_tie_of_the_rounded_product(a, b):
    assert (a / b) * b == a
    check_div(a, b)


@pytest.mark.parametrize(
    "v",
    [
        4.0, 9.0, 0.25, 2.0**-800, 2.0**800, 49.0 * 2.0**-1000,  # perfect squares
        2.0**-1000, 2.0**-1074 * 4, 2.0**1000,  # roots outside (2**-450, 2**450)
        (1.0 + 2.0**-30) ** 2,  # rounds to a tie with a nonzero error
        (3.0 + 2.0**-40) ** 2,
    ],
)
def test_sqrt_kernels_on_a_tie_of_the_rounded_product(v):
    r = math.sqrt(v)
    assert r * r == v
    down, up = interval._root(v, v, 2)
    assert Fraction(down) ** 2 <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** 2
    assert Fraction(math.nextafter(up, -INF)) ** 2 < Fraction(v) <= Fraction(up) ** 2


@given(kernel_floats().map(abs))
def test_sqrt_kernels_are_the_tightest_outward_floats(v):
    down, up = interval._root(v, v, 2)
    assert Fraction(down) ** 2 <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** 2
    assert Fraction(v) <= Fraction(up) ** 2
    assert up == 0.0 or Fraction(math.nextafter(up, -INF)) ** 2 < Fraction(v)


@given(kernel_floats().map(abs))
def test_square_root_kernels_bracket_the_root(v):
    down, up = interval._root(v, v, 2)
    assert Fraction(down) ** 2 <= Fraction(v) <= Fraction(up) ** 2


@given(kernel_floats().map(abs), st.integers(min_value=3, max_value=6))
def test_root_kernels_are_the_tightest_outward_floats(v, n):
    down, up = _root(v, v, n)
    assert Fraction(down) ** n <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** n
    assert Fraction(v) <= Fraction(up) ** n
    assert up == 0.0 or Fraction(math.nextafter(up, -INF)) ** n < Fraction(v)


MIN_NORMAL = sys.float_info.min
ROOT_EDGES = [TINY, 2 * TINY, 3 * TINY, 2.0**-1060, math.nextafter(MIN_NORMAL, 0.0), MIN_NORMAL,
              MAX / 3, math.nextafter(MAX, 0.0), MAX]


def check_root(v: float, n: int) -> None:
    down, up = _root(v, v, n)
    assert Fraction(down) ** n <= Fraction(v) < Fraction(math.nextafter(down, INF)) ** n, (v, n)
    assert Fraction(math.nextafter(up, -INF)) ** n < Fraction(v) <= Fraction(up) ** n, (v, n)


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_root_walk_is_tight_at_the_ends_of_the_range(n):
    for v in ROOT_EDGES:
        check_root(v, n)
    for up in (False, True):
        # 0 and inf are their own roots, a zero's sign dropped
        assert [_root_walk(v, n, up).hex() for v in (0.0, -0.0, INF)] == ["0x0.0p+0", "0x0.0p+0", "inf"]


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
    assert Fraction(_root_walk(1e-300, 3, False)) ** 3 <= Fraction(1e-300)
    assert Fraction(math.nextafter(_root_walk(1e-300, 3, False), INF)) ** 3 > Fraction(1e-300)


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


def four_candidate_hull(x: Interval, y: Interval, bound) -> tuple[float, float]:
    """min of the rounded-down and max of the rounded-up candidates of the
    directed bound(a, b, up), in this order; min and max keep the first of
    tied zeros."""
    pairs = ((x.lo, y.lo), (x.lo, y.hi), (x.hi, y.lo), (x.hi, y.hi))
    return min(bound(a, b, False) for a, b in pairs), max(bound(a, b, True) for a, b in pairs)


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
        assert hexes(r.lo, r.hi) == hexes(*four_candidate_hull(x, y, _mul_bound)), (x, y)
        if y.lo > 0.0 or y.hi < 0.0:
            r = x / y
            assert hexes(r.lo, r.hi) == hexes(*four_candidate_hull(x, y, _div_bound)), (x, y)


def test_mul_keeps_the_sign_of_an_underflowed_zero_upper_bound():
    # the first candidate, lo * lo, underflows from below to -0.0
    r = Interval(3.3589380537835444e-139, 5.969158481563145) * Interval(-TINY, 0.0)
    assert r.hi.hex() == "-0x0.0p+0"
    assert r.lo == -6 * TINY  # hi * lo = -5.97 * TINY, rounded down


def mul_refixing_every_zero(xl, xh, yl, yh):
    """_mul as it was before its zero-sign fix-up was guarded: every zero
    upper bound re-rounds the four candidates."""
    def down(a, b):
        return _mul_bound(a, b, False)

    def up(a, b):
        return _mul_bound(a, b, True)

    if xl > xh or yl > yh:
        return INF, -INF
    if yl >= 0.0:
        lo = down(xl, yl if xl >= 0.0 else yh)
        hi = up(xh, yh if xh >= 0.0 else yl)
    elif yh <= 0.0:
        lo = down(xh, yl if xh >= 0.0 else yh)
        hi = up(xl, yh if xl >= 0.0 else yl)
    elif xl >= 0.0:
        lo, hi = down(xh, yl), up(xh, yh)
    elif xh <= 0.0:
        lo, hi = down(xl, yh), up(xl, yl)
    else:
        lo = min(down(xl, yh), down(xh, yl))
        hi = max(up(xl, yl), up(xh, yh))
    if hi == 0.0:
        hi = max(up(xl, yl), up(xl, yh), up(xh, yl), up(xh, yh))
    return lo, hi


MUL_ZERO_EDGES = [0.0, TINY, 2.0**-450, 2.0**-451, MAX, INF]
MUL_ZERO_EDGES += [-f for f in MUL_ZERO_EDGES]  # -0.0 included
MUL_ZERO_BOXES = [
    (lo, hi) for lo in MUL_ZERO_EDGES for hi in MUL_ZERO_EDGES if lo <= hi and not (lo == hi and math.isinf(lo))
]


def test_mul_skips_its_zero_fix_up_only_where_it_changes_nothing_at_the_edges():
    # a -0.0 candidate comes only from a negative product that underflows,
    # so from a nonzero operand at most 2**-450 in magnitude
    for x in MUL_ZERO_BOXES:
        for y in MUL_ZERO_BOXES:
            assert hexes(*interval._mul(*x, *y)) == hexes(*mul_refixing_every_zero(*x, *y)), (x, y)


@given(
    st.lists(st.one_of(kernel_floats(), st.sampled_from(MUL_ZERO_EDGES)), min_size=4, max_size=4),
)
def test_mul_skips_its_zero_fix_up_only_where_it_changes_nothing(bounds):
    (xl, xh), (yl, yh) = sorted(bounds[:2]), sorted(bounds[2:])
    assume(not (xl == xh and math.isinf(xl)) and not (yl == yh and math.isinf(yl)))
    assert hexes(*interval._mul(xl, xh, yl, yh)) == hexes(*mul_refixing_every_zero(xl, xh, yl, yh))


# ---------------------------------------------------------------------------
# squares and square roots of boxes bit for bit against the exact
# reference; a zero bound of either is +0.0, so the reference adds 0.0

SQUARE_EDGES = [
    0.0, TINY, 3 * TINY, 2.0**-1070, sys.float_info.min, 0.1, 1.0, 2.0, 3.0,
    math.sqrt(MAX), math.nextafter(MAX, 0.0), MAX, *EFT_EDGES,
]
SQUARE_EDGES += [-f for f in SQUARE_EDGES] + [INF, -INF]  # -0.0 included
# one-sided, straddling and point boxes on the edges
SQUARE_BOXES = [
    (lo, hi)
    for lo in SQUARE_EDGES
    for hi in SQUARE_EDGES
    if lo <= hi and not (lo == hi and math.isinf(lo))
]


def square_hull(lo: float, hi: float) -> tuple[float, float]:
    """The tightest doubles around {x*x : lo <= x <= hi}."""
    if lo < 0.0 < hi:
        least, most = 0.0, max(-lo, hi)
    else:
        least, most = sorted((abs(lo), abs(hi)))
    up = INF if most == INF else ceil_float(Fraction(most) ** 2)
    return floor_float(Fraction(least) ** 2) + 0.0, up + 0.0


def sqrt_hull(v: float) -> tuple[float, float]:
    """The tightest doubles around sqrt(v), for finite v >= 0.

    r = floor(sqrt(v) * 2**K) / 2**K with K = 1100 is a multiple of
    2**-1074, as every double is, so no double lies in (r, sqrt(v)] and
    none in [sqrt(v), r + 2**-K) unless sqrt(v) = r.
    """
    k = 1100
    scaled = Fraction(v) * 4**k  # an integer
    n = math.isqrt(int(scaled))
    r = Fraction(n, 2**k)
    up = ceil_float(r) if n * n == scaled else ceil_float(r + Fraction(1, 2**k))
    return floor_float(r) + 0.0, up + 0.0


def root_hull(lo: float, hi: float) -> tuple[float, float]:
    """The tightest doubles around the square roots of [lo, hi] ∩ [0, inf)."""
    if hi < 0.0:
        return INF, -INF
    down = INF if lo == INF else sqrt_hull(max(lo, 0.0))[0]
    return down, INF if hi == INF else sqrt_hull(hi)[1]


def edge_and_random_boxes(seed: int) -> list[tuple[float, float]]:
    rng = random.Random(seed)
    return SQUARE_BOXES + [(iv.lo, iv.hi) for iv in (edge_interval(rng) for _ in range(5_000))]


def test_sqr_of_a_box_is_the_tightest_enclosure_bit_for_bit():
    for lo, hi in edge_and_random_boxes(1450):
        assert hexes(*interval._sqr(lo, hi)) == hexes(*square_hull(lo, hi)), (lo, hi)


def test_square_root_of_a_box_is_the_tightest_enclosure_bit_for_bit():
    for lo, hi in edge_and_random_boxes(1451):
        assert hexes(*interval._root(lo, hi, 2)) == hexes(*root_hull(lo, hi)), (lo, hi)


# ---------------------------------------------------------------------------
# the common path of each directed bound runs in the bound function's own
# frame: C functions (abs, math.nextafter, math.sqrt) are allowed, a
# Python helper is not


def python_calls(fn, *args) -> list[str]:
    """The Python functions entered while fn(*args) runs, fn first."""
    names: list[str] = []

    def record(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(record)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


@pytest.mark.parametrize(
    "name, args",
    [
        ("_sqr", (0.3, 1.7)),  # one-sided
        ("_sqr", (-1.7, -0.3)),
        ("_sqr", (-0.3, 1.7)),  # across 0
        ("_sqr", (-1.7, 0.3)),
        ("_mul_bound", (0.1, -3.0, False)),
        ("_mul_bound", (0.1, -3.0, True)),
        ("_div_bound", (1.0, 49.0, False)),
        ("_div_bound", (-1.0, 49.0, True)),
        ("_root", (2.0, 3.0, 2)),
        ("_add", (0.1, 0.3, 0.2, 0.7)),  # both bounds inexact
        ("_exp", (-0.5, 1.5)),
        ("_log", (0.5, 1.5)),
        ("_periodic", (0.1, 0.5, math.sin, math.pi / 2)),  # no extremum
        ("_periodic", (1.0, 2.0, math.sin, math.pi / 2)),  # one maximum
        ("_periodic", (3.0, 3.5, math.cos, 0.0)),  # one minimum
    ],
)
def test_the_common_path_of_a_bound_makes_no_python_call(name, args):
    # quotients and square roots whose rounded product check ties outside
    # TwoProduct's range call _mul_bound; these operands do not tie
    assert (1.0 / 49.0) * 49.0 != 1.0
    assert all(math.sqrt(v) * math.sqrt(v) != v for v in (2.0, 3.0))
    assert python_calls(getattr(interval, name), *args) == [name]


@pytest.mark.parametrize(
    "name, a, b",
    [
        ("_div_bound", 1.0, 3.0),  # (1/3)*3 rounds to 1: an inexact tie
        ("_div_bound", -1.0, 3.0),
        ("_div_bound", 6.0, -3.0),  # an exact quotient
        ("_div_bound", 7.5, 2.5),
        ("_root", 4.0, 9.0),  # perfect squares
        ("_root", (1.0 + 2.0**-30) ** 2, (3.0 + 2.0**-40) ** 2),  # inexact ties
    ],
)
def test_a_tie_of_the_rounded_product_makes_no_python_call(name, a, b):
    # the sign of the product's error on a tie comes from TwoProduct inline
    # while both operands lie in (2**-450, 2**450); a quotient is checked
    # rounding down and rounding up
    if name == "_root":
        assert all(math.sqrt(v) * math.sqrt(v) == v for v in (a, b))
        assert python_calls(interval._root, a, b, 2) == ["_root"]
    else:
        assert (a / b) * b == a
        for up in (False, True):
            assert python_calls(getattr(interval, name), a, b, up) == [name]


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
    """Reference: the solver's widest axis, reading two width properties per step."""
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
    """Reference: a ∩ b, coordinate by coordinate with Interval.intersect, in a new box."""
    return Box(tuple(x.intersect(y) for x, y in zip(a.dims, b.dims)))


def _hull_ref(a: Box, b: Box) -> Box:
    """Reference: the smallest box holding a and b, coordinate by coordinate with
    Interval.hull; the empty box is the identity."""
    if a.is_empty:
        return b
    if b.is_empty:
        return a
    return Box(tuple(x.hull(y) for x, y in zip(a.dims, b.dims)))


def _closure_ref(outer: Box, inner: Box) -> list[Box]:
    """Reference: cl(outer \\ inner) in at most 2n boxes, for any box inner,
    rebuilding every coordinate tuple: [] for an empty outer, [outer] where
    inner misses it."""
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


def _bisect_ref(box: Box, axis: int) -> tuple[Box, Box]:
    """Reference: Box.bisect through the midpoint rule and two copies of the box's Intervals."""
    iv = box.dims[axis]
    if iv.is_empty or iv.lo >= iv.hi:
        raise ValueError(f"cannot bisect degenerate axis {axis}")
    m = interval._midpoint(iv.lo, iv.hi)
    if not (iv.lo < m < iv.hi):
        raise ValueError(f"axis {axis} too thin to bisect at {m!r}")
    left, right = list(box.dims), list(box.dims)
    left[axis], right[axis] = Interval(iv.lo, m), Interval(m, iv.hi)
    return Box(left), Box(right)


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
            candidates = [(iv.lo, iv.hi), (-INF, iv.hi), (iv.lo, INF), (iv.lo, iv.lo)]
            lo, hi = draw(st.sampled_from([c for c in candidates if not (math.isinf(c[0]) and c[0] == c[1])]))
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
    from qine.interval import _shape

    a, b = pair
    for box in pair:
        assert box.width.hex() == _width_ref(box).hex()
        widest = _shape(len(box))[0]  # the solver loop's widest axis, on flat bounds
        assert widest(box.bounds)[0] == _widest_axis_ref(box)
        got, ref = _outcome(Box.dyadic_volume, box), _outcome(_dyadic_volume_ref, box)
        if isinstance(ref, str):
            assert got == ref
        else:
            assert Fraction(got[0], 1 << got[1]) == Fraction(ref[0], 1 << ref[1])
    # the flat cut of a by its intersection with b, against the reference closure
    r = _intersect_ref(a, b)  # empty where a is
    if not r.is_empty:
        got = [_box_bits(interval._box(p)) for p in interval._cut(a.bounds, r.bounds)]
        assert got == [_box_bits(p) for p in _closure_ref(a, b)]


def _bisect_outcome(box: Box, axis: int, bisect) -> object:
    try:
        halves = bisect(box, axis)
    except ValueError as exc:
        return str(exc)
    # the halves keep every other coordinate's bounds bit for bit
    keep = [i for i in range(len(box)) if i != axis % len(box)]
    assert all(_box_bits(h)[i] == _box_bits(box)[i] for h in halves for i in keep)
    return [_box_bits(h) for h in halves]


@st.composite
def bisect_cases(draw):
    """(box, axis): edge coordinates, one of them maybe one ulp wide, and any axis."""
    n = draw(st.integers(min_value=1, max_value=3))
    dims = [draw(edge_intervals()) for _ in range(n)]
    if draw(st.booleans()):
        lo = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(BOX_EDGES)))
        assume(lo < MAX)
        dims[draw(st.integers(0, n - 1))] = Interval(lo, math.nextafter(lo, INF))
    return Box(tuple(dims)), draw(st.integers(min_value=-n, max_value=n - 1))


@settings(max_examples=600)
@given(bisect_cases())
def test_bisect_matches_its_reference_bit_for_bit(case):
    box, axis = case
    assert _bisect_outcome(box, axis, Box.bisect) == _bisect_outcome(box, axis, _bisect_ref)


@pytest.mark.parametrize(
    "bounds, outcome",
    [
        ((1.0, 1.0), "cannot bisect degenerate axis 0"),
        ((-0.0, 0.0), "cannot bisect degenerate axis 0"),
        ((INF, -INF), "cannot bisect degenerate axis 0"),
        ((0.0, TINY), "axis 0 too thin to bisect at 0.0"),
        ((-TINY, 0.0), "axis 0 too thin to bisect at -0.0"),
        ((1.0, math.nextafter(1.0, INF)), "axis 0 too thin to bisect at 1.0"),
        ((-INF, INF), (0.0,)),
        ((-INF, 3.0), (2.0,)),
        ((3.0, INF), (4.0,)),
        ((MAX / 2, MAX), (0.75 * MAX,)),  # the sum overflows
        ((-MAX, MAX), (0.0,)),
        ((-TINY, TINY), (0.0,)),
    ],
)
def test_bisect_edge_axes(bounds, outcome):
    box = Box((Interval(-1.0, 1.0), Interval(*bounds)))
    got = _bisect_outcome(box, 1, Box.bisect)
    assert got == _bisect_outcome(box, 1, _bisect_ref)
    if isinstance(outcome, str):
        assert got == outcome.replace("axis 0", "axis 1")
    else:
        (m,), (left, right) = outcome, got
        assert left[1][1] == right[1][0] == m.hex()


@settings(max_examples=300)
@given(box_pairs())
def test_cut_decides_each_coordinate_from_its_bounds_alone(pair):
    # inner's bounds are fresh floats with the bits of the intersection, the
    # uncut coordinates' equal to the box's own but not its objects: _cut
    # must cut what the reference cuts
    a, b = pair
    inner = _intersect_ref(a, b)
    assume(not a.is_empty and not inner.is_empty)
    fresh = tuple(float.fromhex(v.hex()) for v in inner.bounds)
    assert not any(f is v for f, v in zip(fresh, a.bounds))
    pieces = interval._cut(a.bounds, fresh)
    assert [_box_bits(interval._box(p)) for p in pieces] == [_box_bits(p) for p in _closure_ref(a, inner)]


def _flat_cases():
    """3,000 seeded boxes of 1 to 3 dimensions, and for each a sub-box whose
    every bound is the box's own or lies strictly inside it, as the
    identification kernels build their hulls: bounds at signed zeros,
    subnormals, huge and inexact values, and axes too thin to halve."""
    rng = random.Random(3011)
    edges = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 0.1, -1 / 3, 1.0, math.nextafter(1.0, 2.0), 1e300, -1e300)
    for case in range(3000):
        dims, inner = [], []
        for _ in range(1 + case % 3):
            lo, hi = sorted((rng.choice(edges + (rng.uniform(-5.0, 5.0),)) for _ in "ab"), key=float)
            dims.append((lo, hi))
            cut = [b for b in (lo, rng.uniform(lo, hi), hi) if lo <= b <= hi]
            a, b = sorted((rng.choice(cut) for _ in "ab"), key=float)
            inner.append((lo if a == lo else a, hi if b == hi else b))
        yield case, Box.from_bounds(dims), Box.from_bounds(inner)


def test_the_flat_bound_helpers_match_their_references_bit_for_bit():
    # the node loop measures, halves, cuts and boxes flat bounds with these
    # helpers, and Box.width, dyadic_volume and bisect wrap them; each gives
    # what the Box-level references above give, bit for bit
    from qine.interval import _box as box_of
    from qine.interval import _cut, _halves, _shape

    def hexes(x):
        return [b.hex() for b in x]

    seen = {"inexact width": 0, "signed zero": 0, "too thin": 0, "cut": 0, "thin": 0, "split": 0}
    for case, box, inner in _flat_cases():
        widest, volume, thin, split = _shape(len(box))
        x, r = box.bounds, inner.bounds
        assert _box_bits(box_of(x)) == _box_bits(box) and box_of(x).bounds is x, case
        (m, k), (rm, rk) = volume(x), _dyadic_volume_ref(box)
        assert Fraction(m, 1 << k) == Fraction(rm, 1 << rk), case
        axis, width = widest(x)  # +0.0 for a box of points, as Box.width gives it, where [0.0, -0.0] is -0.0 wide
        assert width.hex() == max(0.0, _width_ref(box)).hex() and axis == _widest_axis_ref(box), case
        assert thin(x) == any(iv.is_degenerate for iv in box.dims), case
        for i in range(len(box)):
            want = _bisect_outcome(box, i, _bisect_ref)
            got = _halves(x, 2 * i)
            assert isinstance(want, str) if got is None else [_box_bits(box_of(h)) for h in got] == want, (case, i)
            seen["too thin"] += got is None and not box.dims[i].is_degenerate
            # the node loop's split: _halves, each half with its widest width
            # and its volume, which volume and the references give too
            both = split(x, i)
            assert (both is None) == (got is None), (case, i)
            if both is not None:
                for (w, h, m, k), ref in zip((both[:4], both[4:]), got):
                    half = box_of(h)
                    assert hexes(h) == hexes(ref) and (m, k) == volume(h) and w.hex() == widest(h)[1].hex(), (case, i)
                    assert w.hex() == max(0.0, _width_ref(half)).hex(), (case, i)
                    rm, rk = _dyadic_volume_ref(half)
                    assert Fraction(m, 1 << k) == Fraction(rm, 1 << rk), (case, i)
                seen["split"] += 1
        with pytest.raises(IndexError):
            split(x, len(box))
        pieces = _cut(x, r)
        assert [_box_bits(box_of(p)) for p in pieces] == [_box_bits(p) for p in _closure_ref(box, inner)], case
        seen["cut"] += bool(pieces)
        seen["thin"] += thin(x)
        seen["signed zero"] += any(b == 0.0 and math.copysign(1.0, b) < 0 for b in x)
        seen["inexact width"] += any(
            math.isfinite(w := iv.hi - iv.lo) and Fraction(iv.hi) - Fraction(iv.lo) != Fraction(w) for iv in box.dims
        )
    assert min(seen.values()) >= 100, seen
    # the zero-dimensional helpers: the empty product, and no axis to split
    widest, volume, thin, split = _shape(0)
    assert (widest(()), volume(()), box_of(()), thin(())) == ((0, 0.0), (1, 0), Box(()), False)
    with pytest.raises(IndexError):
        split((), 0)
    assert (Box(()).width, Box(()).exact_volume()) == (0.0, 1)


def _midpoint_ref(lo: float, hi: float) -> float:
    """Reference: the midpoint rule case by case, the finite sum clamped last."""
    if lo > hi:
        raise ValueError("midpoint of the empty interval")
    if lo == -INF and hi == INF:
        return 0.0
    if lo == -INF:
        return hi - 1.0
    if hi == INF:
        return lo + 1.0
    m = 0.5 * (lo + hi)
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    return min(max(m, lo), hi)


# (lo, hi) pairs at the midpoint rule's edges: signed zeros, subnormals,
# sums that overflow, infinite bounds on either side, and points
MIDPOINT_EDGES = [
    (0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0), (-1.0, -0.0),
    (TINY, TINY), (0.0, TINY), (-TINY, 0.0), (-TINY, TINY), (TINY, 3 * TINY), (-3 * TINY, -TINY),
    (sys.float_info.min, 1.0), (1e308, MAX), (-MAX, -1e308), (-MAX, MAX), (MAX / 2, MAX), (1.0, MAX),
    (-INF, INF), (-INF, 3.0), (-INF, -0.0), (-INF, -MAX), (3.0, INF), (0.0, INF), (MAX, INF),
    (5.0, 5.0), (-MAX, -MAX), (0.1, 0.1), (1.0, math.nextafter(1.0, INF)), (-3.0, 2.0**-1070),
]


def _midpoint_outcome(midpoint, lo: float, hi: float) -> str:
    try:
        return midpoint(lo, hi).hex()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("lo, hi", MIDPOINT_EDGES + [(hi, lo) for lo, hi in MIDPOINT_EDGES if lo < hi])
def test_midpoint_matches_its_reference_bit_for_bit_at_the_edges(lo, hi):
    got = _midpoint_outcome(interval._midpoint, lo, hi)
    assert got == _midpoint_outcome(_midpoint_ref, lo, hi)
    if lo > hi:
        assert got == "midpoint of the empty interval"
    else:
        assert lo <= float.fromhex(got) <= hi


@settings(max_examples=500)
@given(st.floats(allow_nan=False), st.floats(allow_nan=False))
def test_midpoint_matches_its_reference_bit_for_bit(lo, hi):
    assert _midpoint_outcome(interval._midpoint, lo, hi) == _midpoint_outcome(_midpoint_ref, lo, hi)


def test_dyadic_volume_falls_back_where_the_width_is_inexact():
    for bounds in ([(-1e308, 1e308)], [(-MAX, MAX), (0.0, TINY)], [(0.1, 1e20)], [(-TINY, 1.0)]):
        box = Box.from_bounds(bounds)
        m, k = box.dyadic_volume()
        assert Fraction(m, 1 << k) == fraction_volume(box)
        rm, rk = _dyadic_volume_ref(box)
        assert Fraction(m, 1 << k) == Fraction(rm, 1 << rk)
    half_empty = Box((Interval(-INF, 0.0), EMPTY))
    assert half_empty.dyadic_volume() == _dyadic_volume_ref(half_empty) == (0, 0)
