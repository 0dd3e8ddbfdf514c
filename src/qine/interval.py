"""Outward-rounded interval arithmetic and interval boxes.

The containment contract: every operation returns an interval that
contains the exact real result for all point inputs drawn from the
operand intervals.  Addition, subtraction, multiplication, division,
integer powers and square roots round each bound toward the appropriate
infinity, deciding the direction by an exact rational comparison, so
computations whose exact results are representable doubles stay
bit-exact.  exp, log, sin and cos fall back on libm widened by two ulps
per bound.

All values are immutable and operations are pure; the FPU rounding mode
is never touched, so concurrent use is safe.

Bounds are validated where they come in: the ``Interval`` constructor,
``Interval.point``, ``Interval.parse`` and ``Box.from_bounds`` reject
NaN, inverted and collapsed-at-infinity bounds.  The arithmetic and set
operations build their results with the unchecked ``_iv``, because
bounds computed from valid operands are valid by construction.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

__all__ = ["Interval", "Box", "EMPTY"]

_INF = math.inf
_MAX = sys.float_info.max


def _next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def _next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


# ---------------------------------------------------------------------------
# Directed rounding of individual bounds.
#
# The round-to-nearest result is computed first; the sign of the exact
# error then decides whether one ulp-step toward the target infinity is
# needed.  Error signs are computed exactly, by cross-multiplying the
# integer ratios of the operands, never estimated.


def _sum_err_sign(a: float, b: float, s: float) -> int:
    """Sign of (a + b) - s for finite a, b, s."""
    t = s - a
    if math.isinf(t):
        am, ad = a.as_integer_ratio()
        bm, bd = b.as_integer_ratio()
        sm, sd = s.as_integer_ratio()
        # (a + b - s) * ad*bd*sd, all denominators positive
        lhs = (am * bd + bm * ad) * sd
        rhs = sm * ad * bd
        return (lhs > rhs) - (lhs < rhs)
    err = (a - (s - t)) + (b - t)
    return (err > 0) - (err < 0)


def _add_down(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        if math.isinf(a) or math.isinf(b):
            return s
        return _MAX if s > 0 else s
    return _next_down(s) if _sum_err_sign(a, b, s) < 0 else s


def _add_up(a: float, b: float) -> float:
    s = a + b
    if math.isinf(s):
        if math.isinf(a) or math.isinf(b):
            return s
        return s if s > 0 else -_MAX
    return _next_up(s) if _sum_err_sign(a, b, s) > 0 else s


def _prod_err_sign(a: float, b: float, p: float) -> int:
    """Sign of a*b - p for finite a, b, p."""
    am, ad = a.as_integer_ratio()
    bm, bd = b.as_integer_ratio()
    pm, pd = p.as_integer_ratio()
    lhs = am * bm * pd
    rhs = pm * ad * bd
    return (lhs > rhs) - (lhs < rhs)


def _mul_down(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return _INF if (a > 0) == (b > 0) else -_INF
    p = a * b
    if math.isinf(p):
        return _MAX if p > 0 else p
    return _next_down(p) if _prod_err_sign(a, b, p) < 0 else p


def _mul_up(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    if math.isinf(a) or math.isinf(b):
        return _INF if (a > 0) == (b > 0) else -_INF
    p = a * b
    if math.isinf(p):
        return p if p > 0 else -_MAX
    return _next_up(p) if _prod_err_sign(a, b, p) > 0 else p


def _quot_err_sign(a: float, b: float, q: float) -> int:
    """Sign of a/b - q for finite a, b, q with b != 0."""
    am, ad = a.as_integer_ratio()
    bm, bd = b.as_integer_ratio()
    qm, qd = q.as_integer_ratio()
    # (a/b - q) * ad*bm*qd; the factor has the sign of b
    lhs = am * qd * bd
    rhs = qm * bm * ad
    sign = (lhs > rhs) - (lhs < rhs)
    return -sign if b < 0 else sign


def _div_down(a: float, b: float) -> float:
    if a == 0.0:
        return 0.0
    if math.isinf(a):
        return _INF if (a > 0) == (b > 0) else -_INF
    if math.isinf(b):
        return 0.0
    q = a / b
    if math.isinf(q):
        return _MAX if q > 0 else q
    return _next_down(q) if _quot_err_sign(a, b, q) < 0 else q


def _div_up(a: float, b: float) -> float:
    if a == 0.0:
        return 0.0
    if math.isinf(a):
        return _INF if (a > 0) == (b > 0) else -_INF
    if math.isinf(b):
        return 0.0
    q = a / b
    if math.isinf(q):
        return q if q > 0 else -_MAX
    return _next_up(q) if _quot_err_sign(a, b, q) > 0 else q


def _sq_cmp(s: float, v: float) -> int:
    """Sign of s*s - v for finite non-negative s, v."""
    sm, sd = s.as_integer_ratio()
    vm, vd = v.as_integer_ratio()
    lhs = sm * sm * vd
    rhs = vm * sd * sd
    return (lhs > rhs) - (lhs < rhs)


def _sqrt_down(v: float) -> float:
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return _INF
    s = math.sqrt(v)
    return _next_down(s) if _sq_cmp(s, v) > 0 else s


def _sqrt_up(v: float) -> float:
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return _INF
    s = math.sqrt(v)
    return _next_up(s) if _sq_cmp(s, v) < 0 else s


def _pow_down_nonneg(v: float, n: int) -> float:
    """v**n rounded down, v >= 0, n >= 1."""
    acc = v
    for _ in range(n - 1):
        acc = _mul_down(acc, v)
    return acc


def _pow_up_nonneg(v: float, n: int) -> float:
    acc = v
    for _ in range(n - 1):
        acc = _mul_up(acc, v)
    return acc


def _pow_cmp(r: float, n: int, v: float) -> int:
    """Sign of r**n - v for finite non-negative r, v."""
    rm, rd = r.as_integer_ratio()
    vm, vd = v.as_integer_ratio()
    lhs = rm**n * vd
    rhs = vm * rd**n
    return (lhs > rhs) - (lhs < rhs)


def _root_down(v: float, n: int) -> float:
    """Largest checked float r >= 0 with r**n <= v, for v >= 0."""
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return _INF
    r = v ** (1.0 / n)
    for _ in range(64):
        if _pow_cmp(r, n, v) <= 0:
            return r
        r = _next_down(r)
    return 0.0


def _root_up(v: float, n: int) -> float:
    if v == 0.0:
        return 0.0
    if math.isinf(v):
        return _INF
    r = v ** (1.0 / n)
    for _ in range(64):
        if _pow_cmp(r, n, v) >= 0:
            return r
        r = _next_up(r)
    return _INF


# libm is faithful but not correctly rounded for the transcendentals;
# two ulps of widening cover it with margin.


def _exp_down(v: float) -> float:
    if v == -_INF:
        return 0.0
    if v == _INF:
        return _MAX
    try:
        e = math.exp(v)
    except OverflowError:
        return _MAX
    return max(0.0, _next_down(_next_down(e)))


def _exp_up(v: float) -> float:
    if v == -_INF:
        return 0.0
    if v == _INF:
        return _INF
    try:
        e = math.exp(v)
    except OverflowError:
        return _INF
    return _next_up(_next_up(e))


def _log_down(v: float) -> float:
    if math.isinf(v):
        return _INF
    return _next_down(_next_down(math.log(v)))


def _log_up(v: float) -> float:
    if math.isinf(v):
        return _INF
    return _next_up(_next_up(math.log(v)))


def _has_critical_point(lo: float, hi: float, offset: float) -> bool:
    """Whether some offset + k*2pi may lie in [lo, hi].

    Errs on the side of True, which only loosens sin/cos bounds to the
    global extrema and never breaks containment.
    """
    slack = 1e-9 + 1e-12 * max(abs(lo), abs(hi))
    start = (lo - slack - offset) / math.tau
    stop = (hi + slack - offset) / math.tau
    if math.isinf(start) or math.isinf(stop):
        # the slack overflowed near the largest doubles
        return True
    k_min = math.floor(start) - 1
    k_max = math.ceil(stop) + 1
    for k in range(k_min, k_max + 1):
        c = offset + k * math.tau
        if lo - slack <= c <= hi + slack:
            return True
    return False


_INTERVAL_RE = re.compile(r"\s*\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*\Z")


def _float_from_literal(text: str, round_up: bool) -> float:
    """Parse a decimal/scientific literal, rounding outward when inexact."""
    f = float(text)
    if math.isinf(f) or f != f:
        return f
    exact = Fraction(Decimal(text))
    approx = Fraction(f)
    if round_up and approx < exact:
        return _next_up(f)
    if not round_up and approx > exact:
        return _next_down(f)
    return f


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval [lo, hi], possibly unbounded, or the empty set.

    Bounds are doubles; lo may be -inf and hi may be +inf, neither may
    be NaN.  The empty interval is the canonical pair (inf, -inf),
    detectable through ``is_empty``.  Constructing an Interval validates
    its bounds; results of the operations below are valid by
    construction and skip that check.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bound is NaN")
        if lo > hi and not (lo == _INF and hi == -_INF):
            raise ValueError(f"inverted interval bounds [{lo}, {hi}]")
        if (lo == _INF and hi == _INF) or (lo == -_INF and hi == -_INF):
            raise ValueError("interval collapsed at infinity")

    # -- constructors -------------------------------------------------------

    @classmethod
    def point(cls, v: float) -> Interval:
        return cls(v, v)

    @classmethod
    def empty(cls) -> Interval:
        return EMPTY

    @classmethod
    def parse(cls, text: str) -> Interval:
        """Parse the literal syntax "[lo,hi]" with outward-rounded bounds."""
        m = _INTERVAL_RE.match(text)
        if m is None:
            raise ValueError(f"not an interval literal: {text!r}")
        lo = _float_from_literal(m.group(1), round_up=False)
        hi = _float_from_literal(m.group(2), round_up=True)
        return cls(lo, hi)

    # -- predicates and measures --------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        if self.is_empty:
            return 0.0
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        if self.is_empty:
            raise ValueError("midpoint of the empty interval")
        lo, hi = self.lo, self.hi
        if lo == -_INF and hi == _INF:
            return 0.0
        if lo == -_INF:
            return hi - 1.0
        if hi == _INF:
            return lo + 1.0
        m = 0.5 * (lo + hi)
        if not math.isfinite(m):
            m = 0.5 * lo + 0.5 * hi
        return min(max(m, lo), hi)

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def subset_of(self, other: Interval) -> bool:
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    # -- set operations ------------------------------------------------------

    def intersect(self, other: Interval) -> Interval:
        slo, shi, olo, ohi = self.lo, self.hi, other.lo, other.hi
        if slo > shi or olo > ohi:
            return EMPTY
        # max/min below would pick both of self's own bounds, signed zeros too
        if olo <= slo and shi <= ohi:
            return self
        lo = max(slo, olo)
        hi = min(shi, ohi)
        if lo > hi:
            return EMPTY
        return _iv(lo, hi)

    def hull(self, other: Interval) -> Interval:
        """Smallest interval containing both operands."""
        if self.lo > self.hi:
            return other
        if other.lo > other.hi:
            return self
        return _iv(min(self.lo, other.lo), max(self.hi, other.hi))

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(other: Interval | int | float) -> Interval:
        if isinstance(other, Interval):
            return other
        return Interval.point(float(other))

    def __neg__(self) -> Interval:
        if self.lo > self.hi:
            return EMPTY
        return _iv(-self.hi, -self.lo)

    def __add__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return _iv(_add_down(self.lo, other.lo), _add_up(self.hi, other.hi))

    __radd__ = __add__

    def __sub__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return _iv(_add_down(self.lo, -other.hi), _add_up(self.hi, -other.lo))

    def __rsub__(self, other: Interval | int | float) -> Interval:
        return self._coerce(other) - self

    def __mul__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        pairs = (
            (self.lo, other.lo),
            (self.lo, other.hi),
            (self.hi, other.lo),
            (self.hi, other.hi),
        )
        lo = min(_mul_down(a, b) for a, b in pairs)
        hi = max(_mul_up(a, b) for a, b in pairs)
        return _iv(lo, hi)

    __rmul__ = __mul__

    def __truediv__(self, other: Interval | int | float) -> Interval:
        """Quotient set hull; divisors containing 0 follow extended division.

        The result is always a single interval: the two-ray case collapses
        to (-inf, inf), and division by the exact zero interval is empty
        unless the numerator contains 0, in which case any real works.
        """
        other = self._coerce(other)
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        b = other
        if b.lo > 0.0 or b.hi < 0.0:
            pairs = (
                (self.lo, b.lo),
                (self.lo, b.hi),
                (self.hi, b.lo),
                (self.hi, b.hi),
            )
            lo = min(_div_down(a, d) for a, d in pairs)
            hi = max(_div_up(a, d) for a, d in pairs)
            return _iv(lo, hi)
        if self.lo <= 0.0 <= self.hi:
            return _ENTIRE
        if b.lo == 0.0 and b.hi == 0.0:
            return EMPTY
        if self.lo > 0.0:
            if b.hi == 0.0:
                return _iv(-_INF, _div_up(self.lo, b.lo))
            if b.lo == 0.0:
                return _iv(_div_down(self.lo, b.hi), _INF)
            return _ENTIRE
        if b.hi == 0.0:
            return _iv(_div_down(self.hi, b.lo), _INF)
        if b.lo == 0.0:
            return _iv(-_INF, _div_up(self.hi, b.hi))
        return _ENTIRE

    def __rtruediv__(self, other: Interval | int | float) -> Interval:
        return self._coerce(other) / self

    def sqr(self) -> Interval:
        if self.lo > self.hi:
            return EMPTY
        lo, hi = self.lo, self.hi
        if lo >= 0.0:
            return _iv(_mul_down(lo, lo), _mul_up(hi, hi))
        if hi <= 0.0:
            return _iv(_mul_down(hi, hi), _mul_up(lo, lo))
        return _iv(0.0, max(_mul_up(lo, lo), _mul_up(hi, hi)))

    def pow_int(self, n: int) -> Interval:
        """Integer power with even/odd handling; n must be >= 0."""
        if n < 0:
            raise ValueError("negative exponent not supported")
        if self.lo > self.hi:
            return EMPTY
        if n == 0:
            return _ONE
        if n == 1:
            return self
        if n == 2:
            return self.sqr()
        lo, hi = self.lo, self.hi
        if n % 2 == 0:
            if lo >= 0.0:
                return _iv(_pow_down_nonneg(lo, n), _pow_up_nonneg(hi, n))
            if hi <= 0.0:
                return _iv(_pow_down_nonneg(-hi, n), _pow_up_nonneg(-lo, n))
            return _iv(0.0, max(_pow_up_nonneg(-lo, n), _pow_up_nonneg(hi, n)))
        down = -_pow_up_nonneg(-lo, n) if lo < 0.0 else _pow_down_nonneg(lo, n)
        up = -_pow_down_nonneg(-hi, n) if hi < 0.0 else _pow_up_nonneg(hi, n)
        return _iv(down, up)

    def root_int(self, n: int) -> Interval:
        """Set of real n-th roots; even roots give the non-negative branch.

        Used by inverse projections; the symmetric negative branch for
        even n is handled by the caller.
        """
        if self.lo > self.hi:
            return EMPTY
        if n % 2 == 0:
            dom = self.intersect(_NONNEG)
            if dom.lo > dom.hi:
                return EMPTY
            return _iv(_root_down(dom.lo, n), _root_up(dom.hi, n))
        down = -_root_up(-self.lo, n) if self.lo < 0.0 else _root_down(self.lo, n)
        up = -_root_down(-self.hi, n) if self.hi < 0.0 else _root_up(self.hi, n)
        return _iv(down, up)

    def sqrt(self) -> Interval:
        dom = self.intersect(_NONNEG)
        if dom.lo > dom.hi:
            return EMPTY
        return _iv(_sqrt_down(dom.lo), _sqrt_up(dom.hi))

    def exp(self) -> Interval:
        if self.lo > self.hi:
            return EMPTY
        return _iv(_exp_down(self.lo), _exp_up(self.hi))

    def log(self) -> Interval:
        """Natural log over the positive part; empty when hi <= 0."""
        if self.lo > self.hi or self.hi <= 0.0:
            return EMPTY
        lo = -_INF if self.lo <= 0.0 else _log_down(self.lo)
        return _iv(lo, _log_up(self.hi))

    def sin(self) -> Interval:
        if self.lo > self.hi:
            return EMPTY
        lo, hi = self.lo, self.hi
        if math.isinf(lo) or math.isinf(hi) or hi - lo >= math.tau:
            return _UNIT
        s_lo, s_hi = math.sin(lo), math.sin(hi)
        out_lo = _next_down(_next_down(min(s_lo, s_hi)))
        out_hi = _next_up(_next_up(max(s_lo, s_hi)))
        if _has_critical_point(lo, hi, math.pi / 2):
            out_hi = 1.0
        if _has_critical_point(lo, hi, -math.pi / 2):
            out_lo = -1.0
        return _iv(max(out_lo, -1.0), min(out_hi, 1.0))

    def cos(self) -> Interval:
        if self.lo > self.hi:
            return EMPTY
        lo, hi = self.lo, self.hi
        if math.isinf(lo) or math.isinf(hi) or hi - lo >= math.tau:
            return _UNIT
        c_lo, c_hi = math.cos(lo), math.cos(hi)
        out_lo = _next_down(_next_down(min(c_lo, c_hi)))
        out_hi = _next_up(_next_up(max(c_lo, c_hi)))
        if _has_critical_point(lo, hi, 0.0):
            out_hi = 1.0
        if _has_critical_point(lo, hi, math.pi):
            out_lo = -1.0
        return _iv(max(out_lo, -1.0), min(out_hi, 1.0))

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        return f"[{self.lo!r},{self.hi!r}]"


_new_interval = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _iv(lo: float, hi: float) -> Interval:
    """Build an Interval from float bounds that are valid by construction.

    Skips ``__post_init__``; only for results computed from valid
    operands, never for bounds that come from outside.
    """
    iv = _new_interval(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


EMPTY = Interval(_INF, -_INF)
_NONNEG = Interval(0.0, _INF)
_ENTIRE = Interval(-_INF, _INF)
_UNIT = Interval(-1.0, 1.0)
_ONE = Interval(1.0, 1.0)


@dataclass(frozen=True, slots=True)
class Box:
    """An interval vector; empty as a set iff any coordinate is empty.

    The zero-dimensional box is the empty product and denotes a single
    (trivial) point, so it is never empty.
    """

    dims: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[float, float]]) -> Box:
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @classmethod
    def point(cls, coords: Iterable[float]) -> Box:
        return cls(tuple(Interval.point(c) for c in coords))

    @classmethod
    def empty(cls, n: int) -> Box:
        return cls((EMPTY,) * n)

    # -- container protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.dims)

    # -- predicates and measures ----------------------------------------------

    @property
    def is_empty(self) -> bool:
        return any(iv.is_empty for iv in self.dims)

    @property
    def width(self) -> float:
        """Largest coordinate width (0.0 for empty or 0-d boxes)."""
        if self.is_empty or not self.dims:
            return 0.0
        return max(iv.width for iv in self.dims)

    @property
    def midpoint(self) -> tuple[float, ...]:
        return tuple(iv.midpoint for iv in self.dims)

    @property
    def volume(self) -> float:
        if self.is_empty:
            return 0.0
        v = 1.0
        for iv in self.dims:
            v *= iv.width
        return v

    def exact_volume(self) -> Fraction:
        """Volume as an exact rational; requires finite bounds.

        Bounds are doubles, so every width is a dyadic rational; the
        product is formed on integer numerators and denominators and
        normalised once.
        """
        num = den = 1
        if self.is_empty:
            num = 0
        else:
            for iv in self.dims:
                if math.isinf(iv.lo) or math.isinf(iv.hi):
                    raise ValueError("exact volume of an unbounded box")
                hm, hd = iv.hi.as_integer_ratio()
                lm, ld = iv.lo.as_integer_ratio()
                num *= hm * ld - lm * hd
                den *= hd * ld
        return Fraction(num, den)

    def contains(self, point: Sequence[float]) -> bool:
        if len(point) != len(self.dims):
            raise ValueError("dimension mismatch")
        return all(iv.contains(p) for iv, p in zip(self.dims, point))

    def contains_box(self, other: Box) -> bool:
        self._check_dims(other)
        if other.is_empty:
            return True
        return all(o.subset_of(s) for s, o in zip(self.dims, other.dims))

    def _check_dims(self, other: Box) -> None:
        if len(self.dims) != len(other.dims):
            raise ValueError(
                f"dimension mismatch: {len(self.dims)} vs {len(other.dims)}"
            )

    # -- set operations ---------------------------------------------------------

    def intersect(self, other: Box) -> Box:
        self._check_dims(other)
        return Box(tuple(a.intersect(b) for a, b in zip(self.dims, other.dims)))

    def hull(self, other: Box) -> Box:
        """Smallest box containing both; the empty box is the identity."""
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return Box(tuple(a.hull(b) for a, b in zip(self.dims, other.dims)))

    def replace(self, axis: int, iv: Interval) -> Box:
        dims = list(self.dims)
        dims[axis] = iv
        return Box(tuple(dims))

    def bisect(self, axis: int) -> tuple[Box, Box]:
        """Split at the midpoint of the given axis.

        Raises ValueError when the axis is degenerate or so thin that the
        midpoint is not strictly inside (a caller policy error).
        """
        iv = self.dims[axis]
        if iv.is_empty or iv.lo >= iv.hi:
            raise ValueError(f"cannot bisect degenerate axis {axis}")
        m = iv.midpoint
        if not (iv.lo < m < iv.hi):
            raise ValueError(f"axis {axis} too thin to bisect at {m!r}")
        return (
            self.replace(axis, _iv(iv.lo, m)),
            self.replace(axis, _iv(m, iv.hi)),
        )

    def set_difference_closure(self, inner: Box) -> list[Box]:
        """Decompose cl(self \\ inner) into at most 2n boxes.

        The returned boxes have pairwise disjoint interiors and, together
        with ``inner``, cover ``self``.  Closing the set difference sews
        shut faces shared with ``inner``, which keeps every piece a plain
        closed box.
        """
        self._check_dims(inner)
        if self.is_empty:
            return []
        inner = self.intersect(inner)
        if inner.is_empty:
            return [self]
        pieces: list[Box] = []
        cur = list(self.dims)
        for k, (outer_iv, inner_iv) in enumerate(zip(self.dims, inner.dims)):
            if inner_iv.lo > outer_iv.lo:
                pieces.append(
                    Box(tuple(cur[:k]) + (_iv(outer_iv.lo, inner_iv.lo),) + tuple(cur[k + 1:]))
                )
            if inner_iv.hi < outer_iv.hi:
                pieces.append(
                    Box(tuple(cur[:k]) + (_iv(inner_iv.hi, outer_iv.hi),) + tuple(cur[k + 1:]))
                )
            cur[k] = inner_iv
        return pieces

    def __str__(self) -> str:
        return "x".join(str(iv) for iv in self.dims) if self.dims else "()"
