"""Outward-rounded interval arithmetic and interval boxes.

The containment contract: every operation returns an interval that
contains the exact real result for all point inputs drawn from the
operand intervals.  Addition, subtraction, multiplication, division,
integer powers and integer roots round each bound toward the appropriate
infinity.  The direction follows from the exact sign of the rounding
error, found with error-free float transformations (TwoSum, and
Dekker's TwoProduct) where they are proven exact and by an exact
integer comparison elsewhere, so computations whose exact results are
representable doubles stay bit-exact.  exp, log, sin and cos fall back
on libm widened by two ulps per bound.

Each operation is written once, as a function on float bounds that
returns the result's (lo, hi): ``_add``, ``_mul``, ``_div``, ``_sqr``,
``_pow``, ``_root``, ``_exp``, ``_log``, ``_sin`` and ``_cos``.
``Interval``'s operators wrap them, and the kernels that ``expr`` and
``contractor`` compile call them on float locals, so no rounding or case
rule has a second copy.

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
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence

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
# needed.  Error signs are computed exactly, never estimated, by
# error-free float transformations: TwoSum for sums unless it overflows,
# and Dekker's TwoProduct for products while both operands lie in
# (2**-450, 2**450), where no Veltkamp split overflows and no partial
# product underflows, else by the operands' integer ratios.  Quotients
# and square roots reduce to the sign of a product minus a double.

_EFT_LO = 2.0**-450
_EFT_HI = 2.0**450
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter


def _two_prod_err(a: float, b: float, p: float) -> float:
    """a*b - p exactly, for p = fl(a*b) and a, b inside the float range above.

    Dekker's TwoProduct: the splits give 26-bit halves whose partial
    products are exact.
    """
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _add_edge(a: float, b: float, s: float, up: bool) -> float:
    """a + b rounded down, or up, given s = fl(a + b) when s or s - a is not finite."""
    if math.isinf(s):
        if math.isinf(a) or math.isinf(b):
            return s
        if up:
            return s if s > 0 else -_MAX
        return _MAX if s > 0 else s
    am, ad = a.as_integer_ratio()
    bm, bd = b.as_integer_ratio()
    sm, sd = s.as_integer_ratio()
    # (a + b - s) * ad*bd*sd, all denominators positive
    lhs = (am * bd + bm * ad) * sd
    rhs = sm * ad * bd
    if up:
        return _next_up(s) if lhs > rhs else s
    return _next_down(s) if lhs < rhs else s


def _prod_err_sign(a: float, b: float, p: float) -> int:
    """Sign of a*b - p for finite a, b and p = fl(a*b)."""
    if _EFT_LO < abs(a) < _EFT_HI and _EFT_LO < abs(b) < _EFT_HI:
        err = _two_prod_err(a, b, p)
        return (err > 0) - (err < 0)
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


def _prod_cmp(x: float, y: float, v: float) -> int:
    """Sign of x*y - v for finite x, y and v.

    No double lies strictly between x*y and its rounding p (an infinity
    if x*y is past the largest double), so x*y is on p's side of v != p.
    """
    p = x * y
    if p != v:
        return 1 if p > v else -1
    return _prod_err_sign(x, y, p)


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
    # a/b - q = (a - q*b) / b, so a/b < q exactly when q*b - a has b's sign
    return _next_down(q) if _prod_cmp(q, b, a) * b > 0 else q


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
    return _next_up(q) if _prod_cmp(q, b, a) * b < 0 else q


def _pow_nonneg(v: float, n: int, mul: Callable[[float, float], float]) -> float:
    """v**n for v >= 0, n >= 1, rounded by mul, which is _mul_down or _mul_up."""
    acc = v
    for _ in range(n - 1):
        acc = mul(acc, v)
    return acc


def _pow_cmp(r: float, n: int, v: float) -> int:
    """Sign of r**n - v for finite non-negative r, v."""
    rm, rd = r.as_integer_ratio()
    vm, vd = v.as_integer_ratio()
    lhs = rm**n * vd
    rhs = vm * rd**n
    return (lhs > rhs) - (lhs < rhs)


def _root_start(v: float, n: int) -> float:
    """A double within two ulps of v**(1/n), for finite v > 0.

    v is scaled by 2**(-n*k) into [0.5, 2**(n-1)), which is exact, so the
    error of the rounded exponent 1/n stays below an ulp.  For n >= 2 the
    root is a normal double, so scaling it back by 2**k is exact too.
    """
    k = math.frexp(v)[1] // n
    return math.ldexp(math.ldexp(v, -n * k) ** (1.0 / n), k)


def _root_down(v: float, n: int) -> float:
    """Largest double r >= 0 with r**n <= v, for v >= 0 and n >= 2.

    math.sqrt is correctly rounded, so for n = 2 one comparison tells
    the floor from its successor; other roots take ``_root_walk``.
    """
    if v == 0.0 or v == _INF:
        return abs(v)  # its own root, with a zero's sign dropped
    if n == 2:
        r = math.sqrt(v)
        return _next_down(r) if _prod_cmp(r, r, v) > 0 else r
    return _root_walk(v, n, False)


def _root_up(v: float, n: int) -> float:
    """Smallest double r >= 0 with r**n >= v, for v >= 0 and n >= 2."""
    if v == 0.0 or v == _INF:
        return abs(v)  # its own root, with a zero's sign dropped
    if n == 2:
        r = math.sqrt(v)
        return _next_up(r) if _prod_cmp(r, r, v) < 0 else r
    return _root_walk(v, n, True)


def _root_walk(v: float, n: int, up: bool) -> float:
    """_root_up (or _root_down) of finite v > 0 for n >= 3.

    A bound r is valid when r**n is on its side of v.  From _root_start
    the walk goes one way only, one comparison per step: an invalid start
    steps toward validity until the first valid double, a valid one steps
    away while its neighbour stays valid.  After 64 steps an invalid walk
    falls back on inf (0.0 when rounding down); a valid one keeps its r.
    """
    bad = -1 if up else 1
    fix, probe = (_next_up, _next_down) if up else (_next_down, _next_up)
    r = _root_start(v, n)
    if _pow_cmp(r, n, v) == bad:
        for _ in range(64):
            r = fix(r)
            if _pow_cmp(r, n, v) != bad:
                return r
        return _INF if up else 0.0
    for _ in range(64):
        s = probe(r)
        if _pow_cmp(s, n, v) == bad:
            return r
        r = s
    return r


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
    if math.isinf(start) or math.isinf(stop) or stop - start > 2.0:
        # the slack overflowed near the largest doubles, or the window spans
        # a whole period; far from 0, k * 2pi below can be too fine to step
        return True
    k_min = math.floor(start) - 1
    k_max = math.ceil(stop) + 1
    for k in range(k_min, k_max + 1):
        c = offset + k * math.tau
        if lo - slack <= c <= hi + slack:
            return True
    return False


# ---------------------------------------------------------------------------
# The operations on bounds (see the module docstring).  Each takes its
# operands' bounds and returns the result's (lo, hi).  An empty operand,
# any pair with lo > hi, gives the empty interval's (inf, -inf): the check
# comes first, as arithmetic on (inf, -inf) can give NaN.

_E = (_INF, -_INF)


def _add(xl: float, xh: float, yl: float, yh: float) -> tuple[float, float]:
    """x + y; x - y is _add(xl, xh, -yh, -yl).

    TwoSum gives each rounding error exactly; ``t - t == 0.0`` holds only
    for finite t, so a sum or ``s - a`` that overflows goes to _add_edge.
    """
    if xl > xh or yl > yh:
        return _E
    lo = xl + yl
    t = lo - xl
    if t - t != 0.0:
        lo = _add_edge(xl, yl, lo, False)
    elif (xl - (lo - t)) + (yl - t) < 0.0:
        lo = _next_down(lo)
    hi = xh + yh
    t = hi - xh
    if t - t != 0.0:
        hi = _add_edge(xh, yh, hi, True)
    elif (xh - (hi - t)) + (yh - t) > 0.0:
        hi = _next_up(hi)
    return lo, hi


def _mul(xl: float, xh: float, yl: float, yh: float) -> tuple[float, float]:
    """Moore's sign table: 2 directed products, 4 when both straddle 0."""
    if xl > xh or yl > yh:
        return _E
    if yl >= 0.0:
        lo = _mul_down(xl, yl if xl >= 0.0 else yh)
        hi = _mul_up(xh, yh if xh >= 0.0 else yl)
    elif yh <= 0.0:
        lo = _mul_down(xh, yl if xh >= 0.0 else yh)
        hi = _mul_up(xl, yh if xl >= 0.0 else yl)
    elif xl >= 0.0:
        lo, hi = _mul_down(xh, yl), _mul_up(xh, yh)
    elif xh <= 0.0:
        lo, hi = _mul_down(xl, yh), _mul_up(xl, yl)
    else:
        lo = min(_mul_down(xl, yh), _mul_down(xh, yl))
        hi = max(_mul_up(xl, yl), _mul_up(xh, yh))
    if hi == 0.0:
        # _mul_up rounds an underflowing negative product to -0.0; the
        # sign of a zero bound is that of the first zero among the four
        # candidates in this order
        hi = max(_mul_up(xl, yl), _mul_up(xl, yh), _mul_up(xh, yl), _mul_up(xh, yh))
    return lo, hi


def _div(xl: float, xh: float, yl: float, yh: float) -> tuple[float, float]:
    """Quotient set hull; divisors containing 0 follow extended division.

    The result is always a single interval: the two-ray case collapses
    to (-inf, inf), and division by the exact zero interval is empty
    unless the numerator contains 0, in which case any real works.
    """
    if xl > xh or yl > yh:
        return _E
    if yl > 0.0 or yh < 0.0:
        # Moore's sign table; a zero upper bound takes its sign as in _mul
        if yl > 0.0:
            lo = _div_down(xl, yh if xl >= 0.0 else yl)
            hi = _div_up(xh, yl if xh >= 0.0 else yh)
        else:
            lo = _div_down(xh, yh if xh >= 0.0 else yl)
            hi = _div_up(xl, yl if xl >= 0.0 else yh)
        if hi == 0.0:
            hi = max(_div_up(xl, yl), _div_up(xl, yh), _div_up(xh, yl), _div_up(xh, yh))
        return lo, hi
    if xl <= 0.0 <= xh:
        return -_INF, _INF
    if yl == 0.0 and yh == 0.0:
        return _E
    if xl > 0.0:
        if yh == 0.0:
            return -_INF, _div_up(xl, yl)
        if yl == 0.0:
            return _div_down(xl, yh), _INF
        return -_INF, _INF
    if yh == 0.0:
        return _div_down(xh, yl), _INF
    if yl == 0.0:
        return -_INF, _div_up(xh, yh)
    return -_INF, _INF


def _sqr(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi:
        return _E
    if lo >= 0.0:
        return _mul_down(lo, lo), _mul_up(hi, hi)
    if hi <= 0.0:
        return _mul_down(hi, hi), _mul_up(lo, lo)
    return 0.0, max(_mul_up(lo, lo), _mul_up(hi, hi))


def _pow(lo: float, hi: float, n: int) -> tuple[float, float]:
    if n < 0:
        raise ValueError("negative exponent not supported")
    if lo > hi:
        return _E
    if n == 0:
        return 1.0, 1.0
    if n == 1:
        return lo, hi
    if n == 2:
        return _sqr(lo, hi)
    if n % 2 == 0:
        if lo >= 0.0:
            return _pow_nonneg(lo, n, _mul_down), _pow_nonneg(hi, n, _mul_up)
        if hi <= 0.0:
            return _pow_nonneg(-hi, n, _mul_down), _pow_nonneg(-lo, n, _mul_up)
        return 0.0, max(_pow_nonneg(-lo, n, _mul_up), _pow_nonneg(hi, n, _mul_up))
    down = -_pow_nonneg(-lo, n, _mul_up) if lo < 0.0 else _pow_nonneg(lo, n, _mul_down)
    up = -_pow_nonneg(-hi, n, _mul_down) if hi < 0.0 else _pow_nonneg(hi, n, _mul_up)
    return down, up


def _root(lo: float, hi: float, n: int) -> tuple[float, float]:
    if lo > hi:
        return _E
    if n == 1:
        return lo, hi
    if n % 2 == 0:
        # the part inside [0, inf)
        lo = max(lo, 0.0)
        if lo > hi:
            return _E
        return _root_down(lo, n), _root_up(hi, n)
    down = -_root_up(-lo, n) if lo < 0.0 else _root_down(lo, n)
    up = -_root_down(-hi, n) if hi < 0.0 else _root_up(hi, n)
    return down, up


def _exp(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi:
        return _E
    return _exp_down(lo), _exp_up(hi)


def _log(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi or hi <= 0.0:
        return _E
    return (-_INF if lo <= 0.0 else _log_down(lo)), _log_up(hi)


def _sin(lo: float, hi: float) -> tuple[float, float]:
    return _periodic(lo, hi, math.sin, math.pi / 2, -math.pi / 2)


def _cos(lo: float, hi: float) -> tuple[float, float]:
    return _periodic(lo, hi, math.cos, 0.0, math.pi)


def _periodic(
    lo: float, hi: float, fn: Callable[[float], float], peak: float, trough: float
) -> tuple[float, float]:
    """sin or cos, given its maxima at peak + k*2pi and minima at trough + k*2pi."""
    if lo > hi:
        return _E
    if math.isinf(lo) or math.isinf(hi) or hi - lo >= math.tau:
        return -1.0, 1.0
    f_lo, f_hi = fn(lo), fn(hi)
    out_lo = _next_down(_next_down(min(f_lo, f_hi)))
    out_hi = _next_up(_next_up(max(f_lo, f_hi)))
    if _has_critical_point(lo, hi, peak):
        out_hi = 1.0
    if _has_critical_point(lo, hi, trough):
        out_lo = -1.0
    return max(out_lo, -1.0), min(out_hi, 1.0)


_INTERVAL_RE = re.compile(r"\s*\[\s*([^\s,\]]+)\s*,\s*([^\s,\]]+)\s*\]\s*\Z")


def _literal_bounds(text: str) -> tuple[float, float]:
    """The tightest doubles lo <= hi around a decimal/scientific literal.

    Both are the nearest double when it is exact, infinite or NaN.
    """
    f = float(text)
    if math.isinf(f) or f != f:
        return f, f
    d = Decimal(text)
    if d and d.adjusted() < -324:
        # |d| < 1e-324, so f is a signed zero; the exact form would cost
        # a power of ten as long as the exponent (copy_negate, unlike -d,
        # does not round d to the decimal context)
        err = d.copy_negate()
    else:
        err = Fraction(f) - Fraction(d)
    if err > 0:
        return _next_down(f), f
    if err < 0:
        return f, _next_up(f)
    return f, f


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
    def parse(cls, text: str) -> Interval:
        """Parse the literal syntax "[lo,hi]" with outward-rounded bounds."""
        m = _INTERVAL_RE.match(text)
        if m is None:
            raise ValueError(f"not an interval literal: {text!r}")
        lo = _literal_bounds(m.group(1))[0]
        hi = _literal_bounds(m.group(2))[1]
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
        return _iv(-self.hi, -self.lo)  # the empty (inf, -inf) maps to itself

    def __add__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        return _iv(*_add(self.lo, self.hi, other.lo, other.hi))

    __radd__ = __add__

    def __sub__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        return _iv(*_add(self.lo, self.hi, -other.hi, -other.lo))

    def __rsub__(self, other: Interval | int | float) -> Interval:
        return self._coerce(other) - self

    def __mul__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        return _iv(*_mul(self.lo, self.hi, other.lo, other.hi))

    __rmul__ = __mul__

    def __truediv__(self, other: Interval | int | float) -> Interval:
        other = self._coerce(other)
        return _iv(*_div(self.lo, self.hi, other.lo, other.hi))

    def __rtruediv__(self, other: Interval | int | float) -> Interval:
        return self._coerce(other) / self

    def sqr(self) -> Interval:
        return _iv(*_sqr(self.lo, self.hi))

    def pow_int(self, n: int) -> Interval:
        """Integer power with even/odd handling; n must be >= 0."""
        return _iv(*_pow(self.lo, self.hi, n))

    def root_int(self, n: int) -> Interval:
        """Set of real n-th roots; even roots give the non-negative branch.

        Used by inverse projections; the symmetric negative branch for
        even n is handled by the caller.
        """
        return _iv(*_root(self.lo, self.hi, n))

    def sqrt(self) -> Interval:
        """Square root of the non-negative part; empty when hi < 0."""
        return self.root_int(2)

    def exp(self) -> Interval:
        return _iv(*_exp(self.lo, self.hi))

    def log(self) -> Interval:
        """Natural log over the positive part; empty when hi <= 0."""
        return _iv(*_log(self.lo, self.hi))

    def sin(self) -> Interval:
        return _iv(*_sin(self.lo, self.hi))

    def cos(self) -> Interval:
        return _iv(*_cos(self.lo, self.hi))

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_empty:
            return "[empty]"
        return f"[{self.lo!r},{self.hi!r}]"


_new = object.__new__


def _unchecked(cls: type) -> Callable:
    """A builder of cls, a frozen slotted dataclass of two fields, from their values.

    It skips ``__init__`` and ``__post_init__``; only for values computed
    from valid operands, never for values that come from outside.
    """
    set_a, set_b = (getattr(cls, name).__set__ for name in cls.__slots__)

    def build(a, b):
        obj = _new(cls)
        set_a(obj, a)
        set_b(obj, b)
        return obj

    return build


_iv = _unchecked(Interval)  # an Interval from bounds valid by construction


EMPTY = Interval(_INF, -_INF)


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
        return _box((EMPTY,) * n)

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
        for iv in self.dims:
            if iv.lo > iv.hi:
                return True
        return False

    @property
    def width(self) -> float:
        """Largest coordinate width (0.0 for empty or 0-d boxes)."""
        widest = 0.0
        for iv in self.dims:
            if iv.lo > iv.hi:
                return 0.0
            if (w := iv.hi - iv.lo) > widest:
                widest = w
        return widest

    @property
    def midpoint(self) -> tuple[float, ...]:
        return tuple(iv.midpoint for iv in self.dims)

    def dyadic_volume(self) -> tuple[int, int]:
        """Volume as (m, k), meaning m / 2**k; requires finite bounds.

        Bounds are doubles, so every denominator is a power of two and
        the product is formed on integers alone, never normalised.  A
        width that TwoSum shows to be exact is a double and gives its
        ratio at once; any other is hi - lo over the bounds' ratios.
        """
        if self.is_empty:
            return 0, 0
        num = den = 1
        for iv in self.dims:
            lo, hi = iv.lo, iv.hi
            if lo == -_INF or hi == _INF:
                raise ValueError("exact volume of an unbounded box")
            w = hi - lo
            t = w - hi
            if t - t == 0.0 and hi - (w - t) == lo + t:
                wm, wd = w.as_integer_ratio()
            else:
                hm, hd = hi.as_integer_ratio()
                lm, ld = lo.as_integer_ratio()
                wm, wd = hm * ld - lm * hd, hd * ld
            num *= wm
            den *= wd
        return num, den.bit_length() - 1

    def exact_volume(self) -> Fraction:
        """Volume as an exact rational; requires finite bounds."""
        m, k = self.dyadic_volume()
        return Fraction(m, 1 << k)

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
        """self ∩ other; self itself when each coordinate's intersect returned self's."""
        self._check_dims(other)
        dims = tuple(map(Interval.intersect, self.dims, other.dims))
        return self if all(map(is_, dims, self.dims)) else _box(dims)

    def hull(self, other: Box) -> Box:
        """Smallest box containing both; the empty box is the identity."""
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        return _box(tuple(map(Interval.hull, self.dims, other.dims)))

    def replace(self, axis: int, iv: Interval) -> Box:
        dims = list(self.dims)
        dims[axis] = iv
        return _box(tuple(dims))

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
        cur = self.dims
        for k, (outer_iv, inner_iv) in enumerate(zip(self.dims, inner.dims)):
            if inner_iv is outer_iv:
                continue
            head, tail = cur[:k], cur[k + 1:]
            if inner_iv.lo > outer_iv.lo:
                pieces.append(_box(head + (_iv(outer_iv.lo, inner_iv.lo),) + tail))
            if inner_iv.hi < outer_iv.hi:
                pieces.append(_box(head + (_iv(inner_iv.hi, outer_iv.hi),) + tail))
            cur = head + (inner_iv,) + tail
        return pieces

    def __str__(self) -> str:
        return "x".join(str(iv) for iv in self.dims) if self.dims else "()"


_set_dims = Box.dims.__set__


def _box(dims: tuple[Interval, ...]) -> Box:
    """Build a Box from a tuple of Intervals, skipping ``__post_init__``."""
    box = _new(Box)
    _set_dims(box, dims)
    return box
