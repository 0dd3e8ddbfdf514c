"""Outward-rounded interval arithmetic and interval boxes.

The containment contract: every operation returns an interval that
contains the exact real result for all point inputs drawn from the
operand intervals.  Addition, subtraction, multiplication, division,
integer powers and integer roots round each bound to the tightest
double toward the appropriate infinity.  The direction follows from the
exact sign of the rounding error, found with error-free float
transformations (TwoSum, and Dekker's TwoProduct) where they are proven
exact; every other case is an exact rational rounded once by
``_round``.  exp, log, sin and cos fall back on libm widened by two ulps
per bound.

Each operation is written once, as a function on float bounds that
returns the result's (lo, hi): ``_add``, ``_mul``, ``_div``, ``_sqr``,
``_pow``, ``_root``, ``_exp``, ``_log``, ``_sin`` and ``_cos``.
``Interval``'s operators wrap them, and the kernels that ``expr`` and
``contractor`` compile call them on float locals, so no rounding or case
rule has a second copy, nor a copy per rounding direction: each helper
that rounds one bound (``_round``, ``_add_edge``, ``_mul_edge``,
``_mul_bound``, ``_div_bound``, ``_pow_bound``, ``_root_walk``) takes
the direction as its ``up`` flag.  Dekker's TwoProduct error is written
once, as the text template ``_TWO_PROD``; the directed product
``_mul_bound``, the directed quotient ``_div_bound``, the square and the
square root are compiled from source that holds it, so that on operands
inside (2**-450, 2**450) in magnitude they make no Python call, a tie of
the rounded product that checks a quotient or a square root included;
nor do sums that do not overflow, nor exp and log of finite bounds.  A
tie outside that range takes its error's sign from the two directed
products, which are tight.  Products with an infinite or out-of-range
nonzero operand, overflowing sums, integer powers and the steps of the
integer-root walk take slower exact fallbacks (``_mul_edge``,
``_add_edge``, ``_pow_bound``), each one call of ``_round`` on integer
ratios.

All values are immutable and operations are pure; the FPU rounding mode
is never touched, so concurrent use is safe.

Bounds are validated where they come in: the ``Interval`` constructor,
``Interval.point``, ``Interval.parse`` and ``Box.from_bounds`` reject
NaN, inverted and collapsed-at-infinity bounds.  The arithmetic and set
operations build their results with the unchecked ``_iv`` and ``_box``,
because bounds computed from valid operands are valid by construction.
A ``Box`` is the flat bounds (lo0, hi0, lo1, hi1, ...) that the node
loop and the kernels work on, and its methods wrap the flat helpers.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

__all__ = ["Interval", "Box", "EMPTY"]

_INF = math.inf
_MAX = sys.float_info.max


_nextafter = math.nextafter  # the one ulp-step, called directly so no bound nests a Python call


# ---------------------------------------------------------------------------
# Directed rounding of individual bounds.
#
# The round-to-nearest result is computed first; the sign of the exact
# error then decides whether one ulp-step toward the target infinity is
# needed.  Error signs are computed exactly, never estimated: by TwoSum
# for sums unless it overflows (then _add_edge), and by Dekker's
# TwoProduct for products while both operands lie in (2**-450, 2**450)
# in magnitude, where no Veltkamp split overflows and no partial product
# underflows.  A product with a zero operand is 0.0; one with an infinite
# or out-of-range operand takes _mul_edge.  The exact fallbacks
# (_add_edge, _mul_edge, _pow_bound) form the exact result as a ratio of
# integers and round it once with _round.
# Quotients and square roots reduce to the sign of x*y - v for a double v,
# tested inline: no double lies strictly between x*y and its rounding
# p = fl(x*y) (an infinity past the largest double), so x*y is on p's
# side of v != p.  Only the tie p == v needs the exact sign of x*y - p:
# TwoProduct inline while x and y are in its range, else the directed
# products, (_mul_bound(x, y, True) > p) - (_mul_bound(x, y, False) < p):
# they are tight, so each moves off p only when x*y lies on its side of p.

_EFT_LO = 2.0**-450
_EFT_HI = 2.0**450

# Dekker's TwoProduct, written once as text: given p = fl(a*b) for locals
# {a}, {b} inside (_EFT_LO, _EFT_HI) in magnitude, it sets e to a*b - p
# exactly, as Veltkamp's splitter 2**27 + 1 gives 26-bit halves whose
# partial products are exact.  The functions that run it (_mul_bound,
# _sqr, and the ties of _div_bound and the square root of _root) are
# compiled by _flat from source that holds it, so it runs in their own
# frame.
_TWO_PROD = (
    "t = 134217729.0 * {a}; {a}h = t - (t - {a}); {a}l = {a} - {a}h",
    "t = 134217729.0 * {b}; {b}h = t - (t - {b}); {b}l = {b} - {b}h",
    "e = {a}l * {b}l - (((p - {a}h * {b}h) - {a}l * {b}h) - {a}h * {b}l)",
)


def _two_prod(a: str, b: str) -> str:
    """_TWO_PROD on the locals a and b, as one line; a square splits once."""
    lines = [line.format(a=a, b=b) for line in _TWO_PROD]
    return "; ".join(lines[::2] if a == b else lines)


def _flat(source: str, *names: str) -> tuple[Callable, ...]:
    """The functions ``names`` that source defines, with this module as their globals."""
    defined: dict[str, Callable] = {}
    exec(compile(source, f"<qine {' '.join(names)}>", "exec"), globals(), defined)
    return tuple(defined[name] for name in names)


def _round(num: int, den: int, up: bool) -> float:
    """The tightest double on the up (else down) side of num / den, for den > 0.

    ``int / int`` rounds to nearest once, as IEEE does, and raises
    OverflowError past the largest double; the exact sign of num/den - p
    then picks at most one ulp-step.  An underflowing negative ratio
    rounds to -0.0, as a float product does.
    """
    try:
        p = num / den
    except OverflowError:
        if up:
            return _INF if num > 0 else -_MAX
        return _MAX if num > 0 else -_INF
    pm, pd = p.as_integer_ratio()
    if up:
        return _nextafter(p, _INF) if num * pd > pm * den else p
    return _nextafter(p, -_INF) if num * pd < pm * den else p


def _add_edge(a: float, b: float, up: bool) -> float:
    """a + b rounded down, or up, where fl(a + b) or fl(a + b) - a is not finite."""
    if math.isinf(a) or math.isinf(b):
        return a + b
    am, ad = a.as_integer_ratio()
    bm, bd = b.as_integer_ratio()
    return _round(am * bd + bm * ad, ad * bd, up)


def _mul_edge(a: float, b: float, up: bool) -> float:
    """a*b rounded down, or up, for nonzero a, b not both inside (_EFT_LO, _EFT_HI) in magnitude."""
    if math.isinf(a) or math.isinf(b):
        return _INF if (a > 0) == (b > 0) else -_INF
    am, ad = a.as_integer_ratio()
    bm, bd = b.as_integer_ratio()
    return _round(am * bm, ad * bd, up)


_mul_bound, _div_bound = _flat(
    f'''
def _mul_bound(a: float, b: float, up: bool) -> float:
    if _EFT_LO < abs(a) < _EFT_HI and _EFT_LO < abs(b) < _EFT_HI:
        p = a * b
        {_two_prod("a", "b")}
        if up:
            return _nextafter(p, _INF) if e > 0.0 else p
        return _nextafter(p, -_INF) if e < 0.0 else p
    return 0.0 if a == 0.0 or b == 0.0 else _mul_edge(a, b, up)


def _div_bound(a: float, b: float, up: bool) -> float:
    if a == 0.0:
        return 0.0
    if math.isinf(a):
        return _INF if (a > 0) == (b > 0) else -_INF
    if math.isinf(b):
        return 0.0
    q = a / b
    if math.isinf(q):
        if up:
            return q if q > 0 else -_MAX
        return _MAX if q > 0 else q
    # a/b - q = (a - q*b) / b: e takes the sign of q*b - a as _root's square
    # root does (p - a off a tie, the exact q*b - p on one), and b < 0
    # negates it, so a/b < q exactly when e > 0
    p = q * b
    if p != a:
        e = p - a
    elif _EFT_LO < abs(q) < _EFT_HI and _EFT_LO < abs(b) < _EFT_HI:
        {_two_prod("q", "b")}
    else:
        e = (_mul_bound(q, b, True) > p) - (_mul_bound(q, b, False) < p)
    if b < 0.0:
        e = -e
    if up:
        return _nextafter(q, _INF) if e < 0.0 else q
    return _nextafter(q, -_INF) if e > 0.0 else q
''',
    "_mul_bound",
    "_div_bound",
)


def _pow_bound(v: float, n: int, up: bool) -> float:
    """v**n rounded up, or down, to the tightest double, for v >= 0 and n >= 1.

    v lies in [2**(e-1), 2**e), so a power below the least subnormal or
    past the largest double is decided from e alone, before any integer
    power is formed; every other one is the exact ratio m**n / 2**(k*n)
    of v = m / 2**k, rounded once.
    """
    if v == 0.0 or v == _INF:
        return abs(v)  # its own power, with a zero's sign dropped
    e = math.frexp(v)[1]
    if n * e < -1074:
        return 5e-324 if up else 0.0
    if n * (e - 1) >= 1024:
        return _INF if up else _MAX
    m, d = v.as_integer_ratio()
    return _round(m**n, 1 << (d.bit_length() - 1) * n, up)


def _root_start(v: float, n: int) -> float:
    """A double within two ulps of v**(1/n), for finite v > 0.

    v is scaled by 2**(-n*k) into [0.5, 2**(n-1)), which is exact, so the
    error of the rounded exponent 1/n stays below an ulp.  For n >= 2 the
    root is a normal double, so scaling it back by 2**k is exact too.
    """
    k = math.frexp(v)[1] // n
    return math.ldexp(math.ldexp(v, -n * k) ** (1.0 / n), k)


def _root_walk(v: float, n: int, up: bool) -> float:
    """The smallest double r >= 0 with r**n >= v when up, else the largest with r**n <= v.

    For v >= 0 and n >= 2 (``_root`` takes square roots itself, through
    math.sqrt).  A bound r is valid when r**n is on its side of v.  From
    _root_start the walk goes one way only, one comparison per step: an
    invalid start steps toward validity until the first valid double, a
    valid one steps away while its neighbour stays valid.  After 64 steps
    an invalid walk falls back on inf (0.0 when rounding down); a valid
    one keeps its r.
    """
    if v == 0.0 or v == _INF:
        return abs(v)  # its own root, with a zero's sign dropped
    # v is a double, so r**n >= v exactly when r**n's tight lower bound is,
    # and r**n <= v when its tight upper bound is: r is valid when
    # side * _pow_bound(r, n, not up) >= side * v
    side = 1.0 if up else -1.0
    r = _root_start(v, n)
    if side * _pow_bound(r, n, not up) < side * v:
        for _ in range(64):
            r = _nextafter(r, side * _INF)
            if side * _pow_bound(r, n, not up) >= side * v:
                return r
        return _INF if up else 0.0
    for _ in range(64):
        s = _nextafter(r, -side * _INF)
        if side * _pow_bound(s, n, not up) < side * v:
            return r
        r = s
    return r


# The largest exponent of a power or root.  _root_start scales its
# operand into [0.5, 2**(n-1)), which stays inside the double range only
# for n <= 1025; the cap also bounds the integer powers of _pow_bound to
# about 55,000 bits.  _exponent checks an exponent where it comes in
# (pow_int, root_int, a tape's Pow, backward_project), so _pow, _root and
# the kernels that call them take theirs as valid.
MAX_EXPONENT = 1024


def _exponent(n: object, least: int) -> int:
    """n if it is an int, not a bool, from least (0 for powers, 1 for roots) to MAX_EXPONENT."""
    if not isinstance(n, int) or isinstance(n, bool) or n < least:
        raise ValueError(f"exponent {n!r} is not an integer >= {least}")
    if n > MAX_EXPONENT:
        raise ValueError(f"exponent {n} exceeds {MAX_EXPONENT}")
    return n


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
        lo = _add_edge(xl, yl, False)
    elif (xl - (lo - t)) + (yl - t) < 0.0:
        lo = _nextafter(lo, -_INF)
    hi = xh + yh
    t = hi - xh
    if t - t != 0.0:
        hi = _add_edge(xh, yh, True)
    elif (xh - (hi - t)) + (yh - t) > 0.0:
        hi = _nextafter(hi, _INF)
    return lo, hi


def _mul(xl: float, xh: float, yl: float, yh: float) -> tuple[float, float]:
    """Moore's sign table: 2 directed products, 4 when both straddle 0."""
    if xl > xh or yl > yh:
        return _E
    if yl >= 0.0:
        lo = _mul_bound(xl, yl if xl >= 0.0 else yh, False)
        hi = _mul_bound(xh, yh if xh >= 0.0 else yl, True)
    elif yh <= 0.0:
        lo = _mul_bound(xh, yl if xh >= 0.0 else yh, False)
        hi = _mul_bound(xl, yh if xl >= 0.0 else yl, True)
    elif xl >= 0.0:
        lo, hi = _mul_bound(xh, yl, False), _mul_bound(xh, yh, True)
    elif xh <= 0.0:
        lo, hi = _mul_bound(xl, yh, False), _mul_bound(xl, yl, True)
    else:
        lo = min(_mul_bound(xl, yh, False), _mul_bound(xh, yl, False))
        hi = max(_mul_bound(xl, yl, True), _mul_bound(xh, yh, True))
    if hi == 0.0 and (
        0.0 < abs(xl) <= _EFT_LO or 0.0 < abs(xh) <= _EFT_LO
        or 0.0 < abs(yl) <= _EFT_LO or 0.0 < abs(yh) <= _EFT_LO
    ):
        # _mul_bound rounds an underflowing negative product up to -0.0; the
        # sign of a zero bound is that of the first zero among the four
        # candidates in this order.  Only a product with a nonzero operand
        # at most _EFT_LO in magnitude can underflow; every other zero
        # candidate is +0.0, and so is the bound already.
        hi = max(_mul_bound(xl, yl, True), _mul_bound(xl, yh, True),
                 _mul_bound(xh, yl, True), _mul_bound(xh, yh, True))
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
            lo = _div_bound(xl, yh if xl >= 0.0 else yl, False)
            hi = _div_bound(xh, yl if xh >= 0.0 else yh, True)
        else:
            lo = _div_bound(xh, yh if xh >= 0.0 else yl, False)
            hi = _div_bound(xl, yl if xl >= 0.0 else yh, True)
        if hi == 0.0:
            hi = max(_div_bound(xl, yl, True), _div_bound(xl, yh, True),
                     _div_bound(xh, yl, True), _div_bound(xh, yh, True))
        return lo, hi
    if xl <= 0.0 <= xh:
        return -_INF, _INF
    if yl == 0.0 and yh == 0.0:
        return _E
    if xl > 0.0:
        if yh == 0.0:
            return -_INF, _div_bound(xl, yl, True)
        if yl == 0.0:
            return _div_bound(xl, yh, False), _INF
        return -_INF, _INF
    if yh == 0.0:
        return _div_bound(xh, yl, False), _INF
    if yl == 0.0:
        return -_INF, _div_bound(xh, yh, True)
    return -_INF, _INF


(_sqr,) = _flat(
    f'''
def _sqr(lo: float, hi: float) -> tuple[float, float]:
    """One directed square per bound; across 0 only the larger magnitude is squared."""
    if lo > hi:
        return _E
    if lo < 0.0 < hi:
        # rounding up is monotone, so the larger magnitude's square is the larger
        down, hi = 0.0, (-lo if -lo > hi else hi)
    else:
        if lo < 0.0:
            lo, hi = -hi, -lo  # the mirror image, with the same squares
        if _EFT_LO < lo < _EFT_HI:
            p = lo * lo
            {_two_prod("lo", "lo")}
            down = _nextafter(p, -_INF) if e < 0.0 else p
        else:
            down = _mul_edge(lo, lo, False) if lo else 0.0
    if _EFT_LO < hi < _EFT_HI:
        p = hi * hi
        {_two_prod("hi", "hi")}
        return down, (_nextafter(p, _INF) if e > 0.0 else p)
    return down, (_mul_edge(hi, hi, True) if hi else 0.0)
''',
    "_sqr",
)


def _pow(lo: float, hi: float, n: int) -> tuple[float, float]:
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
            return _pow_bound(lo, n, False), _pow_bound(hi, n, True)
        if hi <= 0.0:
            return _pow_bound(-hi, n, False), _pow_bound(-lo, n, True)
        return 0.0, _pow_bound(max(-lo, hi), n, True)
    down = -_pow_bound(-lo, n, True) if lo < 0.0 else _pow_bound(lo, n, False)
    up = -_pow_bound(-hi, n, False) if hi < 0.0 else _pow_bound(hi, n, True)
    return down, up


(_root,) = _flat(
    f'''
def _root(lo: float, hi: float, n: int) -> tuple[float, float]:
    if lo > hi:
        return _E
    if n == 2:
        # the part inside [0, inf); math.sqrt is correctly rounded, so the
        # sign of r*r - v (see the rounding notes above) tells each bound
        # from its neighbour: e takes it, as p - v off a tie and as the
        # exact r*r - p on one
        if hi < 0.0:
            return _E
        if lo <= 0.0:
            lo = 0.0
        elif lo < _INF:
            r = math.sqrt(lo)
            p = r * r
            if p != lo:
                e = p - lo
            elif _EFT_LO < r < _EFT_HI:
                {_two_prod("r", "r")}
            else:
                e = (_mul_bound(r, r, True) > p) - (_mul_bound(r, r, False) < p)
            lo = _nextafter(r, -_INF) if e > 0.0 else r
        if hi <= 0.0:
            hi = 0.0
        elif hi < _INF:
            r = math.sqrt(hi)
            p = r * r
            if p != hi:
                e = p - hi
            elif _EFT_LO < r < _EFT_HI:
                {_two_prod("r", "r")}
            else:
                e = (_mul_bound(r, r, True) > p) - (_mul_bound(r, r, False) < p)
            hi = _nextafter(r, _INF) if e < 0.0 else r
        return lo, hi
    if n == 1:
        return lo, hi
    if n % 2 == 0:
        # the part inside [0, inf)
        lo = max(lo, 0.0)
        if lo > hi:
            return _E
        return _root_walk(lo, n, False), _root_walk(hi, n, True)
    down = -_root_walk(-lo, n, True) if lo < 0.0 else _root_walk(lo, n, False)
    up = -_root_walk(-hi, n, False) if hi < 0.0 else _root_walk(hi, n, True)
    return down, up
''',
    "_root",
)


# libm is faithful but not correctly rounded for the transcendentals;
# two ulps of widening cover it with margin.  exp(inf) and log(inf) are
# inf, which widening up keeps.  A sin or cos bound becomes 1 or -1
# instead where _periodic counts a maximum or a minimum inside.


def _exp(lo: float, hi: float) -> tuple[float, float]:
    """A bound past the largest double is that double below, inf above."""
    if lo > hi:
        return _E
    try:
        down = max(0.0, _nextafter(_nextafter(math.exp(lo), -_INF), -_INF)) if lo < _INF else _MAX
    except OverflowError:
        return _MAX, _INF  # exp(hi) overflows too
    try:
        up = _nextafter(_nextafter(math.exp(hi), _INF), _INF) if hi > -_INF else 0.0
    except OverflowError:
        up = _INF
    return down, up


def _log(lo: float, hi: float) -> tuple[float, float]:
    if lo > hi or hi <= 0.0:
        return _E
    if lo <= 0.0:
        down = -_INF
    else:
        down = _nextafter(_nextafter(math.log(lo), -_INF), -_INF) if lo < _INF else _INF
    return down, _nextafter(_nextafter(math.log(hi), _INF), _INF)


def _sin(lo: float, hi: float) -> tuple[float, float]:
    return _periodic(lo, hi, math.sin, math.pi / 2)


def _cos(lo: float, hi: float) -> tuple[float, float]:
    return _periodic(lo, hi, math.cos, 0.0)


def _periodic(lo: float, hi: float, fn: Callable[[float], float], peak: float) -> tuple[float, float]:
    """sin or cos, whose maxima lie at peak + j*pi for even j and minima for odd j.

    One count of half periods over [lo, hi] widened by a slack finds the
    j inside.  a, b and math.pi err far below the slack, so no extremum
    inside is missed; one counted from just outside only loosens a bound.
    """
    if lo > hi:
        return _E
    slack = 1e-9 + 1e-12 * max(abs(lo), abs(hi))
    a = (lo - slack - peak) / math.pi
    b = (hi + slack - peak) / math.pi
    if not b - a < 2.0:  # an infinite or overflowing bound, or a window of 2pi or more
        return -1.0, 1.0
    j = math.ceil(a)
    if j + 1 <= b:
        return -1.0, 1.0  # a maximum and a minimum inside
    f_lo, f_hi = fn(lo), fn(hi)
    down = max(_nextafter(_nextafter(min(f_lo, f_hi), -_INF), -_INF), -1.0)
    up = min(_nextafter(_nextafter(max(f_lo, f_hi), _INF), _INF), 1.0)
    if j > b:
        return down, up
    return (-1.0, up) if j % 2 else (down, 1.0)


# The one number grammar, of expression literals, right-hand sides and
# domain bounds, in ASCII digits: a regex's digit class, like float(),
# takes the digits of every script.  The sign is the caller's: in an
# expression it is an operator, elsewhere an optional prefix.  A domain
# bound may also be inf, which ``str(Interval)`` writes.
_DIGITS = "[0-9]+"
_NUMBER = rf"(?:{_DIGITS}\.[0-9]*|\.{_DIGITS}|{_DIGITS})(?:[eE][+-]?{_DIGITS})?"
_BOUND = rf"[+-]?(?:{_NUMBER}|inf)"
_INTERVAL_RE = re.compile(rf"\s*\[\s*({_BOUND})\s*,\s*({_BOUND})\s*\]\s*\Z")


def _literal_bounds(text: str) -> tuple[float, float]:
    """The tightest doubles lo <= hi around a decimal/scientific literal.

    Both are the nearest double when it is exact, infinite or NaN.
    """
    f = float(text)
    if math.isinf(f) or f != f:
        return f, f
    if f:
        side = Decimal(f).compare(Decimal(text))
    elif any(c in "123456789" for c in text.lower().partition("e")[0]):
        # nonzero, yet below the least subnormal: the literal lies on
        # f's side of 0 (Decimal cannot hold every such exponent)
        side = -math.copysign(1.0, f)
    else:
        side = 0
    if side > 0:
        return _nextafter(f, -_INF), f
    if side < 0:
        return f, _nextafter(f, _INF)
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
        """Parse the literal syntax "[lo,hi]" with outward-rounded bounds.

        Each bound is a signed number of the grammar above, or inf.
        """
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

    # -- set operations ------------------------------------------------------

    def intersect(self, other: Interval) -> Interval:
        """self ∩ other; on ties max and min keep self's bound, signed zeros included.

        An empty operand's (inf, -inf) makes lo > hi, so it needs no test of its own.
        """
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return EMPTY if lo > hi else _iv(lo, hi)

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
        """Integer power with even/odd handling; 0 <= n <= MAX_EXPONENT."""
        return _iv(*_pow(self.lo, self.hi, _exponent(n, 0)))

    def root_int(self, n: int) -> Interval:
        """Set of real n-th roots; even roots give the non-negative branch.

        1 <= n <= MAX_EXPONENT.  For even n the symmetric negative branch
        is the caller's to add.
        """
        return _iv(*_root(self.lo, self.hi, _exponent(n, 1)))

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


def _midpoint(lo: float, hi: float) -> float:
    """The midpoint of [lo, hi], inside it; lo + 1 or hi - 1 past an infinite bound.

    The one midpoint rule: ``_halves`` (and so ``Box.bisect`` and the
    node loop's split) and the pruning kernels call it.  A finite m = 0.5 * (lo + hi) with
    lo <= hi is returned at once: rounding is monotone, so m lies in
    [lo, hi] and the clamp at the end would leave it as it is.
    """
    m = 0.5 * (lo + hi)
    if m - m == 0.0 and lo <= hi:
        return m
    if lo > hi:
        raise ValueError("midpoint of the empty interval")
    if lo == -_INF and hi == _INF:
        return 0.0
    if lo == -_INF:
        return hi - 1.0
    if hi == _INF:
        return lo + 1.0
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    return min(max(m, lo), hi)


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


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Box:
    """An interval vector, held as its flat bounds (lo0, hi0, lo1, hi1, ...).

    ``bounds`` is the node loop's own tuple, not a copy; ``dims``, ``box[i]``
    and iteration build Intervals when read.  ``==`` and ``hash`` are those
    of ``bounds`` (0.0 == -0.0, as for Intervals).  Empty iff a coordinate
    is; the 0-d box is the empty product, a point, so it is never empty.
    """

    bounds: tuple[float, ...]

    def __init__(self, dims: Iterable[Interval]) -> None:
        _set_bounds(self, tuple([b for iv in dims for b in (iv.lo, iv.hi)]))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bounds(cls, bounds: Iterable[tuple[float, float]]) -> Box:
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @classmethod
    def point(cls, coords: Iterable[float]) -> Box:
        return cls(tuple(Interval.point(c) for c in coords))

    @classmethod
    def empty(cls, n: int) -> Box:
        return _box((_INF, -_INF) * n)

    # -- container protocol ---------------------------------------------------

    @property
    def dims(self) -> tuple[Interval, ...]:
        x = self.bounds
        return tuple(map(_iv, x[::2], x[1::2]))

    def __len__(self) -> int:
        return len(self.bounds) // 2

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.dims)

    # -- predicates and measures ----------------------------------------------

    @property
    def is_empty(self) -> bool:
        x = self.bounds
        for i in range(0, len(x), 2):
            if x[i] > x[i + 1]:
                return True
        return False

    @property
    def width(self) -> float:
        """Largest coordinate width (0.0 for empty or 0-d boxes)."""
        return 0.0 if self.is_empty else _shape(len(self))[0](self.bounds)[1]

    def dyadic_volume(self) -> tuple[int, int]:
        """Volume as (m, k), meaning m / 2**k; requires finite bounds (``_shape``'s volume)."""
        if self.is_empty:
            return 0, 0
        if -_INF in (x := self.bounds) or _INF in x:
            raise ValueError("exact volume of an unbounded box")
        return _shape(len(self))[1](x)

    def exact_volume(self) -> Fraction:
        """Volume as an exact rational; requires finite bounds."""
        m, k = self.dyadic_volume()
        return Fraction(m, 1 << k)

    # -- bisection ---------------------------------------------------------------

    def bisect(self, axis: int) -> tuple[Box, Box]:
        """Split at the midpoint of the given axis (``_halves``).

        Raises ValueError when the axis is degenerate or so thin that the
        midpoint is not strictly inside (a caller policy error).  The
        halves keep every other coordinate's bounds as they are.
        """
        x = self.bounds
        lo, hi = x[2 * axis], x[2 * axis + 1]
        if lo >= hi:  # an empty axis too
            raise ValueError(f"cannot bisect degenerate axis {axis}")
        halves = _halves(x, 2 * (axis % len(self)))
        if halves is None:
            raise ValueError(f"axis {axis} too thin to bisect at {_midpoint(lo, hi)!r}")
        return _box(halves[0]), _box(halves[1])

    def __str__(self) -> str:
        return "x".join(map(str, self)) if self.bounds else "()"

    def __repr__(self) -> str:
        return f"Box(dims={self.dims!r})"


_set_bounds = Box.bounds.__set__


def _box(x: tuple[float, ...]) -> Box:
    """The Box of the flat bounds x, valid by construction: one allocation that keeps x itself."""
    box = _new(Box)
    _set_bounds(box, x)
    return box


def _rebox(box: Box, x: tuple[float, ...]) -> Box:
    """box itself when the flat bounds x equal its own, else the Box of x."""
    return box if x == box.bounds else _box(x)


def _exact_width(lo: float, hi: float) -> tuple[int, int]:
    """hi - lo as (m, d), meaning m / d, over the bounds' ratios."""
    hm, hd = hi.as_integer_ratio()
    lm, ld = lo.as_integer_ratio()
    return hm * ld - lm * hd, hd * ld


_SHAPES: dict[int, tuple[Callable, ...]] = {}


def _shape(n: int) -> tuple[Callable, ...]:
    """The measures of n-dimensional flat bounds x, compiled once per n, one line per coordinate.

    ``widest(x)`` is (axis, width) of the widest coordinate, the lowest
    index on ties, an empty coordinate's negative hi - lo below any width;
    ``volume(x)`` is the (m, k), meaning m / 2**k, of a non-empty x with
    finite bounds: bounds are doubles, so every denominator is a power of
    two, and each width is the double hi - lo when TwoSum shows it exact,
    else hi - lo over the bounds' ratios; ``thin(x)`` tells whether some
    coordinate is a point; and ``split(x, a)`` is ``_halves(x, 2 * a)``
    with each half's widest width and volume, as ``(w0, x0, m0, k0, w1,
    x1, m1, k1)``, or None where ``_halves`` gives None: it measures each
    unsplit coordinate once, for both halves, and raises IndexError past
    the last axis.
    ``split`` holds those lines once per axis, so its source grows as n**2.
    """
    shape = _SHAPES.get(n)
    if shape is None:
        js = range(n)
        lo, hi = [f"x[{2 * j}]" for j in js], [f"x[{2 * j + 1}]" for j in js]

        def ratio(j: object, l: str, h: str) -> list[str]:
            # w{j} = h - l, and (m{j}, d{j}) its ratio m / d
            return [
                f"w{j} = {h} - {l}; t = w{j} - {h}",
                f"if t - t == 0.0 and {h} - (w{j} - t) == {l} + t: m{j}, d{j} = w{j}.as_integer_ratio()",
                f"else: m{j}, d{j} = _exact_width({l}, {h})",
            ]

        def product(v: str, axes: Sequence[object]) -> str:
            return "*".join([f"{v}{j}" for j in axes] or ["1"])

        widest = ["a, w = 0, 0.0", *(f"if (v := {hi[j]} - {lo[j]}) > w: a, w = {j}, v" for j in js), "return a, w"]
        volume = [line for j in js for line in [f"l, h = {lo[j]}, {hi[j]}", *ratio(j, "l", "h")]]
        volume.append(f"return {product('m', js)}, ({product('d', js)}).bit_length() - 1")
        thin = ["return " + (" or ".join(f"{lo[j]} == {hi[j]}" for j in js) or "False")]
        # split: the unsplit coordinates' widest width w and volume factors
        # are shared by both halves; each half adds its own split coordinate
        split = [", ".join(f"l{j}, h{j}" for j in js) + " = x"] if n else []
        for a in js:
            rest = [j for j in js if j != a]
            left = ", ".join(f"l{j}, m" if j == a else f"l{j}, h{j}" for j in js)
            right = ", ".join(f"m, h{j}" if j == a else f"l{j}, h{j}" for j in js)
            split += [
                f"if a == {a}:",
                f" m = _midpoint(l{a}, h{a})",
                f" if not l{a} < m < h{a}: return None",
                *(" " + line for j in rest for line in ratio(j, f"l{j}", f"h{j}")),
                " w = 0.0",
                *(f" if w{j} > w: w = w{j}" for j in rest),
                *(" " + line for line in [*ratio("L", f"l{a}", "m"), *ratio("R", "m", f"h{a}")]),
                f" pm, pd = {product('m', rest)}, {product('d', rest)}",
                f" return (wL if wL > w else w), ({left}), mL * pm, (dL * pd).bit_length() - 1,"
                f" (wR if wR > w else w), ({right}), mR * pm, (dR * pd).bit_length() - 1",
            ]
        split.append("raise IndexError(a)")
        helpers = {"widest": widest, "volume": volume, "thin": thin, "split": split}
        source = "".join(
            f"def {name}(x{', a' if name == 'split' else ''}):\n " + "\n ".join(lines) + "\n"
            for name, lines in helpers.items()
        )
        shape = _SHAPES[n] = _flat(source, *helpers)
    return shape


def _halves(x: tuple[float, ...], i: int) -> tuple[tuple[float, ...], tuple[float, ...]] | None:
    """x split at the midpoint (``_midpoint``) of the bounds x[i], x[i + 1] of a non-empty x; None when too thin."""
    lo, hi = x[i], x[i + 1]
    m = _midpoint(lo, hi)
    if not lo < m < hi:
        return None
    y = list(x)
    y[i + 1] = m
    left = tuple(y)
    y[i], y[i + 1] = m, hi
    return left, tuple(y)


def _cut(x: tuple[float, ...], r: tuple[float, ...]) -> list[tuple[float, ...]]:
    """cl(x \\ r) in at most 2n pieces, for a non-empty r inside x.

    Each bound of r must equal x's bound bit for bit or lie strictly
    inside it, as the identification kernels build it.  A coordinate
    whose two bounds equal x's is not cut.
    """
    pieces, cur = [], list(x)
    for i in range(0, len(x), 2):
        lo, hi, rl, rh = x[i], x[i + 1], r[i], r[i + 1]
        if rl == lo and rh == hi:
            continue
        if rl > lo:
            cur[i + 1] = rl
            pieces.append(tuple(cur))
        if rh < hi:
            cur[i], cur[i + 1] = rh, hi
            pieces.append(tuple(cur))
        cur[i], cur[i + 1] = rl, rh
    return pieces


def _contains(p: tuple[float, ...], r: tuple[float, ...]) -> bool:
    """Whether the flat box p contains the non-empty flat box r."""
    return all(p[i] <= r[i] and r[i + 1] <= p[i + 1] for i in range(0, len(r), 2))
