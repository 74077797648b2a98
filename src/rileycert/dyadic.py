"""Exact dyadic rationals, outward-rounded intervals, and certified enclosures.

Dyadic numbers m * 2**e are closed under +, -, *, so interval arithmetic here
is exact unless a rounding precision is requested explicitly.  Rounding, when
asked for, always moves lower endpoints down and upper endpoints up.

The enclosures of pi, sqrt(2), sqrt(3) and 2cos(num*pi/den) are fixed-point
work on plain integers scaled by a power of two: every floor division is
counted in a stated error budget, in ulps, and the result is rounded
outward.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache


def _decimal(text) -> int:
    """The integer of an ASCII decimal string, -?[0-9]+, else ValueError:
    int() alone also reads other Unicode digits, '_' and whitespace."""
    if not (isinstance(text, str) and re.fullmatch(r"-?[0-9]+", text)):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


class Dyadic:
    """An exact dyadic rational m * 2**e, stored normalized (m odd or zero)."""

    __slots__ = ("m", "e")

    def __init__(self, m: int, e: int = 0):
        if m == 0:
            e = 0
        else:
            shift = (m & -m).bit_length() - 1
            m >>= shift
            e += shift
        self.m = m
        self.e = e

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def floor_to(self, precision: int) -> "Dyadic":
        """Round down to a multiple of 2**-precision (exact if already one)."""
        shift = -precision - self.e
        if shift <= 0:
            return self
        return Dyadic(self.m >> shift, -precision)

    def ceil_to(self, precision: int) -> "Dyadic":
        shift = -precision - self.e
        if shift <= 0:
            return self
        return Dyadic(-((-self.m) >> shift), -precision)

    def _cmp(self, other: "Dyadic") -> int:
        d = self.e - other.e
        a, b = (self.m << d, other.m) if d >= 0 else (self.m, other.m << -d)
        return (a > b) - (a < b)

    @staticmethod
    def _coerce(value) -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value)
        raise TypeError(f"cannot mix Dyadic with {type(value).__name__}")

    def __add__(self, other):
        other = Dyadic._coerce(other)
        e = min(self.e, other.e)
        return Dyadic((self.m << (self.e - e)) + (other.m << (other.e - e)), e)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Dyadic._coerce(other))

    def __rsub__(self, other):
        return Dyadic._coerce(other) + (-self)

    def __mul__(self, other):
        other = Dyadic._coerce(other)
        return Dyadic(self.m * other.m, self.e + other.e)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.m, self.e)

    def half(self) -> "Dyadic":
        return Dyadic(self.m, self.e - 1)

    def __eq__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        return self._cmp(Dyadic._coerce(other)) == 0

    def __lt__(self, other):
        return self._cmp(Dyadic._coerce(other)) < 0

    def __le__(self, other):
        return self._cmp(Dyadic._coerce(other)) <= 0

    def __gt__(self, other):
        return self._cmp(Dyadic._coerce(other)) > 0

    def __ge__(self, other):
        return self._cmp(Dyadic._coerce(other)) >= 0

    def __hash__(self):
        return hash(self.as_fraction())

    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    def __float__(self):
        return float(self.as_fraction())  # m * 2.0**e overflows once m > 2**1024

    def as_json(self) -> dict:
        return {"mantissa": str(self.m), "exponent": self.e}

    @classmethod
    def from_json(cls, obj: dict) -> "Dyadic":
        """The inverse of as_json; the mantissa must be an ASCII decimal."""
        return cls(_decimal(obj["mantissa"]), int(obj["exponent"]))

    def __repr__(self):
        return f"Dyadic({self.m}, {self.e})"


class DyadicInterval:
    """Closed interval with dyadic endpoints; arithmetic encloses the true range."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if lo > hi:
            raise ValueError(f"inverted interval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, value) -> "DyadicInterval":
        d = Dyadic._coerce(value)
        return cls(d, d)

    def is_point(self) -> bool:
        return self.lo == self.hi

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def midpoint(self) -> Dyadic:
        return (self.lo + self.hi).half()

    def sign(self):
        """+1 / -1 if definitely positive / negative, 0 if exactly zero, None otherwise."""
        if self.lo.m > 0:
            return 1
        if self.hi.m < 0:
            return -1
        if self.lo.m == 0 and self.hi.m == 0:
            return 0
        return None

    @staticmethod
    def _coerce(value) -> "DyadicInterval":
        if isinstance(value, DyadicInterval):
            return value
        return DyadicInterval.point(value)

    def __add__(self, other):
        other = DyadicInterval._coerce(other)
        return DyadicInterval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = DyadicInterval._coerce(other)
        return DyadicInterval(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return DyadicInterval._coerce(other) - self

    def __neg__(self):
        return DyadicInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        other = DyadicInterval._coerce(other)
        if self.is_point() and other.is_point():
            return DyadicInterval.point(self.lo * other.lo)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        lo = hi = cands[0]
        for c in cands[1:]:
            if c < lo:
                lo = c
            elif c > hi:
                hi = c
        return DyadicInterval(lo, hi)

    __rmul__ = __mul__

    def round_outward(self, precision: int) -> "DyadicInterval":
        return DyadicInterval(self.lo.floor_to(precision), self.hi.ceil_to(precision))

    def contains(self, other) -> bool:
        other = DyadicInterval._coerce(other)
        return self.lo <= other.lo and other.hi <= self.hi

    def __eq__(self, other):
        if not isinstance(other, DyadicInterval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


def _atan_inv_scaled(q: int, work: int) -> tuple[int, int]:
    """arctan(1/q) * 2**work as an integer, plus an error bound in ulps.

    Alternating series; every floor division loses < 1 ulp and the dropped
    tail is below the first omitted term, itself < 1 ulp at the stop point.
    """
    top = 1 << work
    total, sign, j, power, terms = 0, 1, 0, q, 0
    q2 = q * q
    while True:
        den = power * (2 * j + 1)
        if den > top:
            break
        total += sign * (top // den)
        sign, j, power, terms = -sign, j + 1, power * q2, terms + 1
    return total, terms + 1


_GUARD_BITS = 32


@lru_cache(maxsize=None)
def pi_bounds(precision: int) -> tuple[int, int]:
    """Integers lo <= pi * 2**W <= hi, W = precision + 32, by Machin's
    formula on the unit 2**-W of `_two_cos_scaled`; hi - lo <= 2**32 ulps,
    so pi is enclosed to within 2**-precision."""
    work = precision + _GUARD_BITS
    v5, e5 = _atan_inv_scaled(5, work)
    v239, e239 = _atan_inv_scaled(239, work)
    value = 16 * v5 - 4 * v239
    err = 16 * e5 + 4 * e239
    assert 2 * err <= 1 << _GUARD_BITS
    return value - err, value + err


def _cos_scaled(t: int, work: int) -> tuple[int, int]:
    """cos(t / 2**work) * 2**work as an integer, plus an error bound in ulps,
    for 0 <= t <= (8/5) * 2**work.

    Fixed-point Taylor series: with s = floor(t*t / 2**work), term
    c_j = floor(c_{j-1} * s / ((2j-1)(2j) * 2**work)) stands for
    a_j = tau**(2j) / (2j)! * 2**work, tau = t / 2**work.  The ratio
    rho_j = tau**2 / ((2j-1)(2j)) is <= 1.28 at j = 1 and <= 0.22 after, so
    |c_j - a_j| <= rho_j |c_{j-1} - a_{j-1}| + c_{j-1} / ((2j-1)(2j) 2**work) + 1
    (the floor of s, then the floor of the division) stays <= 3 ulps for
    every term: 1.5 at j = 1, at most 0.22*3 + 1.3/12 + 1 < 3 after.  The
    terms decrease from j = 1 on, so the alternating tail after the last
    summed term is below the first omitted one, a_J <= c_J + 3 < 4 ulps,
    because the sum stops at the first J >= 2 with c_J = 0.
    """
    s = (t * t) >> work
    total = term = 1 << work
    j = 0
    while True:
        j += 1
        term = term * s // ((2 * j - 1) * (2 * j) << work)
        if j >= 2 and term == 0:
            return total, 3 * (j - 1) + 4
        total += term if j % 2 == 0 else -term


@lru_cache(maxsize=None)
def sqrt_enclosure(n: int, precision: int) -> DyadicInterval:
    """Enclose sqrt(n), n = 2 or 3, between consecutive multiples of
    2**-(precision + 1).

    m = isqrt(n * 4**(precision + 1)) has m**2 < n * 4**(precision + 1) <
    (m + 1)**2, since n is not a perfect square: the interval that
    precision + 1 bisection steps of t**2 - n on [1, 2] arrive at.
    """
    if not 1 < n < 4:
        raise ValueError("sqrt_enclosure handles radicands strictly between 1 and 4")
    bits = precision + 1
    m = math.isqrt(n << 2 * bits)
    return DyadicInterval(Dyadic(m, -bits), Dyadic(m + 1, -bits))


_EXACT_TWO_COS = {Fraction(0): 2, Fraction(1, 3): 1, Fraction(1, 2): 0}


def _two_cos_scaled(num: int, den: int, precision: int) -> tuple[int, int]:
    """Integers lo <= 2cos(num*pi/den) * 2**W <= hi, W = precision + 32, for
    0 < num/den < 1/2.

    t = pi*num/den is scaled by 2**W outward from pi_bounds(precision), on
    the same unit: floored at the lower pi bound, ceiled at the upper one.
    cos decreases on [0, pi/2], so its lower bound comes from the upper t
    and vice versa.  pi_bounds(precision) is less than 2**15 ulps wide for
    precision <= 4096 and each series is within 3J + 1 ulps, so hi - lo is
    far below 2**(W - precision - 1).
    """
    work = precision + _GUARD_BITS
    pi_lo, pi_hi = pi_bounds(precision)
    t_lo = pi_lo * num // den
    t_hi = -(-pi_hi * num // den)
    c_lo, err_lo = _cos_scaled(t_hi, work)
    c_hi, err_hi = _cos_scaled(t_lo, work)
    return 2 * (c_lo - err_lo), 2 * (c_hi + err_hi)


@lru_cache(maxsize=None)
def two_cos_pi_ratio(num: int, den: int, precision: int) -> DyadicInterval:
    """Enclose 2*cos(num*pi/den) with width <= 2**-precision, 0 <= num <= den.

    Exact for ratios 0, 1/3, 1/2 (and their reflections); an integer square
    root for 1/4 and 1/6; otherwise, after reflecting cos(t) = -cos(pi - t)
    into [0, pi/2), one fixed-point pass on integers scaled by
    2**(precision + 32) (_two_cos_scaled), rounded outward to
    precision + 2 bits.  The scaled bounds are less than 2**-(precision + 1)
    apart and the rounding adds at most 2**-(precision + 1).
    """
    if den < 1 or not 0 <= num <= den:
        raise ValueError(f"need 0 <= num <= den, got {num}/{den}")
    r = Fraction(num, den)
    if r > Fraction(1, 2):
        return -two_cos_pi_ratio((1 - r).numerator, (1 - r).denominator, precision)
    if r in _EXACT_TWO_COS:
        return DyadicInterval.point(_EXACT_TWO_COS[r])
    if r == Fraction(1, 4):
        return sqrt_enclosure(2, precision)
    if r == Fraction(1, 6):
        return sqrt_enclosure(3, precision)
    lo, hi = _two_cos_scaled(num, den, precision)
    shift = _GUARD_BITS - 2
    iv = DyadicInterval(Dyadic(lo >> shift, -(precision + 2)),
                        Dyadic(-(-hi >> shift), -(precision + 2)))
    assert iv.width() <= Dyadic(1, -precision)
    return iv
