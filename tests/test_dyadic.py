import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert.chebyshev import cheb_eval
from rileycert.dyadic import (_GUARD_BITS, Dyadic, DyadicInterval, _cos_scaled,
                              _two_cos_scaled, pi_bounds, sqrt_enclosure,
                              two_cos_pi_ratio)

from poly_oracle import as_fraction

PI_50 = Fraction(Decimal("3.14159265358979323846264338327950288419716939937511"))


def pi_fractions(precision: int) -> tuple[Fraction, Fraction]:
    """pi_bounds(precision) as rationals: its integers are on the unit
    2**-(precision + 32)."""
    scale = 1 << (precision + 32)
    lo, hi = pi_bounds(precision)
    return Fraction(lo, scale), Fraction(hi, scale)


def cos_bounds_reference(t: Fraction, precision: int) -> tuple[Fraction, Fraction]:
    """Rational bounds on cos(t) for 0 <= t <= 8/5, width <= 2**-precision,
    by the Taylor series in exact Fractions: the terms t^(2j)/(2j)! decrease
    from j = 1 on, so the first omitted term bounds the truncation error."""
    assert 0 <= t <= Fraction(8, 5)
    eps = Fraction(1, 1 << (precision + 2))
    t2 = t * t
    total = term = Fraction(1)
    j = 0
    while True:
        j += 1
        term = term * t2 / ((2 * j - 1) * (2 * j))
        if j >= 2 and term < eps:
            return total - term, total + term
        total += term if j % 2 == 0 else -term


def two_cos_reference(num: int, den: int, precision: int) -> tuple[Fraction, Fraction]:
    """Fraction bounds on 2cos(num*pi/den) for 0 < num/den < 1/2, width
    about 2**-(precision + 16)."""
    work = precision + 16
    pi_lo, pi_hi = pi_fractions(work)
    r = Fraction(num, den)
    return (2 * cos_bounds_reference(pi_hi * r, work)[0],
            2 * cos_bounds_reference(pi_lo * r, work)[1])


def sqrt_bisection_reference(n: int, steps: int) -> list[DyadicInterval]:
    """The brackets of sqrt(n) on [1, 2] after 0, 1, ..., steps exact
    bisection steps of t**2 - n."""
    lo, hi = Dyadic(1), Dyadic(2)
    out = [DyadicInterval(lo, hi)]
    for _ in range(steps):
        mid = (lo + hi).half()
        if (mid * mid - n).sign() < 0:
            lo = mid
        else:
            hi = mid
        out.append(DyadicInterval(lo, hi))
    return out


def cheb_root_gap(den: int) -> float:
    """Smallest distance between adjacent roots 2cos(k*pi/den) of S_{den-1}."""
    roots = [2 * math.cos(k * math.pi / den) for k in range(1, den)]
    return min((a - b for a, b in zip(roots, roots[1:])), default=math.inf)


ratios = st.integers(1, 97).flatmap(lambda den: st.tuples(st.integers(0, den), st.just(den)))


def rand_dyadic(rng):
    return Dyadic(rng.randrange(-1 << 20, 1 << 20), rng.randrange(-24, 8))


def test_normalization():
    d = Dyadic(8)
    assert (d.m, d.e) == (1, 3)
    assert (Dyadic(-12, 2).m, Dyadic(-12, 2).e) == (-3, 4)
    assert (Dyadic(0, 17).m, Dyadic(0, 17).e) == (0, 0)


def test_arithmetic_matches_fractions():
    rng = random.Random(11)
    for _ in range(500):
        a, b = rand_dyadic(rng), rand_dyadic(rng)
        fa, fb = as_fraction(a), as_fraction(b)
        assert as_fraction(a + b) == fa + fb
        assert as_fraction(a - b) == fa - fb
        assert as_fraction(a * b) == fa * fb
        assert as_fraction(-a) == -fa
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert as_fraction(a.half()) == fa / 2


def test_rounding_directions():
    d = Dyadic(5, -4)  # 0.3125
    assert as_fraction(d.floor_to(2)) == Fraction(1, 4)
    assert as_fraction(d.ceil_to(2)) == Fraction(1, 2)
    assert as_fraction(d.floor_to(3)) == Fraction(1, 4)
    assert as_fraction(d.ceil_to(3)) == Fraction(3, 8)
    assert d.floor_to(10) is d  # already on the grid
    neg = Dyadic(-5, -4)
    assert as_fraction(neg.floor_to(2)) == Fraction(-1, 2)
    assert as_fraction(neg.ceil_to(2)) == Fraction(-1, 4)


def test_json_round_trip():
    d = Dyadic(-7, -3)
    assert Dyadic.from_json(d.as_json()) == d
    assert d.as_json() == {"mantissa": "-7", "exponent": -3}


def test_interval_ordering_enforced():
    with pytest.raises(ValueError):
        DyadicInterval(Dyadic(1), Dyadic(0))


def test_interval_arithmetic_encloses_samples():
    rng = random.Random(5)
    for _ in range(200):
        a = sorted((rand_dyadic(rng), rand_dyadic(rng)))
        b = sorted((rand_dyadic(rng), rand_dyadic(rng)))
        ia, ib = DyadicInterval(*a), DyadicInterval(*b)
        for op in ("add", "sub", "mul"):
            res = {"add": ia + ib, "sub": ia - ib, "mul": ia * ib}[op]
            for _ in range(4):
                u = as_fraction(a[0]) + Fraction(rng.randrange(0, 101), 100) \
                    * (as_fraction(a[1]) - as_fraction(a[0]))
                v = as_fraction(b[0]) + Fraction(rng.randrange(0, 101), 100) \
                    * (as_fraction(b[1]) - as_fraction(b[0]))
                point = {"add": u + v, "sub": u - v, "mul": u * v}[op]
                assert as_fraction(res.lo) <= point <= as_fraction(res.hi)


def test_interval_sign():
    assert DyadicInterval.point(5).sign() == 1
    assert DyadicInterval.point(-5).sign() == -1
    assert DyadicInterval.point(0).sign() == 0
    assert DyadicInterval(Dyadic(-1, -3), Dyadic(1, -9)).sign() is None
    assert DyadicInterval(Dyadic(0), Dyadic(1)).sign() is None  # touching 0


def test_round_outward_contains():
    iv = DyadicInterval(Dyadic(5, -9), Dyadic(7, -5))
    out = iv.round_outward(4)
    assert out.contains(iv)
    assert out.width() - iv.width() <= Dyadic(2, -4)


def test_pi_bounds():
    assert all(type(b) is int for b in pi_bounds(128))
    lo, hi = pi_fractions(128)
    assert lo < PI_50 < hi
    assert hi - lo <= Fraction(1, 1 << 128)


def test_interval_repr_is_exact():
    # past the range of a float at both ends: no OverflowError, no 0
    iv = DyadicInterval(Dyadic(1, -1100), Dyadic(3, 2000))
    assert repr(iv) == "[Dyadic(1, -1100), Dyadic(3, 2000)]"


def test_float_conversion_of_long_mantissas():
    assert float(Dyadic(5, -4)) == 0.3125
    d = Dyadic(3**2000, -3200)  # the mantissa alone overflows a float
    assert float(d) == float(as_fraction(d))
    assert 0 < float(d) < math.inf


def test_sqrt_enclosures():
    for n in (2, 3):
        iv = sqrt_enclosure(n, 128)
        assert iv.width() <= Dyadic(1, -128)
        assert as_fraction(iv.lo) ** 2 < n < as_fraction(iv.hi) ** 2


def test_sqrt_enclosure_matches_bisection():
    # precision p is the bracket after p + 1 bisection steps
    for n in (2, 3):
        reference = sqrt_bisection_reference(n, 601)
        for precision in range(1, 601):
            assert sqrt_enclosure(n, precision) == reference[precision + 1]
    with pytest.raises(ValueError):
        sqrt_enclosure(4, 64)


def test_two_cos_exact_ratios():
    assert two_cos_pi_ratio(0, 1, 64) == DyadicInterval.point(2)
    assert two_cos_pi_ratio(1, 2, 64) == DyadicInterval.point(0)
    assert two_cos_pi_ratio(1, 3, 64) == DyadicInterval.point(1)
    assert two_cos_pi_ratio(2, 3, 64) == DyadicInterval.point(-1)
    assert two_cos_pi_ratio(1, 1, 64) == DyadicInterval.point(-2)


def test_two_cos_reflection_is_exact_mirror():
    for num, den in [(1, 5), (2, 7), (3, 11)]:
        iv = two_cos_pi_ratio(num, den, 96)
        mirrored = two_cos_pi_ratio(den - num, den, 96)
        assert mirrored.lo == -iv.hi and mirrored.hi == -iv.lo


def test_two_cos_series_width_and_location():
    for num, den in [(1, 5), (1, 7), (3, 7), (2, 9), (5, 11), (1, 12)]:
        iv = two_cos_pi_ratio(num, den, 128)
        assert iv.width() <= Dyadic(1, -128)
        approx = 2 * math.cos(num * math.pi / den)
        assert abs(float(iv.midpoint()) - approx) < 1e-12


def test_two_cos_contains_chebyshev_root():
    # 2cos(k*pi/d) is a root of S_{d-1}; the enclosure must straddle it,
    # which exact endpoint evaluations of S_{d-1} certify independently.
    for num, den in [(1, 5), (2, 7), (4, 9), (3, 13)]:
        iv = two_cos_pi_ratio(num, den, 96)
        s_lo = cheb_eval(den - 1, iv.lo).sign()
        s_hi = cheb_eval(den - 1, iv.hi).sign()
        assert s_lo != 0 and s_hi == -s_lo


def test_two_cos_golden_ratio():
    # 2cos(pi/5) is the golden ratio, the positive root of t^2 - t - 1
    iv = two_cos_pi_ratio(1, 5, 160)
    lo, hi = as_fraction(iv.lo), as_fraction(iv.hi)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1


@settings(max_examples=300, deadline=None)
@given(ratio=ratios, precision=st.integers(1, 1024))
def test_two_cos_enclosure_laws(ratio, precision):
    num, den = ratio
    iv = two_cos_pi_ratio(num, den, precision)
    assert iv.width() <= Dyadic(1, -precision)
    mirrored = two_cos_pi_ratio(den - num, den, precision)
    assert mirrored.lo == -iv.hi and mirrored.hi == -iv.lo
    if not 0 < num < den:
        assert iv == DyadicInterval.point(2 if num == 0 else -2)
    elif iv.is_point():
        assert cheb_eval(den - 1, iv.lo).sign() == 0
    elif float(iv.width()) < cheb_root_gap(den) / 2:
        # 2cos(num*pi/den) is the only root of S_{den-1} in reach, and simple
        s_lo = cheb_eval(den - 1, iv.lo).sign()
        s_hi = cheb_eval(den - 1, iv.hi).sign()
        assert s_lo != 0 and s_hi == -s_lo


@settings(max_examples=50, deadline=None)
@given(ratio=ratios, precision=st.integers(1, 300))
def test_two_cos_overlaps_fraction_series(ratio, precision):
    num, den = ratio
    r = min(Fraction(num, den), 1 - Fraction(num, den))  # reflection is exact
    if r in (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 6)):
        return  # exact or square-root branch, tested above
    ref_lo, ref_hi = two_cos_reference(r.numerator, r.denominator, precision + 40)
    iv = two_cos_pi_ratio(r.numerator, r.denominator, precision)
    assert as_fraction(iv.lo) <= ref_hi and ref_lo <= as_fraction(iv.hi)
    # the unrounded bounds too, at 2**-(precision + 32), where the final
    # rounding cannot hide an endpoint on the wrong side of the value
    lo, hi = _two_cos_scaled(r.numerator, r.denominator, precision)
    scale = 1 << (precision + 32)
    assert lo <= ref_hi * scale and ref_lo * scale <= hi


@settings(max_examples=100, deadline=None)
@given(work=st.integers(33, 300), frac=st.fractions(0, Fraction(8, 5)))
def test_cos_kernel_error_budget(work, frac):
    # the scaled series stays within its stated ulp budget of cos(t / 2**work)
    t = (frac.numerator << work) // frac.denominator
    value, err = _cos_scaled(t, work)
    ref_lo, ref_hi = cos_bounds_reference(Fraction(t, 1 << work), work + 8)
    assert value - err <= ref_lo * (1 << work) and ref_hi * (1 << work) <= value + err


# mantissas past 2**1024 and exponents on both sides of the float range
mantissas = st.integers(-(1 << 1100), 1 << 1100)
exponents = st.integers(-2300, 300)


@settings(max_examples=400, deadline=None)
@given(m=st.one_of(st.integers(-64, 64), mantissas), e=exponents)
@example(m=-1, e=0)          # hash -1 is taken to -2
@example(m=-1, e=-61)        # 2**-61 = 1 modulo 2**61 - 1: hash -1 again
@example(m=(1 << 61) - 1, e=-3)   # a multiple of the modulus hashes 0
def test_hash_agrees_across_numeric_types(m, e):
    d = Dyadic(m, e)
    fr = as_fraction(d)
    assert hash(d) == hash(fr)
    if fr.denominator == 1:
        assert hash(d) == hash(fr.numerator) and d == fr.numerator
    try:
        f = float(fr)
    except OverflowError:
        return
    if Fraction(f) == fr:        # the float is the value itself
        assert hash(d) == hash(f)


@settings(max_examples=400, deadline=None)
@given(m=mantissas, e=exponents)
@example(m=3**2000, e=-3200)                # |m| > 2**1024 with e < 0
@example(m=-(3**2000), e=-2000)             # overflows
@example(m=-1, e=-1100)                     # underflows to -0.0
@example(m=(1 << 1024) - 1, e=0)            # overflows only once rounded
@example(m=(1 << 53) - 1, e=971)            # the largest finite float
@example(m=1, e=-1075)                      # ties to even at the subnormal end
@example(m=3, e=-1076)
def test_float_agrees_with_fraction(m, e):
    d = Dyadic(m, e)
    fr = as_fraction(d)
    try:
        expected = float(fr)
    except OverflowError:
        with pytest.raises(OverflowError):
            float(d)
        return
    assert float(d).hex() == expected.hex()   # -0.0 and subnormals too


def fraction_two_cos(num: int, den: int, precision: int) -> DyadicInterval:
    """two_cos_pi_ratio as it dispatched on Fraction(num, den): reflection
    above 1/2, the exact ratios, the square-root ratios, and the series on
    the pair as given, reduced or not."""
    r = Fraction(num, den)
    if r > Fraction(1, 2):
        return -fraction_two_cos((1 - r).numerator, (1 - r).denominator, precision)
    exact = {Fraction(0): 2, Fraction(1, 3): 1, Fraction(1, 2): 0}
    if r in exact:
        return DyadicInterval.point(exact[r])
    if r == Fraction(1, 4):
        return sqrt_enclosure(2, precision)
    if r == Fraction(1, 6):
        return sqrt_enclosure(3, precision)
    lo, hi = _two_cos_scaled(num, den, precision)
    shift = _GUARD_BITS - 2
    return DyadicInterval(Dyadic(lo >> shift, -(precision + 2)),
                          Dyadic(-(-hi >> shift), -(precision + 2)))


def test_two_cos_integer_dispatch_matches_fraction_dispatch():
    # every 0 <= num <= den <= 24, reduced or not: the reflection, the exact
    # and the square-root branches all meet pairs that reduce onto them
    for den in range(1, 25):
        for num in range(den + 1):
            for precision in (64, 128):
                assert (two_cos_pi_ratio(num, den, precision)
                        == fraction_two_cos(num, den, precision)), (num, den, precision)
