import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rileycert.chebyshev import cheb_eval
from rileycert.dyadic import (Dyadic, DyadicInterval, _cos_scaled, _two_cos_scaled,
                              pi_bounds, sqrt_enclosure, two_cos_pi_ratio)

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
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a - b).as_fraction() == fa - fb
        assert (a * b).as_fraction() == fa * fb
        assert (-a).as_fraction() == -fa
        assert (a < b) == (fa < fb)
        assert (a == b) == (fa == fb)
        assert a.half().as_fraction() == fa / 2


def test_rounding_directions():
    d = Dyadic(5, -4)  # 0.3125
    assert d.floor_to(2).as_fraction() == Fraction(1, 4)
    assert d.ceil_to(2).as_fraction() == Fraction(1, 2)
    assert d.floor_to(3).as_fraction() == Fraction(1, 4)
    assert d.ceil_to(3).as_fraction() == Fraction(3, 8)
    assert d.floor_to(10) is d  # already on the grid
    neg = Dyadic(-5, -4)
    assert neg.floor_to(2).as_fraction() == Fraction(-1, 2)
    assert neg.ceil_to(2).as_fraction() == Fraction(-1, 4)


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
                u = a[0].as_fraction() + Fraction(rng.randrange(0, 101), 100) \
                    * (a[1].as_fraction() - a[0].as_fraction())
                v = b[0].as_fraction() + Fraction(rng.randrange(0, 101), 100) \
                    * (b[1].as_fraction() - b[0].as_fraction())
                point = {"add": u + v, "sub": u - v, "mul": u * v}[op]
                assert res.lo.as_fraction() <= point <= res.hi.as_fraction()


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
    assert float(d) == float(d.as_fraction())
    assert 0 < float(d) < math.inf


def test_sqrt_enclosures():
    for n in (2, 3):
        iv = sqrt_enclosure(n, 128)
        assert iv.width() <= Dyadic(1, -128)
        assert iv.lo.as_fraction() ** 2 < n < iv.hi.as_fraction() ** 2


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
    lo, hi = iv.lo.as_fraction(), iv.hi.as_fraction()
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
    assert iv.lo.as_fraction() <= ref_hi and ref_lo <= iv.hi.as_fraction()
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
