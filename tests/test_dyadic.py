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


def two_cos_reference(n: int, precision: int) -> tuple[Fraction, Fraction]:
    """Fraction bounds on 2cos(pi/n) for n > 2, width about
    2**-(precision + 16)."""
    work = precision + 16
    pi_lo, pi_hi = pi_fractions(work)
    return (2 * cos_bounds_reference(pi_hi / n, work)[0],
            2 * cos_bounds_reference(pi_lo / n, work)[1])


def sqrt_bisection_reference(n: int, steps: int) -> list[DyadicInterval]:
    """The brackets of sqrt(n) on [1, 2] after 0, 1, ..., steps exact
    bisection steps of t**2 - n."""
    lo, hi = Dyadic(1), Dyadic(2)
    out = [DyadicInterval(lo, hi)]
    for _ in range(steps):
        mid = (lo + hi) * Dyadic(1, -1)
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
    assert as_fraction(out.lo) <= as_fraction(iv.lo)
    assert as_fraction(iv.hi) <= as_fraction(out.hi)
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
    assert two_cos_pi_ratio(2, 64) == DyadicInterval.point(0)
    assert two_cos_pi_ratio(3, 64) == DyadicInterval.point(1)
    with pytest.raises(ValueError):
        two_cos_pi_ratio(1, 64)


def test_two_cos_series_width_and_location():
    for n in (5, 7, 9, 11, 12, 97):
        iv = two_cos_pi_ratio(n, 128)
        assert iv.width() <= Dyadic(1, -128)
        mid = (as_fraction(iv.lo) + as_fraction(iv.hi)) / 2
        assert abs(float(mid) - 2 * math.cos(math.pi / n)) < 1e-12


def test_two_cos_contains_chebyshev_root():
    # x_n = 2cos(pi/n) is the largest root of S_{n-1}; the enclosure must
    # straddle it, which exact endpoint evaluations of S_{n-1} certify
    # independently.
    for n in (5, 7, 9, 13):
        iv = two_cos_pi_ratio(n, 96)
        s_lo = cheb_eval(n - 1, iv.lo).sign()
        s_hi = cheb_eval(n - 1, iv.hi).sign()
        assert s_lo != 0 and s_hi == -s_lo


def test_two_cos_golden_ratio():
    # 2cos(pi/5) is the golden ratio, the positive root of t^2 - t - 1
    iv = two_cos_pi_ratio(5, 160)
    lo, hi = as_fraction(iv.lo), as_fraction(iv.hi)
    assert lo * lo - lo - 1 < 0 < hi * hi - hi - 1


@settings(max_examples=300, deadline=None)
@given(n=st.integers(2, 97), precision=st.integers(1, 1024))
def test_two_cos_enclosure_laws(n, precision):
    iv = two_cos_pi_ratio(n, precision)
    assert iv.width() <= Dyadic(1, -precision)
    if iv.is_point():
        assert cheb_eval(n - 1, iv.lo).sign() == 0
    elif float(iv.width()) < cheb_root_gap(n) / 2:
        # x_n is the only root of S_{n-1} in reach, and simple
        s_lo = cheb_eval(n - 1, iv.lo).sign()
        s_hi = cheb_eval(n - 1, iv.hi).sign()
        assert s_lo != 0 and s_hi == -s_lo


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 400), precision=st.integers(1, 300))
def test_two_cos_overlaps_fraction_series(n, precision):
    if n in (2, 3, 4, 6):
        return  # exact or square-root branch, tested above
    ref_lo, ref_hi = two_cos_reference(n, precision + 40)
    iv = two_cos_pi_ratio(n, precision)
    assert as_fraction(iv.lo) <= ref_hi and ref_lo <= as_fraction(iv.hi)
    # the unrounded bounds too, at 2**-(precision + 32), where the final
    # rounding cannot hide an endpoint on the wrong side of the value
    lo, hi = _two_cos_scaled(n, precision)
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


def fraction_two_cos(n: int, precision: int) -> DyadicInterval:
    """x_n's enclosure as it dispatched on Fraction(1, n): the exact ratios
    1/2 and 1/3, the square-root ratios 1/4 and 1/6, and the series."""
    r = Fraction(1, n)
    exact = {Fraction(1, 3): 1, Fraction(1, 2): 0}
    if r in exact:
        return DyadicInterval.point(exact[r])
    if r == Fraction(1, 4):
        return sqrt_enclosure(2, precision)
    if r == Fraction(1, 6):
        return sqrt_enclosure(3, precision)
    lo, hi = _two_cos_scaled(n, precision)
    shift = _GUARD_BITS - 2
    return DyadicInterval(Dyadic(lo >> shift, -(precision + 2)),
                          Dyadic(-(-hi >> shift), -(precision + 2)))


def test_two_cos_integer_dispatch_matches_fraction_dispatch():
    # every n <= 48: the exact and the square-root branches dispatch on n
    # where they once dispatched on the ratio 1/n
    for n in range(2, 49):
        for precision in (64, 128):
            assert (two_cos_pi_ratio(n, precision)
                    == fraction_two_cos(n, precision)), (n, precision)
