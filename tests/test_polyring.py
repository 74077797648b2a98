import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.polyring import (NotSymmetric, PolyMatrix, SYPoly, XYPoly, _horner,
                                eval_interval, symmetric_rewrite, y_coefficient_bounds)
from rileycert.riley import riley_double_twist

from poly_oracle import (contains_fraction, eval_fraction, reference_eval_interval,
                         rewrite_sy, to_sy)

X, Y = XYPoly.x(), XYPoly.y()


def rand_xy(rng, max_deg=4, max_coeff=9):
    terms = [(rng.randrange(0, max_deg + 1), rng.randrange(0, max_deg + 1),
              rng.randrange(-max_coeff, max_coeff + 1))
             for _ in range(rng.randrange(0, 7))]
    return XYPoly.from_terms(terms)


def rand_sy(rng, max_deg=4, max_coeff=9):
    terms = [(rng.randrange(-max_deg, max_deg + 1), rng.randrange(0, max_deg + 1),
              rng.randrange(-max_coeff, max_coeff + 1))
             for _ in range(rng.randrange(0, 7))]
    return SYPoly.from_terms(terms)


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_additive_identity_random():
    rng = random.Random(2)
    for _ in range(50):
        p = rand_xy(rng)
        assert p + XYPoly.zero() == p
        assert p + 0 == p


def test_s_expansion():
    s_plus_sinv = SYPoly.s(1) + SYPoly.s(-1)
    assert s_plus_sinv ** 2 == SYPoly.from_terms([(2, 0, 1), (0, 0, 2), (-2, 0, 1)])


@pytest.mark.parametrize("maker", [rand_xy, rand_sy])
def test_ring_laws(maker):
    rng = random.Random(13)
    for _ in range(60):
        p, q, r = maker(rng), maker(rng), maker(rng)
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == type(p).zero()
        assert p * type(p).one() == p


def test_negative_exponent_rejected_in_xy():
    with pytest.raises(ValueError):
        XYPoly.from_terms([(-1, 0, 1)])
    with pytest.raises(ValueError):
        SYPoly.from_terms([(0, -1, 1)])


def _parse_text(cls, text):
    """The polynomial of a `to_text` rendering: one `c * v^i * y^j` a line."""
    if text == "0":
        return cls.zero()
    terms = []
    for line in text.splitlines():
        c, v, y = line.split(" * ")
        terms.append((int(v.split("^")[1]), int(y.split("^")[1]), int(c)))
    return cls.from_terms(terms)


def test_canonical_text_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        p = rand_xy(rng)
        assert _parse_text(XYPoly, p.to_text()) == p
        assert XYPoly.from_terms((i, j, int(c)) for i, j, c in p.triples()) == p
        q = rand_sy(rng)
        assert _parse_text(SYPoly, q.to_text()) == q
    assert XYPoly.zero().to_text() == "0"


def test_canonical_order_and_hash_stability():
    p = 3 * X * X * Y - 7 * Y ** 3 + 1
    assert p.to_text() == "1 * x^0 * y^0\n3 * x^2 * y^1\n-7 * x^0 * y^3"
    # same polynomial assembled differently hashes identically
    q = XYPoly.from_terms([(0, 3, -7), (2, 1, 3), (0, 0, 1)])
    assert q.content_hash() == p.content_hash()
    # frozen regression value pins the canonical serialization format
    assert riley_double_twist(1, 2).content_hash == \
        "a080df6d37bd59f54b759934980e30a640328b7fae62b6006b4714f54f96136f"


def test_symmetric_rewrite_examples():
    assert rewrite_sy(SYPoly.from_terms([(1, 0, 1), (-1, 0, 1)])) == X
    assert rewrite_sy(SYPoly.from_terms([(2, 0, 1), (-2, 0, 1)])) == X ** 2 - 2
    assert rewrite_sy(SYPoly.from_terms([(3, 1, 1), (-3, 1, 1)])) \
        == (X ** 3 - 3 * X) * Y
    assert rewrite_sy(SYPoly.const(5)) == XYPoly.const(5)


def test_symmetric_rewrite_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        rewrite_sy(SYPoly.s(1))
    with pytest.raises(NotSymmetric):
        rewrite_sy(SYPoly.from_terms([(1, 0, 1), (-1, 0, 2)]))


def test_symmetric_rewrite_requires_a_packing():
    # it takes only a packed integer and its packing; rewrite_sy packs a
    # dict SYPoly for the tests
    with pytest.raises(TypeError):
        symmetric_rewrite(SYPoly.from_terms([(1, 0, 1), (-1, 0, 1)]))
    with pytest.raises(TypeError):
        symmetric_rewrite(0)


def test_symmetric_rewrite_round_trip_random():
    rng = random.Random(23)
    for _ in range(40):
        f = rand_xy(rng)
        p = to_sy(f)
        assert p.is_symmetric()
        assert rewrite_sy(p) == f
    # and from the Laurent side: sums of c*(s^k + s^-k)*y^j
    for _ in range(40):
        terms = []
        for _ in range(rng.randrange(1, 6)):
            k = rng.randrange(0, 5)
            j = rng.randrange(0, 4)
            c = rng.randrange(-9, 10)
            terms += [(k, j, c), (-k, j, c)] if k else [(0, j, c)]
        p = SYPoly.from_terms(terms)
        f = rewrite_sy(p)
        assert to_sy(f) == p


_PARITY_DEGREES = {"even": st.integers(0, 12).map(lambda k: 2 * k),
                   "odd": st.integers(0, 12).map(lambda k: 2 * k + 1),
                   "mixed": st.integers(0, 25), "constant": st.just(0)}


@st.composite
def _xy_polys(draw, parity):
    # up to 12 terms, x-degrees of one parity class (or both, or none), y
    # up to 5, and coefficients far beyond a machine word
    coeffs = st.one_of(st.integers(-9, 9), st.integers(-2 ** 200, 2 ** 200))
    terms = draw(st.lists(st.tuples(_PARITY_DEGREES[parity], st.integers(0, 5), coeffs),
                          max_size=12))
    return XYPoly.from_terms(terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(_PARITY_DEGREES)).flatmap(
    lambda parity: st.tuples(st.just(parity), _xy_polys(parity))))
def test_symmetric_rewrite_inverts_to_sy(parity_and_f):
    # f(s + 1/s, y) is symmetric, and its rewrite is f again, whatever the
    # s-parity classes of p and the size of its coefficients
    _, f = parity_and_f
    p = to_sy(f)
    assert p.is_symmetric()
    assert rewrite_sy(p) == f
    assert rewrite_sy(p + SYPoly.const(2 ** 70)) == f + 2 ** 70


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5),
                          st.integers(-2 ** 100, 2 ** 100)), max_size=12))
def test_symmetric_rewrite_of_symmetric_sums(terms):
    # sums of c (s**k + s**-k) y**j (c y**j for k = 0) rewrite to an f with
    # f(s + 1/s, y) = p, and a change of one coefficient of s**k alone,
    # k != 0, makes p asymmetric
    p = SYPoly.from_terms([t for k, j, c in terms
                           for t in ([(k, j, c), (-k, j, c)] if k else [(0, j, c)])])
    assert to_sy(rewrite_sy(p)) == p
    for k, j, _ in terms:
        if k:
            with pytest.raises(NotSymmetric):
                rewrite_sy(p + SYPoly.from_terms([(k, j, 2 ** 65)]))


def test_eval_interval_contains_sqrt3_root():
    p = X ** 2 - 3
    # 1.7320 floored and 1.7321 ceiled to multiples of 2**-20
    x = DyadicInterval(Dyadic(1816133, -20), Dyadic(1816239, -20))
    iv = eval_interval(p, x, DyadicInterval.point(0))
    assert iv.lo.sign() <= 0 <= iv.hi.sign()


def test_eval_interval_point_matches_fraction_oracle():
    rng = random.Random(31)
    for _ in range(60):
        p = rand_xy(rng)
        xn, yn = rng.randrange(-40, 40), rng.randrange(-40, 40)
        iv = eval_interval(p, DyadicInterval.point(Dyadic(xn, -3)),
                           DyadicInterval.point(Dyadic(yn, -3)))
        assert iv.is_point()
        assert iv.lo.as_fraction() == eval_fraction(p, Fraction(xn, 8), Fraction(yn, 8))
    assert eval_interval(XYPoly.y(), DyadicInterval.point(7),
                         DyadicInterval.point(2)) == DyadicInterval.point(2)


def test_eval_interval_monotone_inclusion():
    rng = random.Random(37)
    x_outer = DyadicInterval(Dyadic(-3), Dyadic(5, -1))
    x_inner = DyadicInterval(Dyadic(-1), Dyadic(1, -1))
    for _ in range(40):
        p = rand_xy(rng)
        for y in (Dyadic(1, -2), Dyadic(3, -1), Dyadic(-9, -2)):
            outer = eval_interval(p, x_outer, DyadicInterval.point(y))
            inner = eval_interval(p, x_inner, DyadicInterval.point(y))
            assert outer.contains(inner)


def test_eval_interval_rejects_interval_y():
    x = DyadicInterval(Dyadic(3, -1), Dyadic(13, -3))
    # the message prints y exactly, also past the range of a float
    for y in (DyadicInterval(Dyadic(2), Dyadic(17, -3)),
              DyadicInterval(Dyadic(1, 2000), Dyadic(3, 2000))):
        for p in (XYPoly.zero(), riley_double_twist(1, 2).poly):
            with pytest.raises(ValueError, match=re.escape(repr(y.hi))):
                eval_interval(p, x, y)
            with pytest.raises(ValueError, match=re.escape(repr(y.hi))):
                eval_interval(p, x, y, y_bounds=y_coefficient_bounds(p, x, -8))


def test_eval_interval_riley_at_exact_point():
    # phi for J(3,4) at the exact x_3 = 1 and y = 2: the interval must pin
    # the exact rational value obtained by direct substitution
    phi = riley_double_twist(1, 2).poly
    iv = eval_interval(phi, DyadicInterval.point(1), DyadicInterval.point(2))
    exact = eval_fraction(phi, Fraction(1), Fraction(2))
    assert iv.is_point() and iv.lo.as_fraction() == exact
    assert exact == -5  # (x^2-2)(1+(4-x^2)k) - 1 at k=1, x=1


def test_eval_interval_width_shrinks():
    p = riley_double_twist(1, 2).poly
    wide = eval_interval(p, DyadicInterval(Dyadic(3, -1), Dyadic(13, -3)),
                         DyadicInterval.point(2))
    narrow = eval_interval(p, DyadicInterval(Dyadic(3, -1), Dyadic(25, -4)),
                           DyadicInterval.point(2))
    assert narrow.width() < wide.width()


sparse_polys = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(-60, 60)),
    max_size=12).map(XYPoly.from_terms)
dyadics = st.builds(Dyadic, st.integers(-(1 << 24), 1 << 24), st.integers(-40, 6))
points = dyadics.map(DyadicInterval.point)
intervals = st.one_of(
    points, st.tuples(dyadics, dyadics).map(lambda ds: DyadicInterval(min(ds), max(ds))))
# stands for the exact unit of y_coefficient_bounds (exact_unit)
EXACT = None


def exact_unit(p, x):
    """The coarsest unit on which y_coefficient_bounds of p over x is exact
    interval Horner: deg_x times the exponent of x, clamped to <= 0."""
    return p.deg_x() * min(x.lo.e, x.hi.e, 0)


@settings(max_examples=400, deadline=None)
@given(sparse_polys, intervals, points, st.fractions(0, 1))
def test_eval_interval_matches_reference(p, x, y, tx):
    iv = eval_interval(p, x, y)
    assert iv == reference_eval_interval(p, x, y)
    u = x.lo.as_fraction() + tx * x.width().as_fraction()
    assert contains_fraction(iv, eval_fraction(p, u, y.lo.as_fraction()))


def fraction_horner(lo, hi, v_lo, v_hi):
    """Exact interval Horner on Fractions: [L, H] bounding sum_j c_j v**j
    for c_j in [lo[j], hi[j]] and v in [v_lo, v_hi]."""
    l, h = Fraction(lo[-1]), Fraction(hi[-1])
    for j in range(len(lo) - 2, -1, -1):
        c = (l * v_lo, l * v_hi, h * v_lo, h * v_hi)
        l, h = min(c) + lo[j], max(c) + hi[j]
    return l, h


@st.composite
def _horner_arguments(draw):
    # u nonnegative, negative, straddling 0 or a point, with |v| <= 1 so
    # that each floor adds at most one unit to the error of the last
    k = draw(st.integers(0, 64))
    one = 1 << k
    kind = draw(st.sampled_from(["nonnegative", "negative", "straddling", "point"]))
    if kind == "point":
        u = (draw(st.integers(-one, one)),) * 2
    elif kind == "straddling":
        u = (draw(st.integers(-one, -1)), draw(st.integers(1, one)))
    else:
        ends = st.integers(0, one) if kind == "nonnegative" else st.integers(-one, -1)
        u = tuple(sorted(draw(st.tuples(ends, ends))))
    rows = draw(st.lists(st.tuples(st.integers(-(1 << 90), 1 << 90), st.integers(0, 1 << 30)),
                         min_size=1, max_size=9))
    return [l for l, _ in rows], [l + w for l, w in rows], u, k


@settings(max_examples=400, deadline=None)
@given(_horner_arguments(), st.lists(st.fractions(0, 1), min_size=10, max_size=10))
def test_horner_matches_fraction_interval_horner(args, ts):
    lo, hi, u, k = args
    d = len(lo) - 1
    v_lo, v_hi = Fraction(u[0], 1 << k), Fraction(u[1], 1 << k)
    l, h = _horner(lo, hi, u, k)
    # encloses every value, and so exact interval Horner, within d units
    v = v_lo + ts[-1] * (v_hi - v_lo)
    value = sum((a + t * (b - a)) * v ** j for j, (a, b, t) in enumerate(zip(lo, hi, ts)))
    assert l <= value <= h
    exact_l, exact_h = fraction_horner(lo, hi, v_lo, v_hi)
    assert exact_l - d <= l <= exact_l and exact_h <= h <= exact_h + d
    # on the unit 2**-(k d) below that of lo and hi no floor cuts anything
    fine = [c << k * d for c in lo], [c << k * d for c in hi]
    assert _horner(*fine, u, k) == (exact_l * (1 << k * d), exact_h * (1 << k * d))


def test_horner_takes_two_products_per_step_for_nonnegative_u():
    # int * u calls u.__rmul__ first when u's type is a subclass of int, so
    # every product _horner forms with u is counted: 3 steps here
    calls = []

    class Counted(int):
        def __rmul__(self, other):
            calls.append(other)
            return int(self) * other

    lo, hi = [5, -3, 7, 2], [6, -1, 9, 4]
    for u, products in (((1, 3), 6), ((0, 0), 6), ((5, 5), 6),
                        ((-3, 1), 12), ((-3, -1), 12), ((-2, -2), 12)):
        calls.clear()
        result = _horner(lo, hi, tuple(map(Counted, u)), 2)
        assert len(calls) == products, u
        assert result == _horner(lo, hi, u, 2)


bounds_exponents = st.one_of(st.just(EXACT), st.integers(-90, 0))


def _bounds(p, x, e):
    """y_coefficient_bounds of p over x as the sign oracle forms them, on
    the unit 2**e, or on the exact unit for EXACT."""
    return y_coefficient_bounds(p, x, exact_unit(p, x) if e is EXACT else e)


@settings(max_examples=300, deadline=None)
@given(sparse_polys, intervals, st.fractions(0, 1), bounds_exponents)
def test_y_coefficient_bounds_enclose_each_coefficient(p, x, tx, e):
    lo, hi, e = _bounds(p, x, e)
    u = x.lo.as_fraction() + tx * x.width().as_fraction()
    slices = p.y_slices()
    assert len(lo) == len(hi) == p.deg_y() + 1
    for j, (l, h) in enumerate(zip(lo, hi)):
        c = eval_fraction(slices[j], u, Fraction(0)) if j in slices else 0
        assert l * Fraction(2) ** e <= c <= h * Fraction(2) ** e
        if e <= exact_unit(p, x):  # interval Horner in x, exactly
            assert DyadicInterval(Dyadic(l, e), Dyadic(h, e)) == reference_eval_interval(
                slices.get(j, XYPoly.zero()), x, DyadicInterval.point(0))


# 3 + x y - 2 x**2 y + x**3 y**2: c_0 = 3, c_1 = x - 2 x**2, c_2 = x**3
COEFFICIENT_CASES = XYPoly.from_terms([(0, 0, 3), (1, 1, 1), (2, 1, -2), (3, 2, 1)])


def test_y_coefficient_bounds_straddling_x():
    # interval Horner: c_1 = (-2 X + 1) X = [-1, 3] * [-1, 1], c_2 = X X X
    x = DyadicInterval(Dyadic(-1), Dyadic(1))
    assert y_coefficient_bounds(COEFFICIENT_CASES, x, 0) == ([3, -3, -1], [3, 3, 1], 0)


def test_y_coefficient_bounds_negative_x():
    # x in [-3/2, -1/2]: c_1 = (-2 X + 1) X = [2, 4] X, c_2 = X**3, on 2**-3
    x = DyadicInterval(Dyadic(-3, -1), Dyadic(-1, -1))
    assert y_coefficient_bounds(COEFFICIENT_CASES, x, -3) == ([24, -48, -27], [24, -8, -1], -3)


def test_y_coefficient_bounds_point_x():
    # x = 3/4: exact on 2**-6, and so below it; on 2**-4 only the last
    # product of x**3 = 27/64 is cut
    x = DyadicInterval.point(Dyadic(3, -2))
    assert y_coefficient_bounds(COEFFICIENT_CASES, x, -6) == ([192, -24, 27], [192, -24, 27], -6)
    assert y_coefficient_bounds(COEFFICIENT_CASES, x, -10) \
        == ([3072, -384, 432], [3072, -384, 432], -10)
    assert y_coefficient_bounds(COEFFICIENT_CASES, x, -4) == ([48, -6, 6], [48, -6, 7], -4)


# values with positive exponents (2 = 1 * 2**1): _scaled brings them to 2**0
POSITIVE_X = [DyadicInterval.point(2), DyadicInterval.point(4),
              DyadicInterval(Dyadic(2), Dyadic(4))]
POSITIVE_Y = [DyadicInterval.point(2), DyadicInterval.point(8),
              DyadicInterval(Dyadic(4), Dyadic(8))]


def interval_id(iv: DyadicInterval) -> str:
    return f"[{iv.lo.as_fraction()}, {iv.hi.as_fraction()}]"


@pytest.mark.parametrize("x", POSITIVE_X, ids=interval_id)
@pytest.mark.parametrize("y", POSITIVE_Y, ids=interval_id)
@pytest.mark.parametrize("p", [COEFFICIENT_CASES, COEFFICIENT_CASES - 4000 * Y,
                               riley_double_twist(1, 2).poly], ids=["cases", "shifted", "J34"])
def test_positive_exponents_match_the_reference(p, x, y):
    # an interval y is a ValueError; the bounds do not depend on y
    reference = reference_eval_interval(p, x, y)
    if y.is_point():
        assert eval_interval(p, x, y) == reference
    else:
        with pytest.raises(ValueError):
            eval_interval(p, x, y)
    slices = p.y_slices()
    for e in (0, -5):
        bounds = y_coefficient_bounds(p, x, e)
        lo, hi, _ = bounds
        for j, (l, h) in enumerate(zip(lo, hi)):
            assert DyadicInterval(Dyadic(l, e), Dyadic(h, e)) == reference_eval_interval(
                slices.get(j, XYPoly.zero()), x, DyadicInterval.point(0))
        if not y.is_point():
            continue
        fast = eval_interval(p, x, y, y_bounds=bounds)
        assert fast.contains(reference)
        if fast.sign() is None or x.is_point():  # exact path, or exact bounds
            assert fast == reference
        else:
            assert fast.sign() == reference.sign()


nonneg_points = st.builds(Dyadic, st.integers(0, 1 << 24),
                          st.integers(-40, 6)).map(DyadicInterval.point)


@settings(max_examples=300, deadline=None)
@given(sparse_polys, intervals, nonneg_points, bounds_exponents)
def test_eval_interval_with_y_bounds_contains_the_exact_path(p, x, y, e):
    fast = eval_interval(p, x, y, y_bounds=_bounds(p, x, e))
    exact = eval_interval(p, x, y)
    assert fast.contains(exact)
    if fast.sign() is not None:
        assert exact.sign() == fast.sign()
    else:  # the bounds leave the sign open: the exact path answers
        assert fast == exact


@settings(max_examples=200, deadline=None)
@given(sparse_polys, intervals, points, bounds_exponents)
def test_eval_interval_ignores_y_bounds_off_nonnegative_points(p, x, y, e):
    if y.lo.m >= 0:
        y = DyadicInterval.point(-y.lo if y.lo.m else Dyadic(-1))
    assert eval_interval(p, x, y, y_bounds=_bounds(p, x, e)) == eval_interval(p, x, y)


def test_eval_interval_matches_reference_on_riley():
    from rileycert.certify import xn_enclosure
    phi = riley_double_twist(2, -3).poly
    for n, prec in ((2, 128), (5, 128), (7, 256)):
        xn = xn_enclosure(n, prec)
        for y in (Dyadic(2), Dyadic(17, -3), Dyadic(2 ** 130 + 12345, -128)):
            point = DyadicInterval.point(y)
            assert eval_interval(phi, xn, point) == reference_eval_interval(phi, xn, point)


def test_poly_matrix_ops():
    a = PolyMatrix(SYPoly.s(), SYPoly.one(), SYPoly.zero(), SYPoly.s(-1))
    assert a.det() == SYPoly.one()
    assert a @ a.adjugate() == PolyMatrix.identity()
    assert a.trace() == SYPoly.from_terms([(1, 0, 1), (-1, 0, 1)])
    b = PolyMatrix(SYPoly.s(), SYPoly.zero(),
                   SYPoly.const(2) - SYPoly.y(), SYPoly.s(-1))
    prod = a @ b
    assert prod.det() == SYPoly.one()
    assert (a - a).e11 == SYPoly.zero()
