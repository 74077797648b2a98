import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert import polyring
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.knots import TwoBridgeFraction
from rileycert.polyring import (NotSymmetric, Packing, XYPoly, _horner, eval_interval,
                                symmetric_rewrite, taylor_shift, y_row_bounds, y_rows)
from rileycert.riley import riley_double_twist, riley_for_knot

from matrix_oracle import PolyMatrix
from poly_oracle import (SY, XY, as_fraction, contains_fraction, contains_interval,
                         eval_fraction, pack, reference_eval_interval,
                         reference_eval_interval_u, reference_unpack, rewrite_sy,
                         substitute_y, to_sy, y_slices)

X, Y = XY.x(), XY.y()


def rand_xy(rng, max_deg=4, max_coeff=9):
    terms = [(rng.randrange(0, max_deg + 1), rng.randrange(0, max_deg + 1),
              rng.randrange(-max_coeff, max_coeff + 1))
             for _ in range(rng.randrange(0, 7))]
    return XY.from_terms(terms)


def rand_even_xy(rng):
    """rand_xy with every x-exponent doubled: even in x, as evaluation takes."""
    return XY.from_terms((2 * i, j, c) for i, j, c in rand_xy(rng).terms())


def rand_sy(rng, max_deg=4, max_coeff=9):
    terms = [(rng.randrange(-max_deg, max_deg + 1), rng.randrange(0, max_deg + 1),
              rng.randrange(-max_coeff, max_coeff + 1))
             for _ in range(rng.randrange(0, 7))]
    return SY.from_terms(terms)


def test_difference_of_squares():
    assert (X + Y) * (X - Y) == X * X - Y * Y


def test_additive_identity_random():
    rng = random.Random(2)
    for _ in range(50):
        p = rand_xy(rng)
        assert p + XY.zero() == p
        assert p + 0 == p


def test_s_expansion():
    s_plus_sinv = SY.s(1) + SY.s(-1)
    assert s_plus_sinv * s_plus_sinv == SY.from_terms([(2, 0, 1), (0, 0, 2), (-2, 0, 1)])


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
        SY.from_terms([(0, -1, 1)])


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
        assert _parse_text(XY, p.to_text()) == p
        assert XYPoly.from_terms((i, j, int(c)) for i, j, c in p.triples()) == p
        q = rand_sy(rng)
        assert _parse_text(SY, q.to_text()) == q
    assert XY.zero().to_text() == "0"


def test_canonical_order_and_hash_stability():
    p = 3 * X * X * Y - 7 * Y * Y * Y + 1
    assert p.to_text() == "1 * x^0 * y^0\n3 * x^2 * y^1\n-7 * x^0 * y^3"
    # same polynomial assembled differently hashes identically
    q = XYPoly.from_terms([(0, 3, -7), (2, 1, 3), (0, 0, 1)])
    assert q.content_hash() == p.content_hash()
    # a term map out of order whose first reader is to_text reads in
    # canonical order all the same, and leaves the map in it
    r = XYPoly({(0, 3): -7, (2, 1): 3, (0, 0): 1})
    assert r.to_text() == p.to_text()
    assert list(r.term_map()) == [(0, 0), (2, 1), (0, 3)]
    # frozen regression value pins the canonical serialization format
    assert riley_double_twist(1, 2).content_hash == \
        "a080df6d37bd59f54b759934980e30a640328b7fae62b6006b4714f54f96136f"


def test_terms_are_sorted_once(monkeypatch):
    # terms(), to_text, triples and the hash read one canonical order, which
    # a polynomial sorts its term map into once; the rewrite's peel and
    # Packing.unpack already lay its keys in that order, so phi from the rewrite or a Chebyshev
    # combination is never sorted at all
    calls, builtin_sorted = [], sorted

    def spy(*args, **kwargs):
        calls.append(args)
        return builtin_sorted(*args, **kwargs)

    monkeypatch.setattr(polyring, "sorted", spy, raising=False)
    rng = random.Random(29)
    for maker in (rand_xy, rand_sy):
        for _ in range(20):
            p = maker(rng)
            shuffled = list(p._terms.items())
            rng.shuffle(shuffled)
            q = type(p)(dict(shuffled))
            want = [(i, j, p._terms[(i, j)])
                    for i, j in builtin_sorted(p._terms, key=lambda key: (key[1], key[0]))]
            text, triples, digest = p.to_text(), p.triples(), p.content_hash()
            calls.clear()
            assert list(q.terms()) == want
            assert (q.to_text(), q.triples(), q.content_hash()) == (text, triples, digest)
            assert hash(q) == hash(p) and q == p
            assert len(calls) == 1
    for phi in (riley_double_twist(2, -3).poly,
                riley_for_knot(TwoBridgeFraction(27, 11)).poly):
        calls.clear()
        keys = list(phi._terms)
        assert keys == builtin_sorted(keys, key=lambda key: (key[1], key[0]))
        phi.to_text(), phi.triples()
        assert calls == []


def test_symmetric_rewrite_examples():
    assert rewrite_sy(SY.from_terms([(1, 0, 1), (-1, 0, 1)])) == X
    assert rewrite_sy(SY.from_terms([(2, 0, 1), (-2, 0, 1)])) == X * X - 2
    assert rewrite_sy(SY.from_terms([(3, 1, 1), (-3, 1, 1)])) \
        == (X * X * X - 3 * X) * Y
    assert rewrite_sy(SY.const(5)) == XY.const(5)


def test_symmetric_rewrite_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        rewrite_sy(SY.s(1))
    with pytest.raises(NotSymmetric):
        rewrite_sy(SY.from_terms([(1, 0, 1), (-1, 0, 2)]))


def test_symmetric_rewrite_requires_a_packing():
    # it takes only a packed integer in z with its packing and an integer
    # y-norm, not a polynomial, nor an integer with one packing, nor a
    # second packing in place of the y-norm; rewrite_sy packs a dict SY
    # for the tests
    with pytest.raises(TypeError):
        symmetric_rewrite(SY.from_terms([(1, 0, 1), (-1, 0, 1)]))
    with pytest.raises(TypeError):
        symmetric_rewrite([0])
    with pytest.raises(TypeError):
        symmetric_rewrite(5, Packing(0, 1, 1))
    with pytest.raises((TypeError, AttributeError)):
        symmetric_rewrite(5, Packing(0, 1, 1), Packing(0, 1, 1))
    # psi = 5 + z in one-byte slots is 5 + (y - 2), of y-norm 4
    assert symmetric_rewrite(5 + (1 << 8), Packing(0, 1, 1), 4) == Y + 3


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
        p = SY.from_terms(terms)
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
    return XY.from_terms(terms)


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
    assert rewrite_sy(p + SY.const(2 ** 70)) == f + 2 ** 70


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5),
                          st.integers(-2 ** 100, 2 ** 100)), max_size=12))
def test_symmetric_rewrite_of_symmetric_sums(terms):
    # sums of c (s**k + s**-k) y**j (c y**j for k = 0) rewrite to an f with
    # f(s + 1/s, y) = p, and a change of one coefficient of s**k alone,
    # k != 0, makes p asymmetric
    p = SY.from_terms([t for k, j, c in terms
                           for t in ([(k, j, c), (-k, j, c)] if k else [(0, j, c)])])
    assert to_sy(rewrite_sy(p)) == p
    for k, j, _ in terms:
        if k:
            with pytest.raises(NotSymmetric):
                rewrite_sy(p + SY.from_terms([(k, j, 2 ** 65)]))


def _pell_lucas(sigma: int) -> list[int]:
    # Q_e = |P_e|(2): P_e = s**e + s**-e written in x by the dict ring
    # (P_(e+1) = x P_e - P_(e-1), P_0 = 2), with its coefficients' absolute
    # values summed at x = 2; 1 for the constant term, whose P_0 is 1 in f
    p = [XY.const(2), X]
    while len(p) <= sigma:
        p.append(X * p[-1] - p[-2])
    for e, p_e in enumerate(p[1:], 1):
        assert to_sy(p_e) == SY.from_terms([(e, 0, 1), (-e, 0, 1)])
    return [1] + [sum(abs(c) << i for i, _, c in p_e.terms()) for p_e in p[1:]]


@st.composite
def _palindromes(draw):
    # sigma, and y-rows of digits c_e of s**e + s**-e, e = sigma, sigma - 2,
    # ..; with `tight` the signs are (-1)**(e // 2), which makes
    # sum_e |c_e| Q_e equal to sum_i |f_i| 2**i
    sigma = draw(st.integers(0, 30))
    digit = st.one_of(st.integers(-9, 9), st.integers(-2 ** 70, 2 ** 70))
    rows = draw(st.lists(st.lists(digit, min_size=sigma // 2 + 1, max_size=sigma // 2 + 1),
                         min_size=1, max_size=4))
    tight = draw(st.booleans())
    terms = []
    for j, row in enumerate(rows):
        for m, c in enumerate(row):
            e = 2 * m + sigma % 2
            c = abs(c) * (-1) ** (e // 2) if tight else c
            terms += [(e, j, c), (-e, j, c)] if e else [(0, j, c)]
    return sigma, SY.from_terms(terms)


# f = (x**2 - 2)**12 = P_2**12: sum_i |f_i| 2**i = 6**12 needs 5 bytes, the
# largest digit C(12, 6) 2; Pell-Lucas numbers started at Q_0 = 1 would
# size the wide peel at 4 bytes
@example((24, to_sy(math.prod([X * X - 2] * 12, start=XY.one()))))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_palindromes())
def test_the_peel_round_trips_in_slots_of_the_largest_digit(sigma_and_p):
    # p(t, z + 2) packed in slots sized for the largest digit of it and of
    # p, so that many rows need the wide peel, p rewrites to an f with
    # f(s + 1/s) = p, and each row's sum |f_i| 2**i is within
    # sum_e |c_e| Q_e, the bound that sizes the wide peel
    sigma, p = sigma_and_p
    psi = substitute_y(p, SY.y() + 2)._terms
    largest = max(map(abs, [*p._terms.values(), *psi.values()]), default=0)
    z = Packing.covering(sigma, sigma + 1, largest)
    f = symmetric_rewrite(pack(z, psi), z, largest)
    assert to_sy(f) == p
    q, rows = _pell_lucas(sigma), y_slices(f)
    for j, row in rows.items():
        norm = sum(abs(c) << i for i, _, c in row.terms())
        assert norm <= sum(abs(c) * q[e] for (e, k), c in p._terms.items() if k == j and e >= 0)


@st.composite
def _z_rows(draw):
    # psi in t and z, as {(s_exp, z_deg): c} in t-slots 0 .. slots - 1 and
    # 0 .. 6 z-rows, its digits drawn from slots of nbytes, a third of
    # them at the slot extremes or 0; with shift 0, or, for half of them,
    # with every row a palindrome and shift slots - 1, which centres the
    # slots on s**0 and makes psi symmetric under s -> 1/s
    nb, slots, count = draw(st.integers(1, 3)), draw(st.integers(1, 5)), draw(st.integers(0, 6))
    top = (1 << 8 * nb - 1) - 1
    digit = st.one_of(st.sampled_from((top, -top, 0)), st.integers(-top, top))
    rows = draw(st.lists(st.lists(digit, min_size=slots, max_size=slots),
                         min_size=count, max_size=count))
    shift = draw(st.sampled_from((0, slots - 1)))
    if shift:
        rows = [row[:(slots + 1) // 2] + row[:slots // 2][::-1] for row in rows]
    terms = {(2 * k - shift, j): c for j, row in enumerate(rows) for k, c in enumerate(row) if c}
    return Packing(shift, slots, nb), count, terms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_z_rows())
@example((Packing(0, 2, 1), 0, {}))
@example((Packing(0, 3, 1), 1, {(0, 0): 127, (2, 0): -127}))
@example((Packing(0, 2, 2), 2, {(0, 0): -32767, (2, 0): 32767, (0, 1): 32767, (2, 1): -32767}))
@example((Packing(2, 3, 1), 2, {(-2, 0): 127, (0, 0): -127, (2, 0): 127,
                                (-2, 1): -127, (2, 1): -127}))
def test_z_rows_shifted_by_minus_two_are_the_substitution(args):
    # the t-packed z-rows of psi, shifted by -2 (m = -1, k = 1), are the
    # y-rows of psi(t, y - 2) by the dict oracle, packed in slots sized for
    # them and at least as wide as psi's; the whole packed integer in z,
    # in slots of its own digits' width, digits at the extremes included,
    # rewrites as the dict oracle rewrites psi(t, y - 2), or, when psi is
    # not symmetric, both refuse it
    z, count, terms = args
    want = substitute_y(SY(terms), SY.y() - 2)
    y_norm = max(map(abs, want._terms.values()), default=0)
    packing = Packing.covering(z.shift, z.slots, y_norm)
    packing = packing._replace(nbytes=max(packing.nbytes, z.nbytes))
    rows = [pack(packing, {(i, 0): c for (i, j), c in terms.items() if j == row})
            for row in range(count)]
    shifted = taylor_shift(rows, -1, 1)
    assert len(shifted) == count
    assert {(i, j): c for j, row in enumerate(shifted)
            for (i, _), c in packing.unpack(row).items()} == want._terms
    if SY(terms).is_symmetric():
        assert symmetric_rewrite(pack(z, terms), z, y_norm) == rewrite_sy(want)
    else:
        for rewrite in (lambda: symmetric_rewrite(pack(z, terms), z, y_norm),
                        lambda: rewrite_sy(want)):
            with pytest.raises(NotSymmetric):
                rewrite()


@st.composite
def _palindromic_z_values(draw):
    # s**sigma psi for a psi symmetric under s -> 1/s: 1 .. 6 z-rows, each a
    # palindrome in t-slots 0 .. sigma, with 0 .. sigma blank slots above
    # (the trace packing has 2 sigma + 1), its digits drawn from slots of
    # nbytes, a third of them at the slot extremes or 0
    nb, sigma, count = draw(st.integers(1, 3)), draw(st.integers(0, 24)), draw(st.integers(1, 6))
    slots = sigma + 1 + draw(st.integers(0, sigma))
    top = (1 << 8 * nb - 1) - 1
    digit = st.one_of(st.sampled_from((top, -top, 0)), st.integers(-top, top))
    half = draw(st.lists(st.lists(digit, min_size=sigma // 2 + 1, max_size=sigma // 2 + 1),
                         min_size=count, max_size=count))
    terms = {}
    for j, row in enumerate(half):
        for m, c in enumerate(row):
            e = 2 * m + sigma % 2
            if c:
                terms.update({(e, j): c, (-e, j): c})
    return Packing(sigma, slots, nb), terms


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_palindromic_z_values())
@example((Packing(0, 1, 1), {(0, 0): 127, (0, 1): -127}))
@example((Packing(1, 3, 1), {(1, 0): -127, (-1, 0): -127, (1, 3): 127, (-1, 3): 127}))
def test_the_rewrite_of_a_palindromic_z_value_is_the_oracle_of_its_shift(args):
    # the rewrite of a palindromic z-value psi, in slots as wide as its
    # digits need, with the largest digit of psi(t, y - 2) as its y-norm,
    # is rewrite_sy of psi(t, y - 2) by the dict oracle, and f(s + 1/s, y)
    # is psi(t, y - 2)
    z, terms = args
    want = substitute_y(SY(terms), SY.y() - 2)
    f = symmetric_rewrite(pack(z, terms), z, max(map(abs, want._terms.values()), default=0))
    assert f == rewrite_sy(want)
    assert to_sy(f) == want


def test_a_corrupted_z_digit_is_refused_before_any_shift(monkeypatch):
    # a trace as the power route reads it, s**2 psi in z-rows of 5 t-slots:
    # any one byte of any slot but the middle one, in any z-row, changed
    # alone, breaks the palindrome in slots 0 .. 2 or the blank slots 3
    # and 4, and the rewrite refuses it in z, before taylor_shift runs
    z = Packing(2, 5, 2)
    psi = substitute_y(SY.from_terms([(2, 0, 300), (-2, 0, 300), (0, 0, -7), (2, 1, -1),
                                      (-2, 1, -1), (0, 2, 2)]), SY.y() + 2)._terms
    value, shifts = pack(z, psi), []
    monkeypatch.setattr(polyring, "taylor_shift", lambda *args: shifts.append(args))
    buf = z.slot_bytes(value)
    bias = int.from_bytes(z._empty() * (len(buf) // z.nbytes), "little")
    assert len(buf) == 3 * 5 * z.nbytes
    for k in range(len(buf)):
        if k // z.nbytes % 5 == 1:
            continue
        bad = bytearray(buf)
        bad[k] ^= 1
        with pytest.raises(NotSymmetric):
            symmetric_rewrite(int.from_bytes(bad, "little") - bias, z, 2 ** 16)
    assert shifts == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.integers(-2 ** 200, 2 ** 200), max_size=12), st.sampled_from((1, -1)),
       st.integers(0, 3))
@example([], -1, 1)
@example([5], -1, 1)
def test_taylor_shift_is_the_substitution_and_shifts_back(rows, m, k):
    # on plain integers, the rows of f(x + m 2**k) are the dict oracle's
    # substitution, and the shift by -m 2**k takes them back to f's
    f = XY({(0, j): c for j, c in enumerate(rows) if c})
    shifted = taylor_shift(rows, m, k)
    assert XY({(0, j): c for j, c in enumerate(shifted) if c}) == substitute_y(f, Y + m * 2 ** k)
    assert taylor_shift(shifted, -m, k) == rows
    with pytest.raises(ValueError):
        taylor_shift(rows, 2 * m, k)


@st.composite
def _packed_terms(draw):
    # a packing of 1 .. 12 bytes a slot and a term map in its slots, a
    # third of the digits 0 or at the slot extremes
    nb, slots = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    shift, count = draw(st.integers(0, 2 * slots - 1)), draw(st.integers(0, 4))
    top = (1 << 8 * nb - 1) - 1
    digit = st.one_of(st.sampled_from((top, -top, 0)), st.integers(-top, top))
    digits = draw(st.lists(digit, min_size=slots * count, max_size=slots * count))
    return Packing(shift, slots, nb), {(2 * (k % slots) - shift, k // slots): c
                                       for k, c in enumerate(digits) if c}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_packed_terms(), st.integers(0, 3))
@example((Packing(0, 3, 8), {(0, 0): 2 ** 63 - 1, (4, 0): -(2 ** 63 - 1)}), 2)
@example((Packing(1, 2, 9), {(-1, 1): -(2 ** 71 - 1), (1, 1): 2 ** 71 - 1}), 1)
@example((Packing(0, 4, 1), {}), 0)
def test_unpack_reads_every_slot_as_the_slot_loop(packing_terms, empty_rows):
    # Packing.unpack equals the slot-by-slot reference, keys and key order
    # too, on packed term maps (with empty rows laid above them), on their
    # negatives and on arbitrary integers read in the same slots
    packing, terms = packing_terms
    value = pack(packing, terms)
    above = 1 << 8 * packing.nbytes * packing.slots * (max((j for _, j in terms), default=0)
                                                       + 1 + empty_rows)
    for v in (value, -value, value + above, value - above, value * 3 + 1):
        got, want = packing.unpack(v), reference_unpack(packing, v)
        assert list(got.items()) == list(want.items())
    assert packing.unpack(value) == terms


def test_eval_interval_contains_sqrt3_root():
    p = X * X - 3
    # 1.7320 floored and 1.7321 ceiled to multiples of 2**-20
    x = DyadicInterval(Dyadic(1816133, -20), Dyadic(1816239, -20))
    iv = eval_interval(p, x, DyadicInterval.point(0))
    assert iv.lo.sign() <= 0 <= iv.hi.sign()


def test_eval_interval_point_matches_fraction_oracle():
    rng = random.Random(31)
    for _ in range(60):
        p = rand_even_xy(rng)
        xn, yn = rng.randrange(-40, 40), rng.randrange(-40, 40)
        iv = eval_interval(p, DyadicInterval.point(Dyadic(xn, -3)),
                           DyadicInterval.point(Dyadic(yn, -3)))
        assert iv.is_point()
        assert as_fraction(iv.lo) == eval_fraction(p, Fraction(xn, 8), Fraction(yn, 8))
    assert eval_interval(XY.y(), DyadicInterval.point(7),
                         DyadicInterval.point(2)) == DyadicInterval.point(2)


def test_eval_interval_monotone_inclusion():
    rng = random.Random(37)
    x_outer = DyadicInterval(Dyadic(-3), Dyadic(5, -1))
    x_inner = DyadicInterval(Dyadic(-1), Dyadic(1, -1))
    for _ in range(40):
        p = rand_even_xy(rng)
        for y in (Dyadic(1, -2), Dyadic(3, -1), Dyadic(-9, -2)):
            outer = eval_interval(p, x_outer, DyadicInterval.point(y))
            inner = eval_interval(p, x_inner, DyadicInterval.point(y))
            assert contains_interval(outer, inner)


def test_eval_interval_rejects_interval_y():
    x = DyadicInterval(Dyadic(3, -1), Dyadic(13, -3))
    # the message prints y exactly, also past the range of a float
    for y in (DyadicInterval(Dyadic(2), Dyadic(17, -3)),
              DyadicInterval(Dyadic(1, 2000), Dyadic(3, 2000))):
        for p in (XY.zero(), riley_double_twist(1, 2).poly):
            with pytest.raises(ValueError, match=re.escape(repr(y.hi))):
                eval_interval(p, x, y)
            with pytest.raises(ValueError, match=re.escape(repr(y.hi))):
                eval_interval(p, x, y, y_bounds=_bounds(p, x, -8))


def test_eval_interval_riley_at_exact_point():
    # phi for J(3,4) at the exact x_3 = 1 and y = 2: the interval must pin
    # the exact rational value obtained by direct substitution
    phi = riley_double_twist(1, 2).poly
    iv = eval_interval(phi, DyadicInterval.point(1), DyadicInterval.point(2))
    exact = eval_fraction(phi, Fraction(1), Fraction(2))
    assert iv.is_point() and as_fraction(iv.lo) == exact
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
# its even variant, x-exponents 2i, for evaluation, which refuses odd x-terms
even_polys = st.lists(
    st.tuples(st.integers(0, 4).map(lambda i: 2 * i), st.integers(0, 7), st.integers(-60, 60)),
    max_size=12).map(XYPoly.from_terms)
dyadics = st.builds(Dyadic, st.integers(-(1 << 24), 1 << 24), st.integers(-40, 6))
points = dyadics.map(DyadicInterval.point)
intervals = st.one_of(
    points, st.tuples(dyadics, dyadics).map(lambda ds: DyadicInterval(min(ds), max(ds))))
# stands for the exact unit of the y-coefficient bounds (exact_unit)
EXACT = None


def exact_unit(p, x):
    """The coarsest unit on which y_row_bounds of p over x is exact
    interval Horner in u: deg_x times the exponent of x, clamped to <= 0."""
    return p.deg_x() * min(x.lo.e, x.hi.e, 0)


@settings(max_examples=400, deadline=None)
@given(even_polys, intervals, points, st.fractions(0, 1))
def test_eval_interval_matches_reference(p, x, y, tx):
    iv = eval_interval(p, x, y)
    assert iv == reference_eval_interval_u(p, x, y)
    u = as_fraction(x.lo) + tx * as_fraction(x.width())
    assert contains_fraction(iv, eval_fraction(p, u, as_fraction(y.lo)))


@settings(max_examples=200, deadline=None)
@given(sparse_polys, intervals, points)
@example(XYPoly.from_terms([(1, 1, 1), (2, 0, 3)]), DyadicInterval.point(1),
         DyadicInterval.point(0))                   # x y + 3 x**2 at y = 0
def test_evaluation_refuses_exactly_the_odd_x_terms(p, x, y):
    # y_rows, and so the exact path, refuses a term of odd x-degree, even
    # one that vanishes at y
    if any(i % 2 for i, _, _ in p.terms()):
        with pytest.raises(ValueError, match="not even in x"):
            y_rows(p)
        with pytest.raises(ValueError, match="not even in x"):
            eval_interval(p, x, y)
    else:
        assert eval_interval(p, x, y) == reference_eval_interval_u(p, x, y)


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
    """The y-coefficient bounds of p over x as the sign oracle forms them,
    on the unit 2**e, or on the exact unit for EXACT."""
    return y_row_bounds(y_rows(p), x, exact_unit(p, x) if e is EXACT else e)


@settings(max_examples=300, deadline=None)
@given(even_polys, intervals, st.fractions(0, 1), bounds_exponents)
def test_y_coefficient_bounds_enclose_each_coefficient(p, x, tx, e):
    lo, hi, e = _bounds(p, x, e)
    u = as_fraction(x.lo) + tx * as_fraction(x.width())
    slices = y_slices(p)
    assert len(lo) == len(hi) == p.deg_y() + 1
    for j, (l, h) in enumerate(zip(lo, hi)):
        c = eval_fraction(slices[j], u, Fraction(0)) if j in slices else 0
        assert l * Fraction(2) ** e <= c <= h * Fraction(2) ** e
        if e <= exact_unit(p, x):  # interval Horner in u, exactly
            assert DyadicInterval(Dyadic(l, e), Dyadic(h, e)) == reference_eval_interval_u(
                slices.get(j, XY.zero()), x, DyadicInterval.point(0))


# 3 + x**2 y - 2 x**4 y + x**6 y**2, even in x: in u = x**2, c_0 = 3,
# c_1 = u - 2 u**2 = (-2 u + 1) u and c_2 = u**3
COEFFICIENT_CASES = XY.from_terms([(0, 0, 3), (2, 1, 1), (4, 1, -2), (6, 2, 1)])


def test_y_coefficient_bounds_straddling_x():
    # interval Horner in u over U = [0, 1], the squares of X = [-1, 1]:
    # c_1 is (-2 U + 1) U = [-1, 1] * [0, 1] = [-1, 1], and c_2 is
    # U U U = [0, 1]; exact on 2**0, as x is an integer interval
    x = DyadicInterval(Dyadic(-1), Dyadic(1))
    assert _bounds(COEFFICIENT_CASES, x, 0) == ([3, -1, 0], [3, 1, 1], 0)


def test_y_coefficient_bounds_negative_x():
    # x in X = [-3/2, -1/2], U = [1/4, 9/4]: c_1 is (-2 U + 1) U =
    # [-7/2, 1/2] * [1/4, 9/4] = [-63/8, 9/8], c_2 is U**3 = [1/64, 729/64],
    # exact on 2**-6 = 2**(deg_x * -1)
    x = DyadicInterval(Dyadic(-3, -1), Dyadic(-1, -1))
    assert _bounds(COEFFICIENT_CASES, x, -6) == ([192, -504, 1], [192, 72, 729], -6)


def test_y_coefficient_bounds_point_x():
    # x = 3/4, u = 9/16: c_1 = 9/16 - 2 * 81/256 = -9/128, c_2 = 729/4096,
    # exact on 2**-12 and so below it.  On 2**-6, c_1 is -128 u + 64 = -8,
    # then -8 u = -9/2, cut to [-5, -4]; c_2 is 64 u = 36, 36 u = 81/4, cut
    # to [20, 21], then [20, 21] u = [45/4, 189/16], cut to [11, 12]
    x = DyadicInterval.point(Dyadic(3, -2))
    assert _bounds(COEFFICIENT_CASES, x, -12) \
        == ([12288, -288, 729], [12288, -288, 729], -12)
    assert _bounds(COEFFICIENT_CASES, x, -16) \
        == ([196608, -4608, 11664], [196608, -4608, 11664], -16)
    assert _bounds(COEFFICIENT_CASES, x, -6) == ([192, -5, 11], [192, -4, 12], -6)


# values with positive exponents (2 = 1 * 2**1): _scaled brings them to 2**0
POSITIVE_X = [DyadicInterval.point(2), DyadicInterval.point(4),
              DyadicInterval(Dyadic(2), Dyadic(4))]
POSITIVE_Y = [DyadicInterval.point(2), DyadicInterval.point(8),
              DyadicInterval(Dyadic(4), Dyadic(8))]


def interval_id(iv: DyadicInterval) -> str:
    return f"[{as_fraction(iv.lo)}, {as_fraction(iv.hi)}]"


@pytest.mark.parametrize("x", POSITIVE_X, ids=interval_id)
@pytest.mark.parametrize("y", POSITIVE_Y, ids=interval_id)
@pytest.mark.parametrize("p", [COEFFICIENT_CASES, COEFFICIENT_CASES - 4000 * Y,
                               riley_double_twist(1, 2).poly], ids=["cases", "shifted", "J34"])
def test_positive_exponents_match_the_reference(p, x, y):
    # an interval y is a ValueError; the bounds do not depend on y
    reference = reference_eval_interval_u(p, x, y)
    if y.is_point():
        assert eval_interval(p, x, y) == reference
    else:
        with pytest.raises(ValueError):
            eval_interval(p, x, y)
    slices = y_slices(p)
    for e in (0, -5):
        bounds = _bounds(p, x, e)
        lo, hi, _ = bounds
        for j, (l, h) in enumerate(zip(lo, hi)):
            assert DyadicInterval(Dyadic(l, e), Dyadic(h, e)) == reference_eval_interval_u(
                slices.get(j, XY.zero()), x, DyadicInterval.point(0))
        if not y.is_point():
            continue
        fast = eval_interval(p, x, y, y_bounds=bounds)
        assert contains_interval(fast, reference)
        if fast.sign() is None or x.is_point():  # exact path, or exact bounds
            assert fast == reference
        else:
            assert fast.sign() == reference.sign()


nonneg_points = st.builds(Dyadic, st.integers(0, 1 << 24),
                          st.integers(-40, 6)).map(DyadicInterval.point)


@settings(max_examples=300, deadline=None)
@given(even_polys, intervals, nonneg_points, bounds_exponents)
def test_eval_interval_with_y_bounds_contains_the_exact_path(p, x, y, e):
    fast = eval_interval(p, x, y, y_bounds=_bounds(p, x, e))
    exact = eval_interval(p, x, y)
    assert contains_interval(fast, exact)
    if fast.sign() is not None:
        assert exact.sign() == fast.sign()
    else:  # the bounds leave the sign open: the exact path answers
        assert fast == exact


@settings(max_examples=200, deadline=None)
@given(even_polys, intervals, points, bounds_exponents)
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


nonneg_dyadics = st.builds(Dyadic, st.integers(0, 1 << 24), st.integers(-40, 6))
nonneg_intervals = st.tuples(nonneg_dyadics, nonneg_dyadics).map(
    lambda ds: DyadicInterval(min(ds), max(ds)))


def _assert_as_horner_in_x(p, x, ys):
    """eval_interval at each point y, and the y-coefficient bounds on their
    exact unit, equal interval Horner in x."""
    for y in ys:
        assert eval_interval(p, x, y) == reference_eval_interval(p, x, y)
    e = exact_unit(p, x)
    lo, hi, _ = y_row_bounds(y_rows(p), x, e)
    slices = y_slices(p)
    for j, (l, h) in enumerate(zip(lo, hi)):
        assert DyadicInterval(Dyadic(l, e), Dyadic(h, e)) == reference_eval_interval(
            slices.get(j, XY.zero()), x, DyadicInterval.point(0))


@settings(max_examples=300, deadline=None)
@given(even_polys, nonneg_intervals, points)
def test_even_polynomials_on_nonnegative_x_match_horner_in_x(p, x, y):
    # two products by a nonnegative [a, b] are one product by [a**2, b**2],
    # so for an even p and x within [0, oo) Horner in u gives the very
    # interval Horner in x gave: every phi is even and every x_n >= 0, and
    # so no record moves between the two forms
    _assert_as_horner_in_x(p, x, [y])


@pytest.mark.parametrize("spec, ns", [("J:4,6", (15, 40, 257)), ("Kl:6", (37, 100)),
                                      ("J:1,2", (7, 9, 256))])
def test_family_phi_without_a_modulus_matches_horner_in_x(spec, ns):
    # the n that xn_modulus builds no P_n for, where the scan and the
    # verifier evaluate phi's rows in u undivided
    from rileycert.certify import xn_enclosure, xn_modulus
    from rileycert.cli import parse_knot_spec
    phi = riley_for_knot(parse_knot_spec(spec)).poly
    ys = [DyadicInterval.point(y) for y in (Dyadic(2), Dyadic(17, -3),
                                            Dyadic(2 ** 130 + 12345, -128))]
    for n in ns:
        assert xn_modulus(n, phi.deg_x()) is None, (spec, n)
        for precision in (128, 256):
            _assert_as_horner_in_x(phi, xn_enclosure(n, precision), ys)


@settings(max_examples=200, deadline=None)
@given(even_polys, st.lists(st.integers(-60, 60), min_size=8, max_size=8))
def test_no_modulus_is_a_modulus_above_every_half_row(p, tail):
    # a monic P of degree deg_x // 2 + 1 divides no row in u, so the rows
    # without a modulus are those with P in the same layout, and the gate
    # in xn_modulus cannot change a result
    m = p.deg_x() // 2 + 1
    modulus = (*tail[:m], 1)
    assert y_rows(p, None) == y_rows(p, modulus)


def test_poly_matrix_ops():
    a = PolyMatrix(SY.s(), SY.one(), SY.zero(), SY.s(-1))
    assert a.det() == SY.one()
    assert a @ a.adjugate() == PolyMatrix.identity()
    assert a.trace() == SY.from_terms([(1, 0, 1), (-1, 0, 1)])
    b = PolyMatrix(SY.s(), SY.zero(),
                   SY.const(2) - SY.y(), SY.s(-1))
    prod = a @ b
    assert prod.det() == SY.one()
    assert (a - a).e11 == SY.zero()
