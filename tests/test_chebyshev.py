import random
from fractions import Fraction

import pytest

from rileycert.chebyshev import (NotUnimodular, cheb_eval, cheb_poly,
                                 cheb_root_enclosures, sl2_power,
                                 solve_recurrence)
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.knots import DoubleTwistKnot, Word, word_double_twist
from rileycert.polyring import PackedMatrix, PolyMatrix, SYPoly, XYPoly
from rileycert.riley import evaluate_word


def u_poly(n):
    """Second-kind Chebyshev U_n by its own recurrence (independent oracle)."""
    prev, cur = (1,), (0, 2)
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, tuple(nxt)
    return cur


def test_base_cases_and_small_expansions():
    assert cheb_poly(0) == (1,)
    assert cheb_poly(1) == (0, 1)
    assert cheb_poly(2) == (-1, 0, 1)
    assert cheb_poly(5) == (0, 3, 0, -4, 0, 1)
    with pytest.raises(ValueError):
        cheb_poly(-1)


def test_values_at_plus_minus_two():
    for n in range(201):
        assert cheb_eval(n, 2) == n + 1
        assert cheb_eval(n, -2) == (-1) ** n * (n + 1)


def test_eval_matches_expansion():
    rng = random.Random(41)
    assert cheb_eval(4, 0) == 1
    for n in range(16):
        t = Fraction(rng.randrange(-24, 24), 7)
        assert cheb_eval(n, t) == sum(c * t ** i
                                      for i, c in enumerate(cheb_poly(n)))


def test_eval_in_polynomial_rings():
    y = XYPoly.y()
    assert cheb_eval(2, y) == y * y - 1
    s = SYPoly.s(1) + SYPoly.s(-1)
    assert cheb_eval(2, s) == s * s - 1


def test_s_of_2z_is_second_kind_u():
    for n in range(21):
        s = cheb_poly(n)
        s_at_2z = tuple(c * (1 << i) for i, c in enumerate(s))
        assert s_at_2z == u_poly(n), n


def test_positivity_and_monotonicity_on_tail():
    rng = random.Random(43)
    samples = [Fraction(2), Fraction(8)] + \
        [2 + Fraction(rng.randrange(0, 6 * 64 + 1), 64) for _ in range(12)]
    for t in samples:
        assert t <= 8
        for n in range(65):
            assert cheb_eval(n, t) > 0
            assert cheb_eval(n + 1, t) > cheb_eval(n, t)


def test_sign_between_two_smallest_roots():
    # (-1)^n S_n < 0 strictly between the two smallest roots
    for n in range(2, 33):
        lo_encl, next_encl = cheb_root_enclosures(n, 32)[:2]
        a, b = lo_encl.hi.as_fraction(), next_encl.lo.as_fraction()
        t = (a + b) / 2
        assert a < t < b
        assert (-1) ** n * cheb_eval(n, t) < 0, n


def test_root_enclosures_small_cases():
    one = cheb_root_enclosures(1, 64)
    assert len(one) == 1 and one[0].lo.sign() < 0 < one[0].hi.sign()
    two = cheb_root_enclosures(2, 64)
    assert len(two) == 2
    assert two[0].contains_fraction(Fraction(-1))
    assert two[1].contains_fraction(Fraction(1))
    three = cheb_root_enclosures(3, 64)
    assert three[1].contains_fraction(Fraction(0))
    # outer enclosures hold -sqrt(2) and sqrt(2)
    assert three[0].hi.as_fraction() ** 2 < 2 < three[0].lo.as_fraction() ** 2
    assert three[2].lo.as_fraction() ** 2 < 2 < three[2].hi.as_fraction() ** 2


def test_root_enclosures_certified_and_disjoint():
    for n in (4, 9, 16, 32):
        encl = cheb_root_enclosures(n, 48)
        assert len(encl) == n
        for iv in encl:
            assert iv.width() <= Dyadic(1, -48)
            s_lo = cheb_eval(n, iv.lo).sign()
            s_hi = cheb_eval(n, iv.hi).sign()
            assert s_lo != 0 and s_hi == -s_lo
        for left, right in zip(encl, encl[1:]):
            assert left.hi < right.lo


def test_solve_recurrence_is_chebyshev():
    z = XYPoly.y()
    for n in range(8):
        expected = XYPoly.from_terms(
            (0, i, c) for i, c in enumerate(cheb_poly(n + 1)))
        assert solve_recurrence(XYPoly.one(), z, z, n) == expected


def test_solve_recurrence_examples_and_oracle():
    assert solve_recurrence(0, 1, 2, 4) == 5
    rng = random.Random(47)
    for _ in range(30):
        a0 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        a1 = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))
        seq = [a0, a1]
        for _ in range(7):
            seq.append(c * seq[-1] - seq[-2])
        for n in range(7):
            assert solve_recurrence(a0, a1, c, n) == seq[n + 1]


def test_sl2_power_poly_matrix():
    ident = PolyMatrix.identity()
    for n in (1, 2, 5):
        assert sl2_power(ident, n) == ident
    # random words: powers 1..8 of V and of V^-1, packed and as dict
    # matrices, against repeated products
    rng = random.Random(53)
    for _ in range(3):
        letters = [(rng.choice("ab"), rng.choice((-1, 1))) for _ in range(3)]
        mat = evaluate_word(Word.from_letters(letters))
        plain = PolyMatrix(mat.e11, mat.e12, mat.e21, mat.e22)
        for base in (mat, mat.adjugate(), plain, plain.adjugate()):
            direct = base
            for n in range(1, 9):
                power = sl2_power(base, n)
                assert isinstance(power, PackedMatrix)
                assert power == direct, (letters, type(base).__name__, n)
                direct = direct @ base
    w, _ = word_double_twist(DoubleTwistKnot(1, 2))
    mat = evaluate_word(w)
    assert sl2_power(mat, 3) == mat @ mat @ mat
    with pytest.raises(ValueError):
        sl2_power(ident, 0)


def _packed(m: PolyMatrix) -> PackedMatrix:
    """m packed as the Riley engine packs a word: slots for its relator."""
    maps = m.term_maps()
    shift = max((abs(i) for t in maps for i, _ in t), default=0)
    packing = PackedMatrix.packing_for(shift, max(sum(map(abs, t.values())) for t in maps))
    return PackedMatrix(tuple(packing.pack(t) for t in maps), packing)


def test_sl2_power_rejects_a_determinant_other_than_one():
    one, zero, s = SYPoly.one(), SYPoly.zero(), SYPoly.s(1)
    det_s2 = PolyMatrix(s, zero, zero, s)
    det_minus_one = PolyMatrix(one, zero, zero, -one)
    # det = -y/s
    det_minus_y = PolyMatrix(s, SYPoly.y(), SYPoly.s(-1), zero)
    mat = evaluate_word(Word.parse_text("abAB"))
    # V times diag(1, 1 + y): det 1 + y
    det_one_plus_y = PolyMatrix(mat.e11, mat.e12 * (1 + SYPoly.y()),
                                mat.e21, mat.e22 * (1 + SYPoly.y()))
    # det 1 + s**3 - y/s**6: s**6 (det - 1) = s**9 - y vanishes at
    # s = 2**B, y = 2**(9B), so it takes more than the power's 2e + 3 = 9
    # slots at n = 1 to tell it from 1
    det_y_alias = PolyMatrix(1 + SYPoly.s(3), SYPoly.y() * SYPoly.s(-3),
                             SYPoly.s(-3), one)
    # det 1 - 1/s + 2**16/s**2: s**2 (det - 1) = 2**16 - s vanishes at
    # s = 2**16, so it takes slots that hold ||entry||_1**2 = 2**16, not
    # just the power's entries, to tell it from 1
    det_width_alias = PolyMatrix(one, 256 * SYPoly.s(-1), -256 * SYPoly.s(-1),
                                 1 - SYPoly.s(-1))
    for bad in (det_s2, det_minus_one, det_minus_y, det_one_plus_y,
                det_y_alias, det_width_alias):
        for base in (bad, _packed(bad)):
            for n in (1, 2, 7):
                with pytest.raises(NotUnimodular):
                    sl2_power(base, n)


def test_sl2_power_small_trace_large_entries():
    # tr M = y has l1 norm 1 while the entries reach about 10**6, so the
    # off-diagonal entries of M**n, S_{n-1}(y) times an entry of M, outgrow
    # S_n(y) by that factor: the slots must cover N_{n-1} ||M_ij||_1 too
    u, y = 1000, SYPoly.y()
    mat = PolyMatrix(y + u, SYPoly.one(), -1 - u * y - u * u, SYPoly.const(-u))
    direct = mat
    for n in range(1, 61):
        assert sl2_power(mat, n) == direct, n
        direct = direct @ mat


def test_eval_on_dyadic_interval():
    iv = DyadicInterval(Dyadic(1), Dyadic(5, -2))
    out = cheb_eval(3, iv)
    # S_3 = z^3 - 2z; check sample containment
    for t in (Fraction(1), Fraction(9, 8), Fraction(5, 4)):
        assert out.lo.as_fraction() <= t ** 3 - 2 * t <= out.hi.as_fraction()
