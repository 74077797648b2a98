import random
from fractions import Fraction

import pytest

from rileycert.chebyshev import (NotUnimodular, cheb_eval, cheb_poly,
                                 cheb_root_enclosures, sl2_power,
                                 solve_recurrence)
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.knots import DoubleTwistKnot, Word, word_double_twist
from rileycert.polyring import PolyMatrix, SYPoly, XYPoly
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
    # random words: powers 1..7 of V and of V^-1 against repeated products
    rng = random.Random(53)
    for _ in range(3):
        letters = [(rng.choice("ab"), rng.choice((-1, 1))) for _ in range(3)]
        mat = evaluate_word(Word.from_letters(letters))
        for base in (mat, mat.adjugate()):
            direct = base
            for n in range(1, 8):
                assert sl2_power(base, n) == direct, (letters, n)
                direct = direct @ base
    w, _ = word_double_twist(DoubleTwistKnot(1, 2))
    mat = evaluate_word(w)
    assert sl2_power(mat, 3) == mat @ mat @ mat
    bad = PolyMatrix(SYPoly.s(1), SYPoly.zero(), SYPoly.zero(), SYPoly.s(1))
    with pytest.raises(NotUnimodular):
        sl2_power(bad, 2)
    with pytest.raises(ValueError):
        sl2_power(ident, 0)


def test_eval_on_dyadic_interval():
    iv = DyadicInterval(Dyadic(1), Dyadic(5, -2))
    out = cheb_eval(3, iv)
    # S_3 = z^3 - 2z; check sample containment
    for t in (Fraction(1), Fraction(9, 8), Fraction(5, 4)):
        assert out.lo.as_fraction() <= t ** 3 - 2 * t <= out.hi.as_fraction()
