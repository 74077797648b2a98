import random
from fractions import Fraction

import pytest

from rileycert.chebyshev import NotUnimodular, cheb_eval, cheb_poly, sl2_power
from rileycert.dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from rileycert.knots import DoubleTwistKnot, Word, word_double_twist
from rileycert.polyring import PackedMatrix, PolyMatrix, SYPoly, XYPoly
from rileycert.riley import evaluate_word

from matrix_oracle import as_dict, as_packed


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
    # (-1)^n S_n < 0 strictly between the two smallest roots,
    # 2cos(n pi/(n+1)) < 2cos((n-1) pi/(n+1))
    for n in range(2, 33):
        a = two_cos_pi_ratio(n, n + 1, 32).hi.as_fraction()
        b = two_cos_pi_ratio(n - 1, n + 1, 32).lo.as_fraction()
        t = (a + b) / 2
        assert a < t < b
        assert (-1) ** n * cheb_eval(n, t) < 0, n


def test_sl2_power_poly_matrix():
    ident = PolyMatrix.identity()
    for n in (1, 2, 5):
        assert as_dict(sl2_power(as_packed(ident), n)) == ident
    # random words: powers 1..8 of V and of V^-1 against repeated dict
    # products
    rng = random.Random(53)
    for _ in range(3):
        letters = [(rng.choice("ab"), rng.choice((-1, 1))) for _ in range(3)]
        mat = evaluate_word(Word.from_letters(letters))
        for base in (mat, mat.adjugate()):
            plain = direct = as_dict(base)
            for n in range(1, 9):
                power = sl2_power(base, n)
                assert isinstance(power, PackedMatrix)
                assert as_dict(power) == direct, (letters, n)
                direct = direct @ plain
    w, _ = word_double_twist(DoubleTwistKnot(1, 2))
    mat = as_dict(evaluate_word(w))
    assert as_dict(sl2_power(evaluate_word(w), 3)) == mat @ mat @ mat
    # M**n = [[s**n, 0], [*, s**-n]]: entries at both ends of the power's
    # t-slots 0 .. n
    s = SYPoly.s(1)
    mat = PolyMatrix(s, SYPoly.zero(), SYPoly.one(), SYPoly.s(-1))
    direct = mat
    for n in range(1, 7):
        power = sl2_power(as_packed(mat), n)
        assert as_dict(power) == direct and power.packing.shift == n, n
        direct = direct @ mat
    with pytest.raises(ValueError):
        sl2_power(as_packed(ident), 0)
    # only a PackedMatrix, which is checkerboard by construction
    with pytest.raises(TypeError):
        sl2_power(ident, 2)
    with pytest.raises(ValueError):
        as_packed(PolyMatrix(s, SYPoly.zero(), s, SYPoly.s(-1)))


def test_sl2_power_rejects_a_determinant_other_than_one():
    one, zero, s = SYPoly.one(), SYPoly.zero(), SYPoly.s(1)
    det_s2 = PolyMatrix(s, zero, zero, s)
    det_minus_one = PolyMatrix(one, zero, zero, -one)
    det_minus_y = PolyMatrix(s, SYPoly.y(), one, zero)
    mat = as_dict(evaluate_word(Word.parse_text("abAB")))
    # V times diag(1, 1 + y): det 1 + y
    det_one_plus_y = PolyMatrix(mat.e11, mat.e12 * (1 + SYPoly.y()),
                                mat.e21, mat.e22 * (1 + SYPoly.y()))
    # det 1 + s**4 - y/s**2, with e = 2: t**2 (det - 1) = t**4 - y t
    # vanishes at t = 2**B, y = 2**(3B), so it takes more than the power's
    # e + 1 = 3 slots at n = 1 to tell it from 1
    det_y_alias = PolyMatrix(s * s, SYPoly.s(-1), SYPoly.y() * SYPoly.s(-1) - s, s * s)
    # det 1 - 1/s**2 + 2**16/s**4: t**2 (det - 1) = 2**16 - t vanishes at
    # t = 2**16, so it takes slots that hold ||W_ij||_1**2 = 2**16, not
    # just the power's entries, to tell it from 1
    det_width_alias = PolyMatrix(one, 256 * SYPoly.s(-1), -256 * SYPoly.s(-3),
                                 1 - SYPoly.s(-2))
    for bad in (det_s2, det_minus_one, det_minus_y, det_one_plus_y,
                det_y_alias, det_width_alias):
        base = as_packed(bad)
        for n in (1, 2, 7):
            with pytest.raises(NotUnimodular):
                sl2_power(base, n)


def test_sl2_power_small_trace_large_entries():
    # tr M = y has l1 norm 1 while the entries reach about 10**6, so the
    # off-diagonal entries of M**n, S_{n-1}(y) times an entry of M, outgrow
    # S_n(y) by that factor: the slots must cover N_{n-1} ||M_ij||_1 too
    u, y, s = 1000, SYPoly.y(), SYPoly.s(1)
    mat = PolyMatrix(y + u, s, (-1 - u * y - u * u) * SYPoly.s(-1), SYPoly.const(-u))
    base, direct = as_packed(mat), mat
    for n in range(1, 61):
        assert as_dict(sl2_power(base, n)) == direct, n
        direct = direct @ mat


def test_eval_on_dyadic_interval():
    iv = DyadicInterval(Dyadic(1), Dyadic(5, -2))
    out = cheb_eval(3, iv)
    # S_3 = z^3 - 2z; check sample containment
    for t in (Fraction(1), Fraction(9, 8), Fraction(5, 4)):
        assert out.lo.as_fraction() <= t ** 3 - 2 * t <= out.hi.as_fraction()
