import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rileycert import riley
from rileycert.chebyshev import _cheb_norms, _cheb_pair, _packed_cheb_pair, cheb_poly
from rileycert.knots import (KL_WORD_C, KL_WORD_D, DoubleTwistKnot, KlKnot,
                             TwoBridgeFraction, Word, sign_sequence, word_double_twist,
                             word_from_signs, word_kl)
from rileycert.polyring import Packing, XYPoly
from rileycert.riley import (StructureViolation, alpha_dt, generator_images,
                             kl_alpha_derivative_check, kl_cross_check,
                             kl_named_polys, lambda_dt, riley_double_twist,
                             riley_for_knot, riley_generic, riley_kl)

from matrix_oracle import PolyMatrix, images, reference_evaluate_word
from poly_oracle import SY, XY, eval_fraction, rewrite_sy, substitute_y, y_slices

X, Y = XY.x(), XY.y()


def test_generator_images():
    # A = [[s, 1], [0, 1/s]] and B = [[s, 0], [2 - y, 1/s]] as term maps,
    # and their dict matrices
    assert generator_images() == (({(1, 0): 1}, {(0, 0): 1}, {}, {(-1, 0): 1}),
                                  ({(1, 0): 1}, {}, {(0, 0): 2, (0, 1): -1}, {(-1, 0): 1}))
    g = images()
    x_image = SY.from_terms([(1, 0, 1), (-1, 0, 1)])
    assert g.a.trace() == x_image
    assert g.b.trace() == x_image
    assert (g.b @ g.a_inv).trace() == SY.y()
    assert (g.b_inv @ g.a).trace() == SY.y()
    for mat in (g.a, g.b):
        assert mat.det() == SY.one()
    assert g.a @ g.a_inv == PolyMatrix.identity()
    assert g.b @ g.b_inv == PolyMatrix.identity()


def test_word_product_basics():
    # the empty word, aA, bB and AabB multiply out to the identity: rows of
    # s**L I in t-integers, (t**(L/2), 0) from (1, 0) and (0, t**(L/2)) from
    # (0, 1); the trace of the double-twist word is the closed-form lambda
    b, ys = 8, 24
    for text in ("", "aA", "bB", "AabB"):
        unit = 1 << b * len(text) // 2
        assert riley._word_product(text, (1, 0), b, ys) == (unit, 0)
        assert riley._word_product(text, (0, 1), b, ys) == (0, unit)
    w, _ = word_double_twist(DoubleTwistKnot(1, 2))
    assert riley._unimodular_trace(w)[0] == lambda_dt(1)
    assert rewrite_sy(reference_evaluate_word(w).trace()) == lambda_dt(1)


def test_alpha_lambda_closed_forms():
    assert alpha_dt(1) == XY.one() + (Y + 2 - X * X) * (Y - 1)
    assert lambda_dt(1) == X * X - Y - (Y - 2) * (Y + 2 - X * X) * Y
    assert eval_fraction(alpha_dt(1), Fraction(1), Fraction(2)) == 4
    assert eval_fraction(lambda_dt(1), Fraction(1), Fraction(2)) == -1
    for k in (1, 2, 3, 5):
        assert substitute_y(lambda_dt(k), 2) == X * X - 2
        assert eval_fraction(alpha_dt(k), Fraction(2), Fraction(2)) == 1
    with pytest.raises(ValueError):
        alpha_dt(0)
    with pytest.raises(ValueError):
        lambda_dt(0)


def test_alpha_lambda_match_their_formulas_by_dict_algebra():
    # the docstring formulas in the tests' dict ring, S_j(y) by the
    # ring-generic recurrence, against the y-lists the package builds
    for k in range(1, 21):
        s_km1, s_k = _cheb_pair(k, Y)
        assert alpha_dt(k) == 1 + (Y + 2 - X * X) * s_km1 * (s_k - s_km1), k
        assert lambda_dt(k) == X * X - Y - (Y - 2) * (Y + 2 - X * X) * s_k * s_km1, k


def test_double_twist_m2_formula():
    assert riley_double_twist(1, 2).poly == XY.of(lambda_dt(1)) * alpha_dt(1) - 1
    for k in range(1, 9):
        want = (X * X - 2) * (XY.one() + (4 - X * X) * k) - 1
        assert substitute_y(riley_double_twist(k, 2).poly, 2) == want, k


def test_leading_sign_parity_rule():
    for k in (1, 2, 3):
        for m in (2, 3, 4, -2, -3, -4):
            phi = riley_double_twist(k, m).poly
            lead = y_slices(phi)[phi.deg_y()]
            coeffs = [c for _, _, c in lead.terms()]
            assert len(coeffs) == 1  # leading y-coefficient is a constant
            expect_positive = (m > 0 and m % 2 == 1) or (m < 0 and m % 2 == 0)
            assert (coeffs[0] > 0) == expect_positive, (k, m)


def test_engine_matches_closed_forms():
    for k in (1, 2):
        w, _ = word_double_twist(DoubleTwistKnot(k, 2))
        for m in (2, 3, -2, -3):
            assert riley_generic(w, m).poly == riley_double_twist(k, m).poly
    for l in (2, 3):
        assert riley_generic(word_kl(KlKnot(l))).poly == riley_kl(l).poly


def _compose(coeffs, inner):
    """inner substituted into an ascending coefficient tuple, by Horner."""
    acc = XY.const(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * inner + c
    return acc


def test_closed_forms_match_coefficient_composition():
    # the closed forms with S_j(lambda) from the expanded coefficients of S_j
    for k in range(1, 5):
        lam, alpha = lambda_dt(k), alpha_dt(k)
        for m in (2, 3, 4, 5, 6):
            assert riley_double_twist(k, m).poly == \
                _compose(cheb_poly(m - 1), lam) * alpha - _compose(cheb_poly(m - 2), lam)
            assert riley_double_twist(k, -m).poly == \
                _compose(cheb_poly(m), lam) - _compose(cheb_poly(m - 1), lam) * alpha
    lam, alpha, beta = kl_named_polys()
    for l in range(2, 7):
        assert riley_kl(l).poly == _compose(cheb_poly(l - 1), lam) * alpha \
            - _compose(cheb_poly(l - 2), lam) * beta


@pytest.mark.parametrize("k, m", [(8, 8), (8, -8), (10, -10)])
def test_large_double_twist_closed_form_against_oracles(k, m):
    # past the benchmark's k <= 4, |m| <= 6: the slot sizing of the packed
    # recurrence against dict compositions and against the generic engine
    lam, alpha = lambda_dt(k), alpha_dt(k)
    if m > 0:
        want = _compose(cheb_poly(m - 1), lam) * alpha - _compose(cheb_poly(m - 2), lam)
    else:
        want = _compose(cheb_poly(-m), lam) - _compose(cheb_poly(-m - 1), lam) * alpha
    phi = riley_double_twist(k, m).poly
    assert phi == want
    w, _ = word_double_twist(DoubleTwistKnot(k, 2))
    assert riley_generic(w, m).poly == phi


def test_large_kl_closed_form_against_oracles():
    lam, alpha, beta = kl_named_polys()
    phi = riley_kl(10).poly
    assert phi == _compose(cheb_poly(9), lam) * alpha - _compose(cheb_poly(8), lam) * beta
    assert riley_generic(word_kl(KlKnot(10))).poly == phi


FAMILY_HASHES = Path(__file__).resolve().parent / "data" / "family_hashes.json"


def test_family_hashes_past_the_benchmark_sizes():
    # term counts and content hashes recorded from the dict-arithmetic
    # closed forms, which the generic engine agreed with (Kl:50's, at
    # L_MAX, from the whole-word route of its fraction 497/199); both
    # routes must still reproduce them
    knots = {"J:8,8": DoubleTwistKnot(8, 8), "J:8,-8": DoubleTwistKnot(8, -8),
             "J:12,12": DoubleTwistKnot(12, 12), "Kl:10": KlKnot(10),
             "Kl:20": KlKnot(20), "Kl:50": KlKnot(50)}
    records = json.loads(FAMILY_HASHES.read_text())
    assert sorted(records) == sorted(knots)
    for spec, knot in knots.items():
        for engine in ("auto", "generic"):
            phi = riley_for_knot(knot, engine=engine)
            assert len(list(phi.poly.terms())) == records[spec]["terms"], (spec, engine)
            assert phi.content_hash == records[spec]["content_hash"], (spec, engine)


def _l1(terms: dict) -> int:
    return sum(map(abs, terms.values()))


_COEFFS = st.integers(-3, 3).filter(bool)


@settings(max_examples=120, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(0, 3).map(lambda i: 2 * i), st.integers(0, 2)),
                       _COEFFS, max_size=5),
       st.integers(0, 10))
def test_packed_recurrence_equals_dict_recurrence_xy(terms, n):
    # u = x**2 in the inner slots: the packing of every Chebyshev
    # combination, whose t has even x-degrees only
    t = XY(terms)
    deg = max((i for i, _ in terms), default=0)
    packing = Packing.covering(0, n * deg // 2 + 1, max(_cheb_norms(n, _l1(terms))))
    h_prev, h_cur = _packed_cheb_pair(n, packing.multiplier(terms))
    s_prev, s_cur = _cheb_pair(n, t)
    assert packing.unpack(h_cur) == s_cur._terms
    assert packing.unpack(h_prev) == s_prev._terms
    n_prev, n_cur = _cheb_norms(n, _l1(terms))
    assert _l1(s_cur._terms) <= n_cur and _l1(s_prev._terms) <= n_prev


def test_m_one_boundary_convention():
    # the generic engine takes any nonzero power of the word; the closed
    # form takes only the family's |m| >= 2, as DoubleTwistKnot does, and
    # checks k against K_MAX before any recurrence runs
    w, _ = word_double_twist(DoubleTwistKnot(1, 2))
    assert riley_generic(w, 1).poly == alpha_dt(1)
    assert riley_generic(w, -1).poly == XY.of(lambda_dt(1)) - alpha_dt(1)
    for k, m in ((1, 1), (1, -1), (1, 0), (10**6, 1), (10**6, 2), (0, 2)):
        with pytest.raises(ValueError):
            riley_double_twist(k, m)


def test_structure_violation_on_malformed_word():
    with pytest.raises(StructureViolation):
        riley_generic(Word("a"))


def _fraction_matrix_r12(word, s, y):
    """Numeric (1,2) entry of VA - BV over exact rationals: the independent
    small-matrix oracle for the whole symbolic pipeline."""
    a = ((s, Fraction(1)), (Fraction(0), 1 / s))
    b = ((s, Fraction(0)), (2 - y, 1 / s))
    a_inv = ((1 / s, Fraction(-1)), (Fraction(0), s))
    b_inv = ((1 / s, Fraction(0)), (y - 2, s))
    table = {"a": a, "A": a_inv, "b": b, "B": b_inv}

    def matmul(m1, m2):
        return ((m1[0][0] * m2[0][0] + m1[0][1] * m2[1][0],
                 m1[0][0] * m2[0][1] + m1[0][1] * m2[1][1]),
                (m1[1][0] * m2[0][0] + m1[1][1] * m2[1][0],
                 m1[1][0] * m2[0][1] + m1[1][1] * m2[1][1]))

    v = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    for ch in word.text:
        v = matmul(v, table[ch])
    return matmul(v, a)[0][1] - matmul(b, v)[0][1]


def test_figure_eight_smoke_against_numeric_oracle():
    v = word_from_signs(sign_sequence(TwoBridgeFraction(5, 3)))
    phi = riley_generic(v)
    assert phi.poly.deg_y() == 2  # quadratic in y
    rng = random.Random(59)
    for _ in range(8):
        s = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
        y = Fraction(rng.randrange(-30, 30), rng.randrange(1, 30))
        assert eval_fraction(phi.poly, s + 1 / s, y) == _fraction_matrix_r12(v, s, y)


def test_generic_engine_numeric_oracle_more_words():
    rng = random.Random(61)
    words = [word_from_signs(sign_sequence(TwoBridgeFraction(7, 3))),
             word_kl(KlKnot(2))]
    for v in words:
        phi = riley_generic(v)
        for _ in range(4):
            s = Fraction(rng.randrange(1, 12), rng.randrange(1, 12))
            y = Fraction(rng.randrange(-12, 12), rng.randrange(1, 12))
            assert eval_fraction(phi.poly, s + 1 / s, y) == _fraction_matrix_r12(v, s, y)


def test_generic_engine_against_sympy():
    # an oracle outside the package: sympy multiplies out the relator word
    # of every fraction with p <= 13 and forms R = VA - BV symbolically
    import sympy

    s, y = sympy.symbols("s y")
    a = sympy.Matrix([[s, 1], [0, 1 / s]])
    b = sympy.Matrix([[s, 0], [2 - y, 1 / s]])
    fractions = [TwoBridgeFraction(p, q) for p in range(3, 14, 2)
                 for q in range(1, p, 2) if math.gcd(p, q) == 1]
    assert len(fractions) == 20
    for f in fractions:
        v = sympy.eye(2)
        for ch in word_from_signs(sign_sequence(f)).text:
            v = v * (a if ch in "aA" else b) ** (1 if ch.islower() else -1)
        r = v * a - b * v
        assert sympy.expand(r[0, 0]) == 0 and sympy.expand(r[1, 1]) == 0, f
        phi = sum(c * (s + 1 / s) ** i * y ** j
                  for i, j, c in riley_for_knot(f).poly.terms())
        assert sympy.expand(phi - r[0, 1]) == 0, f


def test_r_structure_identities():
    g = images()
    y_minus_2 = SY.y() - SY.const(2)
    words = [word_from_signs(sign_sequence(TwoBridgeFraction(5, 3))),
             word_kl(KlKnot(2))]
    for k in (1, 2):
        w, _ = word_double_twist(DoubleTwistKnot(k, 2))
        words.append(w)
    for v in words:
        mat = reference_evaluate_word(v)
        r = (mat @ g.a) - (g.b @ mat)
        assert r.e11 == SY.zero()
        assert r.e22 == SY.zero()
        assert r.e21 == y_minus_2 * r.e12
        assert r.e12.is_symmetric()
    # for any V, R11 = 0 and R21 = (y - 2) R12 + (s - 1/s) R22, so R22 = 0
    # is the one structure condition, which the mirror rule decides on the
    # word (test_packed_engine.py)
    s_minus_inv = SY.s(1) - SY.s(-1)
    rng = random.Random(71)
    for _ in range(20):
        mat = PolyMatrix(*(SY.from_terms([(rng.randint(-4, 4), rng.randint(0, 2),
                                               rng.randint(-9, 9)) for _ in range(4)])
                           for _ in range(4)))
        r = (mat @ g.a) - (g.b @ mat)
        assert r.e11 == SY.zero()
        assert r.e21 == y_minus_2 * r.e12 + s_minus_inv * r.e22


def test_kl_named_polys_identities():
    lam, alpha, beta = kl_named_polys()
    x2m1 = X * X - 1
    assert substitute_y(alpha, x2m1) == -1
    assert substitute_y(lam, 2) == X * X - 2
    assert substitute_y(lam, x2m1) == 1
    assert beta == X * X - Y - 1
    assert substitute_y(beta, x2m1) == 0


def test_kl_cross_check_bites(monkeypatch):
    assert kl_cross_check()
    lam, alpha, beta = map(XY.of, kl_named_polys())
    for named in ((lam + 1, alpha, beta), (lam, alpha + 1, beta), (lam, alpha, beta + 1)):
        monkeypatch.setattr(riley, "kl_named_polys", lambda named=named: named)
        assert not kl_cross_check(), named


def test_kl_transcriptions_match_the_dict_relator():
    # the packed route of kl_cross_check against dict products of the
    # generator images: tr C, (DA - BD)_12 and (C^-1 D A - B C^-1 D)_12
    lam, alpha, beta = kl_named_polys()
    g = images()
    c, d = reference_evaluate_word(KL_WORD_C), reference_evaluate_word(KL_WORD_D)
    assert rewrite_sy(c.trace()) == lam
    assert rewrite_sy(((d @ g.a) - (g.b @ d)).e12) == alpha
    cinv_d = c.adjugate() @ d
    assert rewrite_sy(((cinv_d @ g.a) - (g.b @ cinv_d)).e12) == beta


def test_kl_alpha_derivative_and_discriminant():
    assert kl_alpha_derivative_check()
    disc = XYPoly.from_terms([(4, 0, 4), (2, 0, -28), (0, 0, 28)])
    # negative on sampled rationals in [sqrt(2), 2)
    for t in (Fraction(1415, 1000), Fraction(3, 2), Fraction(7, 4), Fraction(199, 100)):
        assert eval_fraction(disc, t, Fraction(0)) < 0, t


def test_riley_kl_values_and_leading_sign():
    lam, alpha, beta = kl_named_polys()
    assert riley_kl(2).poly == XY.of(lam) * alpha - beta
    assert substitute_y(riley_kl(2).poly, X * X - 1) == -1
    for l in range(2, 7):
        phi = riley_kl(l).poly
        lead = y_slices(phi)[phi.deg_y()]
        coeffs = [c for _, _, c in lead.terms()]
        assert len(coeffs) == 1
        # (-1)^l phi -> +infinity as y -> infinity
        assert ((-1) ** l) * coeffs[0] > 0, l


def test_riley_for_knot_dispatch():
    phi = riley_for_knot(DoubleTwistKnot(1, 2))
    assert phi.knot == "J:1,2" and phi.presentation == "closed-form"
    phi_gen = riley_for_knot(DoubleTwistKnot(1, 2), engine="generic")
    assert phi_gen.poly == phi.poly
    assert phi_gen.content_hash == phi.content_hash
    phi_fr = riley_for_knot(TwoBridgeFraction(5, 3))
    assert phi_fr.knot == "5/3"
    assert riley_for_knot(KlKnot(2)).poly == riley_kl(2).poly
    with pytest.raises(TypeError):
        riley_for_knot("J:1,2")
    # a misspelt engine is an error, not the closed form
    for engine in ("generc", "closed-form", "", "GENERIC"):
        for knot in (DoubleTwistKnot(1, 2), KlKnot(2), TwoBridgeFraction(5, 3)):
            with pytest.raises(ValueError, match="engine"):
                riley_for_knot(knot, engine=engine)
