import hashlib
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from rileycert.knots import (K_MAX, KL_WORD_C, KL_WORD_D, L_MAX, M_MAX, P_MAX,
                             DoubleTwistKnot, KlKnot, ReductionInapplicable,
                             RunSeq, SignSequence, TwoBridgeFraction, Word,
                             expand, hm_reduce, kl_fraction, run_length,
                             sign_sequence, sign_sequence_raw,
                             word_double_twist, word_from_signs, word_kl)


def test_fraction_validation():
    TwoBridgeFraction(5, 3)
    with pytest.raises(ValueError):
        TwoBridgeFraction(4, 3)  # p even
    with pytest.raises(ValueError):
        TwoBridgeFraction(5, 2)  # q even
    with pytest.raises(ValueError):
        TwoBridgeFraction(5, 7)  # q > p
    with pytest.raises(ValueError):
        TwoBridgeFraction(5, -3)
    with pytest.raises(ValueError):
        TwoBridgeFraction(9, 3)  # gcd


def test_family_validation():
    with pytest.raises(ValueError):
        DoubleTwistKnot(0, 2)
    with pytest.raises(ValueError):
        DoubleTwistKnot(1, 1)
    with pytest.raises(ValueError):
        KlKnot(1)
    assert DoubleTwistKnot(1, 2).spec_string() == "J:1,2"
    # the limits themselves are accepted, one step beyond is not
    assert TwoBridgeFraction(P_MAX, 5).p == P_MAX
    assert DoubleTwistKnot(K_MAX, -M_MAX).k == K_MAX
    assert KlKnot(L_MAX).l == L_MAX
    assert kl_fraction(KlKnot(L_MAX)).p <= P_MAX
    for make in (lambda: TwoBridgeFraction(P_MAX + 2, 3),
                 lambda: DoubleTwistKnot(K_MAX + 1, 2),
                 lambda: DoubleTwistKnot(1, M_MAX + 1),
                 lambda: DoubleTwistKnot(1, -M_MAX - 1),
                 lambda: KlKnot(L_MAX + 1)):
        with pytest.raises(ValueError):
            make()
    assert DoubleTwistKnot(1, -2).spec_string() == "J:1,-2"


def test_sign_sequence_examples():
    assert sign_sequence(TwoBridgeFraction(5, 3)).signs == (1, -1, -1, 1)
    assert sign_sequence(TwoBridgeFraction(7, 3)).signs == (1, 1, -1, -1, 1, 1)
    want = (2, -2) + (3, -2) * 2 + (2,)
    assert run_length(sign_sequence(TwoBridgeFraction(17, 7))).runs == want


def _signs(p, q):
    """The sign sequence of p/q, also for p above knots.P_MAX: that limit
    bounds the cost of phi, and these tests check the sign arithmetic."""
    return SignSequence(sign_sequence_raw(p, q), p, q)


def test_run_length_and_expand_inverse():
    assert run_length(SignSequence((1, 1, -1, -1), 5, 3)).runs == (2, -2)
    assert run_length(SignSequence((1,), 2, 1)).runs == (1,)
    rng = random.Random(3)
    for _ in range(100):
        p = rng.randrange(3, 500, 2)
        q = rng.randrange(1, p, 2)
        if math.gcd(p, q) != 1:
            continue
        seq = sign_sequence(TwoBridgeFraction(p, q))
        assert expand(run_length(seq)) == seq


def test_runseq_validation_and_text():
    with pytest.raises(ValueError):
        RunSeq((2, 2), 5, 3)  # no alternation
    with pytest.raises(ValueError):
        RunSeq((2, 0, 1), 5, 3)
    rs = RunSeq((2, -2, 3), 17, 7)
    assert rs.to_text() == "<2><-2><3>"
    assert not rs.is_degenerate()
    assert RunSeq((), 1, 3).is_degenerate()
    assert RunSeq((4,), 5, 1).is_degenerate()


def test_closed_form_run_pattern():
    for s in range(1, 51):
        want = (2, -2) + (3, -2) * (2 * s) + (2,)
        assert run_length(_signs(10 * s + 7, 4 * s + 3)).runs == want, s


def test_hm_reduce_examples():
    s177 = run_length(sign_sequence(TwoBridgeFraction(17, 7)))
    red = hm_reduce(s177)
    # zeros drop and the same-sign neighbors of removed runs merge: <2>
    assert red.runs == (2,)
    assert (red.p, red.q) == (3, 7)
    assert expand(red).signs == sign_sequence_raw(3, 7)
    red73 = hm_reduce(run_length(sign_sequence(TwoBridgeFraction(7, 3))))
    assert red73.runs == () and red73.is_degenerate()
    assert sign_sequence_raw(1, 3) == ()


def test_hm_reduce_rejects_small_quotient():
    with pytest.raises(ReductionInapplicable):
        hm_reduce(run_length(sign_sequence(TwoBridgeFraction(5, 3))))


def test_hm_reduce_matches_modular_oracle():
    rng = random.Random(7)
    count = 0
    while count < 200:
        p = rng.randrange(3, 1000, 2)
        q = rng.randrange(1, p, 2)
        if math.gcd(p, q) != 1 or p // q < 2:
            continue
        count += 1
        rs = run_length(_signs(p, q))
        assert expand(hm_reduce(rs)).signs == sign_sequence_raw(p - 2 * q, q), (p, q)


def test_run_shape_constraints():
    rng = random.Random(9)
    count = 0
    while count < 200:
        p = rng.randrange(3, 1000, 2)
        q = rng.randrange(3, p, 2) if p > 3 else 1
        if q >= p or math.gcd(p, q) != 1:
            continue
        count += 1
        mags = [abs(r) for r in run_length(_signs(p, q)).runs]
        assert sum(mags) == p - 1
        m = p // q
        # the run-shape law needs p = mq + r with 0 < r < q, so q = 1 is out
        assert all(c in (m, m + 1) for c in mags), (p, q)
        assert mags[0] == m and mags[-1] == m


def test_last_sign_positive_exhaustive():
    for p in range(3, 500, 2):
        for q in range(1, p, 2):
            if math.gcd(p, q) == 1:
                assert sign_sequence_raw(p, q)[-1] == 1, (p, q)


def test_word_normalization_and_text():
    # aA, Aa, bB and Bb cancel, and a cancellation can expose another
    assert Word("aabBaaa").text == "aaaaa"
    assert Word("aBAb").text == "aBAb"
    assert Word("abBA").text == Word("aaBbAA").text == ""
    assert Word("bAaB" + "ab").text == "ab"
    assert Word("Ab" * 3 + "Ba" * 3) == Word("")
    with pytest.raises(ValueError, match="unknown letter 'c'"):
        Word("abc")
    with pytest.raises(TypeError):
        Word((("a", 1),))


def _free_reduction(text: str) -> str:
    """The oracle: delete cancelling pairs until none is left."""
    while True:
        reduced = re.sub("aA|Aa|bB|Bb", "", text)
        if reduced == text:
            return text
        text = reduced


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="aAbB", max_size=40), st.text(alphabet="aAbB", max_size=40))
def test_word_reduction_against_the_oracle(t, u):
    w, v = Word(t), Word(u)
    assert w.text == _free_reduction(t) and v.text == _free_reduction(u)
    assert w.mirror().mirror() == w and w.inverse().inverse() == w
    assert (w * v).mirror() == v.mirror() * w.mirror()
    assert (w * v).inverse() == v.inverse() * w.inverse()
    assert w * w.inverse() == Word("")


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet="aAbB", max_size=30).map(Word))
def test_word_inverse(word):
    # w w**-1 and w**-1 w cancel letter by letter, and inversion commutes
    # with the mirror: tau(w**-1) = tau(w)**-1, so a mirror word's inverse
    # is a mirror word too
    inverse = word.inverse()
    assert inverse * word == Word("")
    assert inverse.mirror() == word.mirror().inverse()
    assert Word("abbA").inverse().text == "aBBA"
    assert Word("abbA").mirror().text == "Baab"


def test_word_from_signs_examples():
    assert word_from_signs(sign_sequence(TwoBridgeFraction(5, 3))).text == "aBAb"
    assert word_from_signs(sign_sequence(TwoBridgeFraction(7, 3))).text == "abABab"
    v = word_from_signs(sign_sequence(TwoBridgeFraction(17, 7)))
    assert v.text == "abABabaBAb" + "abABab"  # c then d


def test_word_double_twist():
    w, m = word_double_twist(DoubleTwistKnot(1, 2))
    assert w.text == "bAbaBa" and m == 2
    w2, _ = word_double_twist(DoubleTwistKnot(2, 3))
    assert w2.text == "bAbAbaBaBa"
    for k in range(1, 7):
        w, _ = word_double_twist(DoubleTwistKnot(k, 2))
        assert len(w.text) == 4 * k + 2


def test_kl_fraction():
    assert kl_fraction(KlKnot(2)) == TwoBridgeFraction(17, 7)
    assert kl_fraction(KlKnot(3)) == TwoBridgeFraction(27, 11)
    for l in range(2, 51):
        f = kl_fraction(KlKnot(l))
        assert math.gcd(f.p, f.q) == 1
        assert f.p % 2 == 1 and f.q % 2 == 1


def test_word_kl():
    assert len(word_kl(KlKnot(2)).text) == 16
    assert len(word_kl(KlKnot(3)).text) == 26
    for l in range(2, L_MAX + 1):
        built = word_kl(KlKnot(l))
        synthesized = word_from_signs(sign_sequence(kl_fraction(KlKnot(l))))
        assert built == synthesized, l


def _program_words() -> list[Word]:
    """Every word the program multiplies out, in one fixed order: the
    fractions with p <= 151 (the riley reference specs), those with
    p <= P_MAX at q in {1, 3, 7, 97, 199, 311}, J's base words for
    k <= K_MAX, C, D and C^-1 D, and K_l's relator for l <= L_MAX."""
    fractions = {(p, q) for p in range(3, 152, 2) for q in range(1, p, 2)}
    fractions |= {(p, q) for q in (1, 3, 7, 97, 199, 311) for p in range(q + 2, P_MAX + 1, 2)}
    words = [word_from_signs(sign_sequence(TwoBridgeFraction(p, q)))
             for p, q in sorted(fractions) if math.gcd(p, q) == 1]
    words += [word_double_twist(DoubleTwistKnot(k, 2))[0] for k in range(1, K_MAX + 1)]
    words += [KL_WORD_C, KL_WORD_D, KL_WORD_C.inverse() * KL_WORD_D]
    return words + [word_kl(KlKnot(l)) for l in range(2, L_MAX + 1)]


def test_the_program_words_are_pinned():
    # the letter strings of every program word, one a line, pinned by their
    # digest: a change to how words are built or stored moves no letter
    words = _program_words()
    assert len(words) == 3282 and KL_WORD_C.inverse() * KL_WORD_D == Word("BabA")
    digest = hashlib.sha256("\n".join(w.text for w in words).encode()).hexdigest()
    assert digest == "54f9084e73f38c8e6b881e973af55e821c04a1beb7c26fca2d3f1acb4434203e"
