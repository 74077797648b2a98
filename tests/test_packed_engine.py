"""The packed-integer word engine against the dict product it replaced."""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert import cli, polyring, riley
from rileycert.knots import (KL_WORD_C, KL_WORD_D, DoubleTwistKnot, KlKnot, TwoBridgeFraction,
                             Word, kl_fraction, sign_sequence, word_double_twist,
                             word_from_signs, word_kl)
from rileycert.polyring import Packing, XYPoly

from matrix_oracle import (PolyMatrix, images, in_z, packed_rows, reference_evaluate_word,
                           reference_word_product, row_integer)
from poly_oracle import SY, XY, pack, rewrite_sy, substitute_y, to_sy


def _palindromic_word(half: list[bool]) -> Word:
    # a^e1 b^e2 ... with e_i = e_(p-i), as the relator word of p/q
    signs = [1 if up else -1 for up in half + half[::-1]]
    return Word("".join(("aA", "bB")[i % 2][e < 0] for i, e in enumerate(signs)))


def _l1(entry: SY) -> int:
    return sum(abs(c) for _, _, c in entry.terms())


def _unpacked_rows(letters) -> tuple[tuple[SY, SY], ...]:
    # both rows of the row loop, from (1, 0) and from (0, 1), in s and
    # z = y - 2, unpacked from L + 1 t-slots wide enough for the span
    # pass's z-norms
    rows = []
    for start in ((1, 0), (0, 1)):
        z_norms, _, _, _ = riley._row_span(letters, start)
        packing = Packing.covering(0, len(letters) + 1, max(z_norms))
        b = 8 * packing.nbytes
        rows.append(tuple(SY(packing.unpack(c)) for c in
                          riley._word_product(letters, start, b, b * packing.slots)))
    return tuple(rows)


def _z_rows(m: PolyMatrix, length: int) -> tuple[tuple[SY, SY], ...]:
    # the dict oracle's rows of s**length m under y = 2 + z
    return tuple(tuple(map(in_z, row)) for row in packed_rows(m, length))


def _row_loop_matrix(word: Word) -> PolyMatrix:
    # rho(word) read off both rows of the row loop, taken back from z to
    # y = z + 2 by the dict oracle: the dict oracle's product
    # (test_packed_word_equals_dict_product), at lengths where the dict
    # product takes seconds
    letters = word.text
    length = len(letters)
    (w11, w12), (w21, w22) = (tuple(substitute_y(w, SY.y() - 2) for w in row)
                              for row in _unpacked_rows(letters))
    return PolyMatrix(w11 * SY.s(-length), w12 * SY.s(1 - length),
                      w21 * SY.s(-1 - length), w22 * SY.s(-length))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(alphabet="aAbB", max_size=60).map(Word),
                 st.lists(st.booleans(), max_size=30).map(_palindromic_word)))
@example(Word(""))
@example(Word("b" * 40))
@example(Word("B" * 40))
@example(Word("a" * 40))
@example(Word("A" * 40))
@example(Word("bA" * 30))
@example(word_kl(KlKnot(2)))
def test_packed_word_equals_dict_product(word):
    # from (1, 0) and from (0, 1) the row loop gives rows 1 and 2 of s**L V
    # as the dict oracle's (V11, V12 / s) and (s V21, V22) under
    # y = 2 + z, mirror word or not; the span pass's z-norms bound their
    # l1 norms, its y-norms those of the oracle's entries in y, and its
    # hulls hold the t-supports of both
    letters = word.text
    oracle = packed_rows(reference_evaluate_word(word), len(letters))
    z_rows = _z_rows(reference_evaluate_word(word), len(letters))
    assert _unpacked_rows(letters) == z_rows
    for start, entries, z_entries in zip(((1, 0), (0, 1)), oracle, z_rows):
        z_norms, y_norms, *hulls = riley._row_span(letters, start)
        for entry, z_entry, z_norm, y_norm, (lo, hi) in zip(entries, z_entries, z_norms,
                                                           y_norms, hulls):
            assert _l1(z_entry) <= z_norm and _l1(entry) <= y_norm
            assert all(lo <= i // 2 <= hi for e in (entry, z_entry) for i, _, _ in e.terms())


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="aAbB", max_size=80),
       st.one_of(st.sampled_from([(1, 0), (0, 1)]),
                 st.tuples(st.integers(-2**20, 2**20), st.integers(-2**20, 2**20))),
       st.integers(1, 24), st.integers(0, 12))
@example("aAbB" * 10, (1, 0), 8, 3)
@example("BbAa" * 10, (0, 1), 8, 3)
@example("B" * 20, (0, 1), 8, 3)
@example("A" * 20, (-5, 7), 8, 3)
def test_deferred_shifts_equal_the_eager_loop(text, row, b, slots):
    # the row loop holds each entry as C t**e and makes only the shifts
    # that align its adds; what it returns is the eager loop's integers,
    # on raw strings (aA and bB unreduced), from either unit row or any
    # small row, at any slot width
    zs = b * slots
    assert riley._word_product(text, row, b, zs) == reference_word_product(text, row, b, zs)


# the dict oracle's cost grows steeply with letters * |m| (a 40-letter
# word to the 6th takes 10-30 s), so the two are drawn together: up to 40
# letters, up to |m| = 6, at most 80 letters in all
_WORDS_AND_POWERS = st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.one_of(st.text(alphabet="aAbB", max_size=min(40, 80 // m)).map(Word),
              st.lists(st.booleans(), max_size=min(20, 40 // m)).map(_palindromic_word)),
    st.sampled_from((m, -m))))


@settings(max_examples=40, deadline=None)
@given(_WORDS_AND_POWERS)
@example((Word("bAbaBa"), 6))
@example((word_from_signs(sign_sequence(TwoBridgeFraction(41, 15))), -2))
def test_packed_results_equal_the_dict_oracle(word_and_power):
    word, m = word_and_power
    g = images()
    base_dict = reference_evaluate_word(word)
    r_word = base_dict @ g.a - g.b @ base_dict
    if m < 0:
        # rho(w**-1) is the adjugate, as det rho(w) = 1
        base_dict = base_dict.adjugate()
        assert reference_evaluate_word(word.inverse()) == base_dict
    power_dict = base_dict
    for _ in range(abs(m) - 1):
        power_dict = power_dict @ base_dict
    # the mirror rule: R22 of w^m vanishes exactly when tau(w) = w, and
    # riley_generic takes exactly those words, with or without the power
    r = power_dict @ g.a - g.b @ power_dict
    for power, relator in ((m, r), (None, r_word)):
        assert (relator.e22 == SY.zero()) == (word.mirror() == word)
        if word.mirror() != word:
            with pytest.raises(riley.StructureViolation):
                riley.riley_generic(word, power)
        else:
            assert to_sy(riley.riley_generic(word, power).poly) == relator.e12


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="aAbB", max_size=40).map(Word))
@example(Word("abABab"))
def test_mirror_word_is_the_conjugate_transpose(word):
    # with D = diag(1, 2 - y), B = D A^T D^-1 and A = D B^T D^-1, so
    # rho(tau(w)) D = D rho(w)^T: tau(w) = w gives V21 = (2 - y) V12
    d22 = SY.const(2) - SY.y()
    v, mirrored = reference_evaluate_word(word), reference_evaluate_word(word.mirror())
    assert word.mirror().mirror() == word
    assert (mirrored.e11, mirrored.e12 * d22, mirrored.e21, mirrored.e22) == (
        v.e11, v.e21, v.e12 * d22, v.e22)


_FRACTIONS_TO_151 = [TwoBridgeFraction(p, q) for p in range(3, 152, 2)
                     for q in range(1, p, 2) if math.gcd(p, q) == 1]

# every fraction with p <= 151, Kl:2..10 and mirrored random halves: the
# relator words riley_generic takes without a power
_MIRROR_WORDS = st.one_of(
    st.lists(st.booleans(), max_size=40).map(_palindromic_word),
    st.sampled_from(_FRACTIONS_TO_151).map(lambda f: word_from_signs(sign_sequence(f))),
    st.integers(2, 10).map(lambda l: word_kl(KlKnot(l))))


def _full_r12(v: PolyMatrix) -> dict:
    # the term map of R12 of R = VA - BV by dict arithmetic: one product by
    # each generator, not the word's
    g = images()
    return (v @ g.a - g.b @ v).e12._terms


@settings(max_examples=60, deadline=None)
@given(_MIRROR_WORDS)
@example(word_kl(KlKnot(2)))
@example(word_from_signs(sign_sequence(TwoBridgeFraction(151, 57))))
def test_row_one_relator_equals_the_full_one(word):
    # the row-1 route's R12 has the full product's terms under y = 2 + z,
    # in rows only as wide as its t-span, its y-norm bounds them in y,
    # and the full R22 it skips is 0, both formed on the entries of both
    # rows of the row loop, taken from z back to y by the dict oracle; the
    # dict oracle's R22 is 0 too, formed up to 64 letters, where it takes
    # at most about 0.1 s
    assert word.mirror() == word
    v_full = _row_loop_matrix(word)
    value, z, y_norm = riley._relator_r12(word)
    r12 = SY(_full_r12(v_full))
    assert SY(z.unpack(value)) == in_z(r12)
    assert all(abs(c) <= y_norm for _, _, c in r12.terms())
    assert v_full.e21 == (SY.const(2) - SY.y()) * v_full.e12
    if len(word.text) <= 64:
        g, v = images(), reference_evaluate_word(word)
        assert (v @ g.a - g.b @ v).e22 == SY.zero()


@settings(max_examples=60, deadline=None)
@given(_MIRROR_WORDS)
@example(Word(""))
@example(word_kl(KlKnot(10)))
@example(word_from_signs(sign_sequence(TwoBridgeFraction(151, 57))))
def test_row_one_span_holds_the_relator(word):
    # every term of s**L R12 lies in t-slots lo .. hi of its y-row, the
    # mirror-widened hull of row 1's h1, h2 and h2 + 1, every coefficient
    # within m1 + 2 m2, of the y-norms, and the span is deg_x(phi) wide,
    # so no narrower rows hold R12: the dict oracle's R12 up to 64
    # letters, the row loop's beyond that
    letters = word.text
    length = len(letters)
    _, (m1, m2), h1, (lo2, hi2) = riley._row_span(letters, (1, 0))
    lo, hi = riley._mirror_span(length, (h1, (lo2, hi2), (lo2 + 1, hi2 + 1)))
    bound = m1 + 2 * m2
    terms = _full_r12(reference_evaluate_word(word) if length <= 64 else _row_loop_matrix(word))
    assert lo + hi == length
    assert all((i + length) % 2 == 0 and lo <= (i + length) // 2 <= hi for i, _ in terms)
    assert max(map(abs, terms.values())) <= bound
    assert hi - lo == riley.riley_generic(word).poly.deg_x()


@pytest.mark.parametrize("fraction", [TwoBridgeFraction(p, q) for p, q in
                                      ((27, 11), (45, 17), (81, 61), (149, 51))],
                         ids=TwoBridgeFraction.spec_string)
@pytest.mark.parametrize("cut", [(1, 0), (0, 1), (1, 1)], ids=["low", "high", "both"])
def test_a_narrowed_span_is_caught(monkeypatch, fraction, cut):
    # the span is tight: a slot off its low end, its high end or both loses
    # terms of R12 or lays them off-centre, which the low-slot check, the
    # rewrite's palindrome test or its peel must catch; a slot off one end
    # alone makes the shift odd, which the rewrite refuses first
    span = riley._mirror_span

    def narrowed(length, hulls):
        lo, hi = span(length, hulls)
        return lo + cut[0], hi - cut[1]

    monkeypatch.setattr(riley, "_mirror_span", narrowed)
    if sum(cut) % 2:
        with pytest.raises(ValueError, match="odd shift"):
            riley.riley_for_knot(fraction)
    else:
        with pytest.raises((riley.StructureViolation, polyring.NotSymmetric, AssertionError)):
            riley.riley_for_knot(fraction)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="aAbB", min_size=1, max_size=60).map(Word)
       .filter(lambda w: w.mirror() != w),
       st.sampled_from((None, 1, -1, 2, -3)))
@example(Word("a"), None)
@example(KL_WORD_C, None)
def test_a_word_that_is_not_its_own_mirror_is_refused(word, m):
    # the mirror check runs on the word before any arithmetic, on both routes
    with pytest.raises(riley.StructureViolation):
        riley.riley_generic(word, m)


def _calls(monkeypatch, name):
    # the words riley.<name> is called with, from here on
    f, calls = getattr(riley, name), []

    def spy(word, *rest):
        calls.append(word)
        return f(word, *rest)

    monkeypatch.setattr(riley, name, spy)
    return calls


def test_only_the_power_route_and_the_trace_multiply_out_whole_matrices(monkeypatch):
    # a plain word's R12 comes off row 1 alone; the power route multiplies
    # out the base word once, both rows, for lambda, det V and alpha, which
    # it reads off row 1 of V, or of adj V for m < 0: no other product, no
    # row-1 route, no inverse word; a generic K_l build and kl_cross_check
    # run both rows of C and row 1 of D and of C^-1 D, no word longer than C
    whole, row = _calls(monkeypatch, "_unimodular_trace"), _calls(monkeypatch, "_relator_r12")
    fraction = word_from_signs(sign_sequence(TwoBridgeFraction(27, 11)))
    riley.riley_for_knot(TwoBridgeFraction(27, 11))
    assert whole == [] and row == [fraction]
    product, inverse = riley._word_product, Word.inverse
    for build in (lambda: riley.riley_for_knot(KlKnot(20), engine="generic"),
                  riley.kl_cross_check):
        whole.clear()
        row.clear()
        with monkeypatch.context() as patch:
            lengths = []
            patch.setattr(riley, "_word_product", lambda letters, start, b, ys: (
                lengths.append(len(letters)) or product(letters, start, b, ys)))
            assert build()
        assert whole == [KL_WORD_C] and row == [KL_WORD_D, KL_WORD_C.inverse() * KL_WORD_D]
        assert lengths and max(lengths) <= len(KL_WORD_C.text) == 10
    for m in (-3, 3):
        knot, products, inverted = DoubleTwistKnot(2, m), [], []
        w = word_double_twist(knot)[0]
        whole.clear()
        row.clear()
        with monkeypatch.context() as patch:
            patch.setattr(riley, "_word_product", lambda letters, start, b, ys: (
                products.append((letters, start)) or product(letters, start, b, ys)))
            patch.setattr(Word, "inverse", lambda word: inverted.append(word) or inverse(word))
            riley.riley_for_knot(knot, engine="generic")
        letters = w.text
        assert products == [(letters, (1, 0)), (letters, (0, 1))]
        assert whole == [w] and row == [] and inverted == []


@pytest.mark.parametrize("l", range(2, 21))
def test_kl_generic_equals_the_whole_word_route(l):
    # K_l's generic phi off C, D and C^-1 D equals the reference: R12 of
    # the whole (10l - 4)-letter relator C**(l-1) D multiplied out in row
    # 1, as the word and as the word of K_l's fraction
    knot = KlKnot(l)
    phi = riley.riley_for_knot(knot, engine="generic").poly
    assert phi == riley.riley_generic(word_kl(knot)).poly
    assert phi == riley.riley_for_knot(kl_fraction(knot)).poly


@pytest.mark.parametrize("name, text", [("KL_WORD_D", "abAB"), ("KL_WORD_C", "ab")])
def test_a_kl_reader_word_that_is_not_its_own_mirror_is_refused(monkeypatch, name, text):
    # D = abAB is not its own mirror; with C = ab, D is but C^-1 D = ABab
    # is not: R22 of C**(l-1) D need not vanish, so the generic K_l build
    # and kl_cross_check refuse it before any arithmetic
    monkeypatch.setattr(riley, name, Word(text))
    whole, row = _calls(monkeypatch, "_unimodular_trace"), _calls(monkeypatch, "_relator_r12")
    for build in (lambda: riley.riley_for_knot(KlKnot(3), engine="generic"),
                  riley.kl_cross_check):
        with pytest.raises(riley.StructureViolation, match="own mirror"):
            build()
    assert whole == [] and row == []


@pytest.mark.parametrize("k", range(1, 21))
def test_alpha_off_both_rows_equals_the_row_one_route(k):
    # alpha off row 1 of V, (c11, c12), and of adj V, (c22, -c12), of the
    # base word's one product, equals the reference: the row-1 route's
    # alpha of the word v and of the inverse word v**-1, each multiplied out
    v, _ = word_double_twist(DoubleTwistKnot(k, 2))
    (lam, r12), (lam_adj, r12_adj) = (riley._unimodular_trace(v, m) for m in (1, -1))
    assert lam == lam_adj and riley._unimodular_trace(v)[1] is None
    assert polyring.symmetric_rewrite(*r12) == polyring.symmetric_rewrite(
        *riley._relator_r12(v))
    assert polyring.symmetric_rewrite(*r12_adj) == polyring.symmetric_rewrite(
        *riley._relator_r12(v.inverse()))


@pytest.mark.parametrize("text", ["b" * 40, "B" * 40, "bA" * 30, "abAB" * 15,
                                  word_from_signs(sign_sequence(
                                      TwoBridgeFraction(151, 57))).text])
def test_slots_cover_the_relator_bound(text):
    # R12 = V11 + V12 / s - s V12 stays within n1 + 2 n2 of row 1's span
    # pass in z, the bound the letter loop's slots are sized by, and
    # within m1 + 2 m2 in y, the y-norm _relator_r12 gives the rewrite;
    # in t = s**2 every entry of the product of L letters, and so every
    # hull, lies in t-slots 0 .. L
    word = Word(text)
    letters = word.text
    (n1, n2), (m1, m2), *hulls = riley._row_span(letters, (1, 0))
    assert all(0 <= lo and hi <= len(letters) for lo, hi in hulls if lo <= hi)
    v, g = reference_evaluate_word(word), images()
    r12 = (v @ g.a - g.b @ v).e12
    assert max(abs(c) for _, _, c in in_z(r12).terms()) <= n1 + 2 * n2
    assert max(abs(c) for _, _, c in r12.terms()) <= m1 + 2 * m2
    assert riley._relator_r12(word)[2] == m1 + 2 * m2


def test_unpack_borrows_across_adjacent_negative_slots():
    # s-exponents -2 .. 4 in t-slots 0 .. 3
    packing = Packing(shift=2, slots=4, nbytes=1)
    terms = {(-2, 0): -1, (0, 0): -1, (2, 0): -128, (4, 0): 127,
             (-2, 1): -1, (0, 1): 1, (4, 2): -3}
    value = pack(packing, terms)
    assert value == sum(c * 2 ** (8 * ((i + 2) // 2 + 4 * j)) for (i, j), c in terms.items())
    assert packing.unpack(value) == terms
    assert packing.unpack(0) == {}
    for bad in ({(6, 0): 1}, {(-4, 0): 1}, {(1, 0): 1}):
        with pytest.raises(ValueError):
            pack(packing, bad)


def test_a_multiplier_term_needs_a_slot():
    # in u = x**2 slots an odd x-exponent would land mid-slot, and a
    # negative one below slot 0: multiplier refuses both, as pack does
    packing = Packing.covering(0, 4, 100)
    value = pack(packing, {(2, 0): 3, (0, 1): -1})
    terms = {(0, 0): 1, (2, 0): -2, (4, 1): 5}
    product = polyring._times(value, packing.multiplier(terms))
    assert packing.unpack(product) == (XY(packing.unpack(value)) * XY(terms))._terms
    for bad in ({(1, 0): 1}, {(0, 0): 1, (3, 2): -1}, {(-2, 1): 1}):
        with pytest.raises(ValueError):
            packing.multiplier(bad)
    # with s**shift, s**-1 sits in slot 0 and s * y in slot 1 of row 1
    assert Packing.covering(1, 4, 100).multiplier({(-1, 0): 2, (1, 1): 1}) == [
        (0, 2), (8 + 32, 1)]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-3, 3).map(lambda i: 2 * i),
                                 st.integers(0, 4)),
                       st.integers(-2 ** 15 + 1, 2 ** 15 - 1).filter(bool),
                       max_size=20))
def test_packing_round_trip(terms):
    # s-exponents -6 .. 6 in t-slots 0 .. 6
    packing = Packing.covering(6, 7, 2 ** 15 - 1)
    assert packing.nbytes == 2
    assert packing.unpack(pack(packing, terms)) == terms


def test_packed_adjugate_equals_dict_adjugate():
    # for m < 0 the power route reads alpha off row 1 of adj V = V**-1,
    # (c22, -c12) of V's packed rows, as det V = 1: the packed z-rows of
    # the inverse word w**-1, its own mirror as w is, are those of the dict
    # adjugate under y = 2 + z; R12 off (c11, c12) is the dict V's, R12 off
    # (c22, -c12) the dict adjugate's, both packed in z, and lambda is the
    # same for both, tr adj V = tr V
    w, _ = word_double_twist(DoubleTwistKnot(2, 2))
    inverse, plain, g = w.inverse(), reference_evaluate_word(w), images()
    assert inverse.mirror() == inverse and inverse.inverse() == w
    adj = plain.adjugate()
    letters = inverse.text
    assert _unpacked_rows(letters) == _z_rows(adj, len(letters))
    (lam, (r12, z, _)), (_, (r12_adj, _, _)) = (riley._unimodular_trace(w, m) for m in (1, -1))
    assert SY(z.unpack(r12)) == in_z((plain @ g.a - g.b @ plain).e12)
    assert SY(z.unpack(r12_adj)) == in_z((adj @ g.a - g.b @ adj).e12)
    assert riley._unimodular_trace(inverse)[0] == lam


def test_power_path_reads_only_packed_integers(monkeypatch):
    # riley_generic(w, m) unpacks only phi, in u = x**2 slots with shift 0,
    # deg_x(phi) / 2 + 1 = 6 of them.  lambda and alpha come off the
    # rewrite of the trace and of one R12, each one packed integer in z,
    # in 2 sigma + 1 = 5 t-slots as the z-rows that hold det V (the
    # double-twist word's entries span t-slots lo .. lo + 2 of s**L V, so
    # sigma = 2), and the rewrite unpacks nothing.  No matrix entry, R12,
    # trace or det is turned into terms
    w, _ = word_double_twist(DoubleTwistKnot(3, 2))
    closed = {m: riley.riley_double_twist(3, m).poly for m in (5, -5)}
    unpack, rewrite, unpacked, rewritten = Packing.unpack, riley.symmetric_rewrite, [], []

    def spy_unpack(self, value):
        unpacked.append(self)
        return unpack(self, value)

    def spy_rewrite(value, z, y_norm):
        assert type(value) is int and type(y_norm) is int
        rewritten.append(z)
        return rewrite(value, z, y_norm)

    monkeypatch.setattr(Packing, "unpack", spy_unpack)
    monkeypatch.setattr(riley, "symmetric_rewrite", spy_rewrite)
    for m in (5, -5):
        unpacked.clear(), rewritten.clear()
        assert riley.riley_generic(w, m).poly == closed[m]
        assert [(pk.shift, pk.slots) for pk in unpacked] == [(0, 6)]
        assert [(pk.shift, pk.slots) for pk in rewritten] == [(2, 5), (2, 5)]


def _bumped(value: int, z: Packing, row: int, slot: int) -> int:
    # a value packed by z with one more in one t-slot of one z-row
    return value + (1 << 8 * z.nbytes * (slot + z.slots * row))


def test_a_corrupted_power_row_is_caught(monkeypatch, capsys):
    # each value the power route reads is checked: R12 of V and of adj V
    # one more in t-slot 0 of z-row 0 is asymmetric, which symmetric_rewrite's
    # palindrome test finds; so is the trace of V [[1, s], [0, 1]],
    # whose det is still 1, its packed rows (c1, c1 + c2); and V with one
    # more in V11, at s**0, which is t-slot L / 2 of row 1's c1, has
    # det != 1.  The rows are corrupted as the row loop returns them.  The
    # library raises, and so does the CLI's cross-check
    w, _ = word_double_twist(DoubleTwistKnot(2, 2))
    assert word_double_twist(DoubleTwistKnot(2, 4)) == (w, 4)
    (lam, (r12, z, y_norm)), (_, (r12_adj, _, _)) = (riley._unimodular_trace(w, m)
                                                      for m in (1, -1))
    half, product = len(w.text) // 2, riley._word_product

    def sheared(letters, row, b, ys):
        c1, c2 = product(letters, row, b, ys)
        return c1, c1 + c2

    def bumped(letters, row, b, ys):
        c1, c2 = product(letters, row, b, ys)
        return c1 + (row[0] << b * half), c2

    for name, bad, error, message in (
            ("_unimodular_trace", lambda word, m: (
                lam, (_bumped(r12 if m > 0 else r12_adj, z, 0, 0), z, y_norm)),
             polyring.NotSymmetric, "not invariant under s -> 1/s"),
            ("_word_product", sheared,
             polyring.NotSymmetric, "not invariant under s -> 1/s"),
            ("_word_product", bumped,
             riley.NotUnimodular, "determinant is not the ring unit")):
        with monkeypatch.context() as patch:
            patch.setattr(riley, name, bad)
            for m in (4, -4):
                with pytest.raises(error):
                    riley.riley_generic(w, m)
            assert cli.main(["riley", "--knot", "J:2,4", "--cross-check"]) == 1
            assert message in capsys.readouterr().err


_J_WORDS = [word_double_twist(DoubleTwistKnot(k, 2))[0] for k in range(1, 5)]
_FRACTION_WORDS_TO_65 = [word_from_signs(sign_sequence(f)) for f in _FRACTIONS_TO_151
                         if f.p <= 65]
_KL_WORDS = [word_kl(KlKnot(l)) for l in range(2, 7)]


def _power_of(budget: int, words):
    # a power m in +-1 .. +-6 and a word of at most budget // |m| letters:
    # the dict oracle's cost grows steeply with letters * |m| (a fraction's
    # 36-letter word to the third takes about 1.5 s), but the J:k words of
    # k <= 4, at most 18 letters, take at most 0.06 s at every such power
    return st.integers(1, 6).flatmap(lambda m: st.tuples(
        words(budget // m), st.sampled_from((m, -m))))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    _power_of(64, lambda n: st.sampled_from(_J_WORDS + [
        w for w in _FRACTION_WORDS_TO_65 + _KL_WORDS if len(w.text) <= n])),
    _power_of(60, lambda n: st.text(alphabet="aAbB", min_size=1, max_size=n)
              .map(Word).filter(lambda w: w.mirror() != w))))
@example((_J_WORDS[3], -6))
@example((word_kl(KlKnot(2)), 4))
@example((word_from_signs(sign_sequence(TwoBridgeFraction(11, 3))), -6))
@example((word_kl(KlKnot(6)), -1))
@example((Word("ab"), 6))
def test_the_mirror_rule_holds_for_every_power(word_and_power):
    # the power route's one structure argument: tau(w) = w gives
    # tau(w**m) = w**m, as tau reverses products, so the dict oracle's
    # V = rho(w)**m has V21 = (2 - y) V12, that is R22 = 0; a word that is
    # not its own mirror fails it at every power, as rho is faithful
    word, m = word_and_power
    base = reference_evaluate_word(word)
    if m < 0:
        base = base.adjugate()
    power = base
    for _ in range(abs(m) - 1):
        power = power @ base
    holds = power.e21 == (SY.const(2) - SY.y()) * power.e12
    assert holds == (word.mirror() == word)


# J's base words for k = 1 .. 20, at m = +-2 but for four, and K_l's C,
# through K_4
_POWER_SLOT_CASES = [(1, 2), (3, 6), (6, -6), (10, 10)] + [
    (k, 2 if k % 2 else -2) for k in range(1, 21) if k not in (1, 3, 6, 10)]


@pytest.mark.parametrize("knot", [pytest.param(DoubleTwistKnot(k, m), id=f"{k}-{m}")
                                  for k, m in _POWER_SLOT_CASES]
                         + [pytest.param(KlKnot(4), id="KL_WORD_C")])
def test_power_slots_cover_the_relator_bound(monkeypatch, knot):
    # the power route's slots hold what it compares or unpacks: the det
    # check's the coefficients of W11 W22 and W12 W21, W = s**e V, in
    # 2e + 1 t-slots, in z = y - 2, where the check runs; the trace and
    # R12 of V and of adj V in y, whose digits the y-norm 3 n_y that the
    # trace gives the rewrite for each bounds, n_y the span pass's largest
    # y-norm; and the Chebyshev combination's those of phi, in
    # deg_x(phi) / 2 + 1 u-slots;
    # the entries, products, traces and R12s by the dict oracle
    w = word_double_twist(knot)[0] if isinstance(knot, DoubleTwistKnot) else KL_WORD_C
    covering, sized = Packing.covering.__func__, []

    def spy(cls, shift, slots, bound):
        sized.append(covering(cls, shift, slots, bound))
        return sized[-1]

    def fits(packing, poly):
        return all(abs(c) < 2 ** (8 * packing.nbytes - 1) for _, _, c in poly.terms())

    closed = riley.riley_for_knot(knot).poly
    monkeypatch.setattr(Packing, "covering", classmethod(spy))
    phi = riley.riley_for_knot(knot, engine="generic").poly
    assert phi == closed
    # the trace sizes the det check's packing and the combination comes
    # last; the rewrite's own y-slots have no t-slots
    det, combination = [packing for packing in sized if packing.slots][-2:]
    v, g = reference_evaluate_word(w), images()
    adj, e = v.adjugate(), _checkerboard_e(v)
    assert (det.shift, det.slots) == (e, 2 * e + 1)
    assert all(fits(det, product) for product in (in_z(v.e11) * in_z(v.e22),
                                                  in_z(v.e12) * in_z(v.e21)))
    letters = w.text
    n_y = max(max(riley._row_span(letters, row)[1]) for row in ((1, 0), (0, 1)))
    rewrite, y_norms = riley.symmetric_rewrite, []
    monkeypatch.setattr(riley, "symmetric_rewrite", lambda value, z, y_norm: (
        y_norms.append(y_norm) or rewrite(value, z, y_norm)))
    y_norms.append(riley._unimodular_trace(w, 1)[1][2])
    assert y_norms == [3 * n_y, 3 * n_y]
    assert all(abs(c) <= 3 * n_y for value in (
        v.trace(), (v @ g.a - g.b @ v).e12, (adj @ g.a - g.b @ adj).e12)
        for _, _, c in value.terms())
    assert combination.slots == phi.deg_x() // 2 + 1
    assert fits(combination, phi)


# the first peel width, in bytes, of the power route's rewrites of J's
# base word for k = 1 .. 20 and of K_l's C: the larger of the z-slots and
# the slots Packing.covering gives 3 n_y, on each of these words the
# z-slots, which the det check's bound n_z**2 sizes
_READ_BACK_BYTES = dict(zip(range(1, 21), (2, 2, 3, 4, 4, 5, 6, 6, 7, 8, 8, 9, 10, 11, 11,
                                           12, 13, 13, 14, 15)), C=2)


@pytest.mark.parametrize("key", _READ_BACK_BYTES)
def test_the_read_back_keeps_its_slot_widths(monkeypatch, key):
    # the trace, and for J the R12 of V and that of adj V, are each peeled
    # first at the pinned width (J:4 4, J:12 9, J:20 15 and C 2 bytes): a
    # read-back sized any other way moves a width here.  C is not its own
    # mirror, so only its trace is read
    w = KL_WORD_C if key == "C" else word_double_twist(DoubleTwistKnot(key, 2))[0]
    reads = [lambda: riley._unimodular_trace(w)]
    if key != "C":
        reads += [lambda r12=riley._unimodular_trace(w, m)[1]: polyring.symmetric_rewrite(*r12)
                  for m in (1, -1)]
    x_powers, widths = polyring._x_powers, []
    monkeypatch.setattr(polyring, "_x_powers", lambda top, width: (
        widths.append(width) or x_powers(top, width)))
    first = []
    for read in reads:
        widths.clear()
        read()
        first.append(widths[0])
    assert first == [8 * _READ_BACK_BYTES[key]] * len(reads)


def test_power_route_equals_the_dict_oracle():
    # phi of w**m is the rewrite of R12 of the dict oracle's V**m, V**-1
    # the adjugate, for the J words of k <= 4 and every m in +-1 .. +-6
    g = images()
    for k in range(1, 5):
        w, _ = word_double_twist(DoubleTwistKnot(k, 2))
        plain = reference_evaluate_word(w)
        for base, sign in ((plain, 1), (plain.adjugate(), -1)):
            power = base
            for m in range(1, 7):
                r12 = (power @ g.a - g.b @ power).e12
                assert riley.riley_generic(w, sign * m).poly == rewrite_sy(r12), (k, sign * m)
                power = power @ base


def _checkerboard_e(m: PolyMatrix) -> int:
    # the largest |s-exponent| of a diagonal entry and one more than that
    # of an off-diagonal one: the least length L that gives every entry of
    # s**L m a t-slot in the row loop's form
    return max((abs(i) + (k in (1, 2)) for k, entry in enumerate((m.e11, m.e12, m.e21, m.e22))
                for i, _, _ in entry.terms()), default=0)


def _trace_of_rows(monkeypatch, m: PolyMatrix) -> XYPoly:
    # lambda of _unimodular_trace for a checkerboard m injected as packed
    # rows: those of s**e m under y = 2 + z, with the entries' l1 norms in
    # z and in y from the span pass and its t-hulls 0 .. e, but 0 .. e - 1
    # for s**(e - 1) m12, whose t-multiple in R12 then stays within 0 .. e
    # too, so the trace is laid in 2e + 1 t-slots
    e = _checkerboard_e(m)
    rows = dict(zip(((1, 0), (0, 1)), packed_rows(m, e)))
    with monkeypatch.context() as patch:
        patch.setattr(riley, "_row_span", lambda letters, start: (
            tuple(_l1(in_z(entry)) for entry in rows[start]), tuple(map(_l1, rows[start])),
            (0, e), (0, e - start[0])))
        patch.setattr(riley, "_word_product", lambda letters, start, b, zs: tuple(
            row_integer(entry, b, zs) for entry in rows[start]))
        return riley._unimodular_trace(Word("a" * e))[0]


def _from_z(m: PolyMatrix) -> PolyMatrix:
    # the matrix whose form under y = 2 + z is m, read as a matrix in s and z
    return PolyMatrix(*(substitute_y(e, SY.y() - 2) for e in (m.e11, m.e12, m.e21, m.e22)))


def test_the_trace_rejects_a_determinant_other_than_one(monkeypatch):
    # lambda and det from both rows of the base word's product: the rewrite
    # of the dict trace for words, and NotUnimodular for every matrix of
    # det != 1 injected as packed rows, however it aliases in too few or
    # too narrow slots.  The det check runs in z = y - 2, so each bad
    # matrix below is its form in s and z, where it aliases as described,
    # and is injected as the matrix in y that has that form (_from_z)
    for text in ("", "a", "abAB", "bAbaBa", "abbbAAb"):
        word = Word(text)
        if len(text) % 2:
            # an odd length makes the trace's shift odd, which the rewrite
            # refuses: no relator word has one
            assert any(i & 1 for i, _ in reference_evaluate_word(word).trace()._terms)
            for read in (lambda: riley._unimodular_trace(word),
                         lambda: _trace_of_rows(monkeypatch, reference_evaluate_word(word))):
                with pytest.raises(ValueError, match="odd shift"):
                    read()
            continue
        trace = rewrite_sy(reference_evaluate_word(word).trace())
        assert riley._unimodular_trace(word)[0] == trace
        assert _trace_of_rows(monkeypatch, reference_evaluate_word(word)) == trace
    # z below is SY's second variable, y's place in the dict ring
    one, zero, s, z = SY.one(), SY.zero(), SY.s(1), SY.y()
    det_s2 = PolyMatrix(s, zero, zero, s)
    det_minus_one = PolyMatrix(one, zero, zero, -one)
    det_minus_z = PolyMatrix(s, z, one, zero)
    mat = reference_evaluate_word(Word("abAB"))
    # a det-1 matrix times diag(1, 1 + z): det 1 + z
    det_one_plus_z = PolyMatrix(mat.e11, mat.e12 * (1 + z), mat.e21, mat.e22 * (1 + z))
    # det 1 + s**4 - z/s**2, with e = 2: t**2 (det - 1) = t**4 - z t
    # vanishes at t = 2**B, z = 2**(3B), so it takes more than e + 1 = 3
    # t-slots, those of the entries, to tell it from 1
    det_z_alias = PolyMatrix(s * s, SY.s(-1), z * SY.s(-1) - s, s * s)
    # det 1 + s**4 - z/s**4, with e = 2: t**2 (det - 1) = t**4 - z
    # vanishes at z = 2**(4B), so it takes 2e + 1 = 5 t-slots, those of
    # the products, not 2e, to tell it from 1
    det_slot_alias = PolyMatrix(s * s + z * SY.s(-2), s,
                                (z - 2) * SY.s(-1), s * s - SY.s(-2))
    # det 1 - 1/s**2 + 2**16/s**4: t**2 (det - 1) = 2**16 - t vanishes at
    # t = 2**16, so it takes slots that hold ||W_ij||_1**2 = 2**16, not
    # just the entries, to tell it from 1
    det_width_alias = PolyMatrix(one, 256 * SY.s(-1), -256 * SY.s(-3),
                                 1 - SY.s(-2))
    assert det_slot_alias.det() == 1 + SY.s(4) - z * SY.s(-4)
    for bad in (det_s2, det_minus_one, det_minus_z, det_one_plus_z, det_z_alias,
                det_slot_alias, det_width_alias, PolyMatrix(zero, zero, zero, zero)):
        assert in_z(_from_z(bad).e11) == bad.e11 and in_z(_from_z(bad).e21) == bad.e21
        with pytest.raises(riley.NotUnimodular):
            _trace_of_rows(monkeypatch, _from_z(bad))


def test_a_term_below_the_trace_span_is_caught(monkeypatch):
    # both rows must have only 0 in the t-slots below the span they are
    # shifted down by: with every hull of the span pass one slot narrower
    # at both ends, the double-twist word's entries have terms there
    w, _ = word_double_twist(DoubleTwistKnot(3, 2))
    span = riley._row_span

    def narrowed(letters, start):
        z_norms, y_norms, *hulls = span(letters, start)
        return (z_norms, y_norms, *((lo + 1, hi - 1) for lo, hi in hulls))

    monkeypatch.setattr(riley, "_row_span", narrowed)
    with pytest.raises(riley.StructureViolation, match="below its t-span"):
        riley._unimodular_trace(w)


@pytest.mark.parametrize("reader", ["r12", "trace"])
@pytest.mark.parametrize("entry", [0, 1], ids=["c1", "c2"])
def test_a_stray_term_below_the_span_in_a_higher_z_row_is_refused(monkeypatch, reader, entry):
    # the below-span mask reads only z-row 0's t-slots below lo: a stray
    # c t**(lo - 1) z**j, j >= 1, injected into one entry of the letter
    # loop's rows passes it and is shifted into the top t-slot of z-row
    # j - 1.  The row-1 route's R12 then fails the rewrite's mirror check;
    # the trace's det check moves by the stray times another entry, for
    # a stray in either row
    span, product, los = riley._mirror_span, riley._word_product, []
    monkeypatch.setattr(riley, "_mirror_span", lambda length, hulls: (
        los.append(span(length, hulls)[0]) or span(length, hulls)))
    starts = [(1, 0)] if reader == "r12" else [(1, 0), (0, 1)]
    for start, j, c in itertools.product(starts, (1, 2, 3), (1, -1, 3)):
        def stray(letters, row, b, zs):
            entries = list(product(letters, row, b, zs))
            if row == start:
                entries[entry] += c << b * (los[-1] - 1) + zs * j
            return tuple(entries)

        with monkeypatch.context() as patch:
            patch.setattr(riley, "_word_product", stray)
            if reader == "r12":
                for fraction in (TwoBridgeFraction(17, 7), TwoBridgeFraction(45, 17)):
                    with pytest.raises(polyring.NotSymmetric):
                        riley.riley_for_knot(fraction)
            else:
                for knot in (DoubleTwistKnot(2, 3), DoubleTwistKnot(5, -2)):
                    with pytest.raises(riley.NotUnimodular):
                        riley.riley_for_knot(knot, engine="generic")
                with pytest.raises(riley.NotUnimodular):
                    riley._unimodular_trace(KL_WORD_C)


def test_a_refused_peel_is_an_assertion(monkeypatch):
    # a palindromic row always peels at the wide width, so a peel that
    # refuses every row, at both widths, ends every build in AssertionError
    monkeypatch.setattr(polyring, "_peel", lambda a, w, basis: None)
    with pytest.raises(AssertionError):
        riley.riley_for_knot(TwoBridgeFraction(7, 3))


def _packed_r12(fraction: TwoBridgeFraction):
    return riley._relator_r12(word_from_signs(sign_sequence(fraction)))


def test_a_trace_slot_above_sigma_is_asymmetric():
    # the power route's values sit in z-rows of 2 sigma + 1 t-slots; a
    # nonzero slot above sigma, in any row, is a term of s-degree above
    # sigma with no mirror term, which the rewrite refuses before any
    # arithmetic (the corrupted digits in slots 0 .. sigma are
    # test_a_corrupted_relator_digit_is_caught's)
    w, _ = word_double_twist(DoubleTwistKnot(3, 2))
    _, (r12, z, y_norm) = riley._unimodular_trace(w, 1)
    sigma, rows = z.shift, 1 + max(j for _, j in z.unpack(r12))
    assert z.slots == 2 * sigma + 1 and rows > 1
    polyring.symmetric_rewrite(r12, z, y_norm)
    for row in range(rows):
        for slot in range(sigma + 1, z.slots):
            with pytest.raises(polyring.NotSymmetric):
                polyring.symmetric_rewrite(_bumped(r12, z, row, slot), z, y_norm)


def test_a_narrow_row_is_peeled_again_wider(monkeypatch):
    # p = (s**2 + 3 + s**-2)**10 = f(s + 1/s) for f = (x**2 + 1)**10, packed
    # as the SY entry packs it, one row, so that p is its own form in z:
    # its largest coefficient fits 3 bytes, but sum |f_i| 2**i = 5**10
    # needs 4, so the row is refused at 24 bits and peeled again at the
    # wide width
    x = XY.x()
    f = math.prod([x * x + 1] * 10, start=XY.one())
    p = to_sy(f)._terms
    packing = Packing.covering(20, 21, max(map(abs, p.values())))
    assert packing.nbytes == 3 and Packing.covering(0, 0, 5 ** 10).nbytes == 4
    value = pack(packing, p)
    peel, widths = polyring._peel, []

    def spy(a, w, basis):
        widths.append(w)
        return peel(a, w, basis)

    monkeypatch.setattr(polyring, "_peel", spy)
    rewritten = polyring.symmetric_rewrite(value, packing, max(map(abs, p.values())))
    assert rewritten == f
    assert widths[0] == 24 and widths[1] >= 32
    # d = T x**2 - (T + 1)**2 adds t**9 (t - T)(T t - 1) to s**20 f(s + 1/s),
    # which vanishes at t = T = 2**24: f + d is packed as the same integer
    # in 3-byte slots, and only the bound on sum |f_i| 2**i tells them apart
    t = 2 ** (8 * packing.nbytes)
    bad = f + t * x * x - (t + 1) ** 2
    assert sum(c << 24 * ((i + 20) // 2) for (i, _), c in to_sy(bad)._terms.items()) == value
    assert rewritten != bad


def test_a_refused_half_row_takes_the_wide_peel(monkeypatch):
    # phi = f (y - 1), f = (x**2 + 1)**10, read as the engine reads it:
    # psi = phi(t, z + 2) = f(s + 1/s) (z + 1) in z-slots sized for its
    # largest digit, 3 bytes, and phi's largest digit, the same, as its
    # y-norm, so the y-slots are as wide.  Both half-rows
    # shifted back to y are refused at 24 bits, as sum |f_i| 2**i = 5**10
    # needs 4 bytes, and peeled again at one wider width from their own
    # digits; the rewrite is phi, as the dict oracle has it
    x, y = XY.x(), XY.y()
    f = math.prod([x * x + 1] * 10, start=XY.one())
    phi, p = f * (y - 1), to_sy(f)._terms
    psi = {**p, **{(i, 1): c for (i, _), c in p.items()}}
    assert SY(psi) == substitute_y(to_sy(phi), SY.y() + 2)
    z = Packing.covering(20, 21, max(map(abs, psi.values())))
    assert z.nbytes == 3
    peel, widths = polyring._peel, []

    def spy(a, w, basis):
        widths.append(w)
        return peel(a, w, basis)

    monkeypatch.setattr(polyring, "_peel", spy)
    rewritten = polyring.symmetric_rewrite(pack(z, psi), z, max(map(abs, p.values())))
    assert rewritten == phi and to_sy(rewritten) == to_sy(phi)
    assert widths[:2] == [24, 24] and len(widths) == 4 and widths[2] == widths[3] >= 32


@pytest.mark.parametrize("slot", range(6), ids=["first", "second", "below-middle",
                                                "above-middle", "next-to-last", "last"])
@pytest.mark.parametrize("row", range(3), ids=["bottom", "middle", "top"])
def test_a_corrupted_relator_digit_is_caught(monkeypatch, slot, row):
    # one z-digit of the row-1 route's R12 off by one, anywhere but the
    # middle slot (which would keep p symmetric), in the bottom, middle or
    # top z-row: all taken from 27/11's packing, sigma + 1 slots a row
    r12, z, y_norm = _packed_r12(TwoBridgeFraction(27, 11))
    sigma, top = z.shift, max(j for _, j in z.unpack(r12))
    slot = [0, 1, sigma // 2 - 1, sigma // 2 + 1, sigma - 1, sigma][slot]
    row = [0, top // 2, top][row]
    bad = _bumped(r12, z, row, slot)
    monkeypatch.setattr(riley, "_relator_r12", lambda word: (bad, z, y_norm))
    with pytest.raises((polyring.NotSymmetric, AssertionError)):
        riley.riley_for_knot(TwoBridgeFraction(27, 11))
