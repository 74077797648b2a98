"""The packed-integer word engine against the dict product it replaced."""

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert import polyring, riley
from rileycert.chebyshev import sl2_power
from rileycert.knots import (DoubleTwistKnot, TwoBridgeFraction, Word,
                             sign_sequence, word_double_twist, word_from_signs)
from rileycert.polyring import PackedMatrix, Packing, PolyMatrix, SYPoly, XYPoly
from rileycert.riley import evaluate_word, generator_images

from matrix_oracle import as_dict
from poly_oracle import to_sy


def reference_evaluate_word(word: Word) -> PolyMatrix:
    """The ordered product by dict polynomial arithmetic, one letter at a
    time: the engine before packing."""
    images = generator_images()
    table = {("a", 1): images.a, ("a", -1): images.a_inv,
             ("b", 1): images.b, ("b", -1): images.b_inv}
    result = PolyMatrix.identity()
    for gen, exp in word.letters:
        factor = table[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            result = result @ factor
    return result


def _entries(m: PolyMatrix):
    return (m.e11, m.e12, m.e21, m.e22)


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="aAbB", max_size=60))
@example("")
@example("b" * 40)
@example("B" * 40)
@example("a" * 40)
@example("A" * 40)
@example("bA" * 30)
def test_packed_word_equals_dict_product(text):
    word = Word.parse_text(text)
    packed = evaluate_word(word)
    assert isinstance(packed, PackedMatrix)
    assert as_dict(packed) == reference_evaluate_word(word)


def _assert_checkerboard(packed: PackedMatrix, oracle: PolyMatrix):
    # the oracle's diagonal s-exponents = shift and off-diagonal ones =
    # shift + 1 (mod 2): every entry has a t-slot, and equals its unpacking
    assert packed.packing.step == 2
    for k, entry in enumerate(_entries(oracle)):
        assert all((i - packed.packing.shift - (k in (1, 2))) % 2 == 0
                   for i, _, _ in entry.terms())
    assert as_dict(packed) == oracle


def _palindromic_word(half: list[bool]) -> Word:
    # a^e1 b^e2 ... with e_i = e_(p-i), as the relator word of p/q
    signs = [1 if up else -1 for up in half + half[::-1]]
    return Word.from_letters(("ab"[i % 2], e) for i, e in enumerate(signs))


# the dict oracle's cost grows steeply with letters * |m| (a 40-letter
# word to the 6th takes 10-30 s), so the two are drawn together: up to 40
# letters, up to |m| = 6, at most 80 letters in all
_WORDS_AND_POWERS = st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.one_of(st.text(alphabet="aAbB", max_size=min(40, 80 // m)).map(Word.parse_text),
              st.lists(st.booleans(), max_size=min(20, 40 // m)).map(_palindromic_word)),
    st.sampled_from((m, -m))))


@settings(max_examples=40, deadline=None)
@given(_WORDS_AND_POWERS)
@example((Word.parse_text("bAbaBa"), 6))
@example((word_from_signs(sign_sequence(TwoBridgeFraction(41, 15))), -2))
def test_packed_results_equal_the_dict_oracle(word_and_power):
    word, m = word_and_power
    images = generator_images()
    base, base_dict = evaluate_word(word), reference_evaluate_word(word)
    _assert_checkerboard(base, base_dict)
    if m < 0:
        base, base_dict = base.adjugate(), base_dict.adjugate()
    power, power_dict = sl2_power(base, abs(m)), base_dict
    for _ in range(abs(m) - 1):
        power_dict = power_dict @ base_dict
    _assert_checkerboard(power, power_dict)
    r = power_dict @ images.a - images.b @ power_dict
    if r.e22 != SYPoly.zero():
        with pytest.raises(riley.StructureViolation):
            riley.riley_generic(word, m)
    else:
        assert to_sy(riley.riley_generic(word, m).poly) == r.e12


def test_packed_entries_take_half_the_slots():
    # host-independent size check: in t = s**2 an entry of the 148-letter
    # word of 149/51 spans at most L + 2 slots per y-degree; packing in s
    # took 2L + 3
    v = evaluate_word(word_from_signs(sign_sequence(TwoBridgeFraction(149, 51))))
    letters, b = 148, 8 * v.packing.nbytes
    for value, entry in zip(v.packed, _entries(as_dict(v))):
        deg_y = max(j for _, j, _ in entry.terms())
        assert value.bit_length() <= b * (letters + 2) * (deg_y + 1)


@pytest.mark.parametrize("text", ["b" * 40, "B" * 40, "bA" * 30, "abAB" * 15,
                                  word_from_signs(sign_sequence(
                                      TwoBridgeFraction(151, 57))).to_text()])
def test_slots_cover_the_relator_bound(text):
    # the l1 recursion must bound the true norms: the slots hold 4 times
    # the largest entry norm, which R22 / t, the one value the structure
    # check compares, can reach; in t = s**2 the relator of L letters spans
    # t-slots 0 .. L
    m = evaluate_word(Word.parse_text(text))
    norm = max(sum(abs(c) for _, _, c in e.terms()) for e in _entries(as_dict(m)))
    assert 4 * norm < 2 ** (8 * m.packing.nbytes - 1)
    assert m.packing.slots == len(text) + 1


def test_unpack_borrows_across_adjacent_negative_slots():
    packing = Packing(shift=1, slots=4, nbytes=1)
    terms = {(-1, 0): -1, (0, 0): -1, (1, 0): -128, (2, 0): 127,
             (-1, 1): -1, (0, 1): 1, (2, 2): -3}
    value = packing.pack(terms)
    assert value == sum(c * 2 ** (8 * (i + 1 + 4 * j)) for (i, j), c in terms.items())
    assert packing.unpack(value) == terms
    assert packing.unpack(0) == {}
    with pytest.raises(ValueError):
        packing.pack({(3, 0): 1})


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 4)),
                       st.integers(-2 ** 15 + 1, 2 ** 15 - 1).filter(bool),
                       max_size=20))
def test_packing_round_trip(terms):
    packing = Packing.covering(3, 7, 2 ** 15 - 1)
    assert packing.nbytes == 2
    assert packing.unpack(packing.pack(terms)) == terms


def test_packed_adjugate_equals_dict_adjugate():
    w, _ = word_double_twist(DoubleTwistKnot(2, 2))
    plain = reference_evaluate_word(w)
    packed = evaluate_word(w)
    assert isinstance(packed.adjugate(), PackedMatrix)
    assert as_dict(packed.adjugate()) == plain.adjugate()


def test_structure_checks_read_the_packed_relator(monkeypatch):
    v = word_from_signs(sign_sequence(TwoBridgeFraction(7, 3)))
    good = evaluate_word(v)
    p11, p12, p21, p22 = good.packed
    # one more s**(1 - L) in V_21 or V_12 (t-slot 0 of the off-diagonal
    # integers) puts it into R_22 = V_21 - (2 - y) V_12
    for bad in ((p11, p12, p21 + 1, p22), (p11, p12 - 1, p21, p22)):
        monkeypatch.setattr(riley, "evaluate_word",
                            lambda word, bad=bad: PackedMatrix(bad, good.packing))
        with pytest.raises(riley.StructureViolation):
            riley.riley_generic(v)


def test_power_path_reads_only_packed_integers(monkeypatch):
    # riley_generic(w, m) reads the word's matrix once, as term maps under
    # its packing, and the one value read after that is phi: R12 under the
    # power's packing is never turned into terms
    w, _ = word_double_twist(DoubleTwistKnot(3, 2))
    word_packing = evaluate_word(w).packing
    closed = {m: riley.riley_double_twist(3, m).poly for m in (5, -5)}
    read, seen = Packing.read, []

    def spy(self, buf):
        seen.append(self)
        return read(self, buf)

    monkeypatch.setattr(Packing, "read", spy)
    for m in (5, -5):
        seen.clear()
        assert riley.riley_generic(w, m).poly == closed[m]
        # the double-twist word's entries have |s-exponent| <= 2, so the
        # power and R12 are packed with shift sigma = 5 * 2; phi = g(x**2)
        # is read in sigma / 2 + 1 u-slots, shift 0
        assert seen[:4] == list(word_packing.entries())
        assert [(pk.shift, pk.slots, pk.step) for pk in seen[4:]] == [(0, 6, 2)]


def test_structure_checks_read_the_packed_power(monkeypatch):
    w, _ = word_double_twist(DoubleTwistKnot(2, 2))
    good = sl2_power(evaluate_word(w), 4)
    p11, p12, p21, p22 = good.packed
    for bad in ((p11, p12, p21 + 1, p22), (p11, p12 - 1, p21, p22)):
        monkeypatch.setattr(riley, "sl2_power",
                            lambda base, n, bad=bad: PackedMatrix(bad, good.packing))
        with pytest.raises(riley.StructureViolation):
            riley.riley_generic(w, 4)


@pytest.mark.parametrize("k, m", [(1, 2), (3, 6), (6, -6), (10, 10)])
def test_power_slots_cover_the_relator_bound(k, m):
    # the Chebyshev norm recursion must bound the true norms of the power's
    # entries: the slots hold 4 times the largest of them, and span
    # t-slots 0 .. shift
    w, _ = word_double_twist(DoubleTwistKnot(k, 2))
    base = evaluate_word(w)
    power = sl2_power(base if m > 0 else base.adjugate(), abs(m))
    norm = max(sum(abs(c) for _, _, c in e.terms()) for e in _entries(as_dict(power)))
    assert 4 * norm < 2 ** (8 * power.packing.nbytes - 1)
    assert power.packing.shift == 2 * abs(m)
    assert power.packing.slots >= power.packing.shift + 1


def test_back_substitution_check_runs_on_every_build(monkeypatch):
    monkeypatch.setattr(polyring, "_substitutes_back", lambda f, value, packing: False)
    with pytest.raises(AssertionError):
        riley.riley_for_knot(TwoBridgeFraction(7, 3))


def _packed_r12(fraction: TwoBridgeFraction):
    v = evaluate_word(word_from_signs(sign_sequence(fraction)))
    return riley._relator(v)[1], v.packing


def _plus_one(f: dict, key) -> dict:
    return {**f, key: f.get(key, 0) + 1}


def test_back_substitution_check_bites():
    f = riley.riley_for_knot(TwoBridgeFraction(27, 11)).poly._terms
    r12, packing = _packed_r12(TwoBridgeFraction(27, 11))
    assert polyring._substitutes_back(f, r12, packing)
    for key in list(f)[::7]:
        assert not polyring._substitutes_back(_plus_one(f, key), r12, packing)
    # terms beyond the x-degree of f, off its parity or beyond the
    # y-degree of p count too: sigma = 26 here
    deg_x = max(i for i, _ in f)
    for key in ((deg_x + 2, 0), (deg_x + 3, 0), (1, 0), (0, 40)):
        assert not polyring._substitutes_back(_plus_one(f, key), r12, packing)
    assert not polyring._substitutes_back(f, r12 + packing.pack({(0, 40): 1}), packing)


def test_back_substitution_check_relays_narrow_slots():
    # p = (s**2 + 3 + s**-2)**10 = f(s + 1/s) for f = (x**2 + 1)**10, packed
    # as the SYPoly entry packs it: its largest coefficient fits 3 bytes,
    # but sum |f_i| 2**i = 5**10 needs 4, so the check re-lays p's slots
    x = XYPoly.x()
    f = ((x * x + 1) ** 10)._terms
    p = to_sy(XYPoly(f))._terms
    packing = Packing.covering(20, 21, max(map(abs, p.values())), 2)
    assert packing.nbytes == 3 and Packing.covering(0, 0, 5 ** 10).nbytes == 4
    value = packing.pack(p)
    assert polyring._substitutes_back(f, value, packing)
    assert polyring.symmetric_rewrite(value, packing) == XYPoly(f)
    for key in f:
        assert not polyring._substitutes_back(_plus_one(f, key), value, packing)
    # d = T x**2 - (T + 1)**2 adds t**9 (t - T)(T t - 1) to s**20 f(s + 1/s),
    # which vanishes at t = T = 2**24: only wider slots tell f + d from f
    t = 2 ** (8 * packing.nbytes)
    bad = {**f, (2, 0): f[(2, 0)] + t, (0, 0): f[(0, 0)] - (t + 1) ** 2}
    assert not polyring._substitutes_back(bad, value, packing)


@pytest.mark.parametrize("slot", [0, 1, 12, 14, 25, 26])
@pytest.mark.parametrize("row", [0, 6, 13])
def test_a_corrupted_relator_digit_is_caught(monkeypatch, slot, row):
    # one digit of R12 off by one on the engine path, anywhere but the
    # middle slot (which would keep p symmetric): 27/11 has sigma = 26 and
    # R12 of y-degree 13
    r12, packing = _packed_r12(TwoBridgeFraction(27, 11))
    bad = r12 + (1 << 8 * packing.nbytes * (slot + packing.slots * row))
    relator = riley._relator
    monkeypatch.setattr(riley, "_relator", lambda v: (relator(v)[0], bad))
    with pytest.raises((polyring.NotSymmetric, AssertionError)):
        riley.riley_for_knot(TwoBridgeFraction(27, 11))
