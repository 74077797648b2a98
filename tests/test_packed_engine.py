"""The packed-integer word engine against the dict product it replaced."""

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert import polyring, riley
from rileycert.chebyshev import sl2_power
from rileycert.knots import (DoubleTwistKnot, TwoBridgeFraction, Word,
                             sign_sequence, word_double_twist, word_from_signs)
from rileycert.polyring import Packing, PolyMatrix, SYPoly, XYPoly
from rileycert.riley import PackedMatrix, evaluate_word, generator_images


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
    assert isinstance(packed, PolyMatrix)
    assert _entries(packed) == _entries(reference_evaluate_word(word))


@pytest.mark.parametrize("text", ["b" * 40, "B" * 40, "bA" * 30, "abAB" * 15,
                                  word_from_signs(sign_sequence(
                                      TwoBridgeFraction(151, 57))).to_text()])
def test_slots_cover_the_relator_bound(text):
    # the l1 recursion must bound the true norms: the slots hold 14 times
    # the largest entry norm, which R21 - (y - 2) R12 can reach
    m = evaluate_word(Word.parse_text(text))
    norm = max(sum(abs(c) for _, _, c in e.terms()) for e in _entries(m))
    assert 14 * norm < 2 ** (8 * m.packing.nbytes - 1)
    assert m.packing.slots == 2 * len(text) + 3


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
    assert _entries(packed.adjugate()) == _entries(plain.adjugate())


def test_structure_checks_read_the_packed_relator(monkeypatch):
    v = word_from_signs(sign_sequence(TwoBridgeFraction(7, 3)))
    good = evaluate_word(v)
    p11, p12, p21, p22 = good.packed
    # one more s**-L in V_21 or V_12 puts it into R_22 = V_21 - (2 - y) V_12
    for bad in ((p11, p12, p21 + 1, p22), (p11, p12 - 1, p21, p22)):
        monkeypatch.setattr(riley, "evaluate_word",
                            lambda word, bad=bad: PackedMatrix(bad, good.packing))
        with pytest.raises(riley.StructureViolation):
            riley.riley_generic(v)


def test_power_path_reads_only_packed_integers(monkeypatch):
    # riley_generic(w, m) builds no SYPoly entry of the word's matrix or of
    # its power: the base is read once as term maps under the word's
    # packing, and the one value unpacked under the power's packing is R12
    w, _ = word_double_twist(DoubleTwistKnot(3, 2))
    word_packing = evaluate_word(w).packing
    closed = {m: riley.riley_double_twist(3, m).poly for m in (5, -5)}

    def no_entry(self, k):
        raise AssertionError("an entry of a PackedMatrix was unpacked")

    unpack, seen = Packing.unpack, []

    def spy(self, value):
        seen.append(self)
        return unpack(self, value)

    monkeypatch.setattr(PackedMatrix, "_entry", no_entry)
    monkeypatch.setattr(Packing, "unpack", spy)
    for m in (5, -5):
        seen.clear()
        assert riley.riley_generic(w, m).poly == closed[m]
        # the double-twist word's entries have |s-exponent| <= 2, so the
        # power is packed with shift 5 * 2 and R12 with one more
        assert seen[:4] == [word_packing] * 4
        assert [pk.shift for pk in seen[4:]] == [11]


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
    # entries: the slots hold 14 times the largest of them, and span
    # s-exponents -shift .. shift + 2
    w, _ = word_double_twist(DoubleTwistKnot(k, 2))
    base = evaluate_word(w)
    power = sl2_power(base if m > 0 else base.adjugate(), abs(m))
    norm = max(sum(abs(c) for _, _, c in e.terms()) for e in _entries(power))
    assert 14 * norm < 2 ** (8 * power.packing.nbytes - 1)
    assert power.packing.shift == 2 * abs(m)
    assert power.packing.slots >= 2 * power.packing.shift + 3


def test_back_substitution_check_runs_on_every_build(monkeypatch):
    monkeypatch.setattr(polyring, "_substitutes_back", lambda f, p: False)
    with pytest.raises(AssertionError):
        riley.riley_for_knot(TwoBridgeFraction(7, 3))


def test_back_substitution_check_bites():
    f = riley.riley_for_knot(TwoBridgeFraction(27, 11)).poly
    p = f.to_sy()
    assert polyring._substitutes_back(f, p)
    for i, j, _ in list(f.terms())[::7]:
        assert not polyring._substitutes_back(f + XYPoly.from_terms([(i, j, 1)]), p)
    # terms beyond the x-degree of f or the y-degree of p count too
    deg_x = f.deg_x()
    assert not polyring._substitutes_back(f + XYPoly.from_terms([(deg_x + 3, 0, 1)]), p)
    assert not polyring._substitutes_back(f, p + SYPoly.from_terms([(0, 40, 1)]))
