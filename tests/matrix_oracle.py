"""The dict oracle of the engine's word products: rho(w) multiplied out by
dict polynomial arithmetic, one letter at a time, and the two rows of
s**L rho(w) in the form the engine's row loop (`riley._word_product`)
holds them, as {(s_exp, y_deg): coeff} term maps of SYPoly entries."""

from rileycert.knots import Word
from rileycert.polyring import PolyMatrix, SYPoly
from rileycert.riley import generator_images


def reference_evaluate_word(word: Word) -> PolyMatrix:
    """The ordered product of the generator images by dict polynomial
    arithmetic, one letter at a time: the engine before packing."""
    images = generator_images()
    table = {("a", 1): images.a, ("a", -1): images.a_inv,
             ("b", 1): images.b, ("b", -1): images.b_inv}
    result = PolyMatrix.identity()
    for gen, exp in word.letters:
        factor = table[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            result = result @ factor
    return result


def packed_rows(m: PolyMatrix, length: int) -> tuple[tuple[SYPoly, SYPoly], ...]:
    """Rows 1 and 2 of s**length * m as the row loop holds them:
    (M11, M12 / s) and (s M21, M22), each times s**length.  For a word of
    that length and m its matrix, every entry has even s-exponents in
    0 .. 2 * length: the t-slots 0 .. length of the row loop's integers."""
    return ((m.e11 * SYPoly.s(length), m.e12 * SYPoly.s(length - 1)),
            (m.e21 * SYPoly.s(length + 1), m.e22 * SYPoly.s(length)))


def row_integer(entry: SYPoly, b: int, ys: int) -> int:
    """The t-integer of an entry with even, nonnegative s-exponents at
    t = 2**b, y = 2**ys, as `riley._word_product` forms it."""
    return sum(c << b * (i // 2) + ys * j for i, j, c in entry.terms())
