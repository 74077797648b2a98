"""The dict oracle of the engine's word products: 2x2 matrices over
Z[s, 1/s, y] by dict polynomial arithmetic, the generator images, rho(w)
multiplied out one letter at a time, and the two rows of s**L rho(w) in
the form the engine's row loop (`riley._word_product`) holds them, as
{(s_exp, y_deg): coeff} term maps of SY entries, which the loop takes
at y = 2 + z (`in_z`); and the row loop as it first ran, each letter's
shifts made as it comes (`reference_word_product`)."""

from collections import namedtuple

from poly_oracle import SY, substitute_y

from rileycert.knots import Word
from rileycert.riley import generator_images


class PolyMatrix:
    """2x2 matrix over Z[s, 1/s, y] by dict polynomial arithmetic.  The
    program multiplies packed rows only (`riley._word_product`, one row
    vector times the letters); this is the tests' independent oracle."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: SY, e12: SY, e21: SY, e22: SY):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    @classmethod
    def identity(cls) -> "PolyMatrix":
        return cls(SY.one(), SY.zero(), SY.zero(), SY.one())

    def __matmul__(self, o: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.e11 * o.e11 + self.e12 * o.e21,
                          self.e11 * o.e12 + self.e12 * o.e22,
                          self.e21 * o.e11 + self.e22 * o.e21,
                          self.e21 * o.e12 + self.e22 * o.e22)

    def __sub__(self, o: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.e11 - o.e11, self.e12 - o.e12,
                          self.e21 - o.e21, self.e22 - o.e22)

    def det(self) -> SY:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> SY:
        return self.e11 + self.e22

    def adjugate(self) -> "PolyMatrix":
        """The inverse, when det = 1."""
        return PolyMatrix(self.e22, -self.e12, -self.e21, self.e11)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.e11 == other.e11 and self.e12 == other.e12
                and self.e21 == other.e21 and self.e22 == other.e22)

    def __hash__(self):
        return hash((self.e11, self.e12, self.e21, self.e22))

    def __repr__(self):
        return (f"PolyMatrix([{self.e11.to_text()!r}, {self.e12.to_text()!r}], "
                f"[{self.e21.to_text()!r}, {self.e22.to_text()!r}])")


Images = namedtuple("Images", "a b a_inv b_inv")


def images() -> Images:
    """The PolyMatrix images of a, b and their inverses (by adjugate),
    from the term maps of `riley.generator_images`."""
    a, b = (PolyMatrix(*(SY(dict(t)) for t in entries)) for entries in generator_images())
    return Images(a, b, a.adjugate(), b.adjugate())


def reference_evaluate_word(word: Word) -> PolyMatrix:
    """The ordered product of the generator images by dict polynomial
    arithmetic, one letter at a time: the engine before packing."""
    g = images()
    table = {"a": g.a, "A": g.a_inv, "b": g.b, "B": g.b_inv}
    result = PolyMatrix.identity()
    for ch in word.text:
        result = result @ table[ch]
    return result


def packed_rows(m: PolyMatrix, length: int) -> tuple[tuple[SY, SY], ...]:
    """Rows 1 and 2 of s**length * m as the row loop holds them:
    (M11, M12 / s) and (s M21, M22), each times s**length.  For a word of
    that length and m its matrix, every entry has even s-exponents in
    0 .. 2 * length: the t-slots 0 .. length of the row loop's integers."""
    return ((m.e11 * SY.s(length), m.e12 * SY.s(length - 1)),
            (m.e21 * SY.s(length + 1), m.e22 * SY.s(length)))


def in_z(entry: SY) -> SY:
    """An entry under y = 2 + z, as a polynomial in s and z (z in y's
    place): the form the row loop multiplies in."""
    return substitute_y(entry, SY.y() + 2)


def row_integer(entry: SY, b: int, zs: int) -> int:
    """The t-integer of an entry with even, nonnegative s-exponents at
    t = 2**b, z = 2**zs, y = 2 + z, as `riley._word_product` forms it."""
    return sum(c << b * (i // 2) + zs * j for i, j, c in in_z(entry).terms())


def reference_word_product(text: str, row: tuple[int, int], b: int, zs: int
                           ) -> tuple[int, int]:
    """row times the letters of text (any string over aAbB, reduced or
    not) at t = 2**b, z = 2**zs, each letter's shifts made as it comes:
    the eager row loop that `riley._word_product`, which defers them, must
    equal integer for integer."""
    c1, c2 = row
    for ch in text:
        if ch == "a":       # sA = [[t, s], [0, 1]]
            c2 += c1
            c1 <<= b
        elif ch == "A":     # sA^-1 = [[1, -s], [0, t]]
            c2 = (c2 << b) - c1
        elif ch == "b":     # sB = [[t, 0], [-z s, 1]]
            c1 = (c1 - (c2 << zs)) << b
        else:               # sB^-1 = [[1, 0], [z s, t]]
            c1 += c2 << b + zs
            c2 <<= b
    return c1, c2
