"""Conversions between the engine's PackedMatrix and the dict PolyMatrix
that the tests multiply and compare as an independent oracle."""

from rileycert.polyring import PackedMatrix, Packing, PolyMatrix, SYPoly


def as_dict(m: PackedMatrix) -> PolyMatrix:
    """The dict matrix with the entries m packs."""
    return PolyMatrix(*(SYPoly(t) for t in m.term_maps()))


def as_packed(m: PolyMatrix) -> PackedMatrix:
    """m packed in t = s**2 with shift e, the largest |s-exponent| of a
    diagonal entry and one more than that of an off-diagonal one: the
    smallest shift that gives every entry a t-slot.  ValueError when m is
    not checkerboard, since then some entry has no t-slot."""
    maps = (m.e11._terms, m.e12._terms, m.e21._terms, m.e22._terms)
    e = max((abs(i) + d for t, d in zip(maps, (0, 1, 1, 0)) for i, _ in t), default=0)
    packing = PackedMatrix.packing_for(e, max(sum(map(abs, t.values())) for t in maps))
    return PackedMatrix(tuple(p.pack(t) for p, t in zip(packing.entries(), maps)), packing)


def row_one_as_dict(row: tuple[int, int, Packing]) -> tuple[SYPoly, SYPoly]:
    """(M11, M12) of the row 1 that `chebyshev.sl2_power` returns: its two
    packed integers, M11 and M12 / s, and their packing."""
    q11, q12, packing = row
    return tuple(SYPoly(p.unpack(v)) for p, v in zip(packing.entries(), (q11, q12)))
