"""Conversions between the engine's matrices, four {(s_exp, y_deg): coeff}
term maps, and the dict PolyMatrix that the tests multiply and compare as
an independent oracle."""

from rileycert.polyring import Packing, PolyMatrix, SYPoly


def as_dict(maps: tuple[dict, dict, dict, dict]) -> PolyMatrix:
    """The dict matrix with the entries of these term maps."""
    return PolyMatrix(*(SYPoly(t) for t in maps))


def as_maps(m: PolyMatrix) -> tuple[dict, dict, dict, dict]:
    """The term maps of m's entries, as `riley.evaluate_word` returns them
    and `chebyshev.sl2_power` takes them."""
    return (m.e11._terms, m.e12._terms, m.e21._terms, m.e22._terms)


def adjugate(maps: tuple[dict, dict, dict, dict]) -> tuple[dict, dict, dict, dict]:
    """The term maps of the dict oracle's adjugate: the inverse, when det = 1."""
    return as_maps(as_dict(maps).adjugate())


def row_one_as_dict(row: tuple[int, int, Packing]) -> tuple[SYPoly, SYPoly]:
    """(M11, M12) of the row 1 that `chebyshev.sl2_power` returns: its two
    packed integers, M11 and M12 / s, and their packing."""
    q11, q12, packing = row
    return tuple(SYPoly(p.unpack(v)) for p, v in zip(packing.entries(), (q11, q12)))
