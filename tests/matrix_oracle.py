"""Conversions between the engine's matrices, four {(s_exp, y_deg): coeff}
term maps, and the dict PolyMatrix that the tests multiply and compare as
an independent oracle."""

from rileycert.polyring import PolyMatrix, SYPoly


def as_dict(maps: tuple[dict, dict, dict, dict]) -> PolyMatrix:
    """The dict matrix with the entries of these term maps."""
    return PolyMatrix(*(SYPoly(t) for t in maps))


def as_maps(m: PolyMatrix) -> tuple[dict, dict, dict, dict]:
    """The term maps of m's entries, as `riley.evaluate_word` returns them
    and `riley._unimodular_trace` takes them."""
    return (m.e11._terms, m.e12._terms, m.e21._terms, m.e22._terms)
