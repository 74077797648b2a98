"""Exact oracles on the package's polynomial and interval types that the
program itself does not need: rational evaluation, substitution in y, the
Laurent image f(s + 1/s, y), packing a term map, the rewrite of a dict
SYPoly, interval Horner on DyadicInterval objects, and the Fraction value
of a Dyadic."""

from fractions import Fraction

from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.polyring import Packing, SYPoly, XYPoly, symmetric_rewrite


def eval_fraction(p, u: Fraction, y: Fraction) -> Fraction:
    """Exact rational value of an XYPoly or SYPoly at (x or s, y) = (u, y)."""
    total = Fraction(0)
    for i, j, c in p.terms():
        total += c * u**i * y**j
    return total


def substitute_y(p: XYPoly, value) -> XYPoly:
    """Exact substitution y -> value (an XYPoly or int), Horner in y."""
    if isinstance(value, int):
        value = XYPoly.const(value)
    slices = p.y_slices()
    acc = XYPoly.zero()
    for j in range(max(slices, default=-1), -1, -1):
        acc = acc * value + slices.get(j, XYPoly.zero())
    return acc


def to_sy(f: XYPoly) -> SYPoly:
    """f(s + 1/s, y), exactly: Horner in x on s + 1/s."""
    x_image = SYPoly.from_terms([(1, 0, 1), (-1, 0, 1)])
    slices: dict[int, dict] = {}
    for i, j, c in f.terms():
        slices.setdefault(i, {})[(0, j)] = c
    acc = SYPoly.zero()
    for i in range(max(slices, default=0), -1, -1):
        acc = acc * x_image + SYPoly(slices.get(i, {}))
    return acc


def as_fraction(d: Dyadic) -> Fraction:
    """The exact value m * 2**e of a Dyadic."""
    return Fraction(d.m << d.e) if d.e >= 0 else Fraction(d.m, 1 << -d.e)


def contains_fraction(iv: DyadicInterval, fr: Fraction) -> bool:
    return as_fraction(iv.lo) <= fr <= as_fraction(iv.hi)


def contains_interval(outer: DyadicInterval, inner: DyadicInterval) -> bool:
    return (contains_fraction(outer, as_fraction(inner.lo))
            and contains_fraction(outer, as_fraction(inner.hi)))


def pack(packing: Packing, terms: dict) -> int:
    """The integer of a {(s_exp, y_deg): coeff} term map under `packing`,
    laid slot by slot: the inverse of `Packing.unpack`."""
    nb, half = packing.nbytes, 1 << (8 * packing.nbytes - 1)
    shift, slots = packing.shift, packing.slots
    count = max(((i + shift) // 2 + slots * j for i, j in terms), default=-1) + 1
    buf = bytearray(packing._empty() * count)
    for (i, j), c in terms.items():
        if (i + shift) % 2 or not 0 <= i + shift < 2 * slots:
            raise ValueError(f"s-exponent {i} outside the packing")
        k = ((i + shift) // 2 + slots * j) * nb
        buf[k:k + nb] = (c + half).to_bytes(nb, "little")
    return int.from_bytes(buf, "little") - int.from_bytes(packing._empty() * count, "little")


def rewrite_sy(p: SYPoly) -> XYPoly:
    """symmetric_rewrite of a dict SYPoly: each s-parity class packed in
    t = s**2 with shift its largest |s-exponent|, as the engine packs R12,
    and rewritten on its own."""
    terms: dict = {}
    for parity in (0, 1):
        part = {key: c for key, c in p._terms.items() if key[0] & 1 == parity}
        deg = max((abs(i) for i, _ in part), default=parity)
        packing = Packing.covering(deg, deg + 1, max(map(abs, part.values()), default=0))
        terms.update(symmetric_rewrite(pack(packing, part), packing)._terms)
    return XYPoly(terms)


def reference_eval_interval(p: XYPoly, x: DyadicInterval, y: DyadicInterval) -> DyadicInterval:
    """Horner in y then x on DyadicInterval objects: exact interval Horner.

    eval_interval must return exactly this interval at every point y; at an
    interval y it is the enclosure the witness tests use.
    """
    slices = {}
    for i, j, c in p.terms():
        slices.setdefault(i, {})[j] = c
    if not slices:
        return DyadicInterval.point(0)

    def horner_y(coeffs):
        acc = DyadicInterval.point(0)
        for j in range(max(coeffs), -1, -1):
            acc = acc * y + coeffs.get(j, 0)
        return acc

    acc = DyadicInterval.point(0)
    for i in range(max(slices), -1, -1):
        acc = acc * x
        if i in slices:
            acc = acc + horner_y(slices[i])
    return acc
