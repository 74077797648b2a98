"""Exact oracles on the package's polynomial and interval types that the
program itself does not need: the dict polynomial algebra (XY on Z[x, y],
SY on the Laurent ring Z[s, 1/s, y]), rational evaluation, substitution in
y, the Laurent image f(s + 1/s, y), packing a term map and unpacking it
slot by slot, the rewrite of a dict SY, interval Horner on DyadicInterval
objects, in x and in u = x**2, and the Fraction value of a Dyadic.

The package builds every polynomial on packed integers and its XYPoly has
no arithmetic; XY and SY carry the + - * operators of term-dict
arithmetic, one product term by term, so they are independent of the
packed engine that the tests compare them with."""

from fractions import Fraction

from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.polyring import Packing, XYPoly, _SparsePoly, symmetric_rewrite


def _merge(a: dict, b: dict, bsign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        out[key] = bsign * c + out.get(key, 0)
    return {key: c for key, c in out.items() if c}


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


class _Ring:
    """The ring operators on a term-map class; an int, or a value of the
    class's `_base` (the package's XYPoly for XY), mixes in as a constant
    or as itself, and compares equal by its terms."""

    __slots__ = ()

    @classmethod
    def of(cls, p):
        """p, a value of the class's base, as a ring element."""
        return cls(dict(p._terms))

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int):
        return cls({(0, 0): c} if c else {})

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).const(other)
        if isinstance(other, self._base):
            return other
        raise TypeError(f"cannot mix {type(self).__name__} with {type(other).__name__}")

    def __eq__(self, other):
        if not isinstance(other, (int, self._base)):
            return NotImplemented
        return self._terms == self._coerce(other)._terms

    def __hash__(self):
        return hash((self._base.__name__, tuple(self.terms())))

    def __add__(self, other):
        return type(self)(_merge(self._terms, self._coerce(other)._terms))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(_merge(self._terms, self._coerce(other)._terms, -1))

    def __rsub__(self, other):
        return type(self)(_merge(self._coerce(other)._terms, self._terms, -1))

    def __neg__(self):
        return type(self)({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return type(self)({key: other * c for key, c in self._terms.items()} if other else {})
        return type(self)(_product(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__


class XY(_Ring, XYPoly):
    """Z[x, y] with the dict ring operators; equal to the XYPoly of the
    same terms."""

    __slots__ = ()
    _base = XYPoly

    @classmethod
    def x(cls) -> "XY":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "XY":
        return cls({(0, 1): 1})


class SY(_Ring, _SparsePoly):
    """Z[s, 1/s, y] with the dict ring operators; the s-exponent may be
    negative."""

    __slots__ = ()

    @classmethod
    def from_terms(cls, items) -> "SY":
        """Build from (s_exp, y_deg, coeff) triples, summing duplicates; the
        s-exponent may be negative."""
        terms: dict = {}
        for i, j, c in items:
            if j < 0:
                raise ValueError(f"negative y-exponent {j}")
            terms[(i, j)] = terms.get((i, j), 0) + c
        return cls({key: c for key, c in terms.items() if c})

    def to_text(self) -> str:
        """Canonical text: one `coeff * s^i * y^j` per line, sorted."""
        if not self._terms:
            return "0"
        return "\n".join(f"{c} * s^{i} * y^{j}" for i, j, c in self.terms())

    @classmethod
    def s(cls, exp: int = 1) -> "SY":
        return cls({(exp, 0): 1})

    @classmethod
    def y(cls) -> "SY":
        return cls({(0, 1): 1})

    def is_symmetric(self) -> bool:
        """Invariant under s -> 1/s."""
        return self._terms == {(-i, j): c for (i, j), c in self._terms.items()}


SY._base = SY


def y_slices(p: XYPoly) -> dict[int, XY]:
    """y_deg -> the coefficient of y**y_deg, a polynomial in x."""
    out: dict[int, dict] = {}
    for (i, j), c in p._terms.items():
        out.setdefault(j, {})[(i, 0)] = c
    return {j: XY(t) for j, t in out.items()}


def eval_fraction(p, u: Fraction, y: Fraction) -> Fraction:
    """Exact rational value of an XYPoly or SY at (x or s, y) = (u, y)."""
    total = Fraction(0)
    for i, j, c in p.terms():
        total += c * u**i * y**j
    return total


def substitute_y(p, value):
    """Exact substitution y -> value, Horner in y: an XY for an XYPoly,
    an SY for an SY, value an int or a polynomial of that ring."""
    ring = SY if isinstance(p, SY) else XY
    slices: dict[int, dict] = {}
    for (i, j), c in p._terms.items():
        slices.setdefault(j, {})[(i, 0)] = c
    acc = ring.zero()
    for j in range(max(slices, default=-1), -1, -1):
        acc = acc * value + ring(slices.get(j, {}))
    return acc


def to_sy(f: XYPoly) -> SY:
    """f(s + 1/s, y), exactly: Horner in x on s + 1/s."""
    x_image = SY.from_terms([(1, 0, 1), (-1, 0, 1)])
    slices: dict[int, dict] = {}
    for i, j, c in f.terms():
        slices.setdefault(i, {})[(0, j)] = c
    acc = SY.zero()
    for i in range(max(slices, default=0), -1, -1):
        acc = acc * x_image + SY(slices.get(i, {}))
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


def reference_unpack(packing: Packing, value: int) -> dict:
    """`Packing.unpack` as one Python step per slot: a slice, a divmod for
    the slot's place and the bias taken off each nonempty digit."""
    buf, nb, empty = packing.slot_bytes(value), packing.nbytes, packing._empty()
    half, shift, slots = 1 << (8 * nb - 1), packing.shift, packing.slots
    terms = {}
    for k in range(0, len(buf), nb):
        chunk = buf[k:k + nb]
        if chunk != empty:
            j, i = divmod(k // nb, slots)
            terms[(2 * i - shift, j)] = int.from_bytes(chunk, "little") - half
    return terms


def rewrite_sy(p: SY) -> XYPoly:
    """symmetric_rewrite of a dict SY in y: each s-parity class taken to
    z = y - 2 by `substitute_y` and packed in t = s**2 with shift its
    largest |s-exponent|, as the engine packs R12 in z, in slots as wide as
    the class's digits in z need, and rewritten on its own, with its
    largest digit in y as the rewrite's y-norm."""
    terms: dict = {}
    for parity in (0, 1):
        part = SY({key: c for key, c in p._terms.items() if key[0] & 1 == parity})
        psi = substitute_y(part, SY.y() + 2)._terms
        deg = max((abs(i) for i, _ in part._terms), default=parity)
        z = Packing.covering(deg, deg + 1, max(map(abs, psi.values()), default=0))
        y_norm = max(map(abs, part._terms.values()), default=0)
        terms.update(symmetric_rewrite(pack(z, psi), z, y_norm)._terms)
    return XYPoly(terms)


def _interval_times(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]
                    ) -> tuple[Fraction, Fraction]:
    """[a0, a1] * [b0, b1]: the least and the greatest of the four
    products of ends, for ends of any sign."""
    products = [u * v for u in a for v in b]
    return min(products), max(products)


def _interval_horner(coeffs: dict, v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """sum_k coeffs[k] v**k by Horner, every value an interval (lo, hi)."""
    lo = hi = Fraction(0)
    for k in range(max(coeffs, default=0), -1, -1):
        lo, hi = _interval_times((lo, hi), v)
        c_lo, c_hi = coeffs.get(k, (0, 0))
        lo, hi = lo + c_lo, hi + c_hi
    return lo, hi


def _to_dyadic(value: Fraction) -> Dyadic:
    """A dyadic rational as a Dyadic, exactly."""
    den = value.denominator
    assert den & (den - 1) == 0, value
    return Dyadic(value.numerator, 1 - den.bit_length())


def reference_eval_interval(p: XYPoly, x: DyadicInterval, y: DyadicInterval) -> DyadicInterval:
    """Horner in y then x on Fraction endpoints: exact interval Horner,
    with none of the package's interval arithmetic.  x and y may have ends
    of any sign, and y may be an interval; the ends of the result are
    dyadic, as those of x and y are, and come back as a DyadicInterval.

    eval_interval must return exactly this interval at every point y; at an
    interval y it is the enclosure the witness tests use.
    """
    slices: dict = {}
    for i, j, c in p.terms():
        slices.setdefault(i, {})[j] = (c, c)
    xs, ys = ((as_fraction(iv.lo), as_fraction(iv.hi)) for iv in (x, y))
    lo, hi = _interval_horner({i: _interval_horner(row, ys) for i, row in slices.items()}, xs)
    return DyadicInterval(_to_dyadic(lo), _to_dyadic(hi))


def _interval_squares(v: tuple[Fraction, Fraction]) -> tuple[Fraction, Fraction]:
    """The exact range of w**2 for w in [v0, v1]."""
    ends = sorted((v[0] * v[0], v[1] * v[1]))
    return (Fraction(0) if v[0] <= 0 <= v[1] else ends[0]), ends[1]


def reference_eval_interval_u(p: XYPoly, x: DyadicInterval, y: DyadicInterval) -> DyadicInterval:
    """Horner in y, then b(x) = E(u) + x O(u), u = x**2, on Fraction
    endpoints: exact interval Horner of E in u over the exact range
    {v**2 : v in x}, plus x times that of O.  x and y may have ends of any
    sign, and y may be an interval.

    eval_interval without a modulus must return exactly this interval at
    every point y; for an even p and x within [0, oo) it is the interval of
    `reference_eval_interval` (Horner in x), as two products by a
    nonnegative [a, b] are one product by [a**2, b**2].
    """
    slices: dict = {}
    for i, j, c in p.terms():
        slices.setdefault(i, {})[j] = (c, c)
    xs, ys = ((as_fraction(iv.lo), as_fraction(iv.hi)) for iv in (x, y))
    b = {i: _interval_horner(row, ys) for i, row in slices.items()}
    us = _interval_squares(xs)
    lo, hi = _interval_horner({i // 2: c for i, c in b.items() if i % 2 == 0}, us)
    odd = _interval_horner({i // 2: c for i, c in b.items() if i % 2}, us)
    x_odd = _interval_times(odd, xs)
    return DyadicInterval(_to_dyadic(lo + x_odd[0]), _to_dyadic(hi + x_odd[1]))
