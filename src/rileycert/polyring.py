"""Exact sparse polynomial rings: Z[x,y] and the Laurent ring Z[s,1/s,y].

Every value is immutable after construction and every operation is pure.
Canonical term order everywhere (serialization, hashing, iteration) is
(degree-in-y, degree-in-x/exponent-of-s) ascending.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dyadic import Dyadic, DyadicInterval


class NotSymmetric(ValueError):
    """A Laurent polynomial expected to be invariant under s -> 1/s is not."""


class ZeroPolynomial(ValueError):
    """Operation undefined on the zero polynomial."""


def _merge(a: dict, b: dict, bsign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        c = bsign * c + out.get(key, 0)
        if c:
            out[key] = c
        else:
            out.pop(key, None)
    return out


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            c = out.get(key, 0) + c1 * c2
            if c:
                out[key] = c
            else:
                del out[key]
    return out


class _SparsePoly:
    """Shared arithmetic over {(first_exp, y_deg): int} term maps."""

    __slots__ = ("_terms",)
    _first_symbol = "?"
    _first_nonneg = True

    def __init__(self, terms: dict):
        # internal: callers hand over ownership of an already-clean dict
        self._terms = terms

    @classmethod
    def from_terms(cls, items: Iterable[tuple[int, int, int]]):
        """Build from (first_exp, y_deg, coeff) triples, summing duplicates."""
        terms: dict = {}
        for i, j, c in items:
            if cls._first_nonneg and i < 0:
                raise ValueError(f"negative {cls._first_symbol}-exponent {i}")
            if j < 0:
                raise ValueError(f"negative y-exponent {j}")
            key = (i, j)
            c = terms.get(key, 0) + c
            if c:
                terms[key] = c
            else:
                terms.pop(key, None)
        return cls(terms)

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c: int):
        return cls({(0, 0): c} if c else {})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({(0, 0): other} if other else {})
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash((type(self).__name__, tuple(self.terms())))

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """(first_exp, y_deg, coeff) in canonical (y_deg, first_exp) order."""
        for (i, j) in sorted(self._terms, key=lambda key: (key[1], key[0])):
            yield i, j, self._terms[(i, j)]

    def _coerce(self, other):
        if isinstance(other, int):
            return type(self).const(other)
        if type(other) is type(self):
            return other
        raise TypeError(f"cannot mix {type(self).__name__} with {type(other).__name__}")

    def __add__(self, other):
        return type(self)(_merge(self._terms, self._coerce(other)._terms))

    __radd__ = __add__

    def __sub__(self, other):
        return type(self)(_merge(self._terms, self._coerce(other)._terms, -1))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return type(self)({key: -c for key, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return type(self).zero()
            return type(self)({key: other * c for key, c in self._terms.items()})
        return type(self)(_product(self._terms, self._coerce(other)._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = type(self).one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def to_text(self) -> str:
        """Canonical text: one `coeff * sym^i * y^j` per line, sorted."""
        if not self._terms:
            return "0"
        sym = self._first_symbol
        return "\n".join(f"{c} * {sym}^{i} * y^{j}" for i, j, c in self.terms())

    @classmethod
    def parse_text(cls, text: str):
        text = text.strip()
        if text == "0":
            return cls.zero()
        items = []
        for line in text.splitlines():
            coeff_part, x_part, y_part = (piece.strip() for piece in line.split("*"))
            items.append((int(x_part.split("^")[1]), int(y_part.split("^")[1]),
                          int(coeff_part)))
        return cls.from_terms(items)

    def triples(self) -> list[list]:
        """Structured form: [first_exp, y_deg, "coeff"] triples, canonical order."""
        return [[i, j, str(c)] for i, j, c in self.terms()]

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence]):
        return cls.from_terms((int(i), int(j), int(c)) for i, j, c in triples)

    def eval_fraction(self, u: Fraction, y: Fraction) -> Fraction:
        """Exact rational value at (x or s, y) = (u, y): the oracle for
        interval evaluation."""
        total = Fraction(0)
        for i, j, c in self.terms():
            total += c * u**i * y**j
        return total

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


class XYPoly(_SparsePoly):
    """Element of Z[x, y]; exponents of both variables are nonnegative."""

    __slots__ = ()
    _first_symbol = "x"
    _first_nonneg = True

    @classmethod
    def x(cls) -> "XYPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "XYPoly":
        return cls({(0, 1): 1})

    def deg_y(self) -> int:
        return max((j for (_, j) in self._terms), default=0)

    def deg_x(self) -> int:
        return max((i for (i, _) in self._terms), default=0)

    def y_slices(self) -> dict[int, "XYPoly"]:
        """y_deg -> coefficient polynomial in x."""
        out: dict[int, dict] = {}
        for (i, j), c in self._terms.items():
            out.setdefault(j, {})[(i, 0)] = c
        return {j: XYPoly(t) for j, t in out.items()}

    def substitute_y(self, value) -> "XYPoly":
        """Exact substitution y -> value (an XYPoly or int), Horner in y."""
        if isinstance(value, int):
            value = XYPoly.const(value)
        slices = self.y_slices()
        if not slices:
            return XYPoly.zero()
        acc = XYPoly.zero()
        for j in range(max(slices), -1, -1):
            acc = acc * value + slices.get(j, XYPoly.zero())
        return acc

    def diff_y(self) -> "XYPoly":
        return XYPoly({(i, j - 1): c * j for (i, j), c in self._terms.items() if j})

    def to_sy(self) -> "SYPoly":
        """Substitute x -> s + 1/s, exactly."""
        x_image = SYPoly({(1, 0): 1, (-1, 0): 1})
        slices: dict[int, dict] = {}
        for (i, j), c in self._terms.items():
            slices.setdefault(i, {})[(0, j)] = c
        acc = SYPoly.zero()
        for i in range(max(slices, default=0), -1, -1):
            acc = acc * x_image + SYPoly(slices.get(i, {}))
        return acc


class SYPoly(_SparsePoly):
    """Element of Z[s, 1/s, y]; the s-exponent may be negative."""

    __slots__ = ()
    _first_symbol = "s"
    _first_nonneg = False

    @classmethod
    def s(cls, exp: int = 1) -> "SYPoly":
        return cls({(exp, 0): 1})

    @classmethod
    def y(cls) -> "SYPoly":
        return cls({(0, 1): 1})

    def invert_s(self) -> "SYPoly":
        return SYPoly({(-i, j): c for (i, j), c in self._terms.items()})

    def is_symmetric(self) -> bool:
        return self._terms == self.invert_s()._terms


def symmetric_rewrite(p: SYPoly) -> XYPoly:
    """Rewrite an s <-> 1/s symmetric Laurent polynomial as f(x, y), x = s + 1/s.

    Uses the basis p_0 = 2, p_1 = x, p_k = x*p_{k-1} - p_{k-2} representing
    s^k + s^-k; the defining identity f(s + 1/s, y) = p is re-verified after
    the rewrite as insurance against exponent bookkeeping mistakes.
    """
    if not p.is_symmetric():
        raise NotSymmetric("polynomial is not invariant under s -> 1/s")
    max_k = max((abs(i) for i, _ in p._terms), default=0)
    # p_k(x) for k = 0..max_k, as {x_deg: coeff}
    basis = [{0: 2}, {1: 1}]
    while len(basis) <= max_k:
        nxt = {i + 1: c for i, c in basis[-1].items()}
        for i, c in basis[-2].items():
            nxt[i] = nxt.get(i, 0) - c
        basis.append(nxt)
    terms: dict = {}
    for (k, j), c in p._terms.items():
        if k < 0:
            continue  # mirrored term is carried by its k > 0 partner
        for i, b in (basis[k].items() if k else ((0, 1),)):
            terms[(i, j)] = terms.get((i, j), 0) + b * c
    result = XYPoly({key: c for key, c in terms.items() if c})
    if not _substitutes_back(result, p):
        raise AssertionError("symmetric rewrite failed back-substitution check")
    return result


def _substitutes_back(f: XYPoly, p: SYPoly) -> bool:
    """f(s + 1/s, y) == p, one y-degree at a time on packed integers.

    With deg covering deg_x(f) and every |s-exponent| of p, slice j of
    s**deg * f(s + 1/s, y) is Horner in s + 1/s,
    A -> A * (s**2 + 1) + s**(deg - i) * f_ij: two shifts and two adds per
    x-degree.  An l1 recursion run first (each step at most doubles the
    norm) sizes the slots for the difference with slice j of s**deg * p.
    """
    deg = max(f.deg_x(), max((abs(i) for i, _ in p._terms), default=0))
    f_rows: dict[int, dict[int, int]] = {}
    for (i, j), c in f._terms.items():
        f_rows.setdefault(j, {})[i] = c
    p_rows: dict[int, dict] = {}
    for (i, j), c in p._terms.items():
        p_rows.setdefault(j, {})[(i, 0)] = c
    bound = 0
    for j in f_rows.keys() | p_rows.keys():
        row, norm = f_rows.get(j, {}), 0
        for i in range(deg, -1, -1):
            norm = 2 * norm + abs(row.get(i, 0))
        bound = max(bound, norm + sum(abs(c) for c in p_rows.get(j, {}).values()))
    packing = Packing.covering(deg, 2 * deg + 1, bound)
    b = 8 * packing.nbytes
    for j in f_rows.keys() | p_rows.keys():
        row, acc = f_rows.get(j, {}), 0
        for i in range(deg, -1, -1):
            acc += acc << 2 * b
            if i in row:
                acc += row[i] << b * (deg - i)
        if acc != packing.pack(p_rows.get(j, {})):
            return False
    return True


class Packing(NamedTuple):
    """Kronecker substitution s -> 2**(8*nbytes), y -> 2**(8*nbytes*slots).

    A term c * s**i * y**j sits in slot (i + shift) + slots * j, so the
    packed integer is s**shift * poly evaluated at those powers of two.  Slot
    digits are signed: packing is faithful (and `unpack` its inverse) for
    polynomials whose s-exponents lie in [-shift, slots - 1 - shift] and
    whose coefficients are below 2**(8*nbytes - 1) in magnitude.  Integer
    arithmetic on packed values is polynomial arithmetic at that point, so
    only a value that is unpacked or compared must meet these bounds, not
    the steps that made it.
    """

    shift: int
    slots: int
    nbytes: int

    @classmethod
    def covering(cls, shift: int, slots: int, bound: int) -> "Packing":
        """Slots wide enough for every coefficient of magnitude <= bound."""
        return cls(shift, slots, (bound.bit_length() + 8) // 8)

    def _empty(self) -> bytes:
        """One slot holding 0 once half a slot is added: the bias that
        makes every signed digit a nonnegative one."""
        return bytes(self.nbytes - 1) + b"\x80"

    def pack(self, terms: dict) -> int:
        """The integer of a {(s_exp, y_deg): coeff} term map."""
        nb, half = self.nbytes, 1 << (8 * self.nbytes - 1)
        shift, slots = self.shift, self.slots
        count = max((i + shift + slots * j for i, j in terms), default=-1) + 1
        buf = bytearray(self._empty() * count)
        for (i, j), c in terms.items():
            if not 0 <= i + shift < slots:
                raise ValueError(f"s-exponent {i} outside the packing")
            k = (i + shift + slots * j) * nb
            buf[k:k + nb] = (c + half).to_bytes(nb, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(self._empty() * count, "little")

    def multiplier(self, terms: dict) -> list[tuple[int, int]]:
        """The (bit shift, coeff) pairs of s**shift * poly for the term map
        of poly, each shift being where `pack` puts that term: a packed
        value times s**shift * poly is the sum of coeff * (value << shift)
        over the pairs, which `_times` forms.  s**shift * poly must have no
        negative s-exponent."""
        b = 8 * self.nbytes
        shift, slots = self.shift, self.slots
        return [(b * (i + shift + slots * j), c) for (i, j), c in terms.items()]

    def unpack(self, value: int) -> dict:
        """The {(s_exp, y_deg): coeff} term map of a packed integer."""
        nb, half, empty = self.nbytes, 1 << (8 * self.nbytes - 1), self._empty()
        count = value.bit_length() // (8 * nb) + 1
        buf = (value + int.from_bytes(empty * count, "little")).to_bytes(count * nb, "little")
        terms = {}
        for k in range(0, count * nb, nb):
            chunk = buf[k:k + nb]
            if chunk != empty:
                j, i = divmod(k // nb, self.slots)
                terms[(i - self.shift, j)] = int.from_bytes(chunk, "little") - half
        return terms


def _times(value: int, multiplier: list[tuple[int, int]]) -> int:
    """A packed value times a polynomial given as `Packing.multiplier`
    pairs: one shift and one small-integer multiple per term, so that the
    empty slots of a sparse factor cost nothing."""
    out = 0
    for shift, c in multiplier:
        if c == 1:
            out += value << shift
        elif c == -1:
            out -= value << shift
        else:
            out += value * c << shift
    return out


def _scaled(iv: DyadicInterval) -> tuple[int, int, int]:
    """(lo, hi, e) with iv = [lo * 2**e, hi * 2**e]."""
    lo, hi = iv.lo, iv.hi
    e = min(lo.e, hi.e)
    return lo.m << (lo.e - e), hi.m << (hi.e - e), e


def _mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Interval product: the min and max of the four endpoint products."""
    alo, ahi, ae = a
    blo, bhi, be = b
    c1, c2, c3, c4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    return min(c1, c2, c3, c4), max(c1, c2, c3, c4), ae + be


def _add(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    alo, ahi, ae = a
    blo, bhi, be = b
    if ae > be:
        d = ae - be
        return (alo << d) + blo, (ahi << d) + bhi, be
    d = be - ae
    return alo + (blo << d), ahi + (bhi << d), ae


def _point_y_coeffs(p: XYPoly, y: Dyadic) -> dict[int, tuple[int, int, int]]:
    """Exact b_i = sum_j a_ij * y**j for y = m / 2**k, all over 2**(k*D).

    With D = deg_y, y**j = m**j * 2**(k*(D - j)) / 2**(k*D), so every term is
    one integer product against a shared weight.
    """
    m, k = (y.m, -y.e) if y.e < 0 else (y.m << y.e, 0)
    deg = p.deg_y()
    weights = [1 << (k * deg)]
    for _ in range(deg):
        weights.append(weights[-1] * m >> k)
    b: dict[int, int] = {}
    for (i, j), c in p._terms.items():
        b[i] = b.get(i, 0) + c * weights[j]
    e = -k * deg
    return {i: (v, v, e) for i, v in b.items()}


def _horner(coeffs: dict[int, int], u: tuple[int, int, int]) -> tuple[int, int, int]:
    """Interval value of sum_k coeffs[k] * u**k, Horner in the one variable."""
    acc = (0, 0, 0)
    for k in range(max(coeffs), -1, -1):
        c = coeffs.get(k, 0)
        acc = _add(_mul(acc, u), (c, c, 0))
    return acc


def eval_interval(p: XYPoly, x: DyadicInterval, y: DyadicInterval, *,
                  y_bounds: tuple[list[int], list[int], int] | None = None
                  ) -> DyadicInterval:
    """Interval enclosing {p(u, v) : u in x, v in y}, Horner in y then x.

    Exact integer arithmetic on (lo, hi, e) triples meaning [lo, hi] * 2**e.
    Dyadics are closed under +/-/*, so the only width in the result comes
    from the input intervals, and a point y gives exact x-coefficients.

    y_bounds = (lo, hi, e), when given, must bound the y-coefficients of p
    over x: lo[j] * 2**e <= c_j(u) <= hi[j] * 2**e for u in x, as
    y_coefficient_bounds gives them or any outward rounding of those.  For
    a point y = m / 2**k >= 0 the enclosure [sum lo[j] y**j, sum hi[j] y**j]
    is then formed by one integer Horner pass per end and returned when it
    excludes 0 or is exactly [0, 0]; otherwise the exact path below runs,
    and a non-point or negative y always takes it.  Such a result has the
    sign the exact path gives: both paths are exact interval arithmetic, so
    Horner in x of b_i = sum_j a_ij y**j (the exact path) lies inside
    sum_j y**j * (Horner in x of c_j) by subdistributivity,
    (A + B) * X within A * X + B * X, with y**j >= 0 a point factor; and
    each Horner value of c_j lies in [lo[j], hi[j]] * 2**e.  So the exact
    interval is inside the returned one, and a sign definite there, or an
    exact zero, is the exact path's sign.
    """
    if not p._terms:
        return DyadicInterval.point(0)
    if y_bounds is not None and y.is_point() and y.lo.m >= 0:
        lo, hi, e = y_bounds
        m, k = (y.lo.m, -y.lo.e) if y.lo.e < 0 else (y.lo.m << y.lo.e, 0)
        # sum_j lo[j] * m**j * 2**(k*(D - j)), D = len(lo) - 1, and so for
        # hi: y-Horner on integers, the result over 2**(k*D)
        t_lo, t_hi, shift = lo[-1], hi[-1], 0
        for j in range(len(lo) - 2, -1, -1):
            shift += k
            t_lo, t_hi = t_lo * m + (lo[j] << shift), t_hi * m + (hi[j] << shift)
        if t_lo > 0 or t_hi < 0 or t_lo == t_hi == 0:
            e -= shift
            return DyadicInterval(Dyadic(t_lo, e), Dyadic(t_hi, e))
    if y.is_point():
        # Horner in y at a point is exact: same coefficients
        coeffs = _point_y_coeffs(p, y.lo)
    else:
        slices: dict[int, dict[int, int]] = {}
        for (i, j), c in p._terms.items():
            slices.setdefault(i, {})[j] = c
        y_s = _scaled(y)
        coeffs = {i: _horner(s, y_s) for i, s in slices.items()}
    x_s = _scaled(x)
    acc = (0, 0, 0)
    for i in range(max(coeffs), -1, -1):
        acc = _mul(acc, x_s)
        if i in coeffs:
            acc = _add(acc, coeffs[i])
    lo, hi, e = acc
    return DyadicInterval(Dyadic(lo, e), Dyadic(hi, e))


def y_coefficient_bounds(p: XYPoly, x: DyadicInterval) -> tuple[list[int], list[int], int]:
    """(lo, hi, e) with lo[j] * 2**e <= c_j(u) <= hi[j] * 2**e for every u in
    x, where p = sum_j c_j(x) y**j: each c_j by Horner in x, then all brought
    to the smallest exponent."""
    slices: dict[int, dict[int, int]] = {}
    for (i, j), c in p._terms.items():
        slices.setdefault(j, {})[i] = c
    x_s = _scaled(x)
    coeffs = [_horner(slices.get(j, {0: 0}), x_s) for j in range(p.deg_y() + 1)]
    e = min(ce for _, _, ce in coeffs)
    return ([lo << (ce - e) for lo, _, ce in coeffs],
            [hi << (ce - e) for _, hi, ce in coeffs], e)


def leading_y_term(p: XYPoly) -> tuple[int, XYPoly]:
    """Highest y-degree and its coefficient polynomial in x."""
    if not p:
        raise ZeroPolynomial("zero polynomial has no leading term")
    j_max = p.deg_y()
    return j_max, p.y_slices()[j_max]


class PolyMatrix:
    """2x2 matrix over Z[s, 1/s, y]."""

    __slots__ = ("e11", "e12", "e21", "e22")

    def __init__(self, e11: SYPoly, e12: SYPoly, e21: SYPoly, e22: SYPoly):
        self.e11, self.e12, self.e21, self.e22 = e11, e12, e21, e22

    @classmethod
    def identity(cls) -> "PolyMatrix":
        return cls(SYPoly.one(), SYPoly.zero(), SYPoly.zero(), SYPoly.one())

    def __matmul__(self, o: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.e11 * o.e11 + self.e12 * o.e21,
                          self.e11 * o.e12 + self.e12 * o.e22,
                          self.e21 * o.e11 + self.e22 * o.e21,
                          self.e21 * o.e12 + self.e22 * o.e22)

    def __sub__(self, o: "PolyMatrix") -> "PolyMatrix":
        return PolyMatrix(self.e11 - o.e11, self.e12 - o.e12,
                          self.e21 - o.e21, self.e22 - o.e22)

    def det(self) -> SYPoly:
        return self.e11 * self.e22 - self.e12 * self.e21

    def trace(self) -> SYPoly:
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

    def term_maps(self) -> tuple[dict, dict, dict, dict]:
        """The {(s_exp, y_deg): coeff} maps of e11, e12, e21, e22; read only."""
        return (self.e11._terms, self.e12._terms, self.e21._terms, self.e22._terms)

    def __repr__(self):
        return (f"PolyMatrix([{self.e11.to_text()!r}, {self.e12.to_text()!r}], "
                f"[{self.e21.to_text()!r}, {self.e22.to_text()!r}])")


class PackedMatrix(PolyMatrix):
    """A PolyMatrix held as four packed integers; the SYPoly entries are
    unpacked on first read, so code that reads only the packed integers
    (the Riley engine, `chebyshev.sl2_power`) never pays for them.

    This is the program's only matrix arithmetic.  The dict PolyMatrix
    product stays beside it as the tests' independent oracle (the dict word
    product, acceptance criterion 4), and a PackedMatrix compares equal to
    the dict matrix with the same entries."""

    __slots__ = ("packed", "packing", "_entries")

    def __init__(self, packed: tuple[int, int, int, int], packing: Packing):
        self.packed, self.packing = packed, packing
        self._entries: list[SYPoly | None] = [None] * 4

    @staticmethod
    def packing_for(shift: int, bound: int) -> Packing:
        """A packing for V = s**-shift * P, each entry P_ij of l1 norm <=
        bound, that stays faithful for the Riley relator R = VA - BV and for
        R21 - (y - 2) R12 (A = [[s, 1], [0, 1/s]], B = [[s, 0], [2 - y, 1/s]]).
        Scaled by s**(shift + 1) these have s-exponents in
        [0, 2 * shift + 2]; R's entries have l1 norm at most 5 * bound, so
        R21 - (y - 2) R12 at most 14 * bound."""
        return Packing.covering(shift, 2 * shift + 3, 14 * bound)

    def _entry(self, k: int) -> SYPoly:
        if self._entries[k] is None:
            self._entries[k] = SYPoly(self.packing.unpack(self.packed[k]))
        return self._entries[k]

    e11 = property(lambda self: self._entry(0))
    e12 = property(lambda self: self._entry(1))
    e21 = property(lambda self: self._entry(2))
    e22 = property(lambda self: self._entry(3))

    def term_maps(self) -> tuple[dict, dict, dict, dict]:
        return tuple(self.packing.unpack(p) for p in self.packed)

    def adjugate(self) -> "PackedMatrix":
        p11, p12, p21, p22 = self.packed
        return PackedMatrix((p22, -p12, -p21, p11), self.packing)
