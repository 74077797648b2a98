"""Exact sparse polynomial rings: Z[x,y] and the Laurent ring Z[s,1/s,y].

Every value is immutable after construction and every operation is pure.
Canonical term order everywhere (serialization, hashing, iteration) is
(degree-in-y, degree-in-x/exponent-of-s) ascending.
"""

from __future__ import annotations

import hashlib
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dyadic import Dyadic, DyadicInterval


class NotSymmetric(ValueError):
    """A Laurent polynomial expected to be invariant under s -> 1/s is not."""


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
            terms[(i, j)] = terms.get((i, j), 0) + c
        return cls({key: c for key, c in terms.items() if c})

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

    def triples(self) -> list[list]:
        """Structured form: [first_exp, y_deg, "coeff"] triples, canonical order."""
        return [[i, j, str(c)] for i, j, c in self.terms()]

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

    def diff_y(self) -> "XYPoly":
        return XYPoly({(i, j - 1): c * j for (i, j), c in self._terms.items() if j})


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

    def is_symmetric(self) -> bool:
        """Invariant under s -> 1/s."""
        return self._terms == {(-i, j): c for (i, j), c in self._terms.items()}


def symmetric_rewrite(p: int, packing: Packing) -> XYPoly:
    """Rewrite an s <-> 1/s symmetric Laurent polynomial as f(x, y), x = s + 1/s.

    p is the integer of s**sigma * p packed in t = s**2 by `packing` (step
    2, shift sigma, y outer), as the Riley engine holds R12 and traces: the
    s-exponents of p all have sigma's parity, and only f is unpacked.

    Slot k of a y-row holds the coefficient of s**(2k - sigma), so for a
    symmetric p slot (sigma + e) / 2 holds c_e, the coefficient of
    P_e = s**e + s**-e (P_0 = 1 here), for e = sigma, sigma - 2, ...,
    pi = sigma mod 2.  With u = x**2 = P_2 + 2 the class has
    P_(e+2) = (u - 2) P_e - P_(e-2), so f = x**pi g(u), and Clenshaw's
    recurrence b_m = a_m + (u - 2) b_(m+1) - b_(m+2), a_m = c_(2m+pi), sums
    g on packed u-integers, two shifts and three adds per degree:
    g = a_0 + (u - 2) b_1 - 2 b_2 for even sigma (P_0 = 2 in the
    recurrence, 1 in f) and g = a_0 + (u - 3) b_1 - b_2 for odd sigma
    (P_-1 = P_1 = x, P_3 = x (u - 3)).  Only g is unpacked, so only its
    coefficients must fit the slots.  ||P_e||_1 is the Lucas number L_e
    (L_(e+1) = L_e + L_(e-1); the l1 recursion N_e = |c_e| + N_(e+1) +
    N_(e+2) of the x-step recurrence gives N_0 + N_2 = sum_e |c_e| L_e), so
    no coefficient of f exceeds sum_e |c_e| L_e (1 in place of L_0), and
    the u-slots, sigma // 2 + 1 per row, are sized by its largest value
    over the rows.  `_substitutes_back` then compares f(s + 1/s, y) with
    every slot of p: s**sigma f(s + 1/s) reads the same backwards, so that
    check also finds an asymmetric p, which raises NotSymmetric.
    """
    sigma, nb, row_len = packing.shift, packing.nbytes, packing.slots * packing.nbytes
    odd, half, buf = sigma & 1, 1 << 8 * nb - 1, packing.slot_bytes(p)
    a_rows = [[int.from_bytes(buf[k:k + nb], "little") - half
               for k in range(j + (sigma + 1) // 2 * nb, j + (sigma + 1) * nb, nb)]
              for j in range(0, len(buf), row_len)]
    lucas = [1, 1, 3]
    while len(lucas) <= sigma:
        lucas.append(lucas[-1] + lucas[-2])
    bound = max(sum(map(mul, map(abs, a), lucas[odd::2])) for a in a_rows)
    phi = Packing.covering(-odd, sigma // 2 + 1, bound, 2)
    b, empty = 8 * phi.nbytes, phi._empty() * phi.slots
    row_bias, out = int.from_bytes(empty, "little"), []   # g + row_bias: g's slot bytes
    for a in a_rows:
        b1 = b2 = 0                  # b_(m + 1), b_(m + 2)
        for am in a[:0:-1]:
            b1, b2 = (b1 << b) - (b1 << 1) - b2 + am, b1
        g = a[0] + (b1 << b) - (b1 << 1) - b2 - (b1 if odd else b2)
        out.append((g + row_bias).to_bytes(len(empty), "little"))
    terms = phi.read(b"".join(out))
    if not _substitutes_back(terms, p, packing):
        if not SYPoly(packing.unpack(p)).is_symmetric():
            raise NotSymmetric("polynomial is not invariant under s -> 1/s")
        raise AssertionError("symmetric rewrite failed back-substitution check")
    return XYPoly(terms)


def _substitutes_back(f: dict, value: int, packing: Packing) -> bool:
    """f(s + 1/s, y) == p, f a {(x_deg, y_deg): coeff} map and p packed as
    `symmetric_rewrite` takes it, one y-row at a time in t = s**2.

    Every x-degree i of f must have sigma's parity and be at most sigma, as
    those of sum c_e P_e do.  Then s**sigma f_j(s + 1/s) is
    sum_i f_ij (1 + t)**i t**((sigma - i) / 2): Horner in (1 + t)**2 over
    the one parity class, A -> A (1 + t)**2 + t**((sigma - i) / 2) f_ij,
    and one factor 1 + t at the end when sigma is odd, each step three shifts
    and three adds.  A's l1 norm is at most sum_i |f_ij| 2**i.  The digits
    of row j of p's integer are at most 2**(B - 1) in magnitude, so when
    that norm is below 2**(B - 1) the difference has coefficients below
    2**B, and a nonzero polynomial with such coefficients does not vanish
    at t = 2**B (its lowest one would be a multiple of 2**B).  The rows are
    compared in p's slots when those are that wide; otherwise p's bytes are
    re-laid into slots wide enough, one strided copy per byte of a slot.
    """
    sigma, slots, nb = packing.shift, packing.slots, packing.nbytes
    f_rows: dict[int, dict[int, int]] = {}
    for (i, j), c in f.items():
        if (sigma - i) & 1 or not 0 <= i <= sigma:
            return False
        f_rows.setdefault(j, {})[i] = c
    norm = max([sum(abs(c) << i for i, c in row.items()) for row in f_rows.values()] + [0])
    buf, wide = packing.slot_bytes(value), max(nb, Packing.covering(0, 0, norm).nbytes)
    if wide > nb:
        relaid = bytearray(len(buf) // nb * wide)
        for r in range(nb):
            relaid[r::wide] = buf[r::nb]
        buf = relaid
    b, row_len = 8 * wide, slots * wide
    row_bias = int.from_bytes(packing._empty().ljust(wide, b"\0") * slots, "little")
    for j in range(0, len(buf), row_len):
        row, acc = f_rows.pop(j // row_len, {}), 0
        top = max(row, default=-1)
        pos = b * ((sigma - top) >> 1)       # the bit offset of t**((sigma - i) / 2)
        for i in range(top, -1, -2):
            acc += (acc << b + 1) + (acc << 2 * b) + (row.get(i, 0) << pos)
            pos += b
        if sigma & 1:
            acc += acc << b
        if acc != int.from_bytes(buf[j:j + row_len], "little") - row_bias:
            return False
    return not f_rows                        # no row of f beyond those of p


class Packing(NamedTuple):
    """Kronecker substitution s -> 2**(8*nbytes/step), y -> 2**(8*nbytes*slots).

    A term c * s**i * y**j sits in slot (i + shift) / step + slots * j, so the
    packed integer is s**shift * poly evaluated at those powers of two; with
    step 2 the slots count t = s**2 and every i + shift must be even.  Slot
    digits are signed: packing is faithful (and `unpack` its inverse) for
    polynomials whose terms fall in slots 0 .. slots - 1 of their y-degree
    and whose coefficients are below 2**(8*nbytes - 1) in magnitude.  Integer
    arithmetic on packed values is polynomial arithmetic at that point, so
    only a value that is unpacked or compared must meet these bounds, not
    the steps that made it.
    """

    shift: int
    slots: int
    nbytes: int
    step: int = 1

    @classmethod
    def covering(cls, shift: int, slots: int, bound: int, step: int = 1) -> "Packing":
        """Slots wide enough for every coefficient of magnitude <= bound."""
        return cls(shift, slots, (bound.bit_length() + 8) // 8, step)

    def entries(self) -> tuple["Packing", "Packing", "Packing", "Packing"]:
        """The packings of M11, M12, M21, M22 in a PackedMatrix, whose
        integers hold the off-diagonal entries divided by s: one shift
        lower."""
        off = self._replace(shift=self.shift - 1)
        return self, off, off, self

    def _empty(self) -> bytes:
        """One slot holding 0 once half a slot is added: the bias that
        makes every signed digit a nonnegative one."""
        return bytes(self.nbytes - 1) + b"\x80"

    def pack(self, terms: dict) -> int:
        """The integer of a {(s_exp, y_deg): coeff} term map."""
        nb, half = self.nbytes, 1 << (8 * self.nbytes - 1)
        shift, slots, step = self.shift, self.slots, self.step
        count = max(((i + shift) // step + slots * j for i, j in terms), default=-1) + 1
        buf = bytearray(self._empty() * count)
        for (i, j), c in terms.items():
            if (i + shift) % step or not 0 <= i + shift < step * slots:
                raise ValueError(f"s-exponent {i} outside the packing")
            k = ((i + shift) // step + slots * j) * nb
            buf[k:k + nb] = (c + half).to_bytes(nb, "little")
        return int.from_bytes(buf, "little") - int.from_bytes(self._empty() * count, "little")

    def multiplier(self, terms: dict) -> list[tuple[int, int]]:
        """The (bit shift, coeff) pairs of s**shift * poly for the term map
        of poly, each shift being where `pack` puts that term: a packed
        value times s**shift * poly is the sum of coeff * (value << shift)
        over the pairs, which `_times` forms.  Every term of s**shift * poly
        must have a slot: no negative s-exponent, none off the step."""
        b = 8 * self.nbytes
        s_bits, y_bits, shift = b // self.step, b * self.slots, self.shift
        return [(s_bits * (i + shift) + y_bits * j, c) for (i, j), c in terms.items()]

    def slot_bytes(self, value: int) -> bytes:
        """The little-endian slots of a packed integer, in whole y-rows,
        each holding its signed digit plus half a slot."""
        count = (value.bit_length() // (8 * self.nbytes * self.slots) + 1) * self.slots
        bias = int.from_bytes(self._empty() * count, "little")
        return (value + bias).to_bytes(count * self.nbytes, "little")

    def unpack(self, value: int) -> dict:
        """The {(s_exp, y_deg): coeff} term map of a packed integer."""
        return self.read(self.slot_bytes(value))

    def read(self, buf: bytes) -> dict:
        """The term map of slots laid out as `slot_bytes` gives them."""
        nb, half, empty = self.nbytes, 1 << (8 * self.nbytes - 1), self._empty()
        step, shift, slots = self.step, self.shift, self.slots
        terms = {}
        for k in range(0, len(buf), nb):
            chunk = buf[k:k + nb]
            if chunk != empty:
                j, i = divmod(k // nb, slots)
                terms[(step * i - shift, j)] = int.from_bytes(chunk, "little") - half
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
    """(lo, hi, e) with iv = [lo * 2**e, hi * 2**e] and e <= 0, so that a
    product by 2**e is a right shift."""
    lo, hi = iv.lo, iv.hi
    e = min(lo.e, hi.e, 0)
    return lo.m << (lo.e - e), hi.m << (hi.e - e), e


def _horner(lo: Sequence[int], hi: Sequence[int], u: tuple[int, int], k: int
            ) -> tuple[int, int]:
    """Integer bounds (l, h) on sum_j c_j v**j for every c_j in [lo[j], hi[j]]
    and v in [u[0], u[1]] * 2**-k, in the units of lo and hi: the one
    interval Horner of this module.

    Each step multiplies [l, h] by [u[0], u[1]] (the two endpoint products
    that can be extreme when u[0] >= 0, else the least and greatest of all
    four), floors the lower end of the product at a unit and ceils the
    upper one, and adds [lo[j], hi[j]].  Interval arithmetic is
    inclusion-monotone, so the floors and ceilings only widen the result.
    On a unit fine enough that no floor cuts anything, as when every lo[j]
    and hi[j] is a multiple of 2**(k * (len(lo) - 1)), the result is exact
    interval Horner.
    """
    u_lo, u_hi = u
    l, h = lo[-1], hi[-1]
    for j in range(len(lo) - 2, -1, -1):
        if u_lo >= 0:
            a, b = l * (u_lo if l >= 0 else u_hi), h * (u_hi if h >= 0 else u_lo)
        else:
            c = (l * u_lo, l * u_hi, h * u_lo, h * u_hi)
            a, b = min(c), max(c)
        l, h = (a >> k) + lo[j], hi[j] - (-b >> k)
    return l, h


def _point_y_coeffs(p: XYPoly, m: int, k: int) -> tuple[list[int], int]:
    """(b, e) with b[i] * 2**e = sum_j a_ij * y**j exactly for y = m / 2**k,
    i = 0 .. deg_x, and e = -k * D.

    With D = deg_y, y**j = m**j * 2**(k*(D - j)) / 2**(k*D), so every term is
    one integer product against a shared weight.
    """
    deg = p.deg_y()
    weights = [1 << (k * deg)]
    for _ in range(deg):
        weights.append(weights[-1] * m >> k)
    b: dict[int, int] = {}
    for (i, j), c in p._terms.items():
        b[i] = b.get(i, 0) + c * weights[j]
    return [b.get(i, 0) for i in range(max(b) + 1)], -k * deg


def eval_interval(p: XYPoly, x: DyadicInterval, y: DyadicInterval, *,
                  y_bounds: tuple[list[int], list[int], int] | None = None
                  ) -> DyadicInterval:
    """Interval enclosing {p(u, y) : u in x} at a point y (lo == hi; any
    other y raises ValueError), Horner in x.

    With y = m * 2**e_y and x = [x_lo, x_hi] * 2**e_x (`_scaled`), the
    x-coefficients b_i = sum_j a_ij y**j are formed exactly in power form
    (`_point_y_coeffs`, faster there than Horner in y), in units of
    2**(D * e_y), D = deg_y.  `_horner` in x then gives the result in units
    of 2**(D * e_y + deg_x * e_x).  It runs homogenized, on the integers
    x_lo, x_hi with k = 0 and coefficient i times 2**(-e_x * (deg_x - i)).
    That is a positive scaling, exact in interval arithmetic, so no floor
    cuts anything, and the integers grow from the leading coefficient down
    instead of starting at full width.  The result is exact interval Horner
    in x: the only width in it comes from x, and a point x gives the exact
    value.

    y_bounds = (lo, hi, e), when given, must bound the y-coefficients of p
    over x: lo[j] * 2**e <= c_j(u) <= hi[j] * 2**e for u in x, as
    y_coefficient_bounds gives them.  For y = m / 2**k >= 0 the enclosure
    [sum lo[j] y**j, sum hi[j] y**j] is then formed by `_horner` in y at
    [m, m], in the bounds' own unit 2**e, each product floored at its lower
    end and ceiled at its upper one, so each end only moves outward.  It is
    returned when it excludes 0; otherwise, an exact zero included, the
    exact path runs, and a negative y always takes it.  A returned result
    has the sign the exact path gives.  Horner in x of b_i = sum_j a_ij y**j
    (the exact path) lies inside sum_j y**j * (Horner in x of c_j) by
    subdistributivity, (A + B) * X within A * X + B * X, with y**j >= 0 a
    point factor; each Horner value of c_j lies in [lo[j], hi[j]] * 2**e;
    and the floors and ceilings only widen the sum.  So the exact interval
    is inside the returned one, and a sign definite there is the exact
    path's sign.
    """
    m, y_hi, ey = _scaled(y)
    if m != y_hi:
        raise ValueError(f"eval_interval takes a point y, not {y!r}")
    if not p._terms:
        return DyadicInterval.point(0)
    if y_bounds is not None and m >= 0:
        lo, hi, e = y_bounds
        l, h = _horner(lo, hi, (m, m), -ey)
        if l > 0 or h < 0:
            return DyadicInterval(Dyadic(l, e), Dyadic(h, e))
    b, e = _point_y_coeffs(p, m, -ey)
    x_lo, x_hi, ex = _scaled(x)
    dx = len(b) - 1
    b = [c << -ex * (dx - i) for i, c in enumerate(b)]
    l, h = _horner(b, b, (x_lo, x_hi), 0)
    e += dx * ex
    return DyadicInterval(Dyadic(l, e), Dyadic(h, e))


def y_coefficient_bounds(p: XYPoly, x: DyadicInterval, e: int
                         ) -> tuple[list[int], list[int], int]:
    """(lo, hi, e) with lo[j] * 2**e <= c_j(u) <= hi[j] * 2**e for every u in
    x, where p = sum_j c_j(x) y**j: each c_j by `_horner` in x on integers
    over 2**e, for a unit e <= 0.

    On a unit at or below deg_x * e_x, e_x the exponent of x as `_scaled`
    gives it, no floor cuts anything and the bounds are exact interval
    Horner.  On a coarser one the floors and ceilings only widen each
    enclosure, while the integers stay near 2**-e in place of growing by
    the bits of x with every degree.
    """
    x_lo, x_hi, ex = _scaled(x)
    rows: dict[int, dict[int, int]] = {}
    for (i, j), c in p._terms.items():
        rows.setdefault(j, {})[i] = c
    lo, hi = [], []
    for j in range(p.deg_y() + 1):
        row = rows.get(j, {0: 0})
        c = [row.get(i, 0) << -e for i in range(max(row) + 1)]
        l, h = _horner(c, c, (x_lo, x_hi), -ex)
        lo.append(l)
        hi.append(h)
    return lo, hi, e


class PolyMatrix:
    """2x2 matrix over Z[s, 1/s, y] by dict polynomial arithmetic.  The
    program multiplies `PackedMatrix` integers only; this stays as the
    tests' independent oracle."""

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

    def __repr__(self):
        return (f"PolyMatrix([{self.e11.to_text()!r}, {self.e12.to_text()!r}], "
                f"[{self.e21.to_text()!r}, {self.e22.to_text()!r}])")


class PackedMatrix(NamedTuple):
    """A 2x2 matrix over Z[s, 1/s, y] held as four packed integers: the
    program's only matrix arithmetic (the Riley engine and
    `chebyshev.sl2_power`).

    The matrix is checkerboard (diagonal s-exponents of one parity,
    off-diagonal ones of the other), as every word in the generators is
    and products, adjugates and powers keep, so its integers pack it in
    t = s**2, the off-diagonal entries divided by s (`packing_for`,
    `Packing.entries`).  Nothing unpacks the entries but `term_maps`."""

    packed: tuple[int, int, int, int]
    packing: Packing

    @staticmethod
    def packing_for(shift: int, bound: int) -> Packing:
        """The packing, in t = s**2, of a checkerboard V = s**-shift * P
        (diagonal s-exponents of the parity of shift, off-diagonal ones of
        the other), each entry P_ij of l1 norm <= bound, that stays
        faithful for the Riley relator R = VA - BV
        (A = [[s, 1], [0, 1/s]], B = [[s, 0], [2 - y, 1/s]]).

        The diagonal of P has even s-exponents in [0, 2 * shift], so t-slots
        0 .. shift; the off-diagonal, divided by s, has t-slots
        0 .. shift - 1.  With q_ij these t-polynomials, s**(shift + 1) R has
        R11 = 0, R12 / s = q11 + q12 - t q12 and R22 / t = q21 - (2 - y) q12;
        R21 = (y - 2) R12 + (s - 1/s) R22 holds for every V, so R22 = 0 is
        the one structure check (`riley._relator`).  The values unpacked or
        compared are the entries of V and their trace (l1 norm
        <= 2 * bound), R12 / s (<= 3 * bound) and R22 / t (<= 4 * bound),
        all within t-slots 0 .. shift: shift + 1 slots per y-degree, for a
        word of L letters L + 1, where packing in s takes 2L + 3."""
        return Packing.covering(shift, shift + 1, 4 * bound, 2)

    def term_maps(self) -> tuple[dict, dict, dict, dict]:
        """The {(s_exp, y_deg): coeff} maps of M11, M12, M21, M22."""
        return tuple(p.unpack(v) for p, v in zip(self.packing.entries(), self.packed))

    def adjugate(self) -> "PackedMatrix":
        """The inverse, when det = 1."""
        p11, p12, p21, p22 = self.packed
        return PackedMatrix((p22, -p12, -p21, p11), self.packing)
