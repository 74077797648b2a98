"""Polynomials in Z[x, y]: the XYPoly value, the packed integers every
polynomial product runs on, the exact Taylor shift of their rows, the
rewrite in x = s + 1/s, and interval evaluation.

An XYPoly is an immutable {(x_deg, y_deg): coeff} term map with no
arithmetic of its own: the program multiplies polynomials only as
Kronecker-packed integers (`Packing`, `_times`), and unpacks each result
once.  Canonical term order everywhere (serialization, hashing, iteration)
is (degree-in-y, degree-in-x) ascending, set once per polynomial by
`_SparsePoly.term_map`.
"""

from __future__ import annotations

import hashlib
import struct
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, compress, cycle, repeat
from math import comb
from operator import add, mul, sub

from .dyadic import Dyadic, DyadicInterval


class NotSymmetric(ValueError):
    """A Laurent polynomial expected to be invariant under s -> 1/s is not."""


class _SparsePoly:
    """An immutable {(x_deg, y_deg): coeff} term map: canonical order,
    text, hash and equality, with no arithmetic."""

    __slots__ = ("_terms", "_ordered")

    def __init__(self, terms: dict, ordered: bool = False):
        # internal: callers hand over ownership of an already-clean dict,
        # ordered when its keys already come in canonical order
        self._terms = terms
        self._ordered = ordered

    @classmethod
    def from_terms(cls, items: Iterable[tuple[int, int, int]]):
        """Build from (x_deg, y_deg, coeff) triples, summing duplicates."""
        terms: dict = {}
        for i, j, c in items:
            if i < 0:
                raise ValueError(f"negative x-exponent {i}")
            if j < 0:
                raise ValueError(f"negative y-exponent {j}")
            terms[(i, j)] = terms.get((i, j), 0) + c
        return cls({key: c for key, c in terms.items() if c})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash((type(self).__name__, tuple(self.terms())))

    def term_map(self) -> dict:
        """The term map, {(x_deg, y_deg): coeff}, in canonical (y_deg,
        x_deg) order, which callers must not mutate.  This is where the
        order is set: the map is put in it once, on the first call, so the
        text, the hash and the JSON terms of one polynomial share a sort."""
        if not self._ordered:
            terms = self._terms
            order = sorted(terms, key=lambda key: (key[1], key[0]))
            self._terms = {key: terms[key] for key in order}
            self._ordered = True
        return self._terms

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """(x_deg, y_deg, coeff) in canonical order, off `term_map`."""
        return ((i, j, c) for (i, j), c in self.term_map().items())

    def to_text(self) -> str:
        """Canonical text: one `coeff * x^i * y^j` per line, in the order
        `term_map` sets."""
        if not self._terms:
            return "0"
        return "\n".join([f"{c} * x^{i} * y^{j}" for (i, j), c in self.term_map().items()])

    def triples(self) -> list[list]:
        """Structured form: [x_deg, y_deg, "coeff"] triples, canonical order."""
        return [[i, j, str(c)] for (i, j), c in self.term_map().items()]

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode()).hexdigest()

    def __repr__(self):
        return f"{type(self).__name__}({self.to_text()!r})"


class XYPoly(_SparsePoly):
    """Element of Z[x, y]; exponents of both variables are nonnegative."""

    __slots__ = ()

    def deg_y(self) -> int:
        return max((j for (_, j) in self._terms), default=0)

    def deg_x(self) -> int:
        return max((i for (i, _) in self._terms), default=0)


def symmetric_rewrite(value: int, z: Packing, y_norm: int) -> XYPoly:
    """Rewrite an s <-> 1/s symmetric Laurent polynomial as f(x, y), x = s + 1/s.

    value is s**sigma psi(s, z) packed by z (shift sigma), as the Riley
    engine's letter loop reads R12 and traces at y = 2 + z: sigma is even
    (ValueError otherwise), as sigma = L - 2 lo has the parity of a mirror
    word's even length L (see riley.RileyPolynomial), so the s-exponents
    of psi are even, and its digits fit z's slots.  The
    polynomial rewritten is p(s, y) = psi(s, y - 2), and y_norm bounds
    every digit of p in magnitude, as a bound on its l1 norm does: the
    y-norms of the letter loop's span pass give one.  The read-back sizes
    its own slots by it: wb bytes, as many as `Packing.covering` gives
    y_norm, or z's if that is more, so p's digits fit them.  Only f is
    unpacked.

    Slot k of a row holds the coefficient of s**(2k - sigma), so p is
    symmetric exactly when every y-row reads the same backwards in slots
    0 .. sigma and is empty above sigma (the trace packing has 2 sigma + 1
    slots).  The shift y = z + 2 acts on every t-slot alike, p_k(y) =
    psi_k(y - 2) for the coefficient of t**k, and is invertible, so p_k =
    p_(sigma - k) exactly when psi_k = psi_(sigma - k) and p_k = 0 exactly
    when psi_k = 0: p is symmetric exactly when psi is.  So the check runs
    in z, on psi's slot bytes, laid out by one biased `to_bytes`: one
    strided slice per byte compares slot k with slot sigma - k in every
    z-row at once, and NotSymmetric is raised before any shift.  Slot
    (sigma + e) / 2 of a palindromic y-row holds c_e, the coefficient of
    P_e = s**e + s**-e (P_0 = 1 here), for e = 0, 2, .. sigma, and the
    row is s**sigma sum_e c_e P_e.

    The shift back.  Only a row's upper half, slots sigma / 2 .. sigma,
    is read.  Those bytes of each z-row are widened to the
    wb-byte slots (zero bytes padded onto a biased digit keep it, and the
    bias comes off at the new width) and shifted by -1 at k = 1
    (`taylor_shift`), as psi(y - 2) = sum_j psi_j 2**j (y / 2 - 1)**j.
    The shift is additions and shifts of whole half-rows, so it acts on
    every slot alike, and each step is exact: half-row j comes out as the
    upper half of p's y-row j evaluated at T = 2**W, W = 8 wb, one
    integer, faithful as p's digits fit those slots.

    The peel.  That integer is A = sum_m c_(2m) T**m.  As x**n =
    sum_j C(n, j) s**(n - 2j), x**(2k) = sum_m C(2k, k - m) P_(2m) is the
    integer X_k = sum_m C(2k, k - m) T**m (`_x_powers`), whose top digit
    is 1.  For k = sigma / 2 down to 0 the peel takes f_(2k) = q =
    round(A / T**k) and subtracts q X_k; at k = 0, X_0 = 1 and q is all
    that is left, so A = sum_k f_(2k) X_k exactly.  The row is accepted
    when sum_i |f_i| 2**i < 2**(W - 1).
    Then D(z) = sum_m c_(2m) z**m - sum_k f_(2k) X_k(z) vanishes at
    z = T.  Each c_m is at most 2**(W - 1) in magnitude, a slot digit,
    and each coefficient of the sum over k at most
    sum_k |f_(2k)| 2**(2k) < 2**(W - 1), as C(n, j) <= 2**n; so D's
    coefficients are below T in magnitude, and a nonzero such polynomial
    does not vanish at T (its lowest nonzero coefficient would be a
    multiple of T).  So D = 0, sum_i f_i x**i = sum_e c_e P_e, and with
    the palindrome s**sigma f(s + 1/s) is the row.  This is the Kronecker
    argument of a back-substitution check, with the check folded into the
    pass that computes f.

    The two widths.  The peel finds f whenever f meets that bound: before
    step k the rest is sum_(m <= k) r_m T**m with r_k = f_(2k) and
    every |r_m| <= sum_i |f_i| 2**i < T / 2, so the digits below k add
    less than T**k / 2 in magnitude and the rounding returns r_k.  A row
    refused at W is peeled again, from its shifted half-row's own digits,
    at one width W' shared by every refused row, 2**(W' - 1) >
    sum_e |c_e| Q_e for each.  P_(e+1) = x P_e - P_(e-1) with P_0 = 2 in
    x, so the coefficients of P_e in x have absolute values summing at
    x = 2 to at most Q_e, Q_0 = Q_1 = 2, Q_(e+1) = 2 Q_e + Q_(e-1) (the
    Pell-Lucas numbers (1 + sqrt 2)**e + (1 - sqrt 2)**e), and to 1 for
    the constant term.  f = sum_e c_e P_e then gives
    sum_i |f_i| 2**i <= sum_e |c_e| Q_e, so a palindromic row always peels
    at W', and a refusal there is an AssertionError.
    """
    sigma, nb, slots = z.shift, z.nbytes, z.slots
    if sigma & 1:
        raise ValueError(f"odd shift {sigma}: a mirror word has even length")
    buf, row_len, top = z.slot_bytes(value), slots * nb, sigma // 2
    starts, blank = range(0, len(buf), row_len), z._empty() * (slots - sigma - 1)
    mirrors = ((r, r + (sigma - 2 * k) * nb)                # byte r of slot k, of sigma - k
               for k in range(top) for r in range(k * nb, k * nb + nb))
    if (any(buf[r::row_len] != buf[r2::row_len] for r, r2 in mirrors)
            or any(buf[j + row_len - len(blank):j + row_len] != blank for j in starts)):
        raise NotSymmetric("polynomial is not invariant under s -> 1/s")
    wb = max(nb, Packing.covering(0, 0, y_norm).nbytes)
    lo, hi = top * nb, (sigma + 1) * nb                 # a row's upper half
    halves = b"".join(buf[j + lo:j + hi] for j in starts)
    widened, half_len = bytearray(len(halves) // nb * wb), (top + 1) * wb
    for r in range(nb):
        widened[r::wb] = halves[r::nb]
    bias = int.from_bytes((z._empty() + bytes(wb - nb)) * (top + 1), "little")
    rows = taylor_shift([int.from_bytes(widened[j:j + half_len], "little") - bias
                         for j in range(0, len(widened), half_len)], -1, 1)
    w = 8 * wb
    basis = _x_powers(top, w)
    f_rows = [_peel(a, w, basis) for a in rows]
    refused = [j for j, f in enumerate(f_rows) if f is None]
    if refused:
        half, pell = 1 << w - 1, [2, 2]          # pell: Q_0, Q_1, ..
        while len(pell) <= sigma:
            pell.append(2 * pell[-1] + pell[-2])
        pell[0] = 1                              # c_0 multiplies P_0 = 1 in f
        bias = int.from_bytes(Packing(0, 0, wb)._empty() * (top + 1), "little")
        laid = ((rows[j] + bias).to_bytes(half_len, "little") for j in refused)
        digits = [[int.from_bytes(row[k:k + wb], "little") - half
                   for k in range(0, half_len, wb)] for row in laid]
        bound = max(sum(map(mul, map(abs, c), pell[::2])) for c in digits)
        wide = Packing.covering(0, 0, bound)     # W', shared by every refused row
        w, half = 8 * wide.nbytes, 1 << 8 * wide.nbytes - 1
        bias = int.from_bytes(wide._empty() * (top + 1), "little")
        basis = _x_powers(top, w)
        for j, c in zip(refused, digits):
            a = int.from_bytes(b"".join((d + half).to_bytes(wide.nbytes, "little") for d in c),
                               "little") - bias
            f_rows[j] = _peel(a, w, basis)
            if f_rows[j] is None:
                raise AssertionError("symmetric rewrite: a palindromic row failed the wide peel")
    return XYPoly({(2 * k, j): c for j, f in enumerate(f_rows)
                   for k, c in enumerate(f) if c}, ordered=True)


def _x_powers(top: int, w: int) -> list[int]:
    """X_k = sum_m C(n, k - m) T**m, n = 2k, T = 2**w, k = 0 .. top:
    x**n in the basis P_(2m) of `symmetric_rewrite`, its digits packed
    at T.  Digit m of X_(k+1) is C(n + 2, k + 1 - m) = C(n, k - 1 - m) +
    2 C(n, k - m) + C(n, k + 1 - m) by Pascal's rule twice, the digits
    m + 1, m and m - 1 of X_k, so X_(k+1) = T X_k + 2 X_k + (X_k - C(n, k)) / T
    + C(n, k + 1): a digit C(n, k + 1) below digit 0 is missing from X_k.
    The division is exact and the digits may exceed T, as X_k is only
    evaluated."""
    xs = [1]
    for k in range(top):
        n, x = 2 * k, xs[-1]
        xs.append((x << w) + 2 * x + ((x - comb(n, k)) >> w) + comb(n, k + 1))
    return xs


def _peel(a: int, w: int, basis: list[int]) -> list[int] | None:
    """[f_0, f_2, ..] with a = sum_k f_(2k) basis[k], each f_(2k) rounded
    off the top of the rest (all of it at k = 0), or None once
    sum_i |f_i| 2**i reaches 2**(w - 1) (`symmetric_rewrite`)."""
    limit, norm, f = 1 << w - 1, 0, [0] * len(basis)
    for k in range(len(basis) - 1, -1, -1):
        q = ((a >> w * k - 1) + 1) >> 1 if k else a
        if q:
            norm += abs(q) << 2 * k
            if norm >= limit:
                return None
            a -= q * basis[k]
            f[k] = q
    return f


class Packing(namedtuple("Packing", "shift slots nbytes")):
    """Kronecker substitution s -> 2**(4*nbytes), y -> 2**(8*nbytes*slots).

    A term c * s**i * y**j sits in slot (i + shift) / 2 + slots * j, so the
    packed integer is s**shift * poly evaluated at those powers of two: the
    slots count t = s**2 (or u = x**2), and every i + shift must be even.
    Slot digits are signed: packing is faithful (and `unpack` its inverse) for
    polynomials whose terms fall in slots 0 .. slots - 1 of their y-degree
    and whose coefficients are below 2**(8*nbytes - 1) in magnitude.  Integer
    arithmetic on packed values is polynomial arithmetic at that point, so
    only a value that is unpacked or compared must meet these bounds, not
    the steps that made it.
    """

    __slots__ = ()

    @classmethod
    def covering(cls, shift: int, slots: int, bound: int) -> "Packing":
        """Slots wide enough for every coefficient of magnitude <= bound."""
        return cls(shift, slots, (bound.bit_length() + 8) // 8)

    def _empty(self) -> bytes:
        """One slot holding 0 once half a slot is added: the bias that
        makes every signed digit a nonnegative one."""
        return bytes(self.nbytes - 1) + b"\x80"

    def multiplier(self, terms: dict) -> list[tuple[int, int]]:
        """The (bit shift, coeff) pairs of s**shift * poly for the term map
        of poly, each shift being that term's slot: a packed
        value times s**shift * poly is the sum of coeff * (value << shift)
        over the pairs, which `_times` forms.  Every term of s**shift * poly
        must have a slot: no negative s-exponent, none of the other parity."""
        b, shift = 8 * self.nbytes, self.shift
        s_bits, y_bits = b // 2, b * self.slots
        for i, _ in terms:
            if (i + shift) % 2 or i + shift < 0:
                raise ValueError(f"s-exponent {i} outside the packing")
        return [(s_bits * (i + shift) + y_bits * j, c) for (i, j), c in terms.items()]

    def slot_bytes(self, value: int) -> bytes:
        """The little-endian slots of a packed integer, in whole y-rows,
        each holding its signed digit plus half a slot."""
        count = (value.bit_length() // (8 * self.nbytes * self.slots) + 1) * self.slots
        bias = int.from_bytes(self._empty() * count, "little")
        return (value + bias).to_bytes(count * self.nbytes, "little")

    def unpack(self, value: int) -> dict:
        """The {(s_exp, y_deg): coeff} term map of a packed integer, its
        keys in canonical (y_deg, s_exp) order, as the slots run.  A biased
        digit with its top bit flipped is the digit in two's complement:
        slots of up to 8 bytes, sign-extended to 8, are read in one pass as
        an array of int64s, wider ones as one signed int each."""
        nb, slots, buf = self.nbytes, self.slots, bytearray(self.slot_bytes(value))
        count, top = len(buf) // nb, buf[nb - 1::nb].translate(_FLIP)
        if nb > 8:
            buf[nb - 1::nb] = top
            digits = [int.from_bytes(buf[k:k + nb], "little", signed=True)
                      for k in range(0, len(buf), nb)]
        else:
            wide, fill = bytearray(8 * count), top.translate(_SIGN_FILL)
            for r in range(8):
                wide[r::8] = buf[r::nb] if r < nb - 1 else top if r == nb - 1 else fill
            digits = struct.unpack(f"<{count}q", wide)
        keys = zip(cycle(range(-self.shift, 2 * slots - self.shift, 2)),
                   chain.from_iterable(map(repeat, range(count // slots), repeat(slots))))
        return dict(compress(zip(keys, digits), digits))


_FLIP = bytes(c ^ 0x80 for c in range(256))             # a byte, top bit flipped
_SIGN_FILL = bytes(0xFF * (c >> 7) for c in range(256))  # its sign, extended


def taylor_shift(rows: list[int], m: int, k: int) -> list[int]:
    """The rows of f(x + m 2**k) for f = sum_j rows[j] x**j, m = 1 or -1 and
    k >= 0, exactly.  Rows scaled by 2**(k j) are those of f(2**k u); the
    classical additive Taylor shift (von zur Gathen & Gerhard, ISSAC 1997)
    takes them to u + m in d(d + 1) / 2 additions, d the degree; row j is
    then divided back by 2**(k j), exactly, as f(x + m 2**k) has integer
    coefficients.  Only additions and shifts: packed rows give the packed
    result, faithful wherever its digits fit their slots."""
    if m not in (1, -1) or k < 0:
        raise ValueError(f"cannot shift by {m} * 2**{k}: m must be 1 or -1, k >= 0")
    step, a = add if m > 0 else sub, [r << k * j for j, r in enumerate(rows)]
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] = step(a[j], a[j + 1])
    return [r >> k * j for j, r in enumerate(a)]


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
    interval Horner of this module.  v >= 0 (ValueError on u[0] < 0), as
    every caller's is: the squares of an x interval, or a point y >= 0.

    Each step multiplies [l, h] by [u[0], u[1]] (the two endpoint products
    that can be extreme), floors the lower end of the product at a unit
    and ceils the upper one, and adds [lo[j], hi[j]].  Interval arithmetic
    is inclusion-monotone, so the floors and ceilings only widen the result.
    On a unit fine enough that no floor cuts anything, as when every lo[j]
    and hi[j] is a multiple of 2**(k * (len(lo) - 1)), the result is exact
    interval Horner.
    """
    u_lo, u_hi = u
    if u_lo < 0:
        raise ValueError(f"_horner takes v >= 0, not a lower end {u_lo}")
    l, h = lo[-1], hi[-1]
    for j in range(len(lo) - 2, -1, -1):
        a, b = l * (u_lo if l >= 0 else u_hi), h * (u_hi if h >= 0 else u_lo)
        l, h = (a >> k) + lo[j], hi[j] - (-b >> k)
    return l, h


def _xn_modulus(n: int) -> tuple[int, ...]:
    """P_n, ascending, n >= 2: monic in Z[u] with P_n(x_n**2) = 0.
    S_{n-1}(x) = sum_k (-1)**k C(n - 1 - k, k) x**(n - 1 - 2k) is P_n(x**2)
    for odd n and x P_n(x**2) for even n; its roots are 2cos(k pi/n),
    k = 1 .. n - 1, and x_n != 0 for n >= 3.  P_2 = u, as x_2 = 0."""
    if n == 2:
        return (0, 1)
    top = (n - 1) // 2
    return tuple((-1) ** k * comb(n - 1 - k, k) for k in range(top, -1, -1))


def _residue_rows(p: XYPoly, n: int | None) -> list[tuple[int, ...]]:
    """Every y-row c_j of a p with terms in u = x**2, j = 0 .. deg_y, in
    u, ascending; given n, its remainder modulo P_n (`_xn_modulus`) by
    long division, exact as P_n is monic, whenever deg P_n is below the
    count of u-columns, deg_x / 2 + 1: no row reaches a larger P_n, which
    is then not built, however large n is.  Raises ValueError on a term of
    odd x-degree.  The division runs on columns, the coefficients of one
    power of u in every row: a step subtracts q times a coefficient of
    P_n from a column, q the column divided off, one map over all rows."""
    xs, ys = zip(*p._terms)
    width = max(ys) + 1
    cols = [[0] * width for _ in range(max(xs) // 2 + 1)]
    for (i, j), c in p._terms.items():
        if i & 1:
            raise ValueError(f"not even in x: a term of x-degree {i}")
        cols[i >> 1][j] = c
    if n is None or (n - 1) // 2 >= len(cols):
        return list(zip(*cols))
    modulus = _xn_modulus(n)
    m = len(modulus) - 1
    for k in range(len(cols) - 1, m - 1, -1):
        q = cols[k]
        if any(q):
            for t in range(m):
                cols[k - m + t] = list(map(sub, cols[k - m + t], map(mul, q, repeat(modulus[t]))))
    return list(zip(*cols[:m]))


def _squares(x_lo: int, x_hi: int) -> tuple[int, int]:
    """The range of u = v**2 for v in [x_lo, x_hi], in the square of their
    unit."""
    lo, hi = x_lo * x_lo, x_hi * x_hi
    if x_lo >= 0:
        return lo, hi
    if x_hi <= 0:
        return hi, lo
    return 0, max(lo, hi)


def _exact_horner(c: list[int], v: tuple[int, int], ev: int) -> tuple[int, int, int]:
    """(l, h, e) with [l, h] * 2**e exact interval Horner of sum_i c_i w**i
    over w in [v[0], v[1]] * 2**ev, ev <= 0, in the unit of c times 2**e.
    It runs homogenized, on the integers v with k = 0 and coefficient i
    times 2**(-ev * (d - i)), d = len(c) - 1: a positive scaling, exact in
    interval arithmetic, so no floor of `_horner` cuts anything, and the
    integers grow from the leading coefficient down instead of starting at
    full width."""
    d = len(c) - 1
    c = [ci << -ev * (d - i) for i, ci in enumerate(c)]
    l, h = _horner(c, c, v, 0)
    return l, h, d * ev


def eval_interval(p: XYPoly, x: DyadicInterval, y: DyadicInterval, *,
                  y_bounds: tuple[list[int], list[int], int] | None = None,
                  rows: list[Sequence[int]] | None = None) -> DyadicInterval:
    """Interval enclosing {p(v, y) : v in x} at a point y (lo == hi; any
    other y raises ValueError), or with rows reduced modulo P = P_n
    (y_rows(p, n)), an interval enclosing p(x_n, y) for the x_n in x, as
    P(x_n**2) = 0.  rows are p's y-rows in u = x**2 as `y_rows` gives
    them, y_rows(p) (undivided) by default, which refuses a term of odd
    x-degree with ValueError: p must be even in x, as every phi is (proved
    at riley.RileyPolynomial).

    The exact path forms the value at y of each u-column, the coefficient
    of one power of u in every row: with y = m / 2**k (`_scaled`) and
    D = len(rows) - 1, homogenized Horner in y over the rows,
    acc * m + (r_j << k * (D - j)) for j = D down to 0, gives
    sum_j r_j m**j 2**(k * (D - j)) exactly, the column's value in units of
    2**(-k D).  That is E, p(., y) in u, or with P its remainder R modulo
    P: long division by a monic P is linear in the row, so R is
    sum_j y**j times the residue of row j.  v**2 lies in U = {w**2 : w in
    x} (`_squares`) for every v in x, so exact interval Horner of E in u
    over U (`_exact_horner`) encloses p(., y) over x, exact at a point x.
    With P, P(u_n) = 0 at u_n = x_n**2, so p(x_n, y) = R(u_n), and u_n lies
    in U when x_n lies in x.  The width then comes from U alone on deg P
    steps in place of deg_x / 2, and a residue of degree 0 is exact at any
    width of x; the result encloses p only at the x_n that P names, not
    over all of x.

    y_bounds = (lo, hi, e), when given, must bound the y-coefficients the
    rows hold, as `y_row_bounds` gives them from the same rows:
    lo[j] * 2**e <= c_j <= hi[j] * 2**e, at every v in x or, with P, at
    x_n.  For y >= 0 the enclosure [sum lo[j] y**j, sum hi[j] y**j] is then
    formed by `_horner` in y at [m, m] on the unit 2**e, each end rounded
    outward, and returned when it excludes 0; otherwise, an exact zero
    included, the exact path runs, and a negative y always takes it.  A
    returned sign is the exact path's: by subdistributivity, (A + B) * X
    within A * X + B * X, with y**j >= 0 a point factor, Horner in u of
    sum_j y**j c_j lies inside sum_j y**j * (Horner of c_j), each term
    within [lo[j], hi[j]] * 2**e, and the roundings only widen the sum.
    """
    m, y_hi, ey = _scaled(y)
    if m != y_hi:
        raise ValueError(f"eval_interval takes a point y, not {y!r}")
    if y_bounds is not None and m >= 0:
        lo, hi, e = y_bounds
        l, h = _horner(lo, hi, (m, m), -ey)
        if l > 0 or h < 0:
            return DyadicInterval(Dyadic(l, e), Dyadic(h, e))
    if rows is None:
        rows = y_rows(p)
    shifts, b = [-ey * t for t in range(len(rows))], []
    for col in zip(*rows):
        acc = 0
        for r, s in zip(reversed(col), shifts):     # r_j, s = k * (D - j)
            acc = acc * m + (r << s)
        b.append(acc)
    x_lo, x_hi, ex = _scaled(x)
    l, h, ev = _exact_horner(b, _squares(x_lo, x_hi), 2 * ex)
    e = ey * (len(rows) - 1) + ev
    return DyadicInterval(Dyadic(l, e), Dyadic(h, e))


def y_rows(p: XYPoly, n: int | None = None) -> list[Sequence[int]]:
    """The rows that exact evaluation and the y-coefficient bounds run on:
    row j lists the y-row c_j, j = 0 .. deg_y, in u = x**2, ascending, or
    given n >= 2 its residue modulo P_n (`_residue_rows`, ValueError on an
    odd x-degree).  The rows depend on neither x, y nor the unit, so a
    caller that signs at many points or re-encloses at a finer x reduces
    p once."""
    return _residue_rows(p, n) if p._terms else [(0,)]


def y_row_bounds(rows: list[Sequence[int]], x: DyadicInterval, e: int
                 ) -> tuple[list[int], list[int], int]:
    """(lo, hi, e) with lo[j] * 2**e <= c_j(v) <= hi[j] * 2**e for every v in
    x, or with rows reduced modulo P_n at the x_n in x (see eval_interval),
    for the rows `y_rows` gives and a unit e <= 0: `_horner` of each row
    in u over the squares of x, on the unit 2**e.

    On a unit at or below deg_x * e_x, e_x the exponent of x as `_scaled`
    gives it, no floor cuts anything and the bounds are exact interval
    Horner in u.  On a coarser one the floors and ceilings only widen each
    enclosure, while the integers stay near 2**-e in place of growing by the
    bits of x with every degree."""
    x_lo, x_hi, ex = _scaled(x)
    u, k = _squares(x_lo, x_hi), -2 * ex
    lo, hi = [], []
    for row in rows:
        c = [ci << -e for ci in row]
        while len(c) > 1 and not c[-1]:     # Horner on leading zeros is 0
            c.pop()
        l, h = _horner(c, c, u, k)
        lo.append(l)
        hi.append(h)
    return lo, hi, e
