"""Riley polynomials by two independent routes.

The generic engine evaluates any two-bridge relator word in the parabolic-
style generator images and rewrites the (1,2) entry of R = VA - BV in
x = s + 1/s.  The closed forms build the same polynomials for J(2k+1, 2m)
and for K_l out of Chebyshev compositions.  The routes cross-check each
other: the engine is the trust anchor for the transcribed closed forms.

The engine works on packed integers (Kronecker substitution, see
`polyring.Packing`).  Each generator is scaled by s, so that a word of L
letters has entries s**L * V_ij with s-exponents in [0, 2L], even on the
diagonal and odd off it, as every product of the generators keeps them.
Every word product is one row vector times the letters, read straight
off the word's reduced string a character at a time (`_word_product`), at
y = 2 + z.  Row 1 is held as s**L (V11, V12 / s) and row 2 as
s**L (s V21, V22): each entry is then one integer in t = s**2 and z, at
t = 2**B, z = 2**(B*S), and a letter maps both rows alike by one add
and powers of t and z: sA = [[t, s], [0, 1]] takes (c1, c2) to
(t c1, c1 + c2), and sB = [[t, 0], [-z s, 1]] (2 - y = -z) to
(t (c1 - z c2), c2).  Each entry is held as c = C t**e, e pending, so a
factor t or z only raises e; the one shift a letter makes aligns the two
operands of its add, and the pending shifts are applied once, at the end,
which returns the same integers as shifting letter by letter.  So row
1 is the product from (1, 0) and row 2 the product from (0, 1).  The slot
width B and the t-span of each entry come from one pass over the letters
before any arithmetic (`_row_span`): a letter adds one entry, times s or
-z s, to the other, so the l1 norm grows by 1 per b-letter, not by 3 as
with (2 - y)s in y; the norms bound every coefficient, and a sum's
support lies in the hull of its terms' supports.  Each value read goes
to the rewrite as it is, in z, with its packing and its bound in y from
the same pass: the rewrite checks it in z, sizes its y-slots by that
bound and shifts back to y only the half of each row it reads (see
`polyring.symmetric_rewrite`).
R11 = 0 and R21 = (y - 2)R12 + (s - 1/s)R22 hold for every V, so
R22 = V21 - (2 - y)V12 = 0 is the one structure condition, and the mirror
rule decides it on the word.  With D = diag(1, 2 - y),
B = D A^T D^-1 and A = D B^T D^-1, so the mirror tau(w) of a word (its
string reversed, a with b and A with B swapped, `Word.mirror`) has
rho(tau(w)) = D rho(w)^T D^-1, whose (2,1) entry is (2 - y)V12: a word
with tau(w) = w has R22 = 0, and as rho is faithful no other word has.
Every relator word built here is its own mirror: a fraction's sign
sequence is a palindrome, e_{p-i} = e_i, since (p - i)q = p - iq mod 2p,
and the J(2k+1, 2m) base words and K_l's D and C^-1 D are mirrors by
construction.  So `riley_generic` checks tau(v) = v exactly, before any
arithmetic (`_kl_readings` checks D and C^-1 D alike), and
then needs only R12, for the word and its powers alike: tau reverses
products, so tau(v**m) = v**m for every m.  R12 reads row 1 of V alone,
the product from (1, 0), in rows only as wide as R12's t-span, which
the pass over the word bounds (`_mirror_span`): S = sigma + 1 slots,
sigma = deg_x(phi) on a fraction's word, where R12 reaches about 0.65 L.
Packed arithmetic is evaluation at t = 2**B, z = 2**(B*S), a ring
homomorphism, so the product's rows may overlap as long as R12's do not.
R12 stays packed, s**sigma R12 in z-rows of t-slots (sigma the
packing's shift), and `polyring.symmetric_rewrite` reads phi off its
digits in one pass, which checks in z that every row reads the same
backwards, shifts the upper halves back to y, and proves phi exact by
the bound that accepts it (see there).  So phi is the one value
unpacked, and no second pass checks it.

The power route of J(2k+1, 2m), v**m for the base word v, never forms
the power.  R = VA - BV is linear in V and R12(I) = 1; when det V = 1,
Cayley-Hamilton gives V**m = S_{m-1}(tr V) V - S_{m-2}(tr V) I for
m >= 1, and the rewrite is a ring map on symmetric polynomials.  So
phi = S_{|m|-1}(lambda) alpha - S_{|m|-2}(lambda), lambda the rewrite of
tr V = tr V**-1 and alpha that of R12 of V, or of V**-1 for m < 0.  This
is Riley's trace and R12 construction, which the closed forms
transcribe.  All three come off both rows of v's one product
(`_unimodular_trace`): lambda, det V = 1, the premise of Cayley-Hamilton,
checked in z-rows of 2 sigma + 1 t-slots that hold det V, and alpha, off
row 1 of V or, as V**-1 = adj V, off adj V's row 1 (V22, -V12); only the
trace and that R12 are rewritten, each half shifted back to y there.
K_l's relator C**(l-1) D takes the same route (`_kl_readings`), off
both rows of C and row 1 of D and of C^-1 D, so no word longer than C's
10 letters is multiplied out; `kl_cross_check` compares those readings
with the closed form's transcriptions.

Every Chebyshev combination S_n(lambda) a - S_{n-1}(lambda) b, closed
form or power route (`_chebyshev_combination`), runs the recurrence
S_{j+1} = t S_j - S_{j-1} on packed integers too, multiplying by t one
term at a time (a shift and a small-integer multiple).  It packs
u = x**2 into the inner slots, as many as the result's x-degree, and y
into the outer ones: lambda, a and b have even x-degrees only, those of
the closed forms by their formulas and those read off a word because it
has even length (a mirror word's letters pair off about the middle, a
with b, and C has 10).  The
slots are sized before any arithmetic by N_{j+1} = ||t||_1 N_j + N_{j-1},
which bounds the l1 norm of S_j(t), so the one value unpacked, phi, is
faithful.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache

from .chebyshev import _cheb_norms, _packed_cheb_pair, cheb_poly
from .knots import (KL_WORD_C, KL_WORD_D, DoubleTwistKnot, KlKnot,
                    TwoBridgeFraction, Word, sign_sequence, word_double_twist,
                    word_from_signs)
from .polyring import Packing, XYPoly, _times, symmetric_rewrite


class StructureViolation(ValueError):
    """R = VA - BV lacks the off-diagonal shape every two-bridge word gives."""


class NotUnimodular(ValueError):
    """det rho(w) is not 1, as the power route's Cayley-Hamilton step needs."""


class RileyPolynomial(namedtuple("RileyPolynomial", "poly knot presentation")):
    """phi_K(x, y), an XYPoly, together with where it came from: the knot's
    label and the presentation.  No __slots__: content_hash caches in the
    instance __dict__, which it writes directly, so assignment is refused.

    phi is even in x, a polynomial in u = x**2, which is all that
    polyring's evaluation takes (it raises ValueError on an odd x-term).
    s -> -s sends A = [[s, 1], [0, 1/s]] and B = [[s, 0], [2 - y, 1/s]] to
    -D A D**-1 and -D B D**-1, D = diag(1, -1), and so the image V of a
    word w to (-1)**|w| D V D**-1, which is D V D**-1 for a relator word,
    as every one has even length.  R = VA - BV then goes to -D R D**-1,
    whose entry (1, 2) is R12 again, as conjugation by D negates it:
    R12(-s, y) = R12(s, y).  phi(x, y) is R12 written in x = s + 1/s,
    which s -> -s sends to -x, so phi(-x, y) = phi(x, y).  The closed
    forms are even by their formulas: `_chebyshev_combination` packs them
    in u and refuses an odd x-degree."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: RileyPolynomial is immutable")

    @cached_property
    def content_hash(self) -> str:
        """Computed once, when first read: a cross-check compares polys only."""
        return self.poly.content_hash()


@lru_cache(maxsize=1)
def generator_images() -> tuple[tuple[dict, ...], tuple[dict, ...]]:
    """A = [[s, 1], [0, 1/s]] and B = [[s, 0], [2 - y, 1/s]], each as its
    four entries, row by row, in {(s_exp, y_deg): coeff} term maps, which
    callers must not mutate.

    The program multiplies packed rows only (`_word_product`).  These are
    the data of the tests' independent dict oracle, which forms the dict
    word product and the relator of acceptance criterion 4 from them.
    perfbench clears this cache by name, so they move into the tests only
    with a benchmark revision."""
    a = ({(1, 0): 1}, {(0, 0): 1}, {}, {(-1, 0): 1})
    b = ({(1, 0): 1}, {}, {(0, 0): 2, (0, 1): -1}, {(-1, 0): 1})
    return a, b


def _word_product(text: str, row: tuple[int, int], b: int, zs: int
                  ) -> tuple[int, int]:
    """row times the ordered product of the letters of text, each scaled
    by s, at y = 2 + z, as t-integers at t = 2**b, z = 2**zs: from (1, 0)
    row 1 of s**L V, held as (V11, V12 / s) times s**L, and from (0, 1)
    row 2, held as (s V21, V22) times s**L.  Each letter multiplies on the
    right, and in that form it maps both rows alike; a b-letter's 2 - y is
    -z, a power of t as t is.

    Each entry is held as c = C t**e, C and a pending exponent kept in
    bits (e b, and zs for z), so a letter's factor t or z only raises an
    exponent.  The one shift a letter makes aligns the operands of its
    add: the C with the larger exponent is shifted left by the difference,
    and the sum takes the smaller exponent.  So c = C t**e holds after
    every letter, and each C shifted by its exponent at the end is exactly
    the integer that shifting letter by letter gives; only the trailing
    zeros that no later add needs are never written."""
    c1, c2 = row
    e1 = e2 = 0
    for ch in text:
        if ch == "a":       # sA = [[t, s], [0, 1]]: c2 += c1, c1 *= t
            d = e1 - e2
            if d >= 0:
                c2 += c1 << d
            else:
                c2 = (c2 << -d) + c1
                e2 += d
            e1 += b
        elif ch == "A":     # sA^-1 = [[1, -s], [0, t]]: c2 = t c2 - c1
            e2 += b
            d = e1 - e2
            if d >= 0:
                c2 -= c1 << d
            else:
                c2 = (c2 << -d) - c1
                e2 += d
        elif ch == "b":     # sB = [[t, 0], [-z s, 1]]: c1 = t (c1 - z c2)
            d = e2 + zs - e1
            if d >= 0:
                c1 -= c2 << d
            else:
                c1 = (c1 << -d) - c2
                e1 += d
            e1 += b
        else:               # sB^-1 = [[1, 0], [z s, t]]: c1 += t z c2, c2 *= t
            d = e2 + b + zs - e1
            if d >= 0:
                c1 += c2 << d
            else:
                c1 = (c1 << -d) + c2
                e1 += d
            e2 += b
    return c1 << e1, c2 << e2


def _row_span(text: str, row: tuple[int, int]) -> tuple:
    """((n1, n2), (m1, m2), (lo1, hi1), (lo2, hi2)): the l1 norms of the
    t-integers c1, c2 that `_word_product(text, row, ...)` returns, in z
    and in y = 2 + z, and the hulls of their t-supports, from one pass over
    the letters before any arithmetic.  A b-letter adds c2 times -z s to
    c1, norm 1 in z, 3 in y ((2 - y) s), an a-letter c1 times s to c2.
    A sum's support lies in the hull of its terms' supports, a
    factor t shifts it by one and -z leaves it, so sA takes the hulls
    (h1, h2) to (h1 + 1, h1 | h2), sA^-1 to (h1, h1 | h2 + 1), sB to
    ((h1 | h2) + 1, h2) and sB^-1 to (h1 | h2 + 1, h2 + 1); the hull of 0
    is empty, (inf, -inf)."""
    (n1, n2), (m1, m2) = row, row
    (lo1, hi1), (lo2, hi2) = ((0, 0) if c else (math.inf, -math.inf) for c in row)
    for ch in text:
        if ch in "aA":
            n2, m2 = n2 + n1, m2 + m1
            if ch == "a":
                lo2, hi2 = min(lo1, lo2), max(hi1, hi2)
                lo1, hi1 = lo1 + 1, hi1 + 1
            else:
                lo2, hi2 = min(lo1, lo2 + 1), max(hi1, hi2 + 1)
        else:
            n1, m1 = n1 + n2, m1 + 3 * m2
            if ch == "b":
                lo1, hi1 = min(lo1, lo2) + 1, max(hi1, hi2) + 1
            else:
                lo1, hi1 = min(lo1, lo2 + 1), max(hi1, hi2 + 1)
                lo2, hi2 = lo2 + 1, hi2 + 1
    return (n1, n2), (m1, m2), (lo1, hi1), (lo2, hi2)


def _mirror_span(length: int, hulls) -> tuple[int, int]:
    """(lo, hi): the span of these t-hulls, of entries of s**L times a
    matrix, widened to its mirror image, lo + hi = L, which centres it on
    s**0, where `symmetric_rewrite` reads it."""
    lo = min(min(l for l, _ in hulls), length - max(h for _, h in hulls))
    return lo, length - lo


def _relator_r12(word: Word) -> tuple[int, Packing, int]:
    """R12 of R = VA - BV for V = rho(word) as `symmetric_rewrite` reads
    it: (value, z, y_norm), the integer in z, its packing and m1 + 2 m2,
    from row 1 of the product alone, in rows only as wide as its t-span.

    R12 / s = c1 + c2 - t c2 for row 1 (c1, c2) of the product (V sA minus
    sB V), so with `_row_span` from (1, 0) its t-slots lie in the hull of
    h1, h2 and h2 + 1 and its l1 norm is at most n1 + 2 n2 in z, m1 + 2 m2
    in y.  R12 of a relator is invariant under s -> 1/s (the rewrite checks
    it), so its t-support is symmetric about L / 2 anyway, and its
    mirror-widened span lo .. hi (`_mirror_span`) is deg_x(phi) wide on a
    fraction's word.  The letter loop runs at t = 2**B,
    z = 2**(B (sigma + 1)), sigma = hi - lo, B wide enough for the z-norm:
    evaluation at that point, so intermediate rows may overlap, and only
    R12, the one value read, must fit its rows, as its support does.  The
    t-slots below lo must come out 0; shifted off, they leave s**sigma R12
    in sigma + 1 t-slots a z-row, whose upper halves the rewrite shifts
    back to y, in slots it sizes by the y-norm.  The mask that raises
    StructureViolation reads only z-row 0's slots below lo: a stray term
    t**(lo - 1) z**j, j >= 1, is shifted into slot sigma of z-row j - 1,
    which then no longer matches its mirror slot 0 (sigma > 0), so the
    rewrite refuses it as NotSymmetric."""
    text = word.text
    (n1, n2), (m1, m2), h1, (lo2, hi2) = _row_span(text, (1, 0))
    lo, hi = _mirror_span(len(text), (h1, (lo2, hi2), (lo2 + 1, hi2 + 1)))
    z = Packing.covering(hi - lo, hi - lo + 1, n1 + 2 * n2)
    b = 8 * z.nbytes
    c1, c2 = _word_product(text, (1, 0), b, b * z.slots)
    # R12 / s: V11 + V12 - t V12, one more power of s than V; R's
    # off-diagonal packing, one shift up and one down, is V's
    r12 = c1 + c2 - (c2 << b)
    if r12 & ((1 << b * lo) - 1):
        raise StructureViolation("R_12 has terms below its t-span")
    return r12 >> b * lo, z, m1 + 2 * m2


def _unimodular_trace(word: Word, m: int | None = None
                      ) -> tuple[XYPoly, tuple[int, Packing, int] | None]:
    """(lambda, r12) off both rows of V = rho(word): lambda =
    rewrite(tr V) once det V = 1 is checked (NotUnimodular otherwise), and,
    when m is given, s**sigma R12 of R = VA - BV for V, or for adj V when
    m < 0, as `symmetric_rewrite` reads it, (value, z, y_norm) as
    `_relator_r12` gives it, y_norm = 3 n_y (None otherwise).

    With lo .. hi the mirror-widened span (`_mirror_span`) of the four
    entries' t-hulls (`_row_span`) and t c12's, and sigma = hi - lo, each
    entry is t**lo times one in t-slots 0 .. sigma.  The letter loop runs
    in z-rows of 2 sigma + 1 t-slots; the t-slots below lo must come out 0
    and are shifted off.  The mask that raises StructureViolation reads
    only z-row 0's slots below lo: a stray term t**(lo - 1) z**j, j >= 1,
    in an entry is shifted into slot 2 sigma of z-row j - 1.  There it
    moves det V by its product with the entry it meets in the det (c22
    for c11, c21 for c12), so NotUnimodular is raised unless that entry
    is 0; in the trace or an R12 it sits above sigma, where the rewrite's
    blank check refuses it as NotSymmetric.  Then
    c11 c22 - c12 c21 = t**sigma det V, whose difference from t**sigma
    has coefficients of at most 2 n**2 + 1 in magnitude, n the largest
    row norm in z.  Slots of that many and wide enough for n**2 make it 0
    exactly when its integer is; det V = 1 in z is det V = 1 in y.  R12 is
    c1 + c2 - t c2 off a row 1 (c1, c2), as in `_relator_r12`: V's
    (c11, c12) or adj V's (c22, -c12), of l1 norm at most 3 n.  Only what
    the caller uses, c11 + c22 = s**sigma tr V and that R12, is read back
    to y, by the rewrite, which sizes its slots by 3 n_y, n_y the largest
    row norm in y; the trace is rewritten here."""
    text = word.text
    spans = [_row_span(text, row) for row in ((1, 0), (0, 1))]
    hulls = [h for _, _, *row_hulls in spans for h in row_hulls]  # c11, c12, c21, c22
    lo, hi = _mirror_span(len(text), hulls + [(hulls[1][0] + 1, hulls[1][1] + 1)])
    sigma, (nz, ny) = hi - lo, (max(max(span[i]) for span in spans) for i in (0, 1))
    z = Packing.covering(sigma, 2 * sigma + 1, max(nz * nz, 3 * nz))
    b = 8 * z.nbytes
    rows = [_word_product(text, row, b, b * z.slots) for row in ((1, 0), (0, 1))]
    if any(c & ((1 << b * lo) - 1) for row in rows for c in row):
        raise StructureViolation("an entry has terms below its t-span")
    (c11, c12), (c21, c22) = ((c1 >> b * lo, c2 >> b * lo) for c1, c2 in rows)
    if c11 * c22 - c12 * c21 != 1 << sigma * b:
        raise NotUnimodular("determinant is not the ring unit")
    lam = symmetric_rewrite(c11 + c22, z, 3 * ny)
    if m is None:
        return lam, None
    r12 = c22 - c12 + (c12 << b) if m < 0 else c11 + c12 - (c12 << b)
    return lam, (r12, z, 3 * ny)


def riley_generic(v: Word, m: int | None = None, *, knot: str = "") -> RileyPolynomial:
    """phi from the relator word: R12 of R = VA - BV for V = rho(v), read
    off row 1 of V, or for V**m when m is given, by Cayley-Hamilton:
    S_{|m|-1}(lambda) alpha - S_{|m|-2}(lambda), lambda = rewrite(tr V)
    and alpha R12's off row 1 of V, or of adj V = V**-1 for m < 0, from
    v's one product, which checks det V = 1 (`_unimodular_trace`).  v must
    be its own mirror (`Word.mirror`), which makes R22 = 0 for V**m too."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if v.mirror() != v:
        raise StructureViolation("the word is not its own mirror, so R_22 != 0")
    if m is None:
        phi = symmetric_rewrite(*_relator_r12(v))
    else:
        lam, r12 = _unimodular_trace(v, m)
        phi = _chebyshev_combination(abs(m) - 1, lam, symmetric_rewrite(*r12), _ONE)
    tag = f"word:{v.text}" + ("" if m is None else f"^{m}")
    return RileyPolynomial(phi, knot, tag)


_ONE = XYPoly({(0, 0): 1}, ordered=True)


def _convolve(a, b) -> list[int]:
    """The coefficient list of the product of two polynomials in one
    variable, each given by its coefficient list, ascending degree."""
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return out


def _from_y_lists(rows: dict[int, list[int]]) -> XYPoly:
    """The XYPoly sum_i x**i f_i(y), f_i given by its y-coefficient list."""
    return XYPoly({(i, j): c for i, f in rows.items() for j, c in enumerate(f) if c})


def alpha_dt(k: int) -> XYPoly:
    """1 + (y + 2 - x^2) S_{k-1}(y) (S_k(y) - S_{k-1}(y)).

    x enters only as x^2 in the one linear factor, so with
    P = S_{k-1} (S_k - S_{k-1}) alpha is 1 + (y + 2) P at x^0 and -P at
    x^2, on y-coefficient lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s_k, s_km1 = cheb_poly(k), cheb_poly(k - 1)
    p = _convolve(s_km1, [a - b for a, b in zip(s_k, s_km1 + (0,))])
    at_x0 = _convolve((2, 1), p)
    at_x0[0] += 1
    return _from_y_lists({0: at_x0, 2: [-c for c in p]})


def lambda_dt(k: int) -> XYPoly:
    """x^2 - y - (y - 2)(y + 2 - x^2) S_k(y) S_{k-1}(y).

    With Q = S_k S_{k-1} this is -y - (y^2 - 4) Q at x^0 and
    1 + (y - 2) Q at x^2, on y-coefficient lists."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q = _convolve(cheb_poly(k), cheb_poly(k - 1))
    at_x0, at_x2 = _convolve((4, 0, -1), q), _convolve((-2, 1), q)
    at_x0[1] -= 1
    at_x2[0] += 1
    return _from_y_lists({0: at_x0, 2: at_x2})


def riley_double_twist(k: int, m: int) -> RileyPolynomial:
    """Closed form for J(2k+1, 2m): S_{m-1}(lam)*alpha - S_{m-2}(lam) for
    m >= 2, and S_{|m|}(lam) - S_{|m|-1}(lam)*alpha for m <= -2.

    (k, m) must name a DoubleTwistKnot, which raises ValueError otherwise:
    |m| <= 1 lies outside the family convention.
    """
    knot = DoubleTwistKnot(k, m).spec_string()
    lam = lambda_dt(k)
    alpha = alpha_dt(k)
    if m > 0:
        phi = _chebyshev_combination(m - 1, lam, alpha, _ONE)
    else:
        phi = _chebyshev_combination(-m, lam, _ONE, alpha)
    return RileyPolynomial(phi, knot, "closed-form")


def _chebyshev_combination(n: int, lam: XYPoly, a: XYPoly, b: XYPoly) -> XYPoly:
    """S_n(lam) * a - S_{n-1}(lam) * b for n >= 0, on packed integers: u = x**2
    in the inner slots, as many as the result's x-degree needs, and y outer;
    lam, a and b have even x-degrees only, as those of the closed forms and
    those read off an even-length word do, which the packing checks.  The
    slots cover the l1 bound N_n ||a||_1 + N_{n-1} ||b||_1 of `_cheb_norms`,
    so the one value unpacked is faithful."""
    def l1(f: XYPoly) -> int:
        return sum(map(abs, f._terms.values()))

    n_prev, n_cur = _cheb_norms(n, l1(lam))
    deg_x = max(n * lam.deg_x() + a.deg_x(), (n - 1) * lam.deg_x() + b.deg_x())
    packing = Packing.covering(0, deg_x // 2 + 1, n_cur * l1(a) + n_prev * l1(b))
    s_prev, s_cur = _packed_cheb_pair(n, packing.multiplier(lam._terms))
    phi = (_times(s_cur, packing.multiplier(a._terms))
           - _times(s_prev, packing.multiplier(b._terms)))
    return XYPoly(packing.unpack(phi), ordered=True)


@lru_cache(maxsize=1)
def kl_named_polys() -> tuple[XYPoly, XYPoly, XYPoly]:
    """The transcribed (lambda, alpha, beta) of the K_l closed form.

    kl_cross_check() recovers all three from the generic engine; the long
    lambda especially is exactly the kind of constant a transcription slip
    would corrupt.
    """
    lam = XYPoly.from_terms([
        (2, 0, 9), (4, 0, -12), (6, 0, 4),
        (0, 1, -5), (2, 1, 10), (4, 1, 2), (6, 1, -4),
        (2, 2, -11), (4, 2, 8), (6, 2, 1),
        (0, 3, 5), (2, 3, -4), (4, 3, -3),
        (2, 4, 3),
        (0, 5, -1),
    ])
    alpha = XYPoly.from_terms([
        (0, 0, 1), (2, 0, -4), (4, 0, 2),
        (0, 1, 2), (2, 1, -1), (4, 1, -1),
        (0, 2, -1), (2, 2, 2),
        (0, 3, -1),
    ])
    beta = XYPoly.from_terms([(0, 0, -1), (2, 0, 1), (0, 1, -1)])
    return lam, alpha, beta


def _kl_readings() -> tuple[XYPoly, XYPoly, XYPoly]:
    """(lambda, alpha, beta) of K_l off the generic engine: lambda the
    rewrite of tr C off both rows of C's product, which checks det C = 1
    (`_unimodular_trace`), and alpha and beta the rewrites of R12 of D and
    of C^-1 D off row 1 (`_relator_r12`).

    K_l's relator is C**(l-1) D.  As det C = 1, C + C**-1 = (tr C) I, so
    X_n = S_n(tr C) I - S_{n-1}(tr C) C**-1 obeys X_{n+1} = (tr C) X_n -
    X_{n-1} from X_0 = I and X_1 = C, and so is C**n.  Hence
    C**(l-1) D = S_{l-1}(tr C) D - S_{l-2}(tr C) C**-1 D; R = VA - BV is
    linear in V over the scalars, and the rewrite is a ring map on
    symmetric polynomials, so phi = S_{l-1}(lambda) alpha -
    S_{l-2}(lambda) beta, `_chebyshev_combination(l - 1, ...)`.  R22 is
    linear too, so it vanishes for C**(l-1) D because D and C**-1 D are
    each their own mirror (`Word.mirror`), which is checked here."""
    c_inv_d = KL_WORD_C.inverse() * KL_WORD_D
    if KL_WORD_D.mirror() != KL_WORD_D or c_inv_d.mirror() != c_inv_d:
        raise StructureViolation("D or C^-1 D is not its own mirror, so R_22 != 0")
    alpha, beta = (symmetric_rewrite(*_relator_r12(w)) for w in (KL_WORD_D, c_inv_d))
    return _unimodular_trace(KL_WORD_C)[0], alpha, beta


def kl_cross_check() -> bool:
    """The engine's lambda, alpha and beta of K_l (`_kl_readings`), the
    ones its generic phi is built from, equal the transcriptions."""
    return _kl_readings() == kl_named_polys()


def riley_kl(l: int) -> RileyPolynomial:
    """Closed form for K_l: S_{l-1}(lam)*alpha - S_{l-2}(lam)*beta."""
    knot = KlKnot(l)
    lam, alpha, beta = kl_named_polys()
    phi = _chebyshev_combination(l - 1, lam, alpha, beta)
    return RileyPolynomial(phi, knot.spec_string(), "closed-form")


def kl_alpha_derivative_check() -> bool:
    """d(alpha)/dy matches 2 - x^2 - x^4 - 2y + 4x^2 y - 3y^2, and its
    discriminant as a quadratic in y is 4x^4 - 28x^2 + 28."""
    _, alpha, _ = kl_named_polys()
    dalpha = {(i, j - 1): c * j for (i, j), c in alpha._terms.items() if j}
    if dalpha != {(0, 0): 2, (2, 0): -1, (4, 0): -1, (0, 1): -2, (2, 1): 4, (0, 2): -3}:
        return False
    # a y^2 + b y + c -> b^2 - 4 a c, each of a, b, c an x-coefficient list
    a, b, c = ([dalpha.get((i, j), 0) for i in range(5)] for j in (2, 1, 0))
    disc = [u - 4 * v for u, v in zip(_convolve(b, b), _convolve(a, c))]
    return disc == [28, 0, -28, 0, 4, 0, 0, 0, 0]


def riley_for_knot(knot, *, engine: str = "auto") -> RileyPolynomial:
    """Dispatch: families use their closed forms, fractions the generic
    engine; engine="generic" forces the engine for families too, by the
    power route: J:k,m off its base word (`riley_generic(v, m)`), K_l off
    C, D and C^-1 D (`_kl_readings`).  Any other engine is a ValueError."""
    if engine not in ("auto", "generic"):
        raise ValueError(f"engine must be 'auto' or 'generic', got {engine!r}")
    if isinstance(knot, DoubleTwistKnot):
        if engine == "generic":
            w, m = word_double_twist(knot)
            return riley_generic(w, m, knot=knot.spec_string())
        return riley_double_twist(knot.k, knot.m)
    if isinstance(knot, KlKnot):
        if engine == "generic":
            phi = _chebyshev_combination(knot.l - 1, *_kl_readings())
            tag = f"word:({KL_WORD_C.text})^{knot.l - 1}{KL_WORD_D.text}"
            return RileyPolynomial(phi, knot.spec_string(), tag)
        return riley_kl(knot.l)
    if isinstance(knot, TwoBridgeFraction):
        v = word_from_signs(sign_sequence(knot))
        return riley_generic(v, knot=knot.spec_string())
    raise TypeError(f"not a knot descriptor: {knot!r}")
