"""Riley polynomials by two independent routes.

The generic engine evaluates any two-bridge relator word in the parabolic-
style generator images and rewrites the (1,2) entry of R = VA - BV in
x = s + 1/s.  The closed forms build the same polynomials for J(2k+1, 2m)
and for K_l out of Chebyshev compositions.  The routes cross-check each
other: the engine is the trust anchor for the transcribed closed forms.

The engine works on packed integers (Kronecker substitution, see
`polyring.Packing`).  Each generator is scaled by s, so that a word of L
letters has entries s**L * W_ij with s-exponents in [0, 2L], even on the
diagonal and odd off it, as every product of the generators keeps them.
So each entry is one integer in t = s**2, the off-diagonal ones divided by
s, at t = 2**B, y = 2**(B*S), and a letter is a column update of a few
shifts and adds: sA = [[t, s], [0, 1]] maps the t-integers of the columns
(c1, c2) to (t c1, c1 + c2) in row 1 and (t c1, t c1 + c2) in row 2.  The
slot width B comes from an l1-norm recursion run over the word before any
arithmetic: a letter adds one column, times s or (2 - y)s (l1 norm 1 or
3), to the other, so the norms bound every coefficient of V.  The whole
matrix (`evaluate_word`) is multiplied out only to be unpacked into the
term maps of its entries, so B covers the largest of the norms and
S = L + 1 slots hold an entry's t-slots 0 .. L.
R11 = 0 and R21 = (y - 2)R12 + (s - 1/s)R22 hold for every V, so
R22 = V21 - (2 - y)V12 = 0 is the one structure condition, and the mirror
rule decides it on the word.  With D = diag(1, 2 - y),
B = D A^T D^-1 and A = D B^T D^-1, so the mirror tau(w) of a word (its
letters reversed, a and b swapped, `Word.mirror`) has
rho(tau(w)) = D rho(w)^T D^-1, whose (2,1) entry is (2 - y)V12: a word
with tau(w) = w has R22 = 0, and as rho is faithful no other word has.
Every relator word built here is its own mirror: a fraction's sign
sequence is a palindrome, e_{p-i} = e_i, since (p - i)q = p - iq mod 2p,
and the K_l and J(2k+1, 2m) words are mirrors by construction.  So
`riley_generic` checks tau(v) = v exactly, before any arithmetic, and
then needs only R12, for the word and its powers alike: tau reverses
products, so tau(v**m) = v**m for every m, and tau(v**-1) = v**-1.
R12 reads row 1 of V alone: each letter multiplies on the right, so
row 1 evolves on its own and the product carries only it.
For a plain word its rows are laid only as wide as R12's t-span, which
the same pass over the word that bounds the norms bounds too
(`_row_one_span`): S = sigma + 1 slots, sigma = deg_x(phi) on a
fraction's word, where R12 reaches about 0.65 L.  Packed arithmetic is
evaluation at t = 2**B, y = 2**(B*S), a ring homomorphism, so the
product's rows may overlap as long as R12's do not.  R12 stays a packed
integer, s**sigma R12 in t-slots (sigma the packing's shift), and
`polyring.symmetric_rewrite` reads phi off its slot digits: slot
(sigma + e) / 2 of each y-row holds c_e, the coefficient of s**e + s**-e,
and each row is summed in that basis by Clenshaw's recurrence on packed
u-integers, u = x**2 (every e has sigma's parity).
Those slots are sized by sum_e |c_e| L_e, the Lucas number L_e being the
l1 norm of s**e + s**-e written in x, so phi is the one value unpacked.  The
back-substitution check then forms s**sigma phi(s + 1/s) per y-row in t,
Horner in (1 + t)**2, whose l1 norm is at most sum_i |phi_i| 2**i, and
compares it with R12's row: in R12's own slots when they are wide enough
for that bound, in re-laid wider ones otherwise.

The power route of J(2k+1, 2m), v**m for the base word v, never forms
the power.  R = VA - BV is linear in V and R12(I) = 1; when det V = 1,
Cayley-Hamilton gives V**m = S_{m-1}(tr V) V - S_{m-2}(tr V) I for
m >= 1, and the rewrite is a ring map on symmetric polynomials.  So
phi = S_{|m|-1}(lambda) alpha - S_{|m|-2}(lambda), lambda the rewrite of
tr V and alpha the phi of v, or of v**-1 (`Word.inverse`) for m < 0:
tr V**-1 = tr V, and v**-1 is its own mirror as v is, since
tau(v**-1) = tau(v)**-1.  This is Riley's trace and R12 construction,
which the closed forms transcribe.  alpha comes off row 1 as above;
lambda off the term maps of the whole product (`evaluate_word`), which
also settle det V = 1, the premise of Cayley-Hamilton, in slots that
hold det V (`_unimodular_trace`).  `kl_cross_check` reads the K_l lambda
the same way, and its alpha and beta, R12 of D and of C^-1 D, off row 1.

Every Chebyshev combination S_n(lambda) a - S_{n-1}(lambda) b, closed
form or power route (`_chebyshev_combination`), runs the recurrence
S_{j+1} = t S_j - S_{j-1} on packed integers too, multiplying by t one
term at a time (a shift and a small-integer multiple).  It packs
u = x**2 into the inner slots, as many as the result's x-degree, and y
into the outer ones: lambda, a and b have even x-degrees only, those of
the closed forms by their formulas and those of a mirror word because it
has even length (its letters pair off about the middle, a with b).  The
slots are sized before any arithmetic by N_{j+1} = ||t||_1 N_j + N_{j-1},
which bounds the l1 norm of S_j(t), so the one value unpacked, phi, is
faithful.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache

from .chebyshev import _cheb_norms, _cheb_pair, _packed_cheb_pair
from .knots import (KL_WORD_C, KL_WORD_D, DoubleTwistKnot, KlKnot,
                    TwoBridgeFraction, Word, sign_sequence, word_double_twist,
                    word_from_signs, word_kl)
from .polyring import Packing, PolyMatrix, SYPoly, XYPoly, _times, symmetric_rewrite


class StructureViolation(ValueError):
    """R = VA - BV lacks the off-diagonal shape every two-bridge word gives."""


class NotUnimodular(ValueError):
    """det rho(w) is not 1, as the power route's Cayley-Hamilton step needs."""


class GeneratorImages(namedtuple("GeneratorImages", "a b a_inv b_inv")):
    """The PolyMatrix images of a, b and their inverses."""

    __slots__ = ()


class RileyPolynomial(namedtuple("RileyPolynomial", "poly knot presentation")):
    """phi_K(x, y), an XYPoly, together with where it came from: the knot's
    label and the presentation.  No __slots__: content_hash caches in the
    instance __dict__, which it writes directly, so assignment is refused."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: RileyPolynomial is immutable")

    @cached_property
    def content_hash(self) -> str:
        """Computed once, when first read: a cross-check compares polys only."""
        return self.poly.content_hash()


@lru_cache(maxsize=1)
def generator_images() -> GeneratorImages:
    """A = [[s, 1], [0, 1/s]], B = [[s, 0], [2 - y, 1/s]]; inverses by adjugate.

    The program multiplies packed integers only (`evaluate_word`).  These
    dict matrices stay as the tests' independent oracle: the dict word
    product and the relator of acceptance criterion 4 are formed from them.
    perfbench clears this cache by name, so they move into the tests only
    with a benchmark revision."""
    s, s_inv = SYPoly.s(1), SYPoly.s(-1)
    zero, one = SYPoly.zero(), SYPoly.one()
    two_minus_y = SYPoly.const(2) - SYPoly.y()
    a = PolyMatrix(s, one, zero, s_inv)
    b = PolyMatrix(s, zero, two_minus_y, s_inv)
    return GeneratorImages(a, b, a.adjugate(), b.adjugate())


def _letters(word: Word) -> list[tuple[str, bool]]:
    """The word's letters, exponents expanded: (generator, positive)."""
    return [(gen, exp > 0) for gen, exp in word.letters for _ in range(abs(exp))]


def _word_product(letters: list[tuple[str, bool]], rows: tuple[int, int, int, int],
                  b: int, ys: int) -> tuple[int, int, int, int]:
    """rows times the ordered product of the letters, each scaled by s, as
    t-integers at t = 2**b, y = 2**ys.  Each letter multiplies on the right,
    so each row of the result depends on its own row of `rows` alone: from
    (1, 0, 0, 0) the loop carries row 1 of the product and row 2 stays 0."""
    q11, q12, q21, q22 = rows
    for gen, positive in letters:
        if gen == "a":
            if positive:    # sA = [[t, s], [0, 1]]
                q12 += q11
                q22 += q21 << b
                q11 <<= b
                q21 <<= b
            else:           # sA^-1 = [[1, -s], [0, t]]
                q12 = (q12 << b) - q11
                q22 = (q22 - q21) << b
        elif positive:      # sB = [[t, 0], [(2 - y)s, 1]]
            q11 = (q11 + (q12 << 1) - (q12 << ys)) << b
            q21 = (q21 << b) + (q22 << 1) - (q22 << ys)
        else:               # sB^-1 = [[1, 0], [(y - 2)s, t]]
            q11 += (q12 << b + ys) - (q12 << b + 1)
            q21 += (q22 << ys) - (q22 << 1)
            q12 <<= b
            q22 <<= b
    return q11, q12, q21, q22


def evaluate_word(word: Word) -> tuple[dict, dict, dict, dict]:
    """The {(s_exp, y_deg): coeff} maps of V11, V12, V21, V22 for V the
    ordered product of generator images, exponents expanded: multiplied
    out in t = s**2 as s**L times the product of the L letters, each
    scaled by s, in L + 1 t-slots per y-row of the entries' l1 norm."""
    letters = _letters(word)
    # l1 norms of the scaled entries, which bound their coefficients
    n11, n12, n21, n22 = 1, 0, 0, 1
    for gen, _ in letters:
        if gen == "a":
            n12, n22 = n12 + n11, n22 + n21
        else:
            n11, n21 = n11 + 3 * n12, n21 + 3 * n22
    packing = Packing.covering(len(letters), len(letters) + 1, max(n11, n12, n21, n22))
    b = 8 * packing.nbytes
    v = _word_product(letters, (1, 0, 0, 1), b, b * packing.slots)
    return tuple(p.unpack(q) for p, q in zip(packing.entries(), v))


def _row_one_span(letters: list[tuple[str, bool]]) -> tuple[int, int, int]:
    """(bound, lo, hi): R12 / s of the word's relator has t-slots in
    lo .. hi of each y-row of s**L R12 and l1 norm at most bound, from one
    pass over the letters before any arithmetic.

    The pass carries the l1 norms n11, n12 of row 1 of V and the hulls of
    the t-supports of its t-integers q11, q12 (t-slots of s**L V11 and
    s**(L - 1) V12): a sum's support lies in the hull of its terms'
    supports, a factor t shifts it by one and 2 - y leaves it, so sA takes
    the hulls (h11, h12) to (h11 + 1, h11 | h12), sA^-1 to
    (h11, h11 | h12 + 1), sB to ((h11 | h12) + 1, h12) and sB^-1 to
    (h11 | h12 + 1, h12 + 1).  R12 / s = q11 + q12 - t q12 lies in the hull
    of h11, h12 and h12 + 1, with l1 norm at most n11 + 2 n12.  The span
    returned is that hull widened to its mirror image, lo + hi = L, which
    centres it on s**0, where `symmetric_rewrite` reads it: R12 of a
    relator is invariant under s -> 1/s (the rewrite checks it), so its
    t-support is symmetric about L / 2 anyway.  On a fraction's word
    hi - lo is deg_x(phi)."""
    n11, n12 = 1, 0
    lo11 = hi11 = 0
    lo12, hi12 = math.inf, -math.inf       # q12 = 0: no support yet
    for gen, positive in letters:
        if gen == "a":
            n12 += n11
            if positive:
                lo12, hi12 = min(lo11, lo12), max(hi11, hi12)
                lo11, hi11 = lo11 + 1, hi11 + 1
            else:
                lo12, hi12 = min(lo11, lo12 + 1), max(hi11, hi12 + 1)
        else:
            n11 += 3 * n12
            if positive:
                lo11, hi11 = min(lo11, lo12) + 1, max(hi11, hi12) + 1
            else:
                lo11, hi11 = min(lo11, lo12 + 1), max(hi11, hi12 + 1)
                lo12, hi12 = lo12 + 1, hi12 + 1
    length = len(letters)
    lo = min(lo11, lo12, length - max(hi11, hi12 + 1))
    return n11 + 2 * n12, lo, length - lo


def _relator_r12(word: Word) -> tuple[int, Packing]:
    """R12 of R = VA - BV for V = rho(word) and its packing, from row 1 of
    the product alone, in y-rows only as wide as R12's t-span.

    With (bound, lo, hi) = `_row_one_span`, sigma = hi - lo: the letter
    loop runs at t = 2**B, y = 2**(B (sigma + 1)), B wide enough for
    bound.  Integer arithmetic there is evaluation at that point, so
    intermediate rows may overlap, and only R12, the one value read, must
    fit its rows, which its support in lo .. hi does.  The t-slots below
    lo must come out 0, StructureViolation otherwise; shifted off, they
    leave s**sigma R12 in sigma + 1 t-slots per y-row: the same terms as
    R12 formed from `evaluate_word(word)`, whose rows take L + 1."""
    letters = _letters(word)
    bound, lo, hi = _row_one_span(letters)
    packing = Packing.covering(hi - lo, hi - lo + 1, bound)
    b = 8 * packing.nbytes
    q11, q12, _, _ = _word_product(letters, (1, 0, 0, 0), b, b * packing.slots)
    # R12 / s of R = VA - BV, V sA minus sB V: V11 + V12 - t V12, one more
    # power of s than V; R's off-diagonal packing, one shift up and one
    # down, is V's
    r12 = q11 + q12 - (q12 << b)
    if r12 & ((1 << b * lo) - 1):
        raise StructureViolation("R_12 has terms below its t-span")
    return r12 >> b * lo, packing


def _unimodular_trace(maps: tuple[dict, dict, dict, dict]) -> XYPoly:
    """lambda = rewrite(tr V) for V given by its entries' term maps, as
    `evaluate_word` returns them, once det V = 1 is checked (NotUnimodular
    otherwise), the premise of the power route's Cayley-Hamilton step.

    V must be checkerboard, as every word's matrix is (`Packing.pack`
    refuses any other with ValueError).  With e the largest |s-exponent|
    of a diagonal entry and one more than that of an off-diagonal one,
    W = s**e V has det W = t**e det V in t-slots 0 .. 2e, and det W - t**e
    has coefficients of at most 2 ||W_ij||_1**2 + 1 in magnitude.  Slots
    of that many and wide enough for ||W_ij||_1**2 make it 0 exactly when
    its integer is; W11 + W22 = s**e tr V, in the same slots, is rewritten."""
    e = max((abs(i) + d for t, d in zip(maps, (0, 1, 1, 0)) for i, _ in t), default=0)
    norm = max(sum(map(abs, t.values())) for t in maps)
    w = Packing.covering(e, 2 * e + 1, norm ** 2).entries()
    w11, w12, w21, w22 = (p.pack(t) for p, t in zip(w, maps))
    b = 8 * w[0].nbytes
    if w11 * w22 - (w12 * w21 << b) != 1 << e * b:
        raise NotUnimodular("determinant is not the ring unit")
    return symmetric_rewrite(w11 + w22, w[0])


def riley_generic(v: Word, m: int | None = None, *, knot: str = "") -> RileyPolynomial:
    """phi from the relator word: R12 of R = VA - BV for V = rho(v), read
    off row 1 of V, or for V**m when m is given, by Cayley-Hamilton:
    S_{|m|-1}(lambda) alpha - S_{|m|-2}(lambda), lambda = rewrite(tr V)
    (`_unimodular_trace`, which checks det V = 1) and alpha the phi of v,
    or of v**-1 when m < 0.  v must be its own mirror (`Word.mirror`),
    which makes R22 = 0 for V**m too: tau reverses products and
    tau(v) = v, so tau(v**m) = v**m for every m."""
    if m == 0:
        raise ValueError("m must be nonzero")
    if v.mirror() != v:
        raise StructureViolation("the word is not its own mirror, so R_22 != 0")
    if m is None:
        phi = symmetric_rewrite(*_relator_r12(v))
    else:
        lam = _unimodular_trace(evaluate_word(v))
        alpha = symmetric_rewrite(*_relator_r12(v if m > 0 else v.inverse()))
        phi = _chebyshev_combination(abs(m) - 1, lam, alpha, XYPoly.one())
    tag = f"word:{v.to_text()}" + ("" if m is None else f"^{m}")
    return RileyPolynomial(phi, knot, tag)


def alpha_dt(k: int) -> XYPoly:
    """1 + (y + 2 - x^2) S_{k-1}(y) (S_k(y) - S_{k-1}(y))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, y = XYPoly.x(), XYPoly.y()
    s_km1, s_k = _cheb_pair(k, y)
    return XYPoly.one() + (y + 2 - x * x) * s_km1 * (s_k - s_km1)


def lambda_dt(k: int) -> XYPoly:
    """x^2 - y - (y - 2)(y + 2 - x^2) S_k(y) S_{k-1}(y)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    x, y = XYPoly.x(), XYPoly.y()
    s_km1, s_k = _cheb_pair(k, y)
    return x * x - y - (y - 2) * (y + 2 - x * x) * s_k * s_km1


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
        phi = _chebyshev_combination(m - 1, lam, alpha, XYPoly.one())
    else:
        phi = _chebyshev_combination(-m, lam, XYPoly.one(), alpha)
    return RileyPolynomial(phi, knot, "closed-form")


def _chebyshev_combination(n: int, lam: XYPoly, a: XYPoly, b: XYPoly) -> XYPoly:
    """S_n(lam) * a - S_{n-1}(lam) * b for n >= 0, on packed integers: u = x**2
    in the inner slots, as many as the result's x-degree needs, and y outer;
    lam, a and b have even x-degrees only, as those of the closed forms and
    of a mirror word's lambda and alpha do, which the packing checks.  The
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


def kl_cross_check() -> bool:
    """Recover lambda, alpha, beta from the engine and compare with the
    transcriptions: lambda = rewrite(tr C), alpha from R_12 of the word D
    and beta from R_12 of C^-1 D, R = VA - BV for V the word's matrix.
    Only the trace needs C's full product, read as the power route reads
    lambda; each R_12 comes off row 1."""
    found = [_unimodular_trace(evaluate_word(KL_WORD_C))]
    for w in (KL_WORD_D, KL_WORD_C.inverse() * KL_WORD_D):
        found.append(symmetric_rewrite(*_relator_r12(w)))
    return tuple(found) == kl_named_polys()


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
    expected = XYPoly.from_terms([(0, 0, 2), (2, 0, -1), (4, 0, -1),
                                  (0, 1, -2), (2, 1, 4), (0, 2, -3)])
    dalpha = alpha.diff_y()
    if dalpha != expected:
        return False
    # a y^2 + b y + c -> b^2 - 4 a c
    slices = dalpha.y_slices()
    a = slices.get(2, XYPoly.zero())
    b = slices.get(1, XYPoly.zero())
    c = slices.get(0, XYPoly.zero())
    disc = b * b - 4 * a * c
    return disc == XYPoly.from_terms([(4, 0, 4), (2, 0, -28), (0, 0, 28)])


def riley_for_knot(knot, *, engine: str = "auto") -> RileyPolynomial:
    """Dispatch: families use their closed forms, fractions the generic
    engine; engine="generic" forces the engine for families too.  Any other
    engine is a ValueError."""
    if engine not in ("auto", "generic"):
        raise ValueError(f"engine must be 'auto' or 'generic', got {engine!r}")
    if isinstance(knot, DoubleTwistKnot):
        if engine == "generic":
            w, m = word_double_twist(knot)
            return riley_generic(w, m, knot=knot.spec_string())
        return riley_double_twist(knot.k, knot.m)
    if isinstance(knot, KlKnot):
        if engine == "generic":
            return riley_generic(word_kl(knot), knot=knot.spec_string())
        return riley_kl(knot.l)
    if isinstance(knot, TwoBridgeFraction):
        v = word_from_signs(sign_sequence(knot))
        return riley_generic(v, knot=knot.spec_string())
    raise TypeError(f"not a knot descriptor: {knot!r}")
