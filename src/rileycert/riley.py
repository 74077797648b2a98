"""Riley polynomials by two independent routes.

The generic engine evaluates any two-bridge relator word in the parabolic-
style generator images and rewrites the (1,2) entry of R = VA - BV in
x = s + 1/s.  The closed forms build the same polynomials for J(2k+1, 2m)
and for K_l out of Chebyshev compositions.  The routes cross-check each
other: the engine is the trust anchor for the transcribed closed forms.

The engine works on packed integers (Kronecker substitution, see
`polyring.Packing`).  Each generator is scaled by s, so that a word of L
letters has entries s**L * W_ij with s-exponents in [0, 2L], and each entry
is one integer at s = 2**B, y = 2**(B*S).  A letter is then a column update
of a few shifts and adds: sA = [[s^2, s], [0, 1]] maps the columns
(c1, c2) to (s^2 c1, s c1 + c2).  The slot width B comes from an l1-norm
recursion run over the word before any arithmetic: a letter adds one column,
times s or (2 - y)s (l1 norm 1 or 3), to the other, so the norms bound every
coefficient of V.  B covers 14 times the largest of them and S = 2L + 3 slots
cover one more letter, so that R = VA - BV and R21 - (y - 2)R12, the values
the structure checks compare, cannot overflow a slot either.  Only R12 is
unpacked.  `kl_cross_check` reads the K_l lambda, alpha and beta off the
same packed matrices: the trace of C, and R12 of D and of C^-1 D.

Both Chebyshev routes run the recurrence S_{j+1} = t S_j - q S_{j-1} on
packed integers too, multiplying by t one term at a time (a shift and a
small-integer multiple).  The closed forms pack x into the inner slots, as
many as the result's x-degree, and y into the outer ones, with q = 1; the
slots are sized before any arithmetic by N_{j+1} = ||t||_1 N_j + N_{j-1},
which bounds the l1 norm of S_j(t), so the one value unpacked, phi, is
faithful.  The engine's power V^m (`chebyshev.sl2_power`) is homogenised:
with e the largest |s-exponent| of V, W = s**e V has no negative powers,
H_j = s**(je) S_j(tr V) satisfies the recurrence with t = tr W and
q = s**2e (one shift), and s**(me) V**m = H_m I - H_{m-1} adj(W) comes
back as a PackedMatrix in the slots the structure checks above need, so
the power is never unpacked either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .chebyshev import _cheb_norms, _cheb_pair, _packed_cheb_pair, sl2_power
from .knots import (KL_WORD_C, KL_WORD_D, DoubleTwistKnot, KlKnot,
                    TwoBridgeFraction, Word, sign_sequence, word_double_twist,
                    word_from_signs, word_kl)
from .polyring import (Packing, PackedMatrix, PolyMatrix, SYPoly, XYPoly, _times,
                       symmetric_rewrite)


class StructureViolation(ValueError):
    """R = VA - BV lacks the off-diagonal shape every two-bridge word gives."""


@dataclass(frozen=True)
class GeneratorImages:
    a: PolyMatrix
    b: PolyMatrix
    a_inv: PolyMatrix
    b_inv: PolyMatrix


@dataclass(frozen=True)
class RileyPolynomial:
    """phi_K(x, y) together with where it came from."""

    poly: XYPoly
    knot: str
    presentation: str
    content_hash: str = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "content_hash", self.poly.content_hash())


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


def evaluate_word(word: Word) -> PolyMatrix:
    """Ordered product of generator images, exponents expanded, as a
    PackedMatrix: s**L times the product of the L letters, each scaled by s."""
    letters = [(gen, exp > 0) for gen, exp in word.letters for _ in range(abs(exp))]
    # l1 norms of the scaled entries, which bound their coefficients
    n11, n12, n21, n22 = 1, 0, 0, 1
    for gen, _ in letters:
        if gen == "a":
            n12, n22 = n12 + n11, n22 + n21
        else:
            n11, n21 = n11 + 3 * n12, n21 + 3 * n22
    packing = PackedMatrix.packing_for(len(letters), max(n11, n12, n21, n22))
    b = 8 * packing.nbytes
    ys = b * packing.slots   # y = 2**ys
    p11, p12, p21, p22 = 1, 0, 0, 1
    for gen, positive in letters:
        if gen == "a":
            if positive:    # sA = [[s^2, s], [0, 1]]
                p12 += p11 << b
                p22 += p21 << b
                p11 <<= 2 * b
                p21 <<= 2 * b
            else:           # sA^-1 = [[1, -s], [0, s^2]]
                p12 = (p12 << 2 * b) - (p11 << b)
                p22 = (p22 << 2 * b) - (p21 << b)
        elif positive:      # sB = [[s^2, 0], [(2 - y)s, 1]]
            p11 = (p11 << 2 * b) + (p12 << b + 1) - (p12 << b + ys)
            p21 = (p21 << 2 * b) + (p22 << b + 1) - (p22 << b + ys)
        else:               # sB^-1 = [[1, 0], [(y - 2)s, s^2]]
            p11 += (p12 << b + ys) - (p12 << b + 1)
            p21 += (p22 << b + ys) - (p22 << b + 1)
            p12 <<= 2 * b
            p22 <<= 2 * b
    return PackedMatrix((p11, p12, p21, p22), packing)


def _relator(v: PackedMatrix) -> tuple[tuple[int, int, int, int], SYPoly]:
    """R = VA - BV on the packed integers of V, and R12 unpacked: V sA (a
    column update, as in evaluate_word) minus sB V (a row update), one more
    power of s than V, which V's packing holds (`PackedMatrix.packing_for`)."""
    p11, p12, p21, p22 = v.packed
    b = 8 * v.packing.nbytes
    ys = b * v.packing.slots   # y = 2**ys
    va = (p11 << 2 * b, (p11 << b) + p12, p21 << 2 * b, (p21 << b) + p22)
    bv = (p11 << 2 * b, p12 << 2 * b,
          (p11 << b + 1) - (p11 << b + ys) + p21, (p12 << b + 1) - (p12 << b + ys) + p22)
    r = tuple(x - z for x, z in zip(va, bv))
    return r, SYPoly(v.packing._replace(shift=v.packing.shift + 1).unpack(r[1]))


def _riley_from_matrix(v: PackedMatrix, knot: str, presentation: str) -> RileyPolynomial:
    (r11, r12, r21, r22), e12 = _relator(v)
    if r11 or r22:
        raise StructureViolation("diagonal of VA - BV is not zero")
    ys = 8 * v.packing.nbytes * v.packing.slots   # y = 2**ys
    if r21 != (r12 << ys) - (r12 << 1):
        raise StructureViolation("R_21 != (y - 2) R_12")
    return RileyPolynomial(symmetric_rewrite(e12), knot, presentation)


def riley_generic(v: Word, m: int | None = None, *, knot: str = "") -> RileyPolynomial:
    """phi from the relator word: V = rho(v), or rho(v)^m when m is given
    (negative m powers the adjugate inverse)."""
    w = evaluate_word(v)
    if m is None:
        V = w
    elif m == 0:
        raise ValueError("m must be nonzero")
    else:
        base = w if m > 0 else w.adjugate()
        V = base if abs(m) == 1 else sl2_power(base, abs(m))
    tag = f"word:{v.to_text()}" + ("" if m is None else f"^{m}")
    return _riley_from_matrix(V, knot, tag)


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
    m >= 2, and S_{|m|}(lam) - S_{|m|-1}(lam)*alpha for m <= -1.

    m = 1 falls outside the family convention |m| >= 2; with S_{-1} = 0 the
    formula degenerates to phi = alpha, and the presentation tag says so.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    knot = DoubleTwistKnot(k, m).spec_string() if abs(m) >= 2 else f"J:{k},{m}"
    lam = lambda_dt(k)
    alpha = alpha_dt(k)
    if m == 1:
        return RileyPolynomial(alpha, knot,
                               "closed-form (m=1, out of convention: phi = alpha)")
    if m > 0:
        phi = _chebyshev_combination(m - 1, lam, alpha, XYPoly.one())
    else:
        phi = _chebyshev_combination(-m, lam, XYPoly.one(), alpha)
    return RileyPolynomial(phi, knot, "closed-form")


def _chebyshev_combination(n: int, lam: XYPoly, a: XYPoly, b: XYPoly) -> XYPoly:
    """S_n(lam) * a - S_{n-1}(lam) * b for n >= 1, on packed integers: x in
    the inner slots, as many as the result's x-degree needs, and y outer.
    The slots cover the l1 bound N_n ||a||_1 + N_{n-1} ||b||_1 of
    `_cheb_norms`, so the one value unpacked is faithful."""
    def l1(f: XYPoly) -> int:
        return sum(map(abs, f._terms.values()))

    n_prev, n_cur = _cheb_norms(n, l1(lam))
    deg_x = max(n * lam.deg_x() + a.deg_x(), (n - 1) * lam.deg_x() + b.deg_x())
    packing = Packing.covering(0, deg_x + 1, n_cur * l1(a) + n_prev * l1(b))
    s_prev, s_cur = _packed_cheb_pair(n, packing.multiplier(lam._terms))
    phi = (_times(s_cur, packing.multiplier(a._terms))
           - _times(s_prev, packing.multiplier(b._terms)))
    return XYPoly(packing.unpack(phi))


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
    and beta from R_12 of C^-1 D, R = VA - BV for V the word's matrix."""
    lam, alpha, beta = kl_named_polys()
    c = evaluate_word(KL_WORD_C)
    if symmetric_rewrite(SYPoly(c.packing.unpack(c.packed[0] + c.packed[3]))) != lam:
        return False
    if symmetric_rewrite(_relator(evaluate_word(KL_WORD_D))[1]) != alpha:
        return False
    c_inv = Word.from_letters((gen, -exp) for gen, exp in reversed(KL_WORD_C.letters))
    return symmetric_rewrite(_relator(evaluate_word(c_inv * KL_WORD_D))[1]) == beta


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
    engine; engine="generic" forces the engine for families too."""
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
