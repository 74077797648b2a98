"""Riley polynomials by two independent routes.

The generic engine evaluates any two-bridge relator word in the parabolic-
style generator images and rewrites the (1,2) entry of R = VA - BV in
x = s + 1/s.  The closed forms build the same polynomials for J(2k+1, 2m)
and for K_l out of Chebyshev compositions.  The routes cross-check each
other: the engine is the trust anchor for the transcribed closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .chebyshev import _cheb_pair, sl2_power
from .knots import (DoubleTwistKnot, KlKnot, TwoBridgeFraction, Word,
                    sign_sequence, word_double_twist, word_from_signs, word_kl)
from .polyring import PolyMatrix, SYPoly, XYPoly, symmetric_rewrite


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
    """A = [[s, 1], [0, 1/s]], B = [[s, 0], [2 - y, 1/s]]; inverses by adjugate."""
    s, s_inv = SYPoly.s(1), SYPoly.s(-1)
    zero, one = SYPoly.zero(), SYPoly.one()
    two_minus_y = SYPoly.const(2) - SYPoly.y()
    a = PolyMatrix(s, one, zero, s_inv)
    b = PolyMatrix(s, zero, two_minus_y, s_inv)
    return GeneratorImages(a, b, a.adjugate(), b.adjugate())


def evaluate_word(word: Word) -> PolyMatrix:
    """Ordered product of generator images, exponents expanded."""
    images = generator_images()
    table = {("a", 1): images.a, ("a", -1): images.a_inv,
             ("b", 1): images.b, ("b", -1): images.b_inv}
    result = PolyMatrix.identity()
    for gen, exp in word.letters:
        factor = table[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            result = result @ factor
    return result


def _riley_from_matrix(v: PolyMatrix, knot: str, presentation: str) -> RileyPolynomial:
    images = generator_images()
    r = (v @ images.a) - (images.b @ v)
    y_minus_2 = SYPoly.y() - SYPoly.const(2)
    if r.e11 != SYPoly.zero() or r.e22 != SYPoly.zero():
        raise StructureViolation("diagonal of VA - BV is not zero")
    if r.e21 != y_minus_2 * r.e12:
        raise StructureViolation("R_21 != (y - 2) R_12")
    return RileyPolynomial(symmetric_rewrite(r.e12), knot, presentation)


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
        s_prev, s_cur = _cheb_pair(m - 1, lam)
        phi = s_cur * alpha - s_prev
    else:
        s_prev, s_cur = _cheb_pair(-m, lam)
        phi = s_cur - s_prev * alpha
    return RileyPolynomial(phi, knot, "closed-form")


def _xy(triples) -> XYPoly:
    return XYPoly.from_terms(triples)


@lru_cache(maxsize=1)
def kl_named_polys() -> tuple[XYPoly, XYPoly, XYPoly]:
    """The transcribed (lambda, alpha, beta) of the K_l closed form.

    kl_cross_check() recovers all three from the generic engine; the long
    lambda especially is exactly the kind of constant a transcription slip
    would corrupt.
    """
    lam = _xy([
        (2, 0, 9), (4, 0, -12), (6, 0, 4),
        (0, 1, -5), (2, 1, 10), (4, 1, 2), (6, 1, -4),
        (2, 2, -11), (4, 2, 8), (6, 2, 1),
        (0, 3, 5), (2, 3, -4), (4, 3, -3),
        (2, 4, 3),
        (0, 5, -1),
    ])
    alpha = _xy([
        (0, 0, 1), (2, 0, -4), (4, 0, 2),
        (0, 1, 2), (2, 1, -1), (4, 1, -1),
        (0, 2, -1), (2, 2, 2),
        (0, 3, -1),
    ])
    beta = _xy([(0, 0, -1), (2, 0, 1), (0, 1, -1)])
    return lam, alpha, beta


def kl_cross_check() -> bool:
    """Recover lambda, alpha, beta from the engine and compare with the
    transcriptions: lambda = rewrite(tr C), alpha from (DA - BD)_12, beta
    from (C^-1 D A - B C^-1 D)_12."""
    from .knots import KL_WORD_C, KL_WORD_D
    lam, alpha, beta = kl_named_polys()
    images = generator_images()
    c = evaluate_word(KL_WORD_C)
    d = evaluate_word(KL_WORD_D)
    if symmetric_rewrite(c.trace()) != lam:
        return False
    da_bd = (d @ images.a) - (images.b @ d)
    if symmetric_rewrite(da_bd.e12) != alpha:
        return False
    cinv_d = c.adjugate() @ d
    r = (cinv_d @ images.a) - (images.b @ cinv_d)
    return symmetric_rewrite(r.e12) == beta


def riley_kl(l: int) -> RileyPolynomial:
    """Closed form for K_l: S_{l-1}(lam)*alpha - S_{l-2}(lam)*beta."""
    knot = KlKnot(l)
    lam, alpha, beta = kl_named_polys()
    s_prev, s_cur = _cheb_pair(l - 1, lam)
    phi = s_cur * alpha - s_prev * beta
    return RileyPolynomial(phi, knot.spec_string(), "closed-form")


def kl_alpha_derivative_check() -> bool:
    """d(alpha)/dy matches 2 - x^2 - x^4 - 2y + 4x^2 y - 3y^2, and its
    discriminant as a quadratic in y is 4x^4 - 28x^2 + 28."""
    _, alpha, _ = kl_named_polys()
    expected = _xy([(0, 0, 2), (2, 0, -1), (4, 0, -1),
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
    return disc == _xy([(4, 0, 4), (2, 0, -28), (0, 0, 28)])


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
