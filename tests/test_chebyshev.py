import random
from fractions import Fraction

import mpmath
import pytest
import sympy

from rileycert.chebyshev import cheb_eval, cheb_poly
from rileycert.dyadic import Dyadic, DyadicInterval
from poly_oracle import SY, XY, as_fraction


def u_poly(n):
    """Second-kind Chebyshev U_n by its own recurrence (independent oracle)."""
    prev, cur = (1,), (0, 2)
    if n == 0:
        return prev
    for _ in range(n - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, tuple(nxt)
    return cur


def test_base_cases_and_small_expansions():
    assert cheb_poly(0) == (1,)
    assert cheb_poly(1) == (0, 1)
    assert cheb_poly(2) == (-1, 0, 1)
    assert cheb_poly(5) == (0, 3, 0, -4, 0, 1)
    with pytest.raises(ValueError):
        cheb_poly(-1)


def test_values_at_plus_minus_two():
    for n in range(201):
        assert cheb_eval(n, 2) == n + 1
        assert cheb_eval(n, -2) == (-1) ** n * (n + 1)


def test_eval_matches_expansion():
    rng = random.Random(41)
    assert cheb_eval(4, 0) == 1
    for n in range(16):
        t = Fraction(rng.randrange(-24, 24), 7)
        assert cheb_eval(n, t) == sum(c * t ** i
                                      for i, c in enumerate(cheb_poly(n)))


def test_cheb_poly_matches_sympy_chebyshevu():
    # S_n(z) = U_n(z / 2), expanded by sympy
    z = sympy.Symbol("z")
    for n in range(41):
        u = sympy.Poly(sympy.chebyshevu(n, z / 2), z)
        assert cheb_poly(n) == tuple(int(c) for c in reversed(u.all_coeffs())), n


def test_eval_in_polynomial_rings():
    y = XY.y()
    assert cheb_eval(2, y) == y * y - 1
    s = SY.s(1) + SY.s(-1)
    assert cheb_eval(2, s) == s * s - 1


def test_s_of_2z_is_second_kind_u():
    for n in range(21):
        s = cheb_poly(n)
        s_at_2z = tuple(c * (1 << i) for i, c in enumerate(s))
        assert s_at_2z == u_poly(n), n


def test_positivity_and_monotonicity_on_tail():
    rng = random.Random(43)
    samples = [Fraction(2), Fraction(8)] + \
        [2 + Fraction(rng.randrange(0, 6 * 64 + 1), 64) for _ in range(12)]
    for t in samples:
        assert t <= 8
        for n in range(65):
            assert cheb_eval(n, t) > 0
            assert cheb_eval(n + 1, t) > cheb_eval(n, t)


def test_sign_between_two_smallest_roots():
    # (-1)^n S_n < 0 strictly between the two smallest roots,
    # 2cos(n pi/(n+1)) < 2cos((n-1) pi/(n+1))
    # the roots from mpmath to 60 digits, far closer than their gap of over
    # 10**-2, so t is strictly between them
    for n in range(2, 33):
        with mpmath.workdps(64):
            a, b = (Fraction(str(2 * mpmath.cos(k * mpmath.pi / (n + 1))))
                    for k in (n, n - 1))
        t = (a + b) / 2
        assert b - a > Fraction(1, 100)
        assert (-1) ** n * cheb_eval(n, t) < 0, n


def test_eval_on_dyadic_interval():
    iv = DyadicInterval(Dyadic(1), Dyadic(5, -2))
    out = cheb_eval(3, iv)
    # S_3 = z^3 - 2z; check sample containment
    for t in (Fraction(1), Fraction(9, 8), Fraction(5, 4)):
        assert as_fraction(out.lo) <= t ** 3 - 2 * t <= as_fraction(out.hi)
