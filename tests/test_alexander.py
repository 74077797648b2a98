"""phi(x, 2) against the Alexander polynomial, an oracle shared with neither
engine: no matrices, no rewrite, no Chebyshev recurrence.

At y = 2 the representation is reducible (B's corner 2 - y vanishes), and
phi(x, 2) = +-t**-g Delta_K(t), the centred Alexander polynomial written in
x through t + 1/t = x**2 - 2.  Delta_K of the two-bridge knot p/q follows
from the fraction alone by Minkus's formula (Minkus, "The branched cyclic
coverings of 2 bridge knots and links", Mem. AMS 255, 1982):
Delta(t) = sum_{i < p} (-1)**i t**(s_i), s_i = sum_{1 <= j <= i}
(-1)**floor(jq/p).  The oracle below is written on plain integer lists; only
the phi it is compared with comes from the package.
"""

import math

import pytest

from rileycert.knots import DoubleTwistKnot, KlKnot, TwoBridgeFraction, kl_fraction
from rileycert.riley import riley_for_knot


def minkus_alexander(p: int, q: int) -> dict[int, int]:
    """{exponent: coeff} of Delta(t) by Minkus's formula."""
    terms, s = {}, 0
    for i in range(p):
        if i:
            s += -1 if i * q // p % 2 else 1
        terms[s] = terms.get(s, 0) + (-1) ** i
    return {e: c for e, c in terms.items() if c}


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _add(f: list[int], g: list[int], c: int = 1) -> list[int]:
    out = f + [0] * (len(g) - len(f))
    for i, b in enumerate(g):
        out[i] += c * b
    return out


def _trim(f: list[int]) -> list[int]:
    while f and not f[-1]:
        f = f[:-1]
    return f


def alexander_in_x(p: int, q: int) -> list[int]:
    """Ascending x-coefficients of t**-g Delta(t), which is symmetric under
    t -> 1/t: c_0 + sum_k c_k (t**k + t**-k), with t**k + t**-k = P_k(z),
    P_0 = 2, P_1 = z, P_(k+1) = z P_k - P_(k-1), at z = x**2 - 2."""
    delta = minkus_alexander(p, q)
    lo, hi = min(delta), max(delta)
    assert (hi - lo) % 2 == 0
    g = (hi - lo) // 2
    c = [delta.get(lo + g + k, 0) for k in range(g + 1)]
    assert c == [delta.get(lo + g - k, 0) for k in range(g + 1)], "Delta is not symmetric"
    z = [-2, 0, 1]
    out, prev, cur = [c[0]], [2], z
    for ck in c[1:]:
        out = _add(out, cur, ck)
        prev, cur = cur, _add(_mul(z, cur), prev, -1)
    return _trim(out)


def phi_at_y2(phi) -> list[int]:
    """Ascending x-coefficients of phi(x, 2)."""
    out = [0] * (phi.deg_x() + 1)
    for i, j, c in phi.terms():
        out[i] += c << j
    return _trim(out)


def _same_up_to_sign(f: list[int], g: list[int]) -> bool:
    return f == g or f == [-c for c in g]


def double_twist_fraction(k: int, m: int) -> tuple[int, int]:
    """A fraction p/q of J(2k+1, 2m): p = 2|m|(2k + 1) - sgn(m),
    q = p - 2|m|."""
    p = 2 * abs(m) * (2 * k + 1) - (1 if m > 0 else -1)
    return p, p - 2 * abs(m)


def test_minkus_formula_on_known_knots():
    # trefoil 3/1: t**2 - t + 1; figure-eight 5/3: -t**2 + 3t - 1 up to
    # t-shift and sign; 5_2 = 7/3: 2t**2 - 3t + 2
    assert alexander_in_x(3, 1) == [-3, 0, 1]           # t + 1/t - 1 = x**2 - 3
    assert _same_up_to_sign(alexander_in_x(5, 3), [5, 0, -1])
    assert _same_up_to_sign(alexander_in_x(7, 3), [-7, 0, 2])


_FRACTIONS = [(p, q) for p in range(3, 60, 2) for q in range(1, p, 2) if math.gcd(p, q) == 1]


def test_phi_at_2_is_the_alexander_polynomial():
    # every fraction with p < 60 (the generic engine's row-1 route), every
    # family J:k,m through the closed form and the generic power route, and
    # Kl:2 .. Kl:11 through both engines, each K_l by its fraction
    # (10(l-1) + 7, 4(l-1) + 3)
    for p, q in _FRACTIONS:
        phi = riley_for_knot(TwoBridgeFraction(p, q)).poly
        assert _same_up_to_sign(phi_at_y2(phi), alexander_in_x(p, q)), (p, q)
    cases = [(DoubleTwistKnot(k, m), double_twist_fraction(k, m))
             for k in range(1, 5) for m in (2, 3, 4, 5, 6, -2, -3, -4, -5, -6)]
    cases += [(KlKnot(l), (kl_fraction(KlKnot(l)).p, kl_fraction(KlKnot(l)).q))
              for l in range(2, 12)]
    for knot, (p, q) in cases:
        want = alexander_in_x(p, q)
        for engine in ("auto", "generic"):
            phi = riley_for_knot(knot, engine=engine).poly
            assert _same_up_to_sign(phi_at_y2(phi), want), (knot, engine)


@pytest.mark.parametrize("p, q", [(11, 1), (11, 5), (13, 5)])
def test_a_wrong_fraction_is_told_apart(p, q):
    # J:1,2 is 11/7 = 11/3; the oracle tells it from the other knots of
    # p = 11 and from one of p = 13
    assert double_twist_fraction(1, 2) == (11, 7)
    phi = riley_for_knot(DoubleTwistKnot(1, 2)).poly
    assert not _same_up_to_sign(phi_at_y2(phi), alexander_in_x(p, q))
