"""The normalized second-kind Chebyshev family S_n: S_0 = 1, S_1 = z,
S_{n+1} = z*S_n - S_{n-1}, plus the matrix-power and recurrence closed forms
built on it.

Evaluation never expands the coefficient form for large n; the iterative
recurrence is exact in any commutative ring and O(n).
"""

from __future__ import annotations

import math

from .dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from .polyring import PolyMatrix, SYPoly


class NotUnimodular(ValueError):
    """Matrix power shortcut requires determinant exactly 1."""


def cheb_poly(n: int) -> tuple[int, ...]:
    """Coefficients of S_n, ascending degree, exact."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    prev = [1]
    if n == 0:
        return tuple(prev)
    cur = [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def _cheb_pair(n: int, t):
    """(S_{n-1}(t), S_n(t)) by the recurrence, with S_{-1} = 0, in the ring
    of t (int, Fraction, Dyadic(Interval), or a polynomial)."""
    prev = 0 * t
    cur = prev + 1
    for _ in range(n):
        prev, cur = cur, t * cur - prev
    return prev, cur


def cheb_eval(n: int, t):
    """S_n evaluated at t: int, Fraction, Dyadic(Interval), or a ring element."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    return _cheb_pair(n, t)[1]


def solve_recurrence(a0, a1, c, n: int):
    """Term a_{n+1} of a_{j+1} = c*a_j - a_{j-1}: equals S_n(c)*a1 - S_{n-1}(c)*a0."""
    if n < 0:
        raise ValueError("need n >= 0")
    s_prev, s_cur = _cheb_pair(n, c)
    return s_cur * a1 - s_prev * a0


def sl2_power(M: PolyMatrix, n: int) -> PolyMatrix:
    """M**n for det(M) = 1, via M^n = S_n(tr M) I - S_{n-1}(tr M) M^-1."""
    if n < 1:
        raise ValueError("need n >= 1")
    if M.det() != SYPoly.one():
        raise NotUnimodular("determinant is not the ring unit")
    s_prev, s_cur = _cheb_pair(n, M.trace())
    inv = M.adjugate()
    return PolyMatrix(s_cur - s_prev * inv.e11, -(s_prev * inv.e12),
                      -(s_prev * inv.e21), s_cur - s_prev * inv.e22)


def _definite_sign_at(n: int, t: Dyadic) -> int:
    return cheb_eval(n, t).sign()


def cheb_root_enclosures(n: int, precision: int) -> list[DyadicInterval]:
    """n disjoint enclosures of the roots 2cos(k*pi/(n+1)), ascending, each of
    width <= 2**-precision and certified by an exact sign change of S_n.

    The cosine enclosures are rigorous already; the endpoint sign changes give
    an independent certificate: n disjoint brackets must contain the n roots
    in order.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # keep enclosures well clear of the spacing between adjacent roots
    min_gap = min(2 * math.cos(k * math.pi / (n + 1))
                  - 2 * math.cos((k + 1) * math.pi / (n + 1)) for k in range(1, n)) \
        if n > 1 else 4.0
    internal = max(precision + 4, int(-math.log2(min_gap / 8)) + 1)
    nudge = Dyadic(1, -(internal + 2))
    out = []
    for k in range(n, 0, -1):  # ascending roots
        iv = two_cos_pi_ratio(k, n + 1, internal)
        lo, hi = iv.lo, iv.hi
        if lo == hi:
            lo, hi = lo - nudge, hi + nudge
        while _definite_sign_at(n, lo) == 0:
            lo = lo - nudge
        while _definite_sign_at(n, hi) == 0:
            hi = hi + nudge
        s_lo, s_hi = _definite_sign_at(n, lo), _definite_sign_at(n, hi)
        if s_lo == s_hi:
            raise AssertionError(f"no sign change around root {k} of S_{n}")
        out.append(DyadicInterval(lo, hi))
    bound = Dyadic(1, -precision)
    for left, right in zip(out, out[1:]):
        if not left.hi < right.lo:
            raise AssertionError("root enclosures overlap")
    if any(iv.width() > bound for iv in out):
        raise AssertionError("root enclosure wider than requested")
    return out
