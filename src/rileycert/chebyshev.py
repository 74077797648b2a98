"""The normalized second-kind Chebyshev family S_n: S_0 = 1, S_1 = z,
S_{n+1} = z*S_n - S_{n-1}.

Evaluation never expands the coefficient form for large n; the iterative
recurrence is exact in any commutative ring and O(n).  `cheb_poly` runs it
on integer coefficient lists.  On polynomials in x and y it runs on
Kronecker-packed integers (`polyring.Packing`): `_packed_cheb_pair`
multiplies by t one term at a time, a shift and a small-integer multiple
each, and `_cheb_norms` bounds the l1 norms in advance so that the caller
can size the slots of whatever it unpacks.  Every Riley polynomial built
from a power, closed form or generic, is one such combination
S_n(lambda) a - S_{n-1}(lambda) b (`riley._chebyshev_combination`).
"""

from __future__ import annotations

from .polyring import _times


def cheb_poly(n: int) -> tuple[int, ...]:
    """Coefficients of S_n, ascending degree, exact: the recurrence on
    integer lists, z S_j shifting S_j's list up by one."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    prev, cur = [], [1]
    for _ in range(n):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur)


def _cheb_pair(n: int, t):
    """(S_{n-1}(t), S_n(t)) by the recurrence, with S_{-1} = 0, in the ring
    of t (int, Fraction, Dyadic(Interval), or any ring element)."""
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


def _cheb_norms(n: int, t_norm: int) -> tuple[int, int]:
    """Bounds (N_{n-1}, N_n) on the l1 norms of (S_{n-1}(t), S_n(t)) for
    ||t||_1 <= t_norm: N_{j+1} = t_norm * N_j + N_{j-1}."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, t_norm * cur + prev
    return prev, cur


def _packed_cheb_pair(n: int, t: list[tuple[int, int]]) -> tuple[int, int]:
    """(S_{n-1}(t), S_n(t)) on packed integers, t given by the (bit shift,
    coeff) pairs of `Packing.multiplier`: _cheb_pair(n, t) at the
    packing's point."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, _times(cur, t) - prev
    return prev, cur
