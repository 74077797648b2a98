"""The normalized second-kind Chebyshev family S_n: S_0 = 1, S_1 = z,
S_{n+1} = z*S_n - S_{n-1}, plus the matrix power built on it.

Evaluation never expands the coefficient form for large n; the iterative
recurrence is exact in any commutative ring and O(n).  On polynomials it
runs on Kronecker-packed integers (`polyring.Packing`): `_packed_cheb_pair`
multiplies by t one term at a time, a shift and a small-integer multiple
each, and `_cheb_norms` bounds the l1 norms in advance so that the caller
can size the slots of whatever it unpacks or compares.  `sl2_power` works
this way on the homogenised matrix of a checkerboard matrix given by its
entries' term maps and returns row 1 of its power as packed integers.
"""

from __future__ import annotations

from .polyring import Packing, XYPoly, _merge, _times


class NotUnimodular(ValueError):
    """Matrix power shortcut requires determinant exactly 1."""


def cheb_poly(n: int) -> tuple[int, ...]:
    """Coefficients of S_n, ascending degree, exact."""
    if n < 0:
        raise ValueError("negative Chebyshev index")
    terms = _cheb_pair(n, XYPoly.x())[1]._terms
    return tuple(terms.get((i, 0), 0) for i in range(n + 1))


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


def _cheb_norms(n: int, t_norm: int) -> tuple[int, int]:
    """Bounds (N_{n-1}, N_n) on the l1 norms of (H_{n-1}, H_n) for
    H_{j+1} = t H_j - q H_{j-1}, H_0 = 1, H_{-1} = 0, with ||t||_1 <= t_norm
    and q a monomial: N_{j+1} = t_norm * N_j + N_{j-1}."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, t_norm * cur + prev
    return prev, cur


def _packed_cheb_pair(n: int, t: list[tuple[int, int]], q_shift: int = 0) -> tuple[int, int]:
    """(H_{n-1}, H_n) of H_{j+1} = t H_j - q H_{j-1}, H_0 = 1, H_{-1} = 0,
    on packed integers: t as the (bit shift, coeff) pairs of
    `Packing.multiplier`, q the monomial 2**q_shift (q_shift = 0 for q = 1).
    With q = 1 this is _cheb_pair(n, t) at the packing's point."""
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, _times(cur, t) - (prev << q_shift)
    return prev, cur


def sl2_power(maps: tuple[dict, dict, dict, dict], n: int) -> tuple[int, int, Packing]:
    """Row 1 of M**n for det(M) = 1 via the homogenised
    M^n = S_n(tr M) I - S_{n-1}(tr M) M^-1 in t = s**2: its two packed
    integers, M11 and M12 / s, and their packing.  M is given by the
    {(s_exp, y_deg): coeff} maps of M11, M12, M21, M22.

    M must be checkerboard (diagonal s-exponents of one parity,
    off-diagonal ones of the other), as every word in the Riley generators
    is; `Packing.pack` refuses any other with ValueError.  With e the
    largest |s-exponent| of a diagonal entry and one more than that of an
    off-diagonal one, W = s**e M has even diagonal s-exponents in [0, 2e],
    odd off-diagonal ones and det W = t**e, and H_j = s**(je) S_j(tr M)
    satisfies H_{j+1} = tr(W) H_j - t**e H_{j-1} in t:
    s**(ne) M**n = H_n I - H_{n-1} adj(W), whose row 1 is
    (H_n - H_{n-1} W22, H_{n-1} W12), packed with shift ne in t-slots
    0 .. ne.  Row 1 is all the Riley relator's R12 reads.  The slots hold
    3 times the largest l1 norm of an entry of s**(ne) M**n, bounded by
    `_cheb_norms`, so that R12 / s = M11 + M12 - t M12 (`riley._r12`) can
    be formed on the packed integers, and at least 2e + 1 t-slots of
    coefficients up to ||W_ij||_1**2, which hold det W, so the determinant
    is checked there too.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    e = max((abs(i) + d for t, d in zip(maps, (0, 1, 1, 0)) for i, _ in t), default=0)
    w_norm = max(sum(map(abs, t.values())) for t in maps)
    trace = _merge(maps[0], maps[3])
    h_prev, h_cur = _cheb_norms(n, sum(map(abs, trace.values())))
    bound = 3 * max(h_cur + h_prev * w_norm, w_norm ** 2)
    packing = Packing.covering(n * e, max(n, 2) * e + 1, bound)
    w = packing._replace(shift=e).entries()
    w11, w12, w21, w22 = (p.pack(t) for p, t in zip(w, maps))
    b = 8 * packing.nbytes
    if w11 * w22 - (w12 * w21 << b) != 1 << e * b:
        raise NotUnimodular("determinant is not the ring unit")
    h_prev, h_cur = _packed_cheb_pair(n, w[0].multiplier(trace), e * b)
    return (h_cur - _times(h_prev, w[3].multiplier(maps[3])),
            _times(h_prev, w[1].multiplier(maps[1])), packing)
