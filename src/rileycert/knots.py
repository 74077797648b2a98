"""Knot encodings and the group-presentation data the Riley engines consume.

Two-bridge fractions (p, q), their sign sequences and run-length forms, the
Hirasawa-Murasugi reduction, and relator words for the standard presentation,
the odd/even twist family J(2k+1, 2m), and the K_l family.  A word is its
freely reduced letter string in a, b and their inverses A, B (`Word`), which
the Riley engine reads letter by letter.
"""

from __future__ import annotations

import math
from collections import namedtuple


# Largest accepted knot parameters.  The cost of phi grows with them (about
# as p**4 for a fraction); at these limits `riley --cross-check`, or `riley`
# for a fraction, takes at most about 5 s on a 2-core x86 host (README.md,
# six runs each: Kl:50 1.4-2.3 s, J:20,20 1.8-3.0 s, J:20,-20 1.9-3.2 s,
# 501/7 3.1-4.6 s, 501/311 0.9-1.6 s, 499/97 2.2-3.6 s, Kl:50's fraction
# 497/199 1.6-2.6 s), and one step beyond is refused before any work.  `certify` also runs the
# root isolation, whose Taylor shifts grow with phi: at the default cap on that
# host (README.md, three runs each), `certify --knot J:20,20 --n 7` took
# 5.1-5.2 s and `certify --knot Kl:50 --n 5` 1.3 s.
P_MAX = 501
K_MAX = 20
M_MAX = 20
L_MAX = 50


class ReductionInapplicable(ValueError):
    """Hirasawa-Murasugi reduction needs floor(p/q) >= 2."""


class _Checked:
    """Base of a value class whose __new__ validates: _make, and so
    _replace, build through __new__ too, where namedtuple's skip it."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class TwoBridgeFraction(_Checked, namedtuple("TwoBridgeFraction", "p q")):
    """Fraction (p, q) of a two-bridge knot, normalized to 0 < q < p <= P_MAX."""

    __slots__ = ()

    def __new__(cls, p: int, q: int):
        if p <= 0 or p % 2 == 0:
            raise ValueError(f"p must be a positive odd integer, got {p}")
        if p > P_MAX:
            raise ValueError(f"p must be at most {P_MAX}, got {p}")
        if not 0 < q < p:
            raise ValueError(f"q must satisfy 0 < q < p, got {q}")
        if q % 2 == 0:
            raise ValueError(f"q must be odd, got {q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"p and q must be coprime, got ({p}, {q})")
        return super().__new__(cls, p, q)

    def spec_string(self) -> str:
        return f"{self.p}/{self.q}"


class DoubleTwistKnot(_Checked, namedtuple("DoubleTwistKnot", "k m")):
    """J(2k+1, 2m) with 1 <= k <= K_MAX and 2 <= |m| <= M_MAX."""

    __slots__ = ()

    def __new__(cls, k: int, m: int):
        if not 1 <= k <= K_MAX:
            raise ValueError(f"k must lie in 1..{K_MAX}, got {k}")
        if not 2 <= abs(m) <= M_MAX:
            raise ValueError(f"|m| must lie in 2..{M_MAX}, got {m}")
        return super().__new__(cls, k, m)

    def spec_string(self) -> str:
        return f"J:{self.k},{self.m}"


class KlKnot(_Checked, namedtuple("KlKnot", "l")):
    """The l-th knot of the three-twist-region family, 2 <= l <= L_MAX."""

    __slots__ = ()

    def __new__(cls, l: int):
        if not 2 <= l <= L_MAX:
            raise ValueError(f"l must lie in 2..{L_MAX}, got {l}")
        return super().__new__(cls, l)

    def spec_string(self) -> str:
        return f"Kl:{self.l}"


class SignSequence(_Checked, namedtuple("SignSequence", "signs p q")):
    """The +/-1 sequence of a fraction, with its source (p, q)."""

    __slots__ = ()

    def __new__(cls, signs: tuple[int, ...], p: int, q: int):
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        return super().__new__(cls, signs, p, q)


class RunSeq(_Checked, namedtuple("RunSeq", "runs p q")):
    """Run-length form <c1><-c2>...: signed nonzero runs, alternating in sign."""

    __slots__ = ()

    def __new__(cls, runs: tuple[int, ...], p: int, q: int):
        if any(r == 0 for r in runs):
            raise ValueError("zero-length run")
        for a, b in zip(runs, runs[1:]):
            if (a > 0) == (b > 0):
                raise ValueError("runs must alternate in sign")
        return super().__new__(cls, runs, p, q)

    def is_degenerate(self) -> bool:
        """Empty or single-sign: a reduction base case."""
        return len(self.runs) <= 1

    def to_text(self) -> str:
        return "".join(f"<{r}>" for r in self.runs)


_SWAP_AB = str.maketrans("abAB", "baBA")


class Word(_Checked, namedtuple("Word", "text")):
    """Word in the meridians a, b and their inverses A, B, as its freely
    reduced letter string: no aA, Aa, bB or Bb is left in it."""

    __slots__ = ()

    def __new__(cls, text: str):
        reduced: list[str] = []
        for ch in text:
            if ch not in "aAbB":
                raise ValueError(f"unknown letter {ch!r}")
            if reduced and reduced[-1] == ch.swapcase():
                reduced.pop()
            else:
                reduced.append(ch)
        return super().__new__(cls, "".join(reduced))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.text + other.text)

    def mirror(self) -> "Word":
        """tau(w): the letters reversed, a and b swapped, case kept."""
        return Word(self.text[::-1].translate(_SWAP_AB))

    def inverse(self) -> "Word":
        """w**-1: the letters reversed, case swapped."""
        return Word(self.text[::-1].swapcase())


def sign_sequence_raw(p: int, q: int) -> tuple[int, ...]:
    """Signs of the representatives of i*q mod 2p in (-p, p), i = 1..p-1.

    Accepts any q coprime to p (only q mod 2p matters); this looser form is
    what the reduction oracle S(p - 2q, q) needs, where q > p can occur.
    """
    if p <= 0 or math.gcd(p, q) != 1:
        raise ValueError(f"need p > 0 and gcd(p, q) = 1, got ({p}, {q})")
    out = []
    for i in range(1, p):
        r = (i * q) % (2 * p)
        if r > p:
            r -= 2 * p
        out.append(1 if r > 0 else -1)
    return tuple(out)


def sign_sequence(f: TwoBridgeFraction) -> SignSequence:
    return SignSequence(sign_sequence_raw(f.p, f.q), f.p, f.q)


def run_length(seq: SignSequence) -> RunSeq:
    runs: list[int] = []
    for s in seq.signs:
        if runs and (runs[-1] > 0) == (s > 0):
            runs[-1] += s
        else:
            runs.append(s)
    return RunSeq(tuple(runs), seq.p, seq.q)


def expand(rs: RunSeq) -> SignSequence:
    signs: list[int] = []
    for r in rs.runs:
        signs.extend([1 if r > 0 else -1] * abs(r))
    return SignSequence(tuple(signs), rs.p, rs.q)


def hm_reduce(rs: RunSeq) -> RunSeq:
    """One Hirasawa-Murasugi reduction: subtract 2 from every run magnitude,
    drop zero runs, and merge the now-adjacent same-sign neighbors.

    Tested (not implemented) against the modular oracle S(p - 2q, q).
    """
    if rs.q == 0 or rs.p // rs.q < 2:
        raise ReductionInapplicable(
            f"floor(p/q) must be >= 2, got ({rs.p}, {rs.q})")
    stack: list[int] = []
    for r in rs.runs:
        mag = abs(r) - 2
        if mag < 0:
            raise ReductionInapplicable(f"run shorter than 2 in {rs.runs}")
        if mag == 0:
            continue
        new = mag if r > 0 else -mag
        if stack and (stack[-1] > 0) == (new > 0):
            stack[-1] += new
        else:
            stack.append(new)
    return RunSeq(tuple(stack), rs.p - 2 * rs.q, rs.q)


def kl_fraction(knot: KlKnot) -> TwoBridgeFraction:
    """(10(l-1)+7, 4(l-1)+3)."""
    return TwoBridgeFraction(10 * (knot.l - 1) + 7, 4 * (knot.l - 1) + 3)


def word_from_signs(seq: SignSequence) -> Word:
    """Relator v = a^e1 b^e2 a^e3 ... b^e_{p-1} of the standard presentation."""
    if len(seq.signs) % 2 != 0:
        raise ValueError("sign sequence must have even length (p odd)")
    gens = ("aA", "bB")
    return Word("".join(gens[i % 2][s < 0] for i, s in enumerate(seq.signs)))


def word_double_twist(knot: DoubleTwistKnot) -> tuple[Word, int]:
    """The word w = (b a^-1)^k b a (b^-1 a)^k and the twist exponent m;
    the relator of the presentation is w^m a = b w^m."""
    return Word("bA" * knot.k + "ba" + "Ba" * knot.k), knot.m


# The two building blocks of the K_l relator.
KL_WORD_C = Word("abABabaBAb")
KL_WORD_D = Word("abABab")


def word_kl(knot: KlKnot) -> Word:
    """Relator v = c^(l-1) d; agrees letter-for-letter with the word built
    from the sign sequence of the associated fraction."""
    return Word(KL_WORD_C.text * (knot.l - 1) + KL_WORD_D.text)
