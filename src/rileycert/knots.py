"""Knot encodings and the group-presentation data the Riley engines consume.

Two-bridge fractions (p, q), their sign sequences and run-length forms, the
Hirasawa-Murasugi reduction, and relator words for the standard presentation,
the odd/even twist family J(2k+1, 2m), and the K_l family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# Largest accepted knot parameters.  The cost of phi grows with them (about
# as p**4 for a fraction); at these limits `riley --cross-check`, or `riley`
# for a fraction, takes at most about 17 s on a 2-core x86 host (two runs
# each: Kl:50 13-15 s, J:20,20 7-9 s, 501/7 11-17 s; see ROADMAP.md), and
# one step beyond is refused before any work.  `certify` also runs the root
# isolation, whose Taylor shifts grow with phi: at the default cap on that
# host (README.md, three runs each), `certify --knot J:20,20 --n 7` took
# 13.7-15.9 s and `certify --knot Kl:50 --n 5` 3.3-4.9 s.
P_MAX = 501
K_MAX = 20
M_MAX = 20
L_MAX = 50


class ReductionInapplicable(ValueError):
    """Hirasawa-Murasugi reduction needs floor(p/q) >= 2."""


@dataclass(frozen=True)
class TwoBridgeFraction:
    """Fraction (p, q) of a two-bridge knot, normalized to 0 < q < p <= P_MAX."""

    p: int
    q: int

    def __post_init__(self):
        if self.p <= 0 or self.p % 2 == 0:
            raise ValueError(f"p must be a positive odd integer, got {self.p}")
        if self.p > P_MAX:
            raise ValueError(f"p must be at most {P_MAX}, got {self.p}")
        if not 0 < self.q < self.p:
            raise ValueError(f"q must satisfy 0 < q < p, got {self.q}")
        if self.q % 2 == 0:
            raise ValueError(f"q must be odd, got {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got ({self.p}, {self.q})")

    def spec_string(self) -> str:
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class DoubleTwistKnot:
    """J(2k+1, 2m) with 1 <= k <= K_MAX and 2 <= |m| <= M_MAX."""

    k: int
    m: int

    def __post_init__(self):
        if not 1 <= self.k <= K_MAX:
            raise ValueError(f"k must lie in 1..{K_MAX}, got {self.k}")
        if not 2 <= abs(self.m) <= M_MAX:
            raise ValueError(f"|m| must lie in 2..{M_MAX}, got {self.m}")

    def spec_string(self) -> str:
        return f"J:{self.k},{self.m}"


@dataclass(frozen=True)
class KlKnot:
    """The l-th knot of the three-twist-region family, 2 <= l <= L_MAX."""

    l: int

    def __post_init__(self):
        if not 2 <= self.l <= L_MAX:
            raise ValueError(f"l must lie in 2..{L_MAX}, got {self.l}")

    def spec_string(self) -> str:
        return f"Kl:{self.l}"


@dataclass(frozen=True)
class SignSequence:
    """The +/-1 sequence of a fraction, with its source (p, q)."""

    signs: tuple[int, ...]
    p: int
    q: int

    def __post_init__(self):
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")


@dataclass(frozen=True)
class RunSeq:
    """Run-length form <c1><-c2>...: signed nonzero runs, alternating in sign."""

    runs: tuple[int, ...]
    p: int
    q: int

    def __post_init__(self):
        if any(r == 0 for r in self.runs):
            raise ValueError("zero-length run")
        for a, b in zip(self.runs, self.runs[1:]):
            if (a > 0) == (b > 0):
                raise ValueError("runs must alternate in sign")

    def is_degenerate(self) -> bool:
        """Empty or single-sign: a reduction base case."""
        return len(self.runs) <= 1

    def to_text(self) -> str:
        return "".join(f"<{r}>" for r in self.runs)


@dataclass(frozen=True)
class Word:
    """Word in the meridians a, b: letters (generator, nonzero exponent),
    adjacent same-generator letters merged."""

    letters: tuple[tuple[str, int], ...]

    @classmethod
    def from_letters(cls, letters) -> "Word":
        merged: list[list] = []
        for gen, exp in letters:
            if gen not in ("a", "b"):
                raise ValueError(f"unknown generator {gen!r}")
            if exp == 0:
                continue
            if merged and merged[-1][0] == gen:
                merged[-1][1] += exp
                if merged[-1][1] == 0:
                    merged.pop()
            else:
                merged.append([gen, exp])
        return cls(tuple((g, e) for g, e in merged))

    def __mul__(self, other: "Word") -> "Word":
        return Word.from_letters(self.letters + other.letters)

    def letter_count(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def to_text(self) -> str:
        """a/A/b/B concatenated, exponents written out letter by letter."""
        pieces = []
        for gen, exp in self.letters:
            ch = gen if exp > 0 else gen.upper()
            pieces.append(ch * abs(exp))
        return "".join(pieces)

    @classmethod
    def parse_text(cls, text: str) -> "Word":
        return cls.from_letters((ch.lower(), 1 if ch.islower() else -1)
                                for ch in text)


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
    gens = ("a", "b")
    return Word.from_letters((gens[i % 2], s) for i, s in enumerate(seq.signs))


def word_double_twist(knot: DoubleTwistKnot) -> tuple[Word, int]:
    """The word w = (b a^-1)^k b a (b^-1 a)^k and the twist exponent m;
    the relator of the presentation is w^m a = b w^m."""
    k = knot.k
    letters = [("b", 1), ("a", -1)] * k + [("b", 1), ("a", 1)] + [("b", -1), ("a", 1)] * k
    return Word.from_letters(letters), knot.m


# The two building blocks of the K_l relator.
KL_WORD_C = Word.parse_text("abABabaBAb")
KL_WORD_D = Word.parse_text("abABab")


def word_kl(knot: KlKnot) -> Word:
    """Relator v = c^(l-1) d; agrees letter-for-letter with the word built
    from the sign sequence of the associated fraction."""
    word = Word.from_letters(())
    for _ in range(knot.l - 1):
        word = word * KL_WORD_C
    return word * KL_WORD_D
