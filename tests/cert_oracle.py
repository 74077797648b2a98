"""An independent certificate oracle: it re-checks a certificate record from
its JSON fields and phi's integer terms alone, with none of the package's
dyadic or polynomial arithmetic.

x_n = 2cos(pi/n) is the largest root of S_{n-1}(x) = U_{n-1}(x/2), whose
roots are 2cos(k pi/n), k = 1 .. n-1, all simple.  S_0, ..., S_{n-1} by
S_{j+1} = x S_j - S_{j-1} is a Sturm sequence: the number of sign changes
of S_0(x), ..., S_{n-1}(x), zeros skipped, is the number of roots of
S_{n-1} above x.  So x < x_n exactly when there is a change, and that is an
exact integer test at x = m / 2**q, where P_j = 2**(qj) S_j(x) has S_j's
sign and P_{j+1} = m P_j - 4**q P_{j-1}.  `xn_bracket` closes two such
tests one grid step apart around x_n; the guess of where to make them comes
from mpmath, but only the integer tests decide.  The signs of phi(x_n, a)
and phi(x_n, b) come from interval Horner in x over that bracket, in
`Fraction` arithmetic, on phi with each row (the x-polynomial of one
y-degree) replaced by its remainder modulo S_{n-1}, or S_{n-1} / x for even
n >= 4, where x_n is not 0 (`reduced_terms`): S_{n-1} is monic, so the
remainder is an integer polynomial with phi's value at its root x_n.

The package reduces by its own P_n(u), u = x**2, with S_{n-1}(x) =
P_n(x**2) or x P_n(x**2), and evaluates the residue by interval Horner in
u over the squares of its enclosure.  phi is even in x, and the remainder
of an even polynomial by an even monic one is even, so the two residues
are the same polynomial.  For x >= 0, [l, h] * x * x is [l, h] * x**2, so
Horner in x of an even polynomial is Horner in u over the squares of x.
Interval Horner is inclusion-monotone, so on a bracket inside the
package's x_n enclosure the oracle is never less definite than the
package's exact path there.
"""

import hashlib
from fractions import Fraction
from functools import lru_cache

import mpmath


def sign_changes(n: int, m: int, q: int) -> tuple[int, int]:
    """(the number of roots of S_{n-1} above m / 2**q, 2**(q(n-1)) S_{n-1}
    there): the sign changes of P_0, ..., P_{n-1}, zeros skipped, and the
    last P_j."""
    prev, cur, changes, sign = 0, 1, 0, 1
    for _ in range(n - 1):
        prev, cur = cur, m * cur - (prev << 2 * q)
        if cur and (cur > 0) != (sign > 0):
            changes, sign = changes + 1, cur
    return changes, cur


@lru_cache(maxsize=None)
def xn_bracket(n: int, q: int) -> tuple[Fraction, Fraction]:
    """(lo, hi), consecutive multiples of 2**-q with lo < x_n <= hi, or
    lo = hi = x_n when x_n is one of them.

    Below lo there is a root of S_{n-1} and at or above hi none, by
    `sign_changes`; a guess that fails either test is widened until both
    hold (they do at -1 and 2), then bisected back to one grid step."""
    with mpmath.workprec(q + 32):
        guess = int(mpmath.floor(2 * mpmath.cos(mpmath.pi / n) * 2 ** q))
    lo, hi = guess - 1, guess + 1
    while not sign_changes(n, lo, q)[0]:
        lo -= hi - lo
    while sign_changes(n, hi, q)[0]:
        hi += hi - lo
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if sign_changes(n, mid, q)[0]:
            lo = mid
        else:
            hi = mid
    if sign_changes(n, hi, q)[1] == 0:
        lo = hi
    return Fraction(lo, 1 << q), Fraction(hi, 1 << q)


@lru_cache(maxsize=None)
def sturm_modulus(n: int) -> tuple[int, ...]:
    """S_{n-1} by S_{j+1} = x S_j - S_{j-1}, ascending, divided by x for
    even n >= 4: monic, with the root x_n."""
    prev, cur = [0], [1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(cur[1:] if n % 2 == 0 and n > 2 else cur)


def reduced_terms(terms: list[tuple[int, int, int]], n: int) -> list[tuple[int, int, int]]:
    """phi's terms with each row replaced by its remainder modulo
    `sturm_modulus(n)`, by long division in integers; phi itself when no
    row reaches the modulus' degree, which is then not built."""
    deg = n - 1 - (n % 2 == 0 and n > 2)
    if max((i for i, _, _ in terms), default=0) < deg:
        return terms
    modulus = sturm_modulus(n)
    rows: dict[int, list[int]] = {}
    for i, j, c in terms:
        row = rows.setdefault(j, [])
        row.extend([0] * (i + 1 - len(row)))
        row[i] += c
    out = []
    for j, row in rows.items():
        for k in range(len(row) - 1, deg - 1, -1):
            q = row[k]
            for i in range(deg + 1):
                row[k - deg + i] -= q * modulus[i]
        out.extend((i, j, c) for i, c in enumerate(row[:deg]) if c)
    return out


def content_hash(terms: list[tuple[int, int, int]]) -> str:
    """SHA-256 of phi's canonical text, one `c * x^i * y^j` line per term
    in (j, i) order, "0" for no terms: the record's poly_hash."""
    lines = [f"{c} * x^{i} * y^{j}" for i, j, c in sorted(terms, key=lambda t: (t[1], t[0]))]
    return hashlib.sha256(("\n".join(lines) or "0").encode()).hexdigest()


def interval_value(terms: list[tuple[int, int, int]], x: tuple[Fraction, Fraction],
                   y: Fraction) -> tuple[Fraction, Fraction]:
    """Bounds on phi(u, y) for u in x, y a dyadic: the x-coefficients at y
    exactly, as integers over the one denominator 2**(e D) for
    y = m / 2**e and D = deg_y, then interval Horner in x.  x lies in
    [0, 2], as x_n does, so [lo, hi] * x takes the ends of x that its own
    signs pick: two products a step."""
    assert 0 <= x[0] <= x[1]
    m, e = y.numerator, y.denominator.bit_length() - 1
    deg_y = max((j for _, j, _ in terms), default=0)
    weights = [m ** j << e * (deg_y - j) for j in range(deg_y + 1)]
    coeffs: dict[int, int] = {}
    for i, j, c in terms:
        coeffs[i] = coeffs.get(i, 0) + c * weights[j]
    unit = Fraction(1, 1 << e * deg_y)
    top = max(coeffs, default=0)
    lo = hi = coeffs.get(top, 0) * unit
    for i in range(top - 1, -1, -1):
        c = coeffs.get(i, 0) * unit
        lo, hi = lo * x[lo < 0] + c, hi * x[hi >= 0] + c
    return lo, hi


def endpoint(value: dict) -> Fraction:
    """The value of a record's bracket endpoint."""
    return int(value["mantissa"]) * Fraction(2) ** value["exponent"]


def accepts(record: dict, knot: str, terms: list[tuple[int, int, int]]) -> bool:
    """Whether a certificate record (the JSON dict `certify` prints) holds
    for phi, given by its knot label and integer terms (x_deg, y_deg,
    coeff): the hash and knot match, 2 < a < b, the signs are opposite, and
    phi(x_n, a) and phi(x_n, b) have them on the bracket of x_n two bits
    finer than the record's precision, as fine as the package's enclosure
    endpoints, by phi's residues (`reduced_terms`)."""
    if record["poly_hash"] != content_hash(terms) or record["knot"] != knot:
        return False
    a, b = endpoint(record["bracket"]["a"]), endpoint(record["bracket"]["b"])
    signs = [{"+": 1, "-": -1}[s] for s in record["signs"]]
    if not 2 < a < b or signs[0] != -signs[1]:
        return False
    x = xn_bracket(record["n"], record["precision"] + 2)
    residues = reduced_terms(terms, record["n"])
    for y, sign in zip((a, b), signs):
        lo, hi = interval_value(residues, x, y)
        if not (lo > 0 if sign > 0 else hi < 0):
            return False
    return True
