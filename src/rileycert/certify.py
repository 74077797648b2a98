"""Rigorous root certificates for phi_K(x_n, y) on (2 + 2**-64, y_max_cap].

A certificate is a dyadic bracket (a, b) with 2 < a < b whose endpoint
evaluations are sign-definite intervals of opposite sign; any verifier can
re-check it from the record alone.  An inconclusive scan asserts only that no
bracket was found in the searched window at the working precision -- never
that no root exists.
"""

from __future__ import annotations

from collections import namedtuple

from . import __version__
from .chebyshev import cheb_poly
from .dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from .polyring import XYPoly, eval_interval, y_row_bounds, y_rows
from .riley import RileyPolynomial


class HashMismatch(ValueError):
    """Certificate does not belong to the supplied polynomial."""


class MalformedCertificate(ValueError):
    """A certificate record has a missing or malformed field."""


def xn_enclosure(n: int, precision: int) -> DyadicInterval:
    """Enclosure of x_n = 2cos(pi/n) of width <= 2**-precision.

    Exact for n = 2, 3; the integer square root of 2 or 3 for n = 4, 6; the
    fixed-point cosine series on a certified pi enclosure otherwise;
    ValueError for n < 2.
    """
    return two_cos_pi_ratio(n, precision)


def xn_modulus(n: int, deg_x: int) -> tuple[int, ...] | None:
    """P_n, ascending: the monic integer polynomial with P_n(x_n**2) = 0
    that S_{n-1}(x) = U_{n-1}(x/2) gives, S_{n-1}(x) = P_n(x**2) for odd n
    and x P_n(x**2) for even n (every other coefficient of cheb_poly(n - 1)),
    with P_2 = u as x_2 = 0; None when its degree floor((n - 1) / 2) passes
    deg_x // 2, as no row of a phi of x-degree deg_x is then long enough to
    reduce, and the O(n**2) build would buy nothing.  x_n = 2cos(pi/n) is a
    root of S_{n-1} (its roots are 2cos(k pi/n), k = 1 .. n-1), and not 0
    for n >= 3, so the factor x of an even n does not hold it.
    """
    if (n - 1) // 2 > deg_x // 2:
        return None
    return (0, 1) if n == 2 else cheb_poly(n - 1)[(n - 1) % 2::2]


class RootCertificate(namedtuple("RootCertificate",
                                  "knot n a b sign_a sign_b precision y_max poly_hash")):
    """Re-checkable bracket for a root y_n > 2 of phi_K(x_n, y): the knot's
    label, n, the bracket a < b with the signs of phi at its ends, the x_n
    precision, the y_max searched and the content hash of phi."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "knot": self.knot,
            "n": self.n,
            "bracket": {"a": self.a.as_json(), "b": self.b.as_json()},
            "signs": ["+" if self.sign_a > 0 else "-",
                      "+" if self.sign_b > 0 else "-"],
            "precision": self.precision,
            "y_max": self.y_max,
            "poly_hash": self.poly_hash,
            "tool_version": __version__,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "RootCertificate":
        """Parse a record written by to_json_dict.

        Raises MalformedCertificate for a key that to_json_dict does not
        write (in the record, its bracket or an endpoint), a tool_version
        that is not a string, or a missing or malformed field: signs must
        be exactly "+" or "-"; n, precision and y_max JSON integers with
        n >= 2, precision in 1..DEFAULT_PRECISION_CAP and y_max in
        3..MAX_Y_MAX_CAP; each bracket endpoint on the lattice a scan
        writes on (_parse_endpoint), so that a hostile record cannot make
        the verifier build huge integers.  No field's bound depends on
        another; tool_version may be absent.
        """
        if not isinstance(obj, dict):
            raise MalformedCertificate("a certificate record must be a JSON object")
        unknown = sorted(obj.keys() - _RECORD_KEYS, key=str)
        if unknown:
            raise MalformedCertificate(f"unknown certificate keys {unknown}")
        if "tool_version" in obj:
            _field(obj, "tool_version", _parse_str)
        sign_a, sign_b = _field(obj, "signs", _parse_signs)
        a, b = _field(obj, "bracket", _parse_bracket)
        return cls(knot=_field(obj, "knot", _parse_str),
                   n=_field(obj, "n", _int_parser(2)),
                   a=a, b=b, sign_a=sign_a, sign_b=sign_b,
                   precision=_field(obj, "precision",
                                    _int_parser(1, DEFAULT_PRECISION_CAP)),
                   y_max=_field(obj, "y_max", _int_parser(3, MAX_Y_MAX_CAP)),
                   poly_hash=_field(obj, "poly_hash", _parse_str))


# the keys to_json_dict writes
_RECORD_KEYS = frozenset(("knot", "n", "bracket", "signs", "precision", "y_max",
                          "poly_hash", "tool_version"))


def _object(value, keys: set) -> dict:
    """A JSON object with exactly these keys."""
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    if value.keys() != keys:
        raise ValueError(f"expected the keys {sorted(keys)}, got {sorted(value, key=str)}")
    return value


def _field(obj: dict, key: str, parse):
    try:
        return parse(obj[key])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedCertificate(
            f"certificate field {key!r} is missing or malformed") from exc


def _int_parser(lo: int, hi: int | None = None):
    """A JSON integer (not a bool, float or string) in [lo, hi]."""
    def parse(value) -> int:
        if type(value) is not int:
            raise TypeError(f"expected an integer, got {type(value).__name__}")
        if value < lo or (hi is not None and value > hi):
            raise ValueError(f"{value} is out of range")
        return value
    return parse


def _parse_bracket(value) -> tuple[Dyadic, Dyadic]:
    """{"a": endpoint, "b": endpoint}, each as _parse_endpoint takes it."""
    bracket = _object(value, {"a", "b"})
    return _parse_endpoint(bracket["a"]), _parse_endpoint(bracket["b"])


def _parse_endpoint(value) -> Dyadic:
    """{"mantissa": ASCII decimal string, "exponent": JSON integer}, the
    exponent (once normalized) within +-_MARGIN_BITS and the value within
    +-MAX_Y_MAX_CAP.  Every scan writes odd integers on its window unit
    2**-_MARGIN_BITS in (2, MAX_Y_MAX_CAP] (see _MARGIN_BITS), so its
    endpoints have |exponent| <= _MARGIN_BITS at every precision.  The
    exponent is checked first: the value check shifts the mantissa by it."""
    value = _object(value, {"mantissa", "exponent"})
    if type(value["exponent"]) is not int:
        raise TypeError(f"malformed endpoint {value!r}")
    d = Dyadic.from_json(value)
    if abs(d.e) > _MARGIN_BITS:
        raise ValueError(f"exponent {d.e} is beyond +-{_MARGIN_BITS}")
    if not -MAX_Y_MAX_CAP <= d <= MAX_Y_MAX_CAP:
        raise ValueError(f"endpoint is beyond +-{MAX_Y_MAX_CAP}")
    return d


def _parse_str(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _parse_signs(value) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(s in ("+", "-") for s in value)):
        raise ValueError(f'expected two of "+"/"-", got {value!r}')
    return tuple(1 if s == "+" else -1 for s in value)


class ScanReport(namedtuple("ScanReport", "status certificate trace")):
    """certified with a certificate, or inconclusive with a search trace:
    status, the RootCertificate or None, and the trace dict.

    Inconclusive NEVER asserts that no root exists: the scan is one-sided.
    """

    __slots__ = ()

    @property
    def certified(self) -> bool:
        return self.status == "certified"


DEFAULT_PRECISION = 128
DEFAULT_Y_MAX_CAP = 1 << 16
MAX_Y_MAX_CAP = 1 << 20  # largest y_max_cap; bounds record endpoints and y_max
DEFAULT_PRECISION_CAP = 4096
_BRACKET_BITS = 32
BRACKET_WIDTH = Dyadic(1, -_BRACKET_BITS)  # refinement target and isolation node floor
# the window starts at 2 + 2**-64, keeping brackets above 2; node ends and
# refinement points are odd integers on this window unit 2**-64, so a record
# parses only endpoints with |exponent| <= _MARGIN_BITS
_MARGIN_BITS = 64


class _SignOracle:
    """Enclosures of phi(x_n, y) for the signs of refinement, and the
    y-coefficient bounds that every isolation node and sign come from,
    raising the x_n precision on demand, with the counts of the scan trace:
    evaluations (eval_interval calls), nodes (Descartes counts made, gallop
    trials included), escalations and indefinite results.

    rows are phi's y-rows in u = x**2 reduced modulo P_n(u) (modulus, from
    xn_modulus; None when no row reaches its degree, and then phi's rows in
    u, undivided), formed once per scan by y_rows, which refuses a phi that
    is not a polynomial in u; riley.RileyPolynomial proves every phi is
    one.  Each c_j(x_n) of phi = sum_j c_j(x) y**j is the value of row j at
    u_n = x_n**2, as P_n(u_n) = 0 (see eval_interval).  The rows do not
    depend on the precision P, and both paths of a sign run on them.

    bounds = (lo, hi, e) encloses each c_j(x_n), once per precision P, by
    y_row_bounds in u over the squares of the x_n enclosure on the scan's
    one fixed-point unit 2**e, e = -(2P + 32), rounded outward: bits below
    that lie far under the 2**-P width of x_n and only slow the arithmetic.
    A value is one eval_interval call per precision given these bounds and
    the rows, which answers from the bounds when they fix the sign and else
    evaluates the rows exactly at the point, so each definite sign is the
    one exact evaluation would give.
    """

    def __init__(self, poly: XYPoly, n: int):
        self.poly, self.n = poly, n
        self.modulus = xn_modulus(n, poly.deg_x())
        self.rows = y_rows(poly, self.modulus)
        self._set_precision(DEFAULT_PRECISION)
        self.evaluations = self.escalations = self.indefinite = self.nodes = 0

    def _set_precision(self, precision: int) -> None:
        self.precision = precision
        self.xn = xn_enclosure(self.n, precision)
        self.bounds = y_row_bounds(self.rows, self.xn, -2 * precision - 32)

    def escalate(self) -> bool:
        """Count an indefinite result and double the x_n precision; False,
        with the precision unchanged, once it would pass DEFAULT_PRECISION_CAP."""
        self.indefinite += 1
        if self.precision * 2 > DEFAULT_PRECISION_CAP:
            return False
        self._set_precision(self.precision * 2)
        self.escalations += 1
        return True

    def value(self, y: int) -> DyadicInterval:
        """Enclosure of phi(x_n, y * 2**-64) from one eval_interval call per
        precision: sign-definite or an exact zero, unless still indefinite
        once the precision would pass DEFAULT_PRECISION_CAP."""
        point = DyadicInterval.point(Dyadic(y, -_MARGIN_BITS))
        while True:
            self.evaluations += 1
            value = eval_interval(self.poly, self.xn, point, y_bounds=self.bounds,
                                  rows=self.rows)
            if value.sign() is not None or not self.escalate():
                return value


def _taylor_shift(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """Coefficients (constant first) of q(t + 1) from those of q(t), for
    each of lo and hi in one pass, the new coefficient j + 1 carried to
    step j in a local."""
    lo, hi = list(lo), list(hi)
    d = len(lo) - 1
    for i in range(d):
        s, t = lo[d], hi[d]
        for j in range(d - 1, i - 1, -1):
            s = lo[j] = lo[j] + s
            t = hi[j] = hi[j] + t
    return lo, hi


def _scale(c: list[int], k: int) -> list[int]:
    """Coefficients of q(2**k t), k >= 0."""
    return [cj << k * j for j, cj in enumerate(c)]


def _halve(lo: list[int], hi: list[int], m: int = 1) -> tuple[list[int], list[int]]:
    """Bounds on the coefficients of q(t / 2**m), on the unit of lo and hi,
    from bounds lo <= c <= hi on those of q: c_j 2**-mj floored and ceiled.
    A floor of a floor is the floor of the whole quotient, so one call with
    m gives the same integers as m calls with 1."""
    return ([c >> m * j for j, c in enumerate(lo)],
            [-(-c >> m * j) for j, c in enumerate(hi)])


def _root_node(bounds: tuple[list[int], list[int], int],
               k_root: int) -> tuple[list[int], list[int]]:
    """Integer bounds on the coefficients of phi(x_n, 2 + 2**-64 + 2**k_root t),
    on the unit of the sign oracle's cached bounds, from those bounds.

    The shift by 2 is exact: q(2t) shifted by 1 (_scale, _taylor_shift),
    whose coefficient j is divisible by 2**j, then halved (_halve).  The
    shift by 2**-64 stays on the bounds' unit, lower bounds floored and
    upper ones ceiled at each step, each of which adds a nonnegative
    multiple of one coefficient to another: the bounds only widen, and no
    coefficient carries the 64 * deg_y bits of the exact shift.  The scale
    by 2**k_root is exact.
    """
    lo, hi = _halve(*_taylor_shift(_scale(bounds[0], 1), _scale(bounds[1], 1)))
    d = len(lo) - 1
    for i in range(d):
        s, t = lo[d], hi[d]
        for j in range(d - 1, i - 1, -1):
            s = lo[j] = lo[j] + (s >> _MARGIN_BITS)
            t = hi[j] = hi[j] - (-t >> _MARGIN_BITS)
    return _scale(lo, k_root), _scale(hi, k_root)


def _variations(lo: list[int], hi: list[int]) -> int | None:
    """Sign variations of (1 + t)**d q(1/(1 + t)), the same for every q with
    lo <= coefficients <= hi, or None when a coefficient sign is not fixed.

    By Descartes' rule the count bounds the roots of q in (0, 1) and has
    their parity: 0 means none, 1 exactly one.  Reversal and the shift have
    nonnegative weights, so lo and hi bound the transformed q as well.

    Both bounds are shifted at once, each reversed pair packed as
    p_j = lo_j + hi_j 2**w: the shift is linear, so its additions on p give
    lo'_j + hi'_j 2**w.  With d = deg q and every |lo_j| < 2**b, lo'_j is
    sum_{i>=j} C(i, j) lo_(d-i), and sum_{i=j..d} C(i, j) = C(d + 1, j + 1)
    <= 2**d (two neighbours of row d of Pascal's triangle, whose sum is
    2**d), so |lo'_j| < 2**(b + d) = 2**(w - 1) at w = b + d + 1.  hi'_j
    needs no room: it is the top of the integer.  Each p_j then holds its
    low slot lo'_j in [-2**(w-1), 2**(w-1)), read without unpacking: p_j
    mod 2**w is lo'_j for lo'_j >= 0 and lo'_j + 2**w otherwise, so
    lo'_j > 0 exactly when 0 < p_j mod 2**w < 2**(w-1); hi'_j < 0 exactly
    when p_j < -2**(w-1); and both are 0 exactly when p_j = 0.
    """
    d = len(lo) - 1
    w = max(max(lo), -min(lo)).bit_length() + d + 1
    half, mask = 1 << w - 1, (1 << w) - 1
    p = [l + (h << w) for l, h in zip(reversed(lo), reversed(hi))]
    for i in range(d):
        s = p[d]
        for j in range(d - 1, i - 1, -1):
            s = p[j] = p[j] + s
    count, last, below = 0, 0, -half
    for c in p:
        if not c:
            continue
        if 0 < c & mask < half:
            s = 1
        elif c < below:
            s = -1
        else:
            return None
        count += last == -s
        last = s
    return count


def _isolating_bracket(oracle: _SignOracle, y_max_cap: int):
    """The first node (a, b) = (a, a + 2**k) in (2 + 2**-64, y_max_cap] that
    holds exactly one root of phi(x_n, .), by left-first Vincent-Collins-
    Akritas bisection, as (a, b, lo, hi): its ends on the window unit
    2**-64, and bounds lo[j] 2**e <= c_j <= hi[j] 2**e on the coefficients
    of q(t) = phi(x_n, (a + 2**k t) 2**-64) = sum_j c_j t**j; None when the
    window holds none or a count is indefinite at DEFAULT_PRECISION_CAP.

    Every node is on the oracle's fixed-point unit 2**e, e =
    oracle.bounds[2], which no count or sign needs; the root node comes from
    its cached bounds (_root_node).  A node's left half bounds q(t/2),
    lo floored and hi ceiled (_halve), and its right half is that shifted
    by 1, exactly; reversal and the shift have nonnegative weights, so a
    count made on a node's bounds holds for the exact node.  A node with no
    root is dropped, the first with a single root inside the window is
    returned, any other is split, and a node narrower than BRACKET_WIDTH is
    dropped uncounted.  An indefinite count doubles the precision and
    restarts.

    A node that counts v >= 2 gallops (_gallop) to the narrowest leftmost
    part P_m = 2**-m of it that still counts v, and is split there into
    P_{m+1}, formed in one step (_halve), and P_{m+1} shifted by 1.  The
    count is that of sign variations of q's Bernstein coefficients b_i on
    [0, 1], as (1 + t)**d q(1/(1 + t)) = sum_i C(d, i) b_i t**(d - i), and
    De Casteljau's means of neighbours never add one, so
    var(I) >= var(I1) + var(I2) when I splits into I1, I2.  If P_m keeps v,
    the right halves that plain halving would visit on its way to P_m count
    0, and each left node on that way counts v >= 2: halving reaches P_m
    with the same nodes still to visit, and the same certificate.  The
    decided counts of P_1, P_2, ... fall as m grows, so a gallop from any
    start ends at the same m: the root node's starts at the split its
    bounds predict (_split_guess), every other at m = 1.  Its failed trials
    at P_{m+1}, P_{m+2}, ... are the left child and its parts (the floors of
    _halve compose), so their counts are passed on and no box is counted
    twice at one precision.  A gallop counts an undecided trial as not
    kept, so only a node's own count escalates.  The trace's nodes are the
    Descartes counts made, gallop trials included.
    """
    k_root = (y_max_cap - 3).bit_length()  # 2**k_root >= y_max_cap - 2
    cap = y_max_cap << _MARGIN_BITS
    floor = _MARGIN_BITS - _BRACKET_BITS  # no node narrower than BRACKET_WIDTH
    top = k_root + _MARGIN_BITS
    while True:
        # (a, k, lo, hi, shift, counts): the node (a, a + 2**k), its bounds,
        # whether they await the shift by 1, the counts of its leftmost parts
        stack = [((2 << _MARGIN_BITS) + 1, top,
                  *_root_node(oracle.bounds, k_root), False, {})]
        while stack:
            a, k, lo, hi, shift, counts = stack.pop()
            if a >= cap or k < floor:
                continue
            if 0 not in counts:
                if shift:  # right halves are shifted only when visited
                    lo, hi = _taylor_shift(lo, hi)
                oracle.nodes += 1
                counts[0] = _variations(lo, hi)
            v = counts[0]
            if v is None:
                break
            if v == 1 and a + (1 << k) <= cap:
                return a, a + (1 << k), lo, hi
            if v:
                m = 0
                if v > 1:
                    start = _split_guess(lo, hi, v) if k == top else 1
                    m = _gallop(oracle, lo, hi, v, k - floor, counts, start)
                k -= m + 1
                lo, hi = _halve(lo, hi, m + 1)
                stack.append((a + (1 << k), k, lo, hi, True, {}))
                stack.append((a, k, lo, hi, False,
                              {j - m - 1: c for j, c in counts.items() if j > m}))
        else:
            return None
        if not oracle.escalate():
            return None


def _split_guess(lo: list[int], hi: list[int], v: int) -> int:
    """A guess at the gallop's split m for a node that counts v, with
    c_j = lo_j + hi_j: the v roots counted lie about as far from the node's
    left end as the roots of c_0 + c_v t**v, at |c_0 / c_v|**(1/v), so the
    guess is the part 2**-m one step wider than that scale."""
    c0, cv = lo[0] + hi[0], lo[v] + hi[v]
    return (abs(cv).bit_length() - abs(c0).bit_length()) // v - 1


def _gallop(oracle: _SignOracle, lo: list[int], hi: list[int], v: int,
            m_max: int, counts: dict, m: int) -> int:
    """The largest m <= m_max for which the leftmost 2**-m part of the node
    with bounds lo, hi (count v) still counts v: a probe of the start m
    (clamped to 1..m_max), a gallop from it with steps 1, 2, 4, ... up while
    parts keep v and down while they do not, then bisection.  counts maps j
    to the count of part j; only the missing counts are made, each added
    there, and the caller passes those of parts m + 1, m + 2, ... on to the
    left child, whose parts they are.  Every start gives the same m and
    count of part m + 1 when the trials are decided (see
    _isolating_bracket).  No count is made when m_max <= 0.
    """
    good, bad, step = 0, m_max + 1, 1
    m = min(max(m, 1), m_max)
    while good + 1 < bad:
        if m not in counts:
            oracle.nodes += 1
            counts[m] = _variations(*_halve(lo, hi, m))
        if counts[m] == v:
            good = m
        else:
            bad = m
        if bad > m_max:
            m = min(good + step, m_max)
        elif not good:
            m = max(bad - step, 1)
        else:
            m = (good + bad) >> 1
        step *= 2
    return good


def _root_guess(lo: list[int], hi: list[int], cells: int) -> float:
    """A guess at where in [0, 1] the root of a node counting 1 lies: Newton
    steps in floats on sum_j (lo_j + hi_j) t**j from the secant through
    t = 0 and 1, until a step under a quarter cell (of cells) lands in the
    bracket the signs met give, or cells.bit_length() steps, as many as
    bisection takes to reach a cell, are made.  A step out of the bracket
    or over half the one before goes to its upper end / 8 while its ends
    differ by over 2**6 in ratio, else to its midpoint.

    One power of two scales the coefficients so that the largest is below
    2**(1023 - 2b), b = d.bit_length() at degree d.  Every t lies in [0, 1],
    where Horner's partial values are at most (d + 1) max|c_j| < 2**b max
    and its derivative's at most d(d + 1)/2 max < 2**(2b - 1) max, so
    neither overflows a double's 2**1024 (relative rounding errors of 2**-53
    a step change that by far less than 2x).  A small c_j, c_0 included,
    becomes 0.0 only below 2**-1074, some 2**-2000 times the largest.
    Every float comes from a correctly rounded int / int or + - * /, so the
    guess, which only picks probe points, is the same on every platform."""
    c = [l + h for l, h in zip(lo, hi)]
    shift = (1023 - 2 * (len(c) - 1).bit_length()
             - max(map(abs, c)).bit_length())
    num, den = (1 << shift, 1) if shift >= 0 else (1, 1 << -shift)
    f, positive = [cj * num / den for cj in c], c[0] > 0
    t_lo, t_hi, last = 0.0, 1.0, 2.0
    t = c[0] / (c[0] - sum(c))  # exact integers, correctly rounded
    for _ in range(cells.bit_length()):
        v = dv = 0.0
        for fj in reversed(f):
            v, dv = v * t + fj, dv * t + v
        if v == 0:
            break
        t_lo, t_hi = (t, t_hi) if (v > 0) == positive else (t_lo, t)
        step = v / dv if dv else 2.0
        new = t - step
        if -0.25 < step * cells < 0.25 and t_lo <= new <= t_hi:
            return new
        if not t_lo < new < t_hi or abs(step) > last / 2:
            new = t_hi / 8 if t_hi > 64 * t_lo else (t_lo + t_hi) / 2
        t, last = new, abs(new - t)
    return t


def _refine(oracle: _SignOracle, a: int, b: int, lo: list[int], hi: list[int]):
    """(a', b', sign at a'): the cell of width BRACKET_WIDTH, aligned from a,
    that holds the root of the isolating node (a, b, lo, hi) (see
    _isolating_bracket); None when a sign met on the way is not +-(sign at
    a), that is an exact zero or indefinite at the precision cap.

    The node counts 1, so phi(x_n, .) changes sign once in it, and every
    definite sign is the exact sign: the one aligned cell whose ends have
    opposite signs is the cell bisection at midpoints returns, whichever
    points are signed on the way.  The signs at a and b are those of
    q(0) = [lo_0, hi_0] and q(1) = [sum lo, sum hi] on the bounds' unit, so
    no end is evaluated.  Refinement signs the cell end nearest the Newton guess
    (_root_guess; Sagraloff, "When Newton meets Descartes", ISSAC 2012),
    then that point's neighbour on the side its sign shows, so a guess on
    the root's cell costs two signs, and then bisects at midpoints between
    the tightened ends: at most 2 + cells.bit_length() signs for a node of
    cells cells, and one more for each escalation.
    """
    sa = 1 if lo[0] > 0 else -1 if hi[0] < 0 else 0
    if not sa or not (sum(hi) < 0 if sa > 0 else sum(lo) > 0):
        return None
    unit = 1 << (_MARGIN_BITS - _BRACKET_BITS)
    i, j, first = 0, (b - a) // unit, True
    if j > 1:
        p = min(max(round(_root_guess(lo, hi, j) * j), 1), j - 1)
    while j - i > 1:
        s = oracle.value(a + p * unit).sign()
        if s == sa:
            i = p
        elif s == -sa:
            j = p
        else:
            return None
        # the guess's neighbour on the side its sign shows, then midpoints
        p, first = p + s * sa if first else (i + j) >> 1, False
    return a + i * unit, a + j * unit, sa


def find_root_gt2(phi: RileyPolynomial, n: int, *,
                  y_max_cap: int = DEFAULT_Y_MAX_CAP) -> ScanReport:
    """Search (2 + 2**-64, y_max_cap] for a certified bracket of a root of
    phi(x_n, .); the margin of 2**-64 keeps every bracket strictly above 2.

    Descartes' rule isolates the first root in the window from the left
    (_isolating_bracket), and refinement (_refine) narrows that node to the
    aligned cell of width BRACKET_WIDTH holding the root, the certificate:
    it signs the ends of the Newton-guessed cell, then bisects.  The x_n
    precision starts at DEFAULT_PRECISION and doubles whenever a count or a
    sign is indefinite; one still undecided at DEFAULT_PRECISION_CAP, an
    exact zero, or no isolating node ends the scan inconclusive.  Every node
    and sign comes from the bounds _SignOracle caches per precision, rounded
    outward, so a definite count or sign is the exact one (see
    eval_interval).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 3 <= y_max_cap <= MAX_Y_MAX_CAP:
        raise ValueError(f"need 3 <= y_max_cap <= {MAX_Y_MAX_CAP}")
    oracle = _SignOracle(phi.poly, n)
    bracket = _isolating_bracket(oracle, y_max_cap)
    if bracket is not None:
        bracket = _refine(oracle, *bracket)
    trace = {"y_max_reached": y_max_cap, "nodes": oracle.nodes,
             "evaluations": oracle.evaluations,
             "precision_escalations": oracle.escalations,
             "indefinite": oracle.indefinite}
    if bracket is None:
        trace["note"] = "no bracket found; this does not assert absence of a root"
        return ScanReport("inconclusive", None, trace)
    a, b, sa = bracket
    cert = RootCertificate(knot=phi.knot, n=n, a=Dyadic(a, -_MARGIN_BITS),
                           b=Dyadic(b, -_MARGIN_BITS),
                           sign_a=sa, sign_b=-sa, precision=oracle.precision,
                           y_max=y_max_cap, poly_hash=phi.content_hash)
    return ScanReport("certified", cert, trace)


def verify_certificate(cert: RootCertificate, phi: RileyPolynomial) -> bool:
    """Re-check a certificate from its record alone.

    Shares only xn_enclosure, xn_modulus and polynomial evaluation with the
    search; none of the scan or refinement logic is involved, and none of
    its state: the verifier reduces phi's y-rows in u = x**2 (phi is even
    in x, see riley.RileyPolynomial) modulo P_n(u) itself, once (y_rows),
    building P_n from n as it builds x_n.  Each sign is eval_interval's
    exact path on those rows at the endpoint, over the squares of the x_n
    enclosure: P_n is monic with integer coefficients and P_n(x_n**2) = 0,
    so the residue has the value of phi at x_n exactly, and any monic
    integer P with that root would do as well.  A record's n bounds no
    work: xn_modulus builds P_n only when some row of phi is long enough to
    reduce, n <= deg_x + 2, and otherwise the rows in u are evaluated
    undivided.
    """
    if cert.poly_hash != phi.content_hash:
        raise HashMismatch("certificate does not match this polynomial")
    if cert.knot != phi.knot:
        return False
    if not (Dyadic(2) < cert.a < cert.b):
        return False
    if cert.sign_a != -cert.sign_b or cert.sign_a not in (1, -1):
        return False
    xn = xn_enclosure(cert.n, cert.precision)
    rows = y_rows(phi.poly, xn_modulus(cert.n, phi.poly.deg_x()))
    sign_a, sign_b = (eval_interval(phi.poly, xn, DyadicInterval.point(end), rows=rows).sign()
                      for end in (cert.a, cert.b))
    return sign_a == cert.sign_a and sign_b == cert.sign_b
