"""Rigorous root certificates for phi_K(x_n, y) on (2, y_max_cap].

A certificate is a dyadic bracket (a, b) with 2 < a < b whose endpoint
evaluations are sign-definite intervals of opposite sign; any verifier can
re-check it from the record alone.  An inconclusive scan asserts only that no
bracket was found in the searched window at the working precision -- never
that no root exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__
from .dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from .polyring import XYPoly, eval_interval, y_coefficient_bounds
from .riley import RileyPolynomial


class HashMismatch(ValueError):
    """Certificate does not belong to the supplied polynomial."""


class MalformedCertificate(ValueError):
    """A certificate record has a missing or malformed field."""


def xn_enclosure(n: int, precision: int) -> DyadicInterval:
    """Enclosure of x_n = 2cos(pi/n) of width <= 2**-precision.

    Exact for n = 2, 3; the integer square root of 2 or 3 for n = 4, 6; the
    fixed-point cosine series on a certified pi enclosure otherwise.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return two_cos_pi_ratio(1, n, precision)


@dataclass(frozen=True)
class RootCertificate:
    """Re-checkable bracket for a root y_n > 2 of phi_K(x_n, y)."""

    knot: str
    n: int
    a: Dyadic
    b: Dyadic
    sign_a: int
    sign_b: int
    precision: int
    y_max: int
    poly_hash: str

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

        Raises MalformedCertificate for a missing or malformed field: signs
        must be exactly "+" or "-"; n, precision and y_max JSON integers with
        n >= 2, precision in 1..DEFAULT_PRECISION_CAP and y_max >= 3; each
        bracket endpoint at most MAX_Y_MAX_CAP in absolute value, its
        exponent within _max_endpoint_exponent(precision), so that a hostile
        record cannot make the verifier build huge integers.
        """
        sign_a, sign_b = _field(obj, "signs", _parse_signs)
        precision = _field(obj, "precision", _int_parser(1, DEFAULT_PRECISION_CAP))
        bound = _max_endpoint_exponent(precision)
        a, b = _field(obj, "bracket", lambda br: (_parse_endpoint(br["a"], bound),
                                                  _parse_endpoint(br["b"], bound)))
        return cls(knot=_field(obj, "knot", _parse_str),
                   n=_field(obj, "n", _int_parser(2)),
                   a=a, b=b, sign_a=sign_a, sign_b=sign_b, precision=precision,
                   y_max=_field(obj, "y_max", _int_parser(3)),
                   poly_hash=_field(obj, "poly_hash", _parse_str))


def _max_endpoint_exponent(precision: int) -> int:
    """Bound on |exponent| of the bracket endpoints of a record of this
    precision.

    An endpoint a scan emits is an isolation node end refined by bisection.
    A node end is 2 + 2**-64 + i * 2**-k, with 64 fractional bits: nodes are
    no narrower than BRACKET_WIDTH = 2**-32, so k <= 32.  An isolating node
    lies in (2, 2**20] (MAX_Y_MAX_CAP), so it is at most 2**19 wide, and at
    most 51 halvings bring it to BRACKET_WIDTH; every midpoint is a node end
    plus a multiple of 2**-32, so it keeps 64 fractional bits.  Values up to
    2**20 have positive exponents up to 20, hence |exponent| <= 64.  Older
    records must parse too: scans that started at P bits (at most the
    recorded precision) put the window at 2 + 2**-(P//2) and took at most
    124 bisection steps of at most 2 fractional bits each, so their
    endpoints have |exponent| < P/2 + 280.  The 431 grid records of the
    last version before the root isolation, at its default 128 bits, reach
    254; one it wrote at a starting precision set above about 180 bits may
    exceed the bound.
    """
    return precision // 2 + 280


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


def _parse_endpoint(value, bound: int) -> Dyadic:
    """{"mantissa": ASCII decimal string, "exponent": JSON integer}, the
    exponent (once normalized) within +-bound and the value within
    +-MAX_Y_MAX_CAP: every scan writes endpoints in (2, MAX_Y_MAX_CAP]."""
    if type(value["exponent"]) is not int:
        raise TypeError(f"malformed endpoint {value!r}")
    d = Dyadic.from_json(value)
    if abs(d.e) > bound:
        raise ValueError(f"exponent {d.e} is beyond +-{bound}")
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


@dataclass(frozen=True)
class ScanReport:
    """certified with a certificate, or inconclusive with a search trace.

    Inconclusive NEVER asserts that no root exists: the scan is one-sided.
    """

    status: str
    certificate: RootCertificate | None
    trace: dict = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.status == "certified"


DEFAULT_PRECISION = 128
DEFAULT_Y_MAX_CAP = 1 << 16
MAX_Y_MAX_CAP = 1 << 20  # keeps bracket endpoints within _max_endpoint_exponent
DEFAULT_PRECISION_CAP = 4096
_BRACKET_BITS = 32
BRACKET_WIDTH = Dyadic(1, -_BRACKET_BITS)  # bisection target and isolation node floor
# the window starts at 2 + 2**-64, keeping brackets above 2; node ends and
# bisection points are integers on this window unit 2**-64
_MARGIN_BITS = 64


class _SignOracle:
    """Signs of phi(x_n, y) and the y-coefficient bounds the root isolation
    reads, raising the x_n precision on demand, with the counts of the scan
    trace.

    bounds = (lo, hi, e) encloses each coefficient c_j(x_n) of
    phi = sum_j c_j(x) y**j, computed once per precision P by interval
    Horner in x on the one fixed-point unit of the scan, 2**e with
    e = -(2P + 32), every product rounded outward: bits below that lie far
    under the 2**-P width of x_n and only slow the arithmetic.  Every
    isolation node and every sign work on that same unit.  Every sign is
    one eval_interval call given these bounds, which answers from them, in
    fixed point on their unit with every rounding outward, when they fix
    the sign and else evaluates exactly, so each sign is the one exact
    evaluation would give.
    """

    def __init__(self, poly: XYPoly, n: int):
        self.poly, self.n = poly, n
        self._set_precision(DEFAULT_PRECISION)
        self.evaluations = self.escalations = self.indefinite = self.nodes = 0

    def _set_precision(self, precision: int) -> None:
        self.precision = precision
        self.xn = xn_enclosure(self.n, precision)
        self.bounds = y_coefficient_bounds(self.poly, self.xn, -2 * precision - 32)

    def escalate(self) -> bool:
        """Count an indefinite result and double the x_n precision; False,
        with the precision unchanged, once it would pass DEFAULT_PRECISION_CAP."""
        self.indefinite += 1
        if self.precision * 2 > DEFAULT_PRECISION_CAP:
            return False
        self._set_precision(self.precision * 2)
        self.escalations += 1
        return True

    def sign(self, y: int) -> int | None:
        """Definite sign at y * 2**-64 (y on the window unit), 0 for an exact
        zero, None if still indefinite once the precision would pass
        DEFAULT_PRECISION_CAP."""
        point = DyadicInterval.point(Dyadic(y, -_MARGIN_BITS))
        while True:
            self.evaluations += 1
            s = eval_interval(self.poly, self.xn, point, y_bounds=self.bounds).sign()
            if s is not None:
                return s
            if not self.escalate():
                return None


def _taylor_shift(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """Coefficients (constant first) of q(t + 1) from those of q(t), for
    each of lo and hi in one pass."""
    lo, hi = list(lo), list(hi)
    for i in range(len(lo) - 1):
        for j in range(len(lo) - 2, i - 1, -1):
            lo[j] += lo[j + 1]
            hi[j] += hi[j + 1]
    return lo, hi


def _scale(c: list[int], k: int) -> list[int]:
    """Coefficients of q(2**k t), k >= 0."""
    return [cj << k * j for j, cj in enumerate(c)]


def _halve(lo: list[int], hi: list[int]) -> tuple[list[int], list[int]]:
    """Bounds on the coefficients of q(t/2), on the unit of lo and hi, from
    bounds lo <= c <= hi on those of q: c_j 2**-j floored and ceiled."""
    return ([c >> j for j, c in enumerate(lo)],
            [-(-c >> j) for j, c in enumerate(hi)])


def _root_node(bounds: tuple[list[int], list[int], int],
               k_root: int) -> tuple[list[int], list[int]]:
    """Integer bounds on the coefficients of phi(x_n, 2 + 2**-64 + 2**k_root t),
    up to a positive factor, from the sign oracle's cached bounds.

    The shift by 2 of the bounds is exact, in one pass; the shift by 2**-64
    stays on the bounds' own unit, the oracle's fixed-point one, the lower
    bounds floored and the upper ones ceiled at each step.  Every step of a
    Taylor shift adds a nonnegative multiple of one coefficient to another,
    so each floor or ceiling only widens the bounds, and no coefficient
    carries the 64 * deg_y bits of the exact shift.  The scale by 2**k_root
    is exact.
    """
    lo, hi = list(bounds[0]), list(bounds[1])
    d = len(lo) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            lo[j] += lo[j + 1] << 1
            hi[j] += hi[j + 1] << 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            lo[j] += lo[j + 1] >> _MARGIN_BITS
            hi[j] -= -hi[j + 1] >> _MARGIN_BITS
    return _scale(lo, k_root), _scale(hi, k_root)


def _variations(lo: list[int], hi: list[int]) -> int | None:
    """Sign variations of (1 + t)**d q(1/(1 + t)), the same for every q with
    lo <= coefficients <= hi, or None when a coefficient sign is not fixed.

    By Descartes' rule the count bounds the roots of q in (0, 1) and has
    their parity: 0 means none, 1 exactly one.  Reversal and the shift have
    nonnegative weights, so lo and hi bound the transformed q as well.
    """
    count, last = 0, 0
    for l, h in zip(*_taylor_shift(lo[::-1], hi[::-1])):
        if l > 0 or h < 0:
            s = 1 if l > 0 else -1
            count += last == -s
            last = s
        elif l or h:
            return None
    return count


def _isolating_bracket(oracle: _SignOracle, y_max_cap: int):
    """The first interval (a, b) in (2 + 2**-64, y_max_cap] that holds exactly
    one root of phi(x_n, .), by left-first Vincent-Collins-Akritas bisection,
    its ends integers on the window unit 2**-64; None when the window holds
    none or a count is indefinite at DEFAULT_PRECISION_CAP.

    Every node is on the oracle's fixed-point unit.  A node (a, a + 2**k)
    keeps integer bounds lo, hi on the coefficients of
    q(t) = phi(x_n, a + 2**k t) up to a positive factor; the root node comes
    from the oracle's cached coefficient bounds (_root_node).  Its left half
    bounds q(t/2), lo floored and hi ceiled (_halve), and its right half is
    that shifted by 1, exactly; reversal and the shift have nonnegative
    weights, so each node's bounds hold the exact node and a count made on
    them holds for every polynomial between them.  A node with no root is
    dropped, the first with a single root inside the window is returned,
    and any other is split unless it is no wider than BRACKET_WIDTH.  An
    indefinite variation count doubles the x_n precision and restarts the
    search.
    """
    k_root = (y_max_cap - 3).bit_length()  # 2**k_root >= y_max_cap - 2
    cap = y_max_cap << _MARGIN_BITS
    while True:
        stack = [((2 << _MARGIN_BITS) + 1, k_root + _MARGIN_BITS,
                  *_root_node(oracle.bounds, k_root), False)]
        while stack:
            a, k, lo, hi, shift = stack.pop()  # the node (a, a + 2**k)
            if a >= cap:
                continue
            if shift:  # right halves are shifted only when visited
                lo, hi = _taylor_shift(lo, hi)
            oracle.nodes += 1
            v = _variations(lo, hi)
            if v is None:
                break
            if v == 1 and a + (1 << k) <= cap:
                return a, a + (1 << k)
            if v and k > _MARGIN_BITS - _BRACKET_BITS:
                lo, hi = _halve(lo, hi)
                stack.append((a + (1 << (k - 1)), k - 1, lo, hi, True))
                stack.append((a, k - 1, lo, hi, False))
        else:
            return None
        if not oracle.escalate():
            return None


def _bisect(oracle: _SignOracle, a: int, sa: int, b: int):
    """Shrink the bracket (a, b), integers on the window unit with sign sa at
    a and -sa at b, to width BRACKET_WIDTH by cutting at the midpoint; None
    when a midpoint's sign is not +-sa (an exact zero, or indefinite at the
    precision cap)."""
    while b - a > 1 << (_MARGIN_BITS - _BRACKET_BITS):
        mid = (a + b) >> 1
        s = oracle.sign(mid)
        if s == sa:
            a = mid
        elif s == -sa:
            b = mid
        else:
            return None
    return a, b


def find_root_gt2(phi: RileyPolynomial, n: int, *,
                  y_max_cap: int = DEFAULT_Y_MAX_CAP) -> ScanReport:
    """Search (2 + 2**-64, y_max_cap] for a certified bracket of a root of
    phi(x_n, .); the margin of 2**-64 keeps every bracket strictly above 2.

    One straight line: Descartes' rule isolates the first root in the window
    from the left (_isolating_bracket), eval_interval signs the two ends of
    that interval, and when the signs are definite and opposite the interval
    is bisected at midpoints to width BRACKET_WIDTH and becomes the
    certificate, so the bracket holds the smallest root in the window that
    the isolation reaches.  The x_n precision starts at DEFAULT_PRECISION
    and doubles whenever a variation count or an evaluation is indefinite; a
    count or a sign still undecided at DEFAULT_PRECISION_CAP, an exact zero,
    or no isolating interval ends the scan inconclusive.  The isolation and
    every sign read the same y-coefficient bounds, cached per precision by
    _SignOracle.  Every isolation node is formed from them on the oracle's
    fixed-point unit, rounded outward, so a definite count is the exact
    node's count, and a sign the bounds fix is the exact evaluation's sign
    (see eval_interval); rounding can only leave one undecided and raise
    the precision.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 3 <= y_max_cap <= MAX_Y_MAX_CAP:
        raise ValueError(f"need 3 <= y_max_cap <= {MAX_Y_MAX_CAP}")
    oracle = _SignOracle(phi.poly, n)
    bracket = _isolating_bracket(oracle, y_max_cap)
    if bracket is not None:
        a, b = bracket
        sa, sb = oracle.sign(a), oracle.sign(b)
        bracket = _bisect(oracle, a, sa, b) if sa and sb == -sa else None
    trace = {"y_max_reached": y_max_cap, "nodes": oracle.nodes,
             "evaluations": oracle.evaluations,
             "precision_escalations": oracle.escalations,
             "indefinite": oracle.indefinite}
    if bracket is None:
        trace["note"] = "no bracket found; this does not assert absence of a root"
        return ScanReport("inconclusive", None, trace)
    a, b = (Dyadic(end, -_MARGIN_BITS) for end in bracket)
    cert = RootCertificate(knot=phi.knot, n=n, a=a, b=b,
                           sign_a=sa, sign_b=sb, precision=oracle.precision,
                           y_max=y_max_cap, poly_hash=phi.content_hash)
    return ScanReport("certified", cert, trace)


def verify_certificate(cert: RootCertificate, phi: RileyPolynomial) -> bool:
    """Re-check a certificate from its record alone.

    Shares only xn_enclosure and polynomial evaluation with the search; none
    of the scan or bisection logic is involved.
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
    sign_a = eval_interval(phi.poly, xn, DyadicInterval.point(cert.a)).sign()
    sign_b = eval_interval(phi.poly, xn, DyadicInterval.point(cert.b)).sign()
    return sign_a == cert.sign_a and sign_b == cert.sign_b
