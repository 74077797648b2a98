"""Rigorous root certificates for phi_K(x_n, y) on (2, y_max].

A certificate is a dyadic bracket (a, b) with 2 < a < b whose endpoint
evaluations are sign-definite intervals of opposite sign; any verifier can
re-check it from the record alone.  An inconclusive scan asserts only that no
bracket was found in the searched window at the working precision -- never
that no root exists.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from .knots import DoubleTwistKnot, KlKnot
from .polyring import XYPoly, eval_interval
from .riley import RileyPolynomial, kl_named_polys, lambda_dt


class PreconditionUnverifiable(ValueError):
    """The witness inequality c <= x_n^2 - 2 (or c <= 1) cannot be certified."""


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
class CosRatio:
    """The algebraic target 2cos(num*pi/den), 0 <= num <= den.

    Both witness targets and x_n^2 - 2 = 2cos(2pi/n) have this shape, so
    order comparisons reduce to exact integer arithmetic: cos decreases on
    [0, pi], hence 2cos(a*pi) <= 2cos(b*pi) iff a >= b.
    """

    num: int
    den: int

    def __post_init__(self):
        if not (self.den >= 1 and 0 <= self.num <= self.den):
            raise ValueError(f"need 0 <= num <= den, got {self.num}/{self.den}")

    def enclosure(self, precision: int) -> DyadicInterval:
        return two_cos_pi_ratio(self.num, self.den, precision)

    def le_xn_squared_minus_2(self, n: int) -> bool:
        return Fraction(self.num, self.den) >= Fraction(2, n)

    def le_one(self) -> bool:
        return Fraction(self.num, self.den) >= Fraction(1, 3)


@dataclass(frozen=True)
class WitnessPlan:
    """Where to look first for a y-value at which the sign of phi is forced
    by the family structure.

    lambda-preimage: probe near a y_c >= 2 with lambda(x_n, y_c) = c, c a
    Chebyshev root determined by the family.  alpha-sign-point: probe near
    y = x_n^2 - 1 where the l = 2 closed form evaluates to -1.
    """

    kind: str
    target: CosRatio | None = None
    lam: XYPoly | None = None
    require_c_le_1: bool = False
    description: str = ""


def witness_plan_for(knot) -> WitnessPlan | None:
    if isinstance(knot, DoubleTwistKnot):
        if knot.m >= 3:
            return WitnessPlan("lambda-preimage", CosRatio(knot.m - 2, knot.m - 1),
                               lambda_dt(knot.k),
                               description=f"c = 2cos({knot.m - 2}pi/{knot.m - 1})")
        if knot.m <= -2:
            a = -knot.m
            return WitnessPlan("lambda-preimage", CosRatio(a - 1, a),
                               lambda_dt(knot.k),
                               description=f"c' = 2cos({a - 1}pi/{a})")
        return None  # m = 2: phi(x_n, 2) > 0 for n >= 5, the grid sees it
    if isinstance(knot, KlKnot):
        lam, _, _ = kl_named_polys()
        if knot.l == 2:
            return WitnessPlan("alpha-sign-point", description="y = x_n^2 - 1")
        return WitnessPlan("lambda-preimage", CosRatio(knot.l - 2, knot.l - 1),
                           lam, require_c_le_1=True,
                           description=f"c = 2cos({knot.l - 2}pi/{knot.l - 1})")
    return None


def solve_lambda_witness(lam: XYPoly, x: DyadicInterval, c: CosRatio,
                         precision: int, *, n: int,
                         require_c_le_1: bool = False) -> DyadicInterval:
    """Enclosure of some y_c >= 2 with lambda(x, y_c) = c, x enclosing x_n.

    The bracket exists because lambda(x_n, 2) = x_n^2 - 2 >= c, certified
    exactly through the cosine-angle comparison (grid corners like m=3/n=4
    hit equality, which no interval test could certify), and lambda ->
    -infinity as y grows.
    """
    if not c.le_xn_squared_minus_2(n):
        raise PreconditionUnverifiable(f"c = 2cos({c.num}pi/{c.den}) > x_{n}^2 - 2")
    if require_c_le_1 and not c.le_one():
        raise PreconditionUnverifiable(f"c = 2cos({c.num}pi/{c.den}) > 1")
    c_enc = c.enclosure(precision + 8)

    def g_sign(y_pt: Dyadic):
        return (eval_interval(lam, x, DyadicInterval.point(y_pt)) - c_enc).sign()

    hi = Dyadic(3)
    for _ in range(70):
        if g_sign(hi) == -1:
            break
        hi = (hi - 2) * 2 + 2
    else:
        raise PreconditionUnverifiable("no definitely-negative value of lambda - c found")
    lo = Dyadic(2)  # g(2) >= 0 holds by the certified precondition
    target = Dyadic(1, -precision)
    while (hi - lo) > target:
        mid = (lo + hi).half()
        s = g_sign(mid)
        if s == 1:
            lo = mid
        elif s == -1:
            hi = mid
        else:
            break  # mid is (indistinguishably close to) the preimage itself
    return DyadicInterval(lo, hi)


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
        bracket exponent within _max_endpoint_exponent(precision), so that a
        hostile record cannot make the verifier build huge integers.
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
    """Bound on |exponent| of every bracket endpoint a scan emits whose
    certificate records this precision (which is >= the starting one, P).

    An endpoint is a probe point refined by bisection.  A probe point carries
    at most 2P + 5 fractional bits (the alpha-sign-point midpoint of
    x_n^2 - 1, x_n having P + 2) and a bracket starts narrower than 2**70
    (solve_lambda_witness stops doubling below 2 + 2**70; grid brackets are
    1/8 wide).  Each bisection step adds at most 2 fractional bits and shrinks
    the bracket by 3/4 or more until it is 2**-P wide: fewer than
    2 + 2(P + 70)/log2(4/3) < 4.82P + 340 bits in all, so |exponent| <
    6.82P + 345.  Values stay below 2**70 or y_max_cap, far inside the same
    bound.
    """
    return 7 * precision + 350


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
    """{"mantissa": decimal string, "exponent": JSON integer}, the exponent
    (once normalized) within +-bound."""
    if not (isinstance(value["mantissa"], str) and type(value["exponent"]) is int):
        raise TypeError(f"malformed endpoint {value!r}")
    d = Dyadic.from_json(value)
    if abs(d.e) > bound:
        raise ValueError(f"exponent {d.e} is beyond +-{bound}")
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


DEFAULT_Y_MAX = 64
DEFAULT_PRECISION = 128
DEFAULT_Y_MAX_CAP = 1 << 16
MAX_Y_MAX_CAP = 1 << 20  # the grid walk costs 8 evaluations per unit of y_max_cap
DEFAULT_PRECISION_CAP = 4096
GRID_STEP = Dyadic(1, -3)  # 1/8


class _SignOracle:
    """Signs of phi(x_n, y), raising the x_n precision on demand, with the
    evaluation, escalation and indefinite counts of the scan trace."""

    def __init__(self, poly: XYPoly, n: int, precision: int):
        self.poly, self.n, self.precision = poly, n, precision
        self.xn = xn_enclosure(n, precision)
        self.evaluations = self.escalations = self.indefinite = 0

    def sign(self, y: Dyadic) -> int | None:
        """Definite sign, 0 for an exact zero, None if still indefinite once
        the precision would pass DEFAULT_PRECISION_CAP."""
        while True:
            self.evaluations += 1
            s = eval_interval(self.poly, self.xn, DyadicInterval.point(y)).sign()
            if s is not None:
                return s
            self.indefinite += 1
            if self.precision * 2 > DEFAULT_PRECISION_CAP:
                return None
            self.precision *= 2
            self.xn = xn_enclosure(self.n, self.precision)
            self.escalations += 1


def _witness_point(witness: WitnessPlan | None, oracle: _SignOracle, n: int,
                   precision: int, min_a: Dyadic) -> tuple[Dyadic | None, int]:
    """(y, sign) of the witness probe, evaluated before the grid; sign 0 when
    there is no plan, its precondition fails, or the sign is not definite."""
    if witness is None:
        return None, 0
    if witness.kind == "lambda-preimage":
        try:
            candidate = solve_lambda_witness(
                witness.lam, oracle.xn, witness.target, precision, n=n,
                require_c_le_1=witness.require_c_le_1).midpoint()
        except PreconditionUnverifiable:
            return None, 0
    else:  # alpha-sign-point
        candidate = (oracle.xn * oracle.xn - 1).midpoint()
    y = max(candidate, min_a)
    return y, oracle.sign(y) or 0


def _grid(min_a: Dyadic, y_max_cap: int):
    """min_a, then 2 + k/8 for k = 1, 2, ... up to y_max_cap.  The first
    sample sits at the strictness margin so sign information at y = 2 itself
    (e.g. phi(x_n, 2) > 0 for m = 2, n >= 5) is not lost to the spacing."""
    yield min_a
    y = Dyadic(2) + GRID_STEP
    while y <= y_max_cap:
        yield y
        y = y + GRID_STEP


def _bisect(oracle: _SignOracle, a: Dyadic, sa: int, b: Dyadic, precision: int):
    """Shrink the bracket (a, b), sign sa at a, to width <= 2**-precision,
    cutting at 1/2, else 1/4, else 3/4 of the way; None when all three cut
    points are exact zeros or indefinite at the precision cap."""
    width_target = Dyadic(1, -precision)
    while (b - a) > width_target:
        for num, shift in ((1, 1), (1, 2), (3, 2)):
            mid = a + (b - a) * Dyadic(num, -shift)
            s = oracle.sign(mid)
            if s == sa:
                a = mid
                break
            if s == -sa:
                b = mid
                break
        else:
            return None
    return a, b


def _reported_bound(b: Dyadic, y_max: int, y_max_cap: int) -> int:
    """The first of y_max, 2*y_max, 4*y_max, ... that is >= b, capped at
    y_max_cap: the search window reported for a bracket ending at b."""
    ratio = math.ceil(b.as_fraction() / y_max)
    return min(y_max << (ratio - 1).bit_length(), y_max_cap)


def find_root_gt2(phi: RileyPolynomial, n: int, *, y_max: int = DEFAULT_Y_MAX,
                  precision: int = DEFAULT_PRECISION,
                  witness: WitnessPlan | None = None,
                  y_max_cap: int = DEFAULT_Y_MAX_CAP) -> ScanReport:
    """Search (2, y_max_cap] for a certified bracket of a root of phi(x_n, .).

    The witness point, if the plan gives one, is evaluated first; then the
    1/8 grid walks up to y_max_cap in one pass with the witness point merged
    in, so a bracket is two consecutive-by-y probes of opposite sign.  y_max
    only sets the reported bound: the first of y_max, 2*y_max, ... (capped at
    y_max_cap) that reaches the bracket, or y_max_cap when none is found.
    The x_n precision doubles, up to DEFAULT_PRECISION_CAP, whenever an
    evaluation is sign-indefinite.  The left bracket endpoint keeps the
    strictness margin a >= 2 + 2**-(precision/2): a bracket touching 2 is
    never emitted.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if y_max <= 2:
        raise ValueError("need y_max > 2")
    if not y_max <= y_max_cap <= MAX_Y_MAX_CAP:
        raise ValueError(f"need y_max <= y_max_cap <= {MAX_Y_MAX_CAP}")
    if not 1 <= precision <= DEFAULT_PRECISION_CAP:
        raise ValueError(f"need 1 <= precision <= {DEFAULT_PRECISION_CAP}")
    oracle = _SignOracle(phi.poly, n, precision)
    min_a = Dyadic(2) + Dyadic(1, -(precision // 2))
    wy, ws = _witness_point(witness, oracle, n, precision, min_a)
    trace = {"grid_step": "1/8", "witness": witness.description if witness else None}
    probes = _grid(min_a, y_max_cap)
    if ws:
        probes = heapq.merge(probes, [wy])
    prev = None
    for y in probes:
        s = ws if ws and y == wy else oracle.sign(y)
        if not s:
            continue  # exact zero or indefinite at the cap: no sign to use
        if prev is not None and s == -prev[1]:
            refined = _bisect(oracle, prev[0], prev[1], y, precision)
            if refined is not None:
                bound = _reported_bound(y, y_max, y_max_cap)
                cert = RootCertificate(knot=phi.knot, n=n, a=refined[0],
                                       b=refined[1], sign_a=prev[1], sign_b=s,
                                       precision=oracle.precision, y_max=bound,
                                       poly_hash=phi.content_hash)
                trace.update(y_max_reached=bound,
                             precision_escalations=oracle.escalations,
                             evaluations=oracle.evaluations)
                return ScanReport("certified", cert, trace)
        prev = (y, s)
    trace.update(y_max_reached=y_max_cap, precision_escalations=oracle.escalations,
                 evaluations=oracle.evaluations, indefinite=oracle.indefinite,
                 note="no bracket found; this does not assert absence of a root")
    return ScanReport("inconclusive", None, trace)


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
