"""Rigorous root certificates for phi_K(x_n, y) on (2, y_max].

A certificate is a dyadic bracket (a, b) with 2 < a < b whose endpoint
evaluations are sign-definite intervals of opposite sign; any verifier can
re-check it from the record alone.  An inconclusive scan asserts only that no
bracket was found in the searched window at the working precision -- never
that no root exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from .knots import DoubleTwistKnot, KlKnot
from .polyring import XYPoly, eval_interval
from .riley import RileyPolynomial, kl_named_polys, lambda_dt, riley_for_knot


class PreconditionUnverifiable(ValueError):
    """The witness inequality c <= x_n^2 - 2 (or c <= 1) cannot be certified."""


class HashMismatch(ValueError):
    """Certificate does not belong to the supplied polynomial."""


class MalformedCertificate(ValueError):
    """A certificate record has a missing or malformed field."""


def xn_enclosure(n: int, precision: int) -> DyadicInterval:
    """Enclosure of x_n = 2cos(pi/n) of width <= 2**-precision.

    Exact for n = 2, 3; algebraic bisection against t^2 - 2 / t^2 - 3 for
    n = 4, 6; certified pi enclosure plus Taylor remainder otherwise.
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
                         precision: int, *, n: int | None = None,
                         require_c_le_1: bool = False) -> DyadicInterval:
    """Enclosure of some y_c >= 2 with lambda(x, y_c) = c.

    The bracket exists because lambda(x, 2) = x^2 - 2 >= c (certified exactly
    through the cosine-angle comparison when n is known, by intervals
    otherwise; grid corners like m=3/n=4 hit equality, where only the exact
    route can succeed) and lambda -> -infinity as y grows.
    """
    if n is not None:
        if not c.le_xn_squared_minus_2(n):
            raise PreconditionUnverifiable(
                f"c = 2cos({c.num}pi/{c.den}) > x_{n}^2 - 2")
    else:
        x_sq_minus_2 = x * x - 2
        if not c.enclosure(precision).hi <= x_sq_minus_2.lo:
            raise PreconditionUnverifiable("c <= x^2 - 2 not interval-definite")
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

        Raises MalformedCertificate for a missing or malformed field; signs
        must be exactly "+" or "-".
        """
        sign_a, sign_b = _field(obj, "signs", _parse_signs)
        a, b = _field(obj, "bracket", lambda br: (Dyadic.from_json(br["a"]),
                                                  Dyadic.from_json(br["b"])))
        return cls(knot=_field(obj, "knot", _parse_str), n=_field(obj, "n", int),
                   a=a, b=b, sign_a=sign_a, sign_b=sign_b,
                   precision=_field(obj, "precision", int),
                   y_max=_field(obj, "y_max", int),
                   poly_hash=_field(obj, "poly_hash", _parse_str))


def _field(obj: dict, key: str, parse):
    try:
        return parse(obj[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificate(
            f"certificate field {key!r} is missing or malformed") from exc


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
DEFAULT_PRECISION_CAP = 4096
GRID_STEP = Dyadic(1, -3)  # 1/8


def find_root_gt2(phi: RileyPolynomial, n: int, *, y_max: int = DEFAULT_Y_MAX,
                  precision: int = DEFAULT_PRECISION,
                  witness: WitnessPlan | None = None,
                  y_max_cap: int = DEFAULT_Y_MAX_CAP,
                  precision_cap: int = DEFAULT_PRECISION_CAP) -> ScanReport:
    """Scan (2, y_max] for a certified bracket of a root of phi(x_n, .).

    Witness-derived points are probed first, then the 1/8 grid; y_max doubles
    up to y_max_cap and the x_n precision doubles when an evaluation is
    sign-indefinite.  The left bracket endpoint keeps the strictness margin
    a >= 2 + 2**-(precision/2): a bracket touching 2 is never emitted.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if y_max <= 2:
        raise ValueError("need y_max > 2")
    if precision < 1:
        raise ValueError("need precision >= 1")
    poly = phi.poly
    state = {"prec": precision, "xn": xn_enclosure(n, precision),
             "escalations": 0, "evals": 0, "indefinite": 0}
    min_a = Dyadic(2) + Dyadic(1, -(precision // 2))

    def refine_xn() -> bool:
        if state["prec"] * 2 > precision_cap:
            return False
        state["prec"] *= 2
        state["xn"] = xn_enclosure(n, state["prec"])
        state["escalations"] += 1
        return True

    def sign_at(y_pt: Dyadic):
        """Definite sign of phi(x_n, y_pt), escalating precision as needed;
        0 for an exact zero, None if indefinite at the precision cap."""
        while True:
            state["evals"] += 1
            s = eval_interval(poly, state["xn"], DyadicInterval.point(y_pt)).sign()
            if s is not None:
                return s
            state["indefinite"] += 1
            if not refine_xn():
                return None

    def bisect(a: Dyadic, sa: int, b: Dyadic, sb: int):
        width_target = Dyadic(1, -precision)
        while (b - a) > width_target:
            moved = False
            for num, shift in ((1, 1), (1, 2), (3, 2)):
                mid = a + (b - a) * Dyadic(num, -shift)
                s = sign_at(mid)
                if s == sa:
                    a, moved = mid, True
                    break
                if s == -sa:
                    b, moved = mid, True
                    break
                # exact zero or indefinite at the cap: try the other cut points
            if not moved:
                return None
        return a, sa, b, sb

    def finish(bracket) -> ScanReport | None:
        refined = bisect(*bracket)
        if refined is None:
            return None
        a, sa, b, sb = refined
        cert = RootCertificate(knot=phi.knot, n=n, a=a, b=b, sign_a=sa,
                               sign_b=sb, precision=state["prec"],
                               y_max=cur_max, poly_hash=phi.content_hash)
        return ScanReport("certified", cert, {
            "grid_step": "1/8", "y_max_reached": cur_max,
            "precision_escalations": state["escalations"],
            "evaluations": state["evals"],
            "witness": witness.description if witness else None,
        })

    cur_max = y_max
    # (i) witness-derived probe points, evaluated up front
    witness_signs: list[tuple[Dyadic, int]] = []
    if witness is not None:
        candidate = None
        if witness.kind == "lambda-preimage":
            try:
                y_c = solve_lambda_witness(witness.lam, state["xn"],
                                           witness.target, precision, n=n,
                                           require_c_le_1=witness.require_c_le_1)
                candidate = y_c.midpoint()
            except PreconditionUnverifiable:
                candidate = None
        elif witness.kind == "alpha-sign-point":
            candidate = (state["xn"] * state["xn"] - 1).midpoint()
        if candidate is not None:
            y_pt = max(candidate, min_a)
            s = sign_at(y_pt)
            if s is not None and s != 0:
                witness_signs.append((y_pt, s))
    witness_ys = {y_pt.as_fraction() for y_pt, _ in witness_signs}

    # (ii) uniform grid, doubling y_max up to the cap, merged with the
    # witness points so a bracket means consecutive-by-y opposite signs.
    # The first sample sits at the strictness margin so sign information at
    # y = 2 itself (e.g. phi(x_n, 2) > 0 for m = 2, n >= 5) is not lost to
    # the 1/8 spacing.
    prev: tuple[Dyadic, int] | None = None
    bracket = None

    def push(y_pt: Dyadic, s):
        nonlocal prev, bracket
        if s is None or s == 0:
            return
        if prev is not None and s == -prev[1]:
            bracket = (prev[0], prev[1], y_pt, s)
        prev = (y_pt, s)

    wi = 0
    y = Dyadic(2)
    grid_pt: Dyadic | None = min_a
    while True:
        while wi < len(witness_signs) and (grid_pt is None
                                           or witness_signs[wi][0] < grid_pt):
            push(*witness_signs[wi])
            wi += 1
        if bracket is None and grid_pt is not None \
                and grid_pt.as_fraction() not in witness_ys:
            push(grid_pt, sign_at(grid_pt))
        if bracket is not None:
            report = finish(bracket)
            if report is not None:
                return report
            bracket = None
        if grid_pt is None:
            break
        y = y + GRID_STEP
        if y > cur_max:
            if cur_max >= y_max_cap:
                grid_pt = None  # flush any witness points beyond the cap
                continue
            cur_max = min(cur_max * 2, y_max_cap)
        grid_pt = y
    return ScanReport("inconclusive", None, {
        "grid_step": "1/8", "y_max_reached": cur_max,
        "precision_escalations": state["escalations"],
        "evaluations": state["evals"], "indefinite": state["indefinite"],
        "witness": witness.description if witness else None,
        "note": "no bracket found; this does not assert absence of a root",
    })


def lo_set(knot, n_max: int, *, y_max: int = DEFAULT_Y_MAX,
           precision: int = DEFAULT_PRECISION,
           y_max_cap: int = DEFAULT_Y_MAX_CAP) -> dict[int, ScanReport]:
    """Independent per-n scan reports for n = 2..n_max (the certified subset
    of the left-orderable branched-cover indices)."""
    phi = riley_for_knot(knot)
    witness = witness_plan_for(knot)
    return {n: find_root_gt2(phi, n, y_max=y_max, precision=precision,
                             witness=witness, y_max_cap=y_max_cap)
            for n in range(2, n_max + 1)}


def verify_certificate(cert: RootCertificate, phi: RileyPolynomial) -> bool:
    """Re-check a certificate from its record alone.

    Shares only xn_enclosure and polynomial evaluation with the search; none
    of the scan or bisection logic is involved.
    """
    if cert.poly_hash != phi.content_hash:
        raise HashMismatch("certificate does not match this polynomial")
    if not (Dyadic(2) < cert.a < cert.b):
        return False
    if cert.sign_a != -cert.sign_b or cert.sign_a not in (1, -1):
        return False
    xn = xn_enclosure(cert.n, cert.precision)
    sign_a = eval_interval(phi.poly, xn, DyadicInterval.point(cert.a)).sign()
    sign_b = eval_interval(phi.poly, xn, DyadicInterval.point(cert.b)).sign()
    return sign_a == cert.sign_a and sign_b == cert.sign_b
