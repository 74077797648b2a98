"""The independent certificate oracle of cert_oracle.py against the
package: its x_n brackets lie in `xn_enclosure`, and it agrees with
`verify_certificate` on certificates and on tampered copies of them.  The
criterion 2/3 grids and the golden outputs run every certificate they
make through it as well, and so does a sample of the family records up to
n = 1024."""

import copy
import math
import random
from fractions import Fraction

import pytest

from rileycert.certify import (HashMismatch, RootCertificate, find_root_gt2,
                               verify_certificate, xn_enclosure)
from rileycert.cli import parse_knot_spec
from rileycert.knots import DoubleTwistKnot, KlKnot
from rileycert.polyring import XYPoly
from rileycert.riley import riley_for_knot

import cert_oracle
from family_sets import FAMILY, N_MAX
from poly_oracle import as_fraction


@pytest.mark.parametrize("n", [*range(2, 41), 97])
@pytest.mark.parametrize("precision", [128, 512])
def test_xn_enclosure_contains_the_oracle_bracket(n, precision):
    # the package's endpoints lie on multiples of 2**-(precision + 2) (of
    # 2**-(precision + 1) for the square roots at n = 4, 6), so an
    # enclosure holds x_n exactly when it holds the oracle's bracket on
    # that grid
    q = precision + 2
    lo, hi = cert_oracle.xn_bracket(n, q)
    enclosure = xn_enclosure(n, precision)
    assert as_fraction(enclosure.lo) <= lo <= hi <= as_fraction(enclosure.hi)
    assert hi - lo == (0 if n in (2, 3) else Fraction(1, 1 << q))


def test_sign_changes_count_the_roots_above():
    # against the roots 2cos(k pi/n) in floating point, at points at least
    # 2**-10 from every root
    for n in range(2, 30):
        roots = [2 * math.cos(k * math.pi / n) for k in range(1, n)]
        for m in range(-2 ** 12, 2 ** 12 + 1, 37):
            x = m / 2 ** 11
            if min(abs(x - r) for r in roots) > 2 ** -10:
                assert cert_oracle.sign_changes(n, m, 11)[0] == sum(r > x for r in roots)


def test_a_bad_guess_is_widened_and_bisected(monkeypatch):
    # the guess only says where to start: a far one costs steps, not the
    # bracket
    want = {n: cert_oracle.xn_bracket(n, 40) for n in (2, 3, 5, 12)}
    cert_oracle.xn_bracket.cache_clear()
    monkeypatch.setattr(cert_oracle.mpmath, "cos", lambda t: -1)
    try:
        assert {n: cert_oracle.xn_bracket(n, 40) for n in want} == want
    finally:
        cert_oracle.xn_bracket.cache_clear()


def test_interval_value_encloses_every_value():
    # random phi, y = m / 2**e and x in [0, 2]: the bounds hold phi(u, y)
    # at both ends of x and inside it, and are exact at a point x
    rng = random.Random(61)
    for _ in range(300):
        terms = [(rng.randrange(8), rng.randrange(5), rng.randint(-9, 9)) for _ in range(12)]
        y = Fraction(rng.randint(-2 ** 12, 2 ** 12), 2 ** rng.randrange(8))
        x = sorted(Fraction(rng.randrange(2 ** 10 + 1), 2 ** 9) for _ in range(2))
        lo, hi = cert_oracle.interval_value(terms, tuple(x), y)
        for u in (x[0], (x[0] + x[1]) / 2, x[1]):
            value = sum(c * u ** i * y ** j for i, j, c in terms)
            assert lo <= value <= hi
            assert cert_oracle.interval_value(terms, (u, u), y) == (value, value)


# n = 5 and 6, where u_n = x_n**2 is irrational: at n = 2, 3 and 4 the
# residues modulo P_n are free of x, so a one-bit enclosure of x_n signs
# exactly and that copy is not a tampered record
# (test_a_one_bit_record_at_n_4_holds_by_its_exact_signs)
_CASES = [(DoubleTwistKnot(1, 2), 5), (DoubleTwistKnot(2, -3), 5), (KlKnot(3), 6)]


def _tampered(record: dict) -> dict[str, dict]:
    a, b = record["bracket"]["a"], record["bracket"]["b"]
    beyond = 2 * cert_oracle.endpoint(b) - cert_oracle.endpoint(a)   # a dyadic
    past_b = {"mantissa": str(beyond.numerator),
              "exponent": 1 - beyond.denominator.bit_length()}
    edits = {
        "signs flipped": lambda r: r.update(signs=r["signs"][::-1]),
        "signs equal": lambda r: r.update(signs=[r["signs"][0]] * 2),
        "endpoints swapped": lambda r: r.update(bracket={"a": b, "b": a}),
        "a at 2": lambda r: r["bracket"].update(a={"mantissa": "2", "exponent": 0}),
        "bracket moved past b": lambda r: r.update(bracket={"a": b, "b": past_b}),
        "next n": lambda r: r.update(n=r["n"] + 1),
        "one bit of x_n": lambda r: r.update(precision=1),
        "other knot": lambda r: r.update(knot="J:9,9"),
        "other hash": lambda r: r.update(poly_hash="0" * 64),
    }
    out = {}
    for name, edit in edits.items():
        bad = copy.deepcopy(record)
        edit(bad)
        out[name] = bad
    return out


def _package_accepts(record: dict, phi) -> bool:
    try:
        return verify_certificate(RootCertificate.from_json_dict(record), phi)
    except HashMismatch:
        return False


@pytest.mark.parametrize("knot, n", _CASES, ids=str)
def test_the_oracle_and_the_verifier_agree_on_tampered_records(knot, n):
    phi = riley_for_knot(knot)
    report = find_root_gt2(phi, n, y_max_cap=64)
    record = report.certificate.to_json_dict()
    terms = list(phi.poly.terms())
    assert cert_oracle.accepts(record, phi.knot, terms) and _package_accepts(record, phi)
    for name, bad in _tampered(record).items():
        assert not cert_oracle.accepts(bad, phi.knot, terms), name
        assert not _package_accepts(bad, phi), name


def test_a_one_bit_record_at_n_4_holds_by_its_exact_signs():
    # P_4 = u - 2, so each residue of phi is a constant: the package signs
    # phi(sqrt 2, .) exactly from a one-bit enclosure of x_4, and those are
    # sympy's signs of phi at the bracket ends
    import sympy
    phi = riley_for_knot(DoubleTwistKnot(2, -3))
    record = find_root_gt2(phi, 4, y_max_cap=64).certificate.to_json_dict()
    record["precision"] = 1
    cert = RootCertificate.from_json_dict(record)
    assert verify_certificate(cert, phi)
    assert cert_oracle.accepts(record, phi.knot, list(phi.poly.terms()))
    x, y = sympy.symbols("x y")
    expr = sum(c * x ** i * y ** j for i, j, c in phi.poly.terms())
    for end, sign in ((cert.a, cert.sign_a), (cert.b, cert.sign_b)):
        value = sympy.expand(expr.subs({x: sympy.sqrt(2), y: sympy.Rational(*as_fraction(
            end).as_integer_ratio())}))
        assert value.is_rational and sympy.sign(value) == sign


def _primes_and_powers_of_two(n_max: int) -> list[int]:
    sieve = [True] * (n_max + 1)
    for d in range(2, math.isqrt(n_max) + 1):
        sieve[d * d::d] = [False] * len(sieve[d * d::d])
    return sorted({n for n in range(2, n_max + 1) if sieve[n]}
                  | {1 << k for k in range(1, n_max.bit_length())})


def test_the_oracle_accepts_family_records_up_to_n_1024():
    # the family net's records, re-checked at the primes and powers of two
    # up to 1024 (181 n, 536 records).  A Sturm bracket at 130 bits costs
    # about 1e-7 n**2 s (0.11 s at n = 1021), so J:1,2 pays the brackets
    # (5.6 s on a 2-core x86 host) and the other two knots find them cached
    # (0.9 s and 0.14 s)
    thresholds = dict(FAMILY)
    ns = _primes_and_powers_of_two(N_MAX)
    checked = 0
    for knot in ("J:1,2", "J:4,6", "Kl:2"):
        phi = riley_for_knot(parse_knot_spec(knot))
        terms = list(phi.poly.terms())
        for n in ns:
            if n < thresholds[knot]:
                continue
            record = find_root_gt2(phi, n).certificate.to_json_dict()
            assert record["precision"] == 128, (knot, n)
            assert cert_oracle.accepts(record, phi.knot, terms), (knot, n)
            checked += 1
    assert len(ns) == 181 and checked == 536


def test_the_oracle_hash_is_the_package_hash():
    for knot in (DoubleTwistKnot(3, -4), KlKnot(2)):
        phi = riley_for_knot(knot)
        assert cert_oracle.content_hash(list(phi.poly.terms())) == phi.content_hash
    assert cert_oracle.content_hash([]) == XYPoly({}).content_hash()
