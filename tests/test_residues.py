"""phi(x_n, .) evaluated on residues modulo P_n(u), u = x**2: P_n against
mpmath at 300 bits, the evenness of every phi the package builds and the
refusal of an odd x-term, the reduced rows against cert_oracle.py's own
long division, the enclosures of `eval_interval` and `y_row_bounds` on
reduced rows against mpmath's values at x_n, the rows as the one source
of every exact sign, and the records at the knot limits through the
verifier and the independent oracle of cert_oracle.py."""

import json
import random
import time
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from rileycert import certify
from rileycert.certify import (RootCertificate, _SignOracle, find_root_gt2,
                               verify_certificate, xn_enclosure, xn_modulus)
from rileycert.cli import parse_knot_spec
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.polyring import XYPoly, eval_interval, y_row_bounds, y_rows
from rileycert.riley import RileyPolynomial, riley_for_knot

import cert_oracle
from poly_oracle import reference_eval_interval_u

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "riley_reference.json"


def _modulus(n: int) -> tuple[int, ...]:
    """P_n, with a phi long enough that xn_modulus builds it."""
    return xn_modulus(n, 2 * n)


def _sampled_n() -> list[int]:
    rng = random.Random(47)
    return [*range(2, 65), *sorted(rng.sample(range(65, 1024), 12)), 1024]


@pytest.mark.parametrize("n", _sampled_n())
def test_xn_modulus_is_monic_of_its_degree_with_root_xn_squared(n):
    p = _modulus(n)
    assert p[-1] == 1 and len(p) - 1 == max((n - 1) // 2, 1)
    # each term of P_n(u_n) is below 4**n in magnitude, so 2n guard bits
    # above 300 leave a rounding error under 2**-300
    with mpmath.workprec(300 + 2 * n + 16):
        u = (2 * mpmath.cos(mpmath.pi / n)) ** 2
        assert abs(mpmath.polyval(p[::-1], u)) < mpmath.mpf(2) ** -300


def test_xn_modulus_is_built_only_for_a_row_that_reaches_it():
    assert xn_modulus(2, 0) == (0, 1)
    for n in range(2, 40):
        for deg_x in range(0, 40):
            built = xn_modulus(n, deg_x) is not None
            assert built == ((n - 1) // 2 <= deg_x // 2), (n, deg_x)


def _even_specs() -> list[str]:
    family = [f"J:{k},{m}" for k in range(1, 5) for m in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]
    family += [f"Kl:{l}" for l in range(2, 9)]
    fractions = [spec for spec in json.loads(REFERENCE.read_text())
                 if "/" in spec and int(spec.split("/")[0]) <= 51]
    return family + fractions


def test_every_phi_is_even_in_x():
    specs = _even_specs()
    assert len(specs) == 47 + 247
    for spec in specs:
        phi = riley_for_knot(parse_knot_spec(spec))
        assert all(i % 2 == 0 for i, _, _ in phi.poly.terms()), spec


def _mp(d: Dyadic):
    return mpmath.mpf(d.m) * mpmath.mpf(2) ** d.e


def _encloses(iv: DyadicInterval, value, size) -> bool:
    """iv holds value to within mpmath's error at 300 bits in a sum of
    terms whose magnitudes add up to at most size."""
    slack = mpmath.mpf(2) ** -250 * (1 + size)
    return _mp(iv.lo) - slack <= value <= _mp(iv.hi) + slack


# polynomials even in x, as evaluation takes them, x-degree up to 12
residue_polys = st.lists(
    st.tuples(st.integers(0, 6).map(lambda i: 2 * i), st.integers(0, 5),
              st.integers(-(1 << 20), 1 << 20)),
    min_size=1, max_size=16).map(XYPoly.from_terms).filter(bool)
y_points = st.builds(Dyadic, st.integers(-(1 << 20), 1 << 20), st.integers(-16, 0))


@settings(max_examples=300, deadline=None)
@given(residue_polys, st.integers(2, 17), st.sampled_from([2, 16, 128]), y_points,
       st.sampled_from([-8, None]))
def test_residue_evaluation_encloses_mpmath_at_xn(p, n, precision, y, e):
    # the modulus as the scan and the verifier pass it, or always built
    xn = xn_enclosure(n, precision)
    e = -2 * precision - 32 if e is None else e
    with mpmath.workprec(300):
        x = 2 * mpmath.cos(mpmath.pi / n)
        yv = _mp(y)
        rows, size = {}, 0
        for i, j, c in p.terms():
            rows[j] = rows.get(j, 0) + c * x ** i
            size += abs(c * 2 ** i * yv ** j)  # as 0 <= x_n < 2
        value = sum(c * yv ** j for j, c in rows.items())
        for modulus in (_modulus(n), xn_modulus(n, p.deg_x())):
            point, reduced = DyadicInterval.point(y), y_rows(p, modulus)
            exact = eval_interval(p, xn, point, rows=reduced)
            assert _encloses(exact, value, size), (modulus, exact, value)
            bounds = y_row_bounds(reduced, xn, e)
            for j, (lo, hi) in enumerate(zip(bounds[0], bounds[1])):
                assert _encloses(DyadicInterval(Dyadic(lo, e), Dyadic(hi, e)),
                                 rows.get(j, 0), size), (j, modulus)
            fast = eval_interval(p, xn, point, y_bounds=bounds, rows=reduced)
            assert _encloses(fast, value, size)
            if fast.sign() is not None:
                assert fast.sign() == exact.sign()


def test_a_residue_of_degree_0_is_exact_at_any_width():
    # P_4 = u - 2: x**4 - 3 x**2 + x**6 y is u**2 - 3 u + u**3 y, which
    # reduces to 4 - 6 + 8 y = -2 + 8 y, so its values at y = 0 and y = 1
    # and both y-row bounds are points however wide x is
    p = XYPoly.from_terms([(4, 0, 1), (2, 0, -3), (6, 1, 1)])
    xn, rows = xn_enclosure(4, 1), y_rows(p, _modulus(4))
    assert eval_interval(p, xn, DyadicInterval.point(0), rows=rows) \
        == DyadicInterval.point(-2)
    assert eval_interval(p, xn, DyadicInterval.point(1), rows=rows) \
        == DyadicInterval.point(6)
    lo, hi, _ = y_row_bounds(rows, xn, -4)
    assert lo[0] == hi[0] == -2 << 4
    assert lo[1] == hi[1] == 8 << 4


# x**2 + x y - 5: its x-coefficient x y is nonzero at every y but 0
ODD_IN_X = XYPoly.from_terms([(2, 0, 1), (1, 1, 1), (0, 0, -5)])


def test_an_odd_x_term_is_refused():
    # evaluation takes a polynomial in u = x**2 only, with or without P_n;
    # every phi is one, so a hand-made RileyPolynomial that is not fails
    # the scan and the verifier alike
    xn, point = xn_enclosure(5, 64), DyadicInterval.point(Dyadic(3))
    for modulus in (None, _modulus(5)):
        with pytest.raises(ValueError, match="not even in x"):
            y_rows(ODD_IN_X, modulus)
    with pytest.raises(ValueError, match="not even in x"):
        eval_interval(ODD_IN_X, xn, point)
    phi = RileyPolynomial(ODD_IN_X, "test", "hand-made, odd in x")
    for n in (3, 5, 40):
        with pytest.raises(ValueError, match="not even in x"):
            find_root_gt2(phi, n)
        cert = RootCertificate(knot="test", n=n, a=Dyadic(3), b=Dyadic(4), sign_a=1,
                               sign_b=-1, precision=64, y_max=64,
                               poly_hash=phi.content_hash)
        with pytest.raises(ValueError, match="not even in x"):
            verify_certificate(cert, phi)
    # the term is refused, not its value: p = x y is refused at y = 0,
    # where it vanishes
    xy = XYPoly.from_terms([(1, 1, 1)])
    with pytest.raises(ValueError, match="not even in x"):
        eval_interval(xy, xn, DyadicInterval.point(0))


# x of any sign and width, for the reduced path's exact Horner in u
x_intervals = st.tuples(y_points, y_points).map(lambda ds: DyadicInterval(min(ds), max(ds)))


@settings(max_examples=300, deadline=None)
@given(residue_polys, st.integers(2, 40), x_intervals, y_points)
def test_reduced_rows_evaluate_as_the_oracle_reduction(p, n, x, y):
    # rows reduced modulo P_n evaluate as phi reduced by cert_oracle's own
    # long division in x, which shares no code with _residue_rows; the
    # rows undivided evaluate as p itself
    point = DyadicInterval.point(y)
    reduced = XYPoly.from_terms(cert_oracle.reduced_terms(list(p.terms()), n))
    assert eval_interval(p, x, point, rows=y_rows(p, _modulus(n))) \
        == reference_eval_interval_u(reduced, x, point)
    assert eval_interval(p, x, point) == reference_eval_interval_u(p, x, point)


@pytest.mark.parametrize("spec, n", [("J:4,6", 5), ("J:4,6", 40), ("Kl:6", 7), ("13/5", 4)])
def test_the_oracle_re_encloses_its_rows_as_a_fresh_reduction(spec, n):
    # the sign oracle reduces phi once and re-encloses the kept rows at
    # each precision: the bounds are those y_row_bounds forms from a fresh
    # y_rows of phi, with P_n (n = 5, 7, 4) and without (n = 40)
    phi = riley_for_knot(parse_knot_spec(spec))
    oracle = _SignOracle(phi.poly, n)
    assert (oracle.modulus is None) == (n == 40)
    for _ in range(3):
        e = -2 * oracle.precision - 32
        assert oracle.bounds == y_row_bounds(y_rows(phi.poly, oracle.modulus), oracle.xn, e)
        assert oracle.escalate()


@lru_cache(maxsize=None)
def _phi(spec: str) -> RileyPolynomial:
    """phi of a knot spec, built once per session: the limit knots take
    seconds to build."""
    return riley_for_knot(parse_knot_spec(spec))


@pytest.mark.parametrize("spec, n", [("J:4,6", 7), ("17/7", 5), ("J:1,2", 40), ("499/97", 4)])
def test_every_exact_sign_comes_from_rows_reduced_once(monkeypatch, spec, n):
    # y_rows runs once per scan and once per verification, and every
    # eval_interval call gets the rows of its own caller: the scan's sign
    # oracle, or the verifier's reduction modulo the P_n it builds itself
    phi = _phi(spec)
    built, passed = [], []
    real_rows, real_eval = certify.y_rows, certify.eval_interval

    def rows_spy(poly, modulus=None):
        built.append((poly, modulus, real_rows(poly, modulus)))
        return built[-1][2]

    def eval_spy(p, x, y, **kwargs):
        passed.append(kwargs["rows"])
        return real_eval(p, x, y, **kwargs)

    monkeypatch.setattr(certify, "y_rows", rows_spy)
    monkeypatch.setattr(certify, "eval_interval", eval_spy)
    report = find_root_gt2(phi, n)
    assert report.certified and len(built) == 1
    modulus = xn_modulus(n, phi.poly.deg_x())
    assert (modulus is None) == (n == 40)
    assert built[0][:2] == (phi.poly, modulus)
    scan_rows = built[0][2]
    assert len(passed) == report.trace["evaluations"] > 0
    assert all(rows is scan_rows for rows in passed)
    built.clear()
    passed.clear()
    assert verify_certificate(report.certificate, phi)
    assert len(built) == 1 and built[0][:2] == (phi.poly, modulus)
    assert built[0][2] is not scan_rows
    assert len(passed) == 2 and all(rows is built[0][2] for rows in passed)


def test_the_largest_fraction_scans_and_verifies_within_its_bounds():
    # 499/97 at n = 4: a float-guess near miss sends 34 refinement signs to
    # the exact path, on rows reduced modulo P_4 = u - 2.  The build (about
    # 2 s) is timed apart.  Measured on a 2-core x86 host, min of 2: the
    # scan 0.057-0.073 s and the verification 0.013-0.015 s, against 4.3 s
    # and 0.24 s when each exact sign walked phi's terms.  The bounds,
    # 1.0 s and 0.1 s, leave margins of about 14x and 7x for a slower or
    # loaded host, and a walk of phi's terms at each point still fails them.
    phi = _phi("499/97")
    scans, checks = [], []
    for _ in range(2):
        start = time.perf_counter()
        report = find_root_gt2(phi, 4)
        scans.append(time.perf_counter() - start)
        start = time.perf_counter()
        assert verify_certificate(report.certificate, phi)
        checks.append(time.perf_counter() - start)
    assert report.certified and report.certificate.precision == 128
    assert min(scans) < 1.0, scans
    assert min(checks) < 0.1, checks


@pytest.mark.parametrize("spec, precision", [("Kl:50", 512), ("499/97", None)])
def test_the_limit_records_verify_and_pass_the_oracle(spec, precision):
    phi = _phi(spec)
    report = find_root_gt2(phi, 5)
    assert report.certified
    record = report.certificate.to_json_dict()
    if precision is not None:
        assert record["precision"] == precision
    assert verify_certificate(RootCertificate.from_json_dict(record), phi)
    assert cert_oracle.accepts(record, phi.knot, list(phi.poly.terms()))
