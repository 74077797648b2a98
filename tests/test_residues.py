"""phi(x_n, .) evaluated on residues modulo P_n(u), u = x**2: P_n against
mpmath at 300 bits, the evenness of every phi the package builds, the
enclosures of `eval_interval` and `y_coefficient_bounds` with a modulus
against mpmath's values at x_n, and the records at the knot limits through
the verifier and the independent oracle of cert_oracle.py."""

import json
import random
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from rileycert.certify import (RootCertificate, _SignOracle, find_root_gt2,
                               verify_certificate, xn_enclosure, xn_modulus)
from rileycert.cli import parse_knot_spec
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.polyring import XYPoly, eval_interval, y_coefficient_bounds
from rileycert.riley import riley_for_knot

import cert_oracle

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


# polynomials with odd and even x-terms, x-degree up to 13
residue_polys = st.lists(
    st.tuples(st.integers(0, 13), st.integers(0, 5), st.integers(-(1 << 20), 1 << 20)),
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
            point = DyadicInterval.point(y)
            exact = eval_interval(p, xn, point, modulus=modulus)
            assert _encloses(exact, value, size), (modulus, exact, value)
            bounds = y_coefficient_bounds(p, xn, e, modulus)
            for j, (lo, hi) in enumerate(zip(bounds[0], bounds[1])):
                assert _encloses(DyadicInterval(Dyadic(lo, e), Dyadic(hi, e)),
                                 rows.get(j, 0), size), (j, modulus)
            fast = eval_interval(p, xn, point, y_bounds=bounds, modulus=modulus)
            assert _encloses(fast, value, size)
            if fast.sign() is not None:
                assert fast.sign() == exact.sign()


def test_a_residue_of_degree_0_is_exact_at_any_width():
    # P_4 = u - 2: x**4 - 3 x**2 + x**3 y reduces to 4 - 6 + x (2 y) =
    # -2 + 2 x y, so its value at y = 0 and its y**0 bound are points
    # however wide x is; the odd row keeps the width of x
    p = XYPoly.from_terms([(4, 0, 1), (2, 0, -3), (3, 1, 1)])
    xn = xn_enclosure(4, 1)
    assert eval_interval(p, xn, DyadicInterval.point(0), modulus=_modulus(4)) \
        == DyadicInterval.point(-2)
    lo, hi, _ = y_coefficient_bounds(p, xn, -4, _modulus(4))
    assert lo[0] == hi[0] == -2 << 4
    assert (lo[1], hi[1]) == (2 * xn.lo.m << 4 + xn.lo.e, 2 * xn.hi.m << 4 + xn.hi.e)


@pytest.mark.parametrize("spec, n", [("J:4,6", 5), ("J:4,6", 40), ("Kl:6", 7), ("13/5", 4)])
def test_the_oracle_re_encloses_its_rows_as_a_fresh_reduction(spec, n):
    # the sign oracle reduces phi once and re-encloses the kept rows at
    # each precision: the bounds are those y_coefficient_bounds forms from
    # phi itself, with P_n (n = 5, 7, 4) and without (n = 40)
    phi = riley_for_knot(parse_knot_spec(spec))
    oracle = _SignOracle(phi.poly, n)
    assert (oracle.modulus is None) == (n == 40)
    for _ in range(3):
        e = -2 * oracle.precision - 32
        assert oracle.bounds == y_coefficient_bounds(phi.poly, oracle.xn, e, oracle.modulus)
        assert oracle.escalate()


@pytest.mark.parametrize("spec, precision", [("Kl:50", 512), ("499/97", None)])
def test_the_limit_records_verify_and_pass_the_oracle(spec, precision):
    phi = riley_for_knot(parse_knot_spec(spec))
    report = find_root_gt2(phi, 5)
    assert report.certified
    record = report.certificate.to_json_dict()
    if precision is not None:
        assert record["precision"] == precision
    assert verify_certificate(RootCertificate.from_json_dict(record), phi)
    assert cert_oracle.accepts(record, phi.knot, list(phi.poly.terms()))
