"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest -s tests/test_acceptance.py -v` to see the lines as they
complete.  Criterion 9 is a documented expectation, not a theorem: a failure
there prints NEEDS-MANUAL-REVIEW and raises a warning instead of failing the
suite.

The criterion 2 and 3 grids and the below-threshold cases also check two
SHA-256 digests per key of tests/data/acceptance_grid.json: "certificates"
hashes each scan's knot, n, status and certificate record, and "reports"
hashes those with the trace as well.  A change to the search that does less
work re-records only "reports"; every bracket, sign and precision must stay
as it was.  To re-record after an intended change, run

    PYTHONPATH=src python tests/test_acceptance.py > tests/data/acceptance_grid.json

and keep the "certificates" digests unless the certificates are meant to
change.
"""

import hashlib
import json
import math
import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from rileycert.certify import (BRACKET_WIDTH, RootCertificate, find_root_gt2,
                               verify_certificate, xn_enclosure)
from rileycert.chebyshev import cheb_eval, cheb_poly
from rileycert.dyadic import Dyadic, DyadicInterval
from rileycert.knots import (DoubleTwistKnot, KlKnot, SignSequence, TwoBridgeFraction,
                             expand, hm_reduce, kl_fraction, run_length,
                             sign_sequence, sign_sequence_raw,
                             word_double_twist, word_from_signs, word_kl)
from rileycert.polyring import eval_interval
from rileycert.riley import (kl_alpha_derivative_check, kl_named_polys,
                             riley_double_twist, riley_for_knot, riley_generic,
                             riley_kl)

import cert_oracle
from family_sets import J_THRESHOLDS, KL_THRESHOLDS
from matrix_oracle import images, reference_evaluate_word
from poly_oracle import SY, XY, as_fraction, substitute_y, y_slices

X = XY.x()

J_GRID_KM = [(k, m) for k in range(1, 5) for m in (2, 3, 4, -2, -3, -4)]

# every bracket starts at least 2**-64 above 2, the start of the scan's window
WINDOW_START = Dyadic(2) + Dyadic(1, -64)

GRID_DIGESTS = Path(__file__).resolve().parent / "data" / "acceptance_grid.json"


def _grid_cases(knots_with_thresholds):
    return [(knot, n) for knot, n_min in knots_with_thresholds
            for n in range(n_min, 13)]


# (knot, n) of each scan, by its key in GRID_DIGESTS
SCANS = {
    "criterion 2": _grid_cases((DoubleTwistKnot(k, m), J_THRESHOLDS[m])
                               for k in range(1, 5) for m in J_THRESHOLDS),
    "criterion 3": _grid_cases((KlKnot(l), KL_THRESHOLDS[l]) for l in KL_THRESHOLDS),
    # the 64 family cases n = 2 .. threshold - 1, where phi(x_n, .) has no
    # root above 2 (_roots_from_2 counts them exactly)
    "below thresholds": [(DoubleTwistKnot(k, m), n) for k in range(1, 5)
                         for m, t in J_THRESHOLDS.items() for n in range(2, t)]
                        + [(KlKnot(l), n) for l, t in KL_THRESHOLDS.items()
                           for n in range(2, t)],
}


def _scan(key):
    """(phi, n, report) of each scan under key, cap 64, and the SHA-256
    digests of the certificates and of the whole reports."""
    digests, out, phis = {"certificates": hashlib.sha256(),
                          "reports": hashlib.sha256()}, [], {}
    for knot, n in SCANS[key]:
        if knot not in phis:
            phis[knot] = riley_for_knot(knot)
        phi = phis[knot]
        report = find_root_gt2(phi, n, y_max_cap=64)
        cert = report.certificate
        record = {"knot": phi.knot, "n": n, "status": report.status,
                  "certificate": cert.to_json_dict() if cert else None}
        digests["certificates"].update(json.dumps(record, sort_keys=True).encode() + b"\n")
        record["trace"] = report.trace
        digests["reports"].update(json.dumps(record, sort_keys=True).encode() + b"\n")
        out.append((phi, n, report))
    return out, {kind: d.hexdigest() for kind, d in digests.items()}


def _recorded_digests(key):
    return json.loads(GRID_DIGESTS.read_text())[key]


def _report(criterion: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_engine_equivalence():
    ok = True
    for k, m in J_GRID_KM:
        w, _ = word_double_twist(DoubleTwistKnot(k, abs(m)))
        ok = ok and riley_generic(w, m).poly == riley_double_twist(k, m).poly
    for l in range(2, 7):
        ok = ok and riley_generic(word_kl(KlKnot(l))).poly == riley_kl(l).poly
    _report("criterion 1 (engine equivalence, exact)", ok)


def _run_grid(key, label):
    scans, digests = _scan(key)
    ok = True
    for phi, n, report in scans:
        cert = report.certificate
        if not (report.certified and verify_certificate(
                RootCertificate.from_json_dict(cert.to_json_dict()), phi)
                and cert_oracle.accepts(cert.to_json_dict(), phi.knot, list(phi.poly.terms()))
                and cert.a >= WINDOW_START and cert.b - cert.a <= BRACKET_WIDTH):
            ok = False
            print(f"  grid failure: {phi.knot} n={n} -> {report.status}")
    for kind, recorded in _recorded_digests(key).items():
        if digests[kind] != recorded:
            ok = False
            print(f"  grid {kind} changed: {key}")
    _report(label, ok)


def test_criterion_2_certificate_grid_double_twist():
    _run_grid("criterion 2", "criterion 2 (double-twist certificate grid, n <= 12)")


def test_criterion_3_certificate_grid_kl():
    _run_grid("criterion 3", "criterion 3 (K_l certificate grid, n <= 12)")


def _roots_from_2(phi, n):
    """sympy's Sturm count of the real roots >= 2 of phi(x_n, .), for
    n = 2, 3, 4 only: an oracle that shares nothing with the scan.

    x_2 = 0 and x_3 = 1 give phi(x_n, .) in Z[y].  For x_4 = sqrt(2), split
    phi = A(x**2, y) + x B(x**2, y); every root of phi(sqrt(2), .) is one of
    the norm A(2, y)**2 - 2 B(2, y)**2 = phi(sqrt(2), y) phi(-sqrt(2), y),
    so a zero count of the norm rules out a root of phi(sqrt(2), .)."""
    from sympy import Poly, symbols
    y = symbols("y")
    halves = ({}, {})
    for i, j, c in phi.poly.terms():
        if n == 4:
            halves[i % 2][j] = halves[i % 2].get(j, 0) + c * 2 ** (i // 2)
        else:
            halves[0][j] = halves[0].get(j, 0) + c * (n - 2) ** i
    a, b = (Poly.from_dict(h, y) if h else Poly(0, y) for h in halves)
    norm = a ** 2 - 2 * b ** 2
    assert not norm.is_zero, (phi.knot, n)
    return norm.count_roots(2)


def test_no_certificate_below_the_thresholds():
    # phi(x_n, .) has no root above 2 here (an exact Sturm count): a
    # certificate is wrong
    assert len(SCANS["below thresholds"]) == 64
    scans, digests = _scan("below thresholds")
    for phi, n, report in scans:
        assert report.certificate is None, (phi.knot, n)
        assert _roots_from_2(phi, n) == 0, (phi.knot, n)
    assert digests == _recorded_digests("below thresholds")
    # the count is no blind zero: it sees the roots that a threshold-3
    # knot's certificates at n = 3 and 4 bracket
    for knot in (DoubleTwistKnot(1, 4), DoubleTwistKnot(2, -3), KlKnot(4)):
        phi = riley_for_knot(knot)
        assert all(_roots_from_2(phi, n) >= 1 for n in (3, 4)), knot


def test_criterion_4_symbolic_identities():
    ok = True
    # phi_{J(2k+1,4)}(x, 2) = (x^2-2)(1+(4-x^2)k) - 1
    for k in range(1, 9):
        want = (X * X - 2) * (XY.one() + (4 - X * X) * k) - 1
        ok = ok and substitute_y(riley_double_twist(k, 2).poly, 2) == want
    lam, alpha, beta = kl_named_polys()
    x2m1 = X * X - 1
    ok = ok and substitute_y(alpha, x2m1) == -1
    ok = ok and substitute_y(lam, 2) == X * X - 2
    ok = ok and substitute_y(lam, x2m1) == 1
    ok = ok and substitute_y(riley_kl(2).poly, x2m1) == -1
    ok = ok and kl_alpha_derivative_check()
    # R structure for every in-scope word
    g = images()
    y_minus_2 = SY.y() - SY.const(2)

    def r_structure_holds(v_matrix):
        r = (v_matrix @ g.a) - (g.b @ v_matrix)
        return (r.e11 == SY.zero() and r.e22 == SY.zero()
                and r.e21 == y_minus_2 * r.e12 and r.e12.is_symmetric())

    # powers: the structure on the dict oracle's V**m and V**-m
    for k in range(1, 5):
        w, _ = word_double_twist(DoubleTwistKnot(k, 2))
        w_mat = reference_evaluate_word(w)
        ok = ok and r_structure_holds(w_mat)
        for plain in (w_mat, w_mat.adjugate()):
            power = plain
            for m in (2, 3, 4):
                power = power @ plain
                ok = ok and r_structure_holds(power)
    for l in range(2, 7):
        ok = ok and r_structure_holds(reference_evaluate_word(word_kl(KlKnot(l))))
    for p, q in ((5, 3), (7, 3), (17, 7)):
        v = word_from_signs(sign_sequence(TwoBridgeFraction(p, q)))
        ok = ok and r_structure_holds(reference_evaluate_word(v))
    _report("criterion 4 (symbolic identities, exact)", ok)


def test_criterion_5_leading_sign_law():
    ok = True
    for k, m in J_GRID_KM:
        phi = riley_double_twist(k, m).poly
        lead = y_slices(phi)[phi.deg_y()]
        coeffs = [c for _, _, c in lead.terms()]
        expect_positive = (m > 0 and m % 2 == 1) or (m < 0 and m % 2 == 0)
        ok = ok and len(coeffs) == 1 and (coeffs[0] > 0) == expect_positive
    _report("criterion 5 (leading-sign parity law)", ok)


def test_criterion_6_chebyshev_suite():
    ok = all(cheb_eval(n, 2) == n + 1 and cheb_eval(n, -2) == (-1) ** n * (n + 1)
             for n in range(201))
    # S_n(2z) = U_n(z) against an independently built U recurrence
    u_prev, u_cur = (1,), (0, 2)
    for n in range(21):
        u_n = u_prev if n == 0 else u_cur
        s_at_2z = tuple(c * (1 << i) for i, c in enumerate(cheb_poly(n)))
        ok = ok and s_at_2z == u_n
        if n >= 1:
            nxt = [0] + [2 * c for c in u_cur]
            for i, c in enumerate(u_prev):
                nxt[i] -= c
            u_prev, u_cur = u_cur, tuple(nxt)
    rng = random.Random(71)
    samples = [Fraction(2), Fraction(8)] + \
        [2 + Fraction(rng.randrange(0, 385), 64) for _ in range(10)]
    for t in samples:
        for n in range(65):
            ok = ok and cheb_eval(n, t) > 0 and cheb_eval(n + 1, t) > cheb_eval(n, t)
    # between the two smallest roots, 2cos(n pi/(n+1)) < 2cos((n-1) pi/(n+1))
    # 2cos(n pi/(n+1)) = -x_(n+1) and 2cos((n-1) pi/(n+1)) = 2 - x_(n+1)^2
    for n in range(2, 33):
        x = xn_enclosure(n + 1, 32)
        t = (2 - as_fraction(x.hi) ** 2 - as_fraction(x.lo)) / 2
        ok = ok and (-1) ** n * cheb_eval(n, t) < 0
    _report("criterion 6 (Chebyshev suite)", ok)


def test_criterion_7_sign_sequence_suite():
    # p runs past knots.P_MAX, which bounds the cost of phi, not of the
    # signs: those are built from (p, q) directly
    def signs(p, q):
        return SignSequence(sign_sequence_raw(p, q), p, q)

    ok = True
    for s in range(1, 51):
        ok = ok and run_length(signs(10 * s + 7, 4 * s + 3)).runs == \
            (2, -2) + (3, -2) * (2 * s) + (2,)
    rng = random.Random(73)
    count = 0
    while count < 200:
        p = rng.randrange(3, 1000, 2)
        q = rng.randrange(1, p, 2)
        if math.gcd(p, q) != 1 or p // q < 2:
            continue
        count += 1
        rs = run_length(signs(p, q))
        ok = ok and expand(hm_reduce(rs)).signs == sign_sequence_raw(p - 2 * q, q)
        mags = [abs(r) for r in rs.runs]
        ok = ok and sum(mags) == p - 1
        if q > 1:
            m = p // q
            ok = ok and all(c in (m, m + 1) for c in mags)
            ok = ok and mags[0] == m and mags[-1] == m
    for l in range(2, 9):
        ok = ok and word_kl(KlKnot(l)) == \
            word_from_signs(sign_sequence(kl_fraction(KlKnot(l))))
    _report("criterion 7 (sign-sequence suite)", ok)


def test_criterion_8_numeric_spot_value():
    # phi_{J(3,4)}(x_5, 2) encloses 2*sqrt(5) - 4 (the (8 sqrt 5 - 12)/4 * k - 1
    # value at k = 1), positive-definite, width <= 2^-64
    phi = riley_for_knot(DoubleTwistKnot(1, 2))
    iv = eval_interval(phi.poly, xn_enclosure(5, 128), DyadicInterval.point(2))
    lo, hi = as_fraction(iv.lo), as_fraction(iv.hi)
    # lo < 2 sqrt 5 - 4 < hi, decided exactly by squaring (both sides > 0)
    ok = lo > 0
    ok = ok and ((lo + 4) / 2) ** 2 < 5 < ((hi + 4) / 2) ** 2
    ok = ok and iv.width() <= Dyadic(1, -64)
    ok = ok and abs(float((lo + hi) / 2) - 0.4721359549995794) < 1e-12
    _report("criterion 8 (numeric spot value, width <= 2^-64)", ok)


def test_criterion_9_soft_expectations_n2():
    """Expected inconclusive at n = 2 (lens-space double covers).

    Non-gating: a failure here needs manual review, not an automatic block;
    the scan makes no claim of root absence either way.
    """
    ok = True
    for knot in (DoubleTwistKnot(1, 2), DoubleTwistKnot(1, 4), KlKnot(2)):
        phi = riley_for_knot(knot)
        report = find_root_gt2(phi, 2, y_max_cap=64)
        if report.certified:
            ok = False
            print(f"  unexpected certificate at n=2 for {knot}")
    print(f"ACCEPTANCE criterion 9 (n=2 scans inconclusive up to y_max=64): "
          f"{'PASS' if ok else 'NEEDS-MANUAL-REVIEW'}")
    if not ok:
        warnings.warn("criterion 9 expectation violated; manual review required")


if __name__ == "__main__":
    digests = {key: _scan(key)[1] for key in SCANS}
    sys.stdout.write(json.dumps(digests, indent=1) + "\n")
