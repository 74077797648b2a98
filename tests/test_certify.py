import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from rileycert import certify
from rileycert.certify import (MAX_Y_MAX_CAP, HashMismatch,
                               MalformedCertificate, RootCertificate, ScanReport,
                               _halve, _isolating_bracket, _refine, _root_guess,
                               _root_node, _scale, _SignOracle, _split_guess,
                               _taylor_shift, _variations, find_root_gt2,
                               verify_certificate, xn_enclosure)
from rileycert.dyadic import Dyadic, DyadicInterval, two_cos_pi_ratio
from rileycert.knots import DoubleTwistKnot, KlKnot, TwoBridgeFraction
from rileycert.polyring import XYPoly, eval_interval
from rileycert.riley import RileyPolynomial, kl_named_polys, lambda_dt, riley_for_knot

from poly_oracle import XY, as_fraction, reference_eval_interval, y_slices


# The witness lemmas of the double-twist and K_l families: at a y_c >= 2
# with lambda(x_n, y_c) = c, a Chebyshev root fixed by the family, the sign
# of phi (of alpha, for K_l) is forced.  The root scan does not rest on
# them; this test-local solver keeps the lemmas checked.

class PreconditionUnverifiable(ValueError):
    """The witness inequality c <= x_n^2 - 2 (or c <= 1) cannot be certified."""


@dataclass(frozen=True)
class CosRatio:
    """The target 2cos(num*pi/den), 0 <= num <= den.  cos decreases on
    [0, pi], so 2cos(a*pi) <= 2cos(b*pi) iff a >= b, decided exactly."""

    num: int
    den: int

    def __post_init__(self):
        if not (self.den >= 1 and 0 <= self.num <= self.den):
            raise ValueError(f"need 0 <= num <= den, got {self.num}/{self.den}")

    def enclosure(self, precision: int) -> DyadicInterval:
        """For the ratios the lemmas take: 2cos(pi/den), and its negation
        2cos((den - 1)pi/den)."""
        iv = two_cos_pi_ratio(self.den, precision)
        if self.num == 1:
            return iv
        if self.num == self.den - 1:
            return DyadicInterval(-iv.hi, -iv.lo)
        raise ValueError(f"no enclosure of 2cos({self.num}pi/{self.den})")

    def le_xn_squared_minus_2(self, n: int) -> bool:
        return Fraction(self.num, self.den) >= Fraction(2, n)

    def le_one(self) -> bool:
        return Fraction(self.num, self.den) >= Fraction(1, 3)


def solve_lambda_witness(lam: XYPoly, x: DyadicInterval, c: CosRatio,
                         precision: int, *, n: int,
                         require_c_le_1: bool = False) -> DyadicInterval:
    """Enclosure of some y_c >= 2 with lambda(x, y_c) = c, x enclosing x_n:
    lambda(x_n, 2) = x_n^2 - 2 >= c, certified by the angle comparison, and
    lambda -> -infinity as y grows, so bisection on lambda - c finds it."""
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
        mid = (lo + hi) * Dyadic(1, -1)
        s = g_sign(mid)
        if s == 1:
            lo = mid
        elif s == -1:
            hi = mid
        else:
            break  # mid is (indistinguishably close to) the preimage itself
    return DyadicInterval(lo, hi)


def _midpoint(iv: DyadicInterval) -> Fraction:
    return (as_fraction(iv.lo) + as_fraction(iv.hi)) / 2


def test_xn_exact_cases():
    assert xn_enclosure(2, 128) == DyadicInterval.point(0)
    assert xn_enclosure(3, 128) == DyadicInterval.point(1)


def test_xn_algebraic_cases():
    for n, square in ((4, 2), (6, 3)):
        iv = xn_enclosure(n, 128)
        assert iv.width() <= Dyadic(1, -128)
        assert as_fraction(iv.lo) ** 2 < square < as_fraction(iv.hi) ** 2


def test_xn_series_cases():
    for n in (5, 7, 9, 12, 50):
        iv = xn_enclosure(n, 128)
        assert iv.width() <= Dyadic(1, -128)
        assert abs(float(_midpoint(iv)) - 2 * math.cos(math.pi / n)) < 1e-12
    iv = xn_enclosure(7, 4096)
    assert iv.width() <= Dyadic(1, -4096)
    assert abs(float(_midpoint(iv)) - 2 * math.cos(math.pi / 7)) < 1e-12
    with pytest.raises(ValueError):
        xn_enclosure(1, 64)


def test_xn_definite_signs_survive_refinement():
    # a definite evaluation sign never flips as precision increases
    phi = riley_for_knot(DoubleTwistKnot(1, 2))
    point = DyadicInterval.point(Dyadic(5, -1))
    signs = [eval_interval(phi.poly, xn_enclosure(5, prec), point).sign()
             for prec in (64, 128, 256, 512)]
    assert signs[0] in (1, -1)
    assert all(s == signs[0] for s in signs)


def test_cos_ratio_comparisons_exact():
    # m = 3 against n = 4 is the boundary case c = x_n^2 - 2 exactly
    assert CosRatio(1, 2).le_xn_squared_minus_2(4)
    assert not CosRatio(1, 2).le_xn_squared_minus_2(3)
    # m = 4 against n = 3: c = -1 = x_3^2 - 2, again equality
    assert CosRatio(2, 3).le_xn_squared_minus_2(3)
    assert CosRatio(3, 4).le_xn_squared_minus_2(3)
    assert CosRatio(1, 3).le_one()
    assert not CosRatio(1, 4).le_one()
    with pytest.raises(ValueError):
        CosRatio(3, 2)


def _check_witness_enclosure(lam, n, ratio, require_c_le_1=False):
    xn = xn_enclosure(n, 128)
    y_c = solve_lambda_witness(lam, xn, ratio, 128, n=n,
                               require_c_le_1=require_c_le_1)
    assert y_c.lo >= 2
    # lambda over the enclosure must straddle c
    lam_iv = reference_eval_interval(lam, xn, y_c)
    c_iv = ratio.enclosure(160)
    assert as_fraction(lam_iv.lo) <= as_fraction(c_iv.hi)
    assert as_fraction(c_iv.lo) <= as_fraction(lam_iv.hi)
    return y_c


def test_solve_lambda_witness_boundary_m3_n4():
    # c = 0 = x_4^2 - 2: y_c = 2 exactly, enclosure hugs it
    y_c = _check_witness_enclosure(lambda_dt(1), 4, CosRatio(1, 2))
    assert y_c.hi - y_c.lo <= Dyadic(1, -100)
    assert y_c.lo == 2


def test_solve_lambda_witness_boundary_m4_n3():
    y_c = _check_witness_enclosure(lambda_dt(2), 3, CosRatio(2, 3))
    assert y_c.lo == 2  # lambda(x_3, 2) = -1 = c already


def test_solve_lambda_witness_interior():
    y_c = _check_witness_enclosure(lambda_dt(1), 5, CosRatio(2, 3))
    assert y_c.lo > 2


def test_solve_lambda_witness_kl():
    lam, _, _ = kl_named_polys()
    _check_witness_enclosure(lam, 4, CosRatio(1, 2), require_c_le_1=True)


def test_solve_lambda_witness_precondition_failures():
    with pytest.raises(PreconditionUnverifiable):
        solve_lambda_witness(lambda_dt(1), xn_enclosure(3, 128),
                             CosRatio(1, 2), 128, n=3)  # m=3 needs n>=4
    lam, _, _ = kl_named_polys()
    with pytest.raises(PreconditionUnverifiable):
        solve_lambda_witness(lam, xn_enclosure(8, 128), CosRatio(1, 4), 128,
                             n=8, require_c_le_1=True)  # c > 1


def test_find_root_examples_m2():
    knot = DoubleTwistKnot(1, 2)
    phi = riley_for_knot(knot)
    for n in (5, 6):
        report = find_root_gt2(phi, n)
        assert report.certified, n
        cert = report.certificate
        assert cert.a > 2
        assert cert.a >= Dyadic(2) + Dyadic(1, -64)  # strictness margin
        assert cert.b - cert.a <= Dyadic(1, -32)
        assert cert.sign_a == -cert.sign_b
        assert verify_certificate(cert, phi)


def _root_factor(p: int, q: int) -> XYPoly:
    """q y - (p - 1) - x**2, even in x as every phi is; at n = 5,
    x_5**2 = x_5 + 1, so its root in y is (p + x_5) / q."""
    return XY.from_terms([(0, 1, q), (0, 0, 1 - p), (2, 0, -1)])


@pytest.mark.parametrize("factors, cap, expect", [
    # a pair about 2.6e-6 apart, just above 2
    ([(2001, 1000), (1999, 999), (9, 2)], 64, (2001, 1000)),
    # a root below the margin 2**-64 is outside the window
    ([(2**71 + 1, 2**70), (9, 2)], 64, (9, 2)),
    # a double root has no sign change: the simple root above it is taken
    ([(5, 2), (5, 2), (11, 3)], 64, (11, 3)),
    # the only root lies above the cap
    ([(40, 1)], 16, None),
])
def test_isolation_brackets_the_smallest_simple_root(factors, cap, expect):
    poly = XY.one()
    for p, q in factors:
        poly = poly * _root_factor(p, q)
    phi = RileyPolynomial(poly, "test", "product of linear factors")
    report = find_root_gt2(phi, 5, y_max_cap=cap)
    if expect is None:
        assert report.status == "inconclusive"
        return
    cert = report.certificate
    assert verify_certificate(cert, phi)
    # (p + x_5) / q lies in (a, b) iff q a - p < x_5 < q b - p, decided exactly
    p, q = expect
    xn = xn_enclosure(5, 256)
    assert q * cert.a - p < xn.lo and xn.hi < q * cert.b - p


# Random products of linear factors for the isolation and the refinement.
# A root spec (i, f) is the factor 2**48 y - (2**49 + i 2**16 + f - 1) - x**2
# (`_root_factor`), whose root (at x_5, the golden ratio, x_5**2 = x_5 + 1)
# is 2 + i 2**-32 + (f + x_5) 2**-48: within (|f| + 2) 2**-48 of the lattice
# point 2 + i 2**-32 of every node's BRACKET_WIDTH cells (2**-64 off), and
# within one cell of it for |f| < 2**16.

def _spec_factor(i: int, f: int) -> XYPoly:
    return _root_factor(2**49 + (i << 16) + f, 1 << 48)


def _spec_poly(specs) -> XYPoly:
    poly = XY.one()
    for i, f in specs:
        poly = poly * _spec_factor(i, f)
    return poly


root_specs = st.tuples(
    st.one_of(st.integers(0, 40),                                # near 2
              st.integers(1, 61).map(lambda y: y << 32),         # at 2 + y
              st.integers(0, 62 << 32)),                         # anywhere
    st.integers(-(1 << 16), 1 << 16))
# a pair within 2**-30 of each other, the second 2**-48 d above the first
clusters = st.tuples(root_specs, st.integers(1, 1 << 18)).map(
    lambda c: [c[0], (c[0][0], c[0][1] + c[1])])
spec_lists = st.tuples(st.lists(root_specs, min_size=1, max_size=3),
                       st.lists(clusters, max_size=1)).map(
    lambda t: t[0] + [spec for pair in t[1] for spec in pair])


def _bisect(oracle, a, b):
    """The refinement's reference: the isolating interval (a, b) on the
    window unit cut at midpoints to width BRACKET_WIDTH, (a', b', sign at
    a'), None at a sign that is not +-(sign at a)."""
    sa, sb = oracle.value(a).sign(), oracle.value(b).sign()
    if not sa or sb != -sa:
        return None
    while b - a > 1 << 32:
        mid = (a + b) >> 1
        s = oracle.value(mid).sign()
        if s == sa:
            a = mid
        elif s == -sa:
            b = mid
        else:
            return None
    return a, b, sa


@settings(max_examples=150, deadline=None)
@given(spec_lists)
@example([(5 << 20, 1)])                        # a root just above a lattice point
@example([(5 << 20, -3)])                       # and just below one
@example([(3 << 30, 0), (3 << 30, 1 << 18)])    # two roots 2**-30 apart
@example([(0, 1), (9 << 32, 0)])                # at the node's left end, 2 + 2**-64
@example([(1 << 32, -8), (1 << 32, 8)])         # at its right end, 3 + 2**-64
def test_refinement_returns_the_bisection_bracket(specs):
    # the isolating node changes sign exactly once, so the aligned cell with
    # ends of opposite sign is unique: refinement and bisection agree on it;
    # the node carries the bounds that sign its ends and guess the cell
    poly = _spec_poly(specs)
    node = _isolating_bracket(_SignOracle(poly, 5), 64)
    if node is None:
        return
    refined = _refine(_SignOracle(poly, 5), *node)
    assert refined == _bisect(_SignOracle(poly, 5), *node[:2])
    if refined is not None:
        a, b, _ = refined
        assert b - a == 1 << 32 and (a - node[0]) % (1 << 32) == 0


@settings(max_examples=100, deadline=None)
@given(spec_lists, st.one_of(st.sampled_from([0.0, 1.0]), st.integers(-8, 8)))
@example([(5 << 20, 1)], 0)                     # the guess on the root's cell
@example([(5 << 20, -3)], 1)                    # half a cell right of it
@example([(0, 1), (9 << 32, 0)], 1.0)           # a root at the left end, the right end guessed
@example([(1 << 32, -8), (1 << 32, 8)], 0.0)    # and the other way round
@example([(1 << 32, -8), (1 << 32, 8)], 8)      # 4 cells out, past a second root
def test_a_guess_moves_no_bracket(specs, guess):
    # the guess only picks the first probe point: the node ends, or the
    # root's cell's left end give or take `guess` half cells (outside the
    # node too), each refine to the bisection bracket, in at most the two
    # guessed points and bisection's log2(cells) midpoints, each retried
    # once per escalation
    poly = _spec_poly(specs)
    node = _isolating_bracket(_SignOracle(poly, 5), 64)
    if node is None:
        return
    expected = _bisect(_SignOracle(poly, 5), *node[:2])
    cells = (node[1] - node[0]) >> 32
    if isinstance(guess, int):
        root_cell = (expected[0] - node[0]) >> 32 if expected else 0
        guess = (root_cell + guess / 2) / cells
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_root_guess", lambda lo, hi, n: guess)
        oracle = _SignOracle(poly, 5)
        assert _refine(oracle, *node) == expected
    assert oracle.evaluations <= 2 + cells.bit_length() + oracle.escalations


@pytest.mark.parametrize("knot", [DoubleTwistKnot(6, 6), DoubleTwistKnot(7, -5),
                                  DoubleTwistKnot(7, 6), DoubleTwistKnot(8, -5),
                                  DoubleTwistKnot(8, 5), DoubleTwistKnot(8, 6)])
def test_a_guess_on_a_tiny_constant_coefficient_finds_the_cell(knot):
    # at n = 3 and the default cap these root nodes' c_0 is over 2**1000
    # times smaller than their largest |c_j| (290 against 1,805 bits for
    # J:8,6): scaled so that the largest is near 2**64, c_0 underflowed to
    # 0.0, the guess was t = 0 and refinement made 15-22 evaluations
    report = find_root_gt2(riley_for_knot(knot), 3)
    assert report.certified and report.trace["evaluations"] == 2


# the float.hex() of the guess at recorded root nodes: every float in
# _root_guess is correctly rounded, so the guess is the same on every
# Python version and platform
@pytest.mark.parametrize("knot, n, cap, guess", [
    (DoubleTwistKnot(4, 6), 12, 64, "0x1.f7c8dca5da4e1p-1"),
    (DoubleTwistKnot(8, 6), 3, 1 << 16, "0x1.98d93af21abe3p-24"),
    (TwoBridgeFraction(51, 11), 9, 1 << 16, "0x1.c6351953eabd2p-1"),
])
def test_the_root_guess_is_pinned(knot, n, cap, guess):
    a, b, lo, hi = _isolating_bracket(_SignOracle(riley_for_knot(knot).poly, n), cap)
    assert _root_guess(lo, hi, (b - a) >> 32).hex() == guess


@pytest.mark.parametrize("specs, end", [([(0, 1), (9 << 32, 0)], 0),
                                        ([(1 << 32, -8), (1 << 32, 8)], 1)])
def test_refinement_of_a_root_at_a_node_end(specs, end):
    # the root lies within 2**-45 of the isolating node's left (0) or right
    # (1) end, so the bracket is that end's cell
    poly = _spec_poly(specs)
    node = _isolating_bracket(_SignOracle(poly, 5), 64)
    a, b, _ = _refine(_SignOracle(poly, 5), *node)
    assert node[1] - node[0] >= 1 << 40
    assert (a, b) == ((node[0], node[0] + (1 << 32)) if end == 0
                      else (node[1] - (1 << 32), node[1]))


def _no_gallop(oracle, lo, hi, v, m_max, counts, m):
    return 0


@settings(max_examples=100, deadline=None)
@given(spec_lists)
@example([(0, 1), (0, 5), (0, 9), (2, 0)])    # three nested roots above 2
def test_galloping_and_plain_halving_find_the_same_node(specs):
    poly = _spec_poly(specs)
    galloped = _isolating_bracket(_SignOracle(poly, 5), 64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_gallop", _no_gallop)
        plain = _isolating_bracket(_SignOracle(poly, 5), 64)
    assert galloped == plain


@pytest.mark.parametrize("knot, n", [(DoubleTwistKnot(12, 12), 7),
                                     (DoubleTwistKnot(4, 6), 30), (KlKnot(15), 9)])
def test_galloping_keeps_the_certificate_and_counts_fewer_nodes(monkeypatch, knot, n):
    phi = riley_for_knot(knot)
    galloped = find_root_gt2(phi, n)
    monkeypatch.setattr(certify, "_gallop", _no_gallop)
    plain = find_root_gt2(phi, n)
    assert galloped.status == plain.status
    assert galloped.certificate == plain.certificate
    assert galloped.trace["nodes"] < plain.trace["nodes"]


def test_a_failed_trials_count_is_not_made_again(monkeypatch):
    # a gallop that keeps the part 2**-m has counted the parts 2**-(m + 1),
    # 2**-(m + 2), ... in its failed trials: the left child and that child's
    # own parts; those counts are passed on, so no box is counted twice at
    # one precision
    boxes, children, scan_boxes = [], [], []
    variations, gallop = certify._variations, certify._gallop
    set_precision = _SignOracle._set_precision
    precision = [None]

    def setting(oracle, p):
        precision[0] = p
        set_precision(oracle, p)

    def counting(lo, hi):
        boxes.append((tuple(lo), tuple(hi)))
        scan_boxes.append((precision[0], *boxes[-1]))
        return variations(lo, hi)

    def galloping(oracle, lo, hi, v, m_max, counts, start):
        m = gallop(oracle, lo, hi, v, m_max, counts, start)
        if m + 1 in counts:
            children.append((tuple(map(tuple, _halve(lo, hi, m + 1))), len(boxes)))
        return m

    monkeypatch.setattr(_SignOracle, "_set_precision", setting)
    monkeypatch.setattr(certify, "_variations", counting)
    monkeypatch.setattr(certify, "_gallop", galloping)
    for knot, n in ((DoubleTwistKnot(4, 6), 30), (KlKnot(3), 7), (DoubleTwistKnot(2, 3), 7),
                    (KlKnot(4), 9), (DoubleTwistKnot(12, 12), 7)):
        boxes.clear()
        children.clear()
        scan_boxes.clear()
        report = find_root_gt2(riley_for_knot(knot), n)
        assert report.certified and len(boxes) == report.trace["nodes"]
        assert children and all(box in boxes[:i] and box not in boxes[i:]
                                for box, i in children)
        assert len(set(scan_boxes)) == len(scan_boxes)
    # J:1,2 at n = 5: the root node, past the cap, counts 1 and is halved;
    # its left half is the isolating node, counted once
    report = find_root_gt2(riley_for_knot(DoubleTwistKnot(1, 2)), 5)
    assert report.certified
    assert report.trace["nodes"] == 2


@pytest.mark.parametrize("knot, n, cap", [(DoubleTwistKnot(4, 6), 30, 1 << 16),
                                          (KlKnot(3), 7, 64)])
def test_the_root_node_gallops(monkeypatch, knot, n, cap):
    # every node counting 2 or more gallops, the root node too: the first
    # gallop is the root's, over every part down to BRACKET_WIDTH
    calls = []
    original = certify._gallop

    def spy(oracle, lo, hi, v, m_max, counts, m):
        calls.append((lo, hi, v, m_max))
        return original(oracle, lo, hi, v, m_max, counts, m)

    monkeypatch.setattr(certify, "_gallop", spy)
    oracle = _SignOracle(riley_for_knot(knot).poly, n)
    assert _isolating_bracket(oracle, cap) is not None
    k_root = (cap - 3).bit_length()
    root = _root_node(oracle.bounds, k_root)
    assert oracle.escalations == 0 and _variations(*root) >= 2
    assert calls[0] == (*root, _variations(*root), k_root + 32)


def _doubling_gallop(lo, hi, v, m_max):
    """The root gallop's reference, the search that started at m = 1: m
    doubled while the part 2**-m keeps the count v, then bisection between
    the last m that kept v and the first that did not; (m, count of part
    m + 1 or None, number of counts made)."""
    good, bad, left, m, made = 0, m_max + 1, None, 1, 0
    while good + 1 < bad:
        made += 1
        count = _variations(*_halve(lo, hi, m))
        if count == v:
            good = m
        else:
            bad, left = m, count
        m = min(2 * m, m_max) if bad > m_max else (good + bad) >> 1
    return good, left, made


def _root_gallops(poly, n, cap):
    """(guided, reference) root gallops of phi(x_n, .) under the cap: the
    scan's, from _split_guess, as (m, count of part m + 1, counts made),
    and _doubling_gallop's; None when the root node counts less than 2."""
    oracle = _SignOracle(poly, n)
    k_root = (cap - 3).bit_length()
    root = _root_node(oracle.bounds, k_root)
    v = _variations(*root)
    if v is None or v < 2:
        return None
    counts = {}
    m = certify._gallop(oracle, *root, v, k_root + 32, counts, _split_guess(*root, v))
    return (m, counts.get(m + 1), oracle.nodes), _doubling_gallop(*root, v, k_root + 32)


@settings(max_examples=150, deadline=None)
@given(spec_lists, st.sampled_from([16, 64, 1 << 16]))
@example([(0, 1), (0, 5), (0, 9), (2, 0)], 64)    # three nested roots above 2
def test_the_guided_root_gallop_splits_where_doubling_does(specs, cap):
    # decided counts of the leftmost parts fall as m grows, so a search from
    # any start ends at the same largest m that keeps v, and the same first
    # part that does not
    gallops = _root_gallops(_spec_poly(specs), 5, cap)
    if gallops is not None:
        (m, left, _), (ref_m, ref_left, _) = gallops
        assert (m, left) == (ref_m, ref_left)


def test_the_family_root_gallops_split_where_doubling_does():
    # every criterion 2/3 knot at n = 3 .. 12, under the acceptance cap and
    # the default one; the guess costs a few counts on a few nodes whose
    # roots spread, and saves far more than it costs
    knots = [DoubleTwistKnot(k, s * m) for k in range(1, 5) for m in range(2, 7)
             for s in (1, -1)]
    knots += [KlKnot(l) for l in range(2, 7)]
    galloped, made, ref_made = 0, 0, 0
    for knot in knots:
        poly = riley_for_knot(knot).poly
        for n in range(3, 13):
            for cap in (64, 1 << 16):
                gallops = _root_gallops(poly, n, cap)
                if gallops is not None:
                    guided, reference = gallops
                    assert guided[:2] == reference[:2], (knot, n, cap)
                    galloped += 1
                    made += guided[2]
                    ref_made += reference[2]
    assert galloped >= 400 and 2 * made <= ref_made


def test_the_root_gallop_starts_at_the_cluster(monkeypatch):
    # J:4,6 at n = 12: a cluster just above 2 splits at m = 8, which the
    # doubling search reached in 8 counts; the scan's root gallop makes few
    made = []
    original = certify._gallop

    def spy(oracle, lo, hi, v, m_max, counts, m):
        before = oracle.nodes
        split = original(oracle, lo, hi, v, m_max, counts, m)
        made.append((split, counts.get(split + 1), oracle.nodes - before))
        return split

    monkeypatch.setattr(certify, "_gallop", spy)
    oracle = _SignOracle(riley_for_knot(DoubleTwistKnot(4, 6)).poly, 12)
    assert _isolating_bracket(oracle, 64) is not None and oracle.escalations == 0
    root = _root_node(oracle.bounds, 6)
    reference = _doubling_gallop(*root, _variations(*root), 6 + 32)
    assert reference == (8, 2, 8)
    assert made[0][:2] == reference[:2] and made[0][2] <= 3


# The isolation kernels against expansions written out here: q(t + 1) by
# the binomial theorem, and (1 + t)**d q(1/(1 + t)) = sum_j c_j (1 + t)**(d - j).

def _shifted(c, by=1):
    return [sum(cj * math.comb(j, i) * by ** (j - i) for j, cj in enumerate(c))
            for i in range(len(c))]


def _descartes_image(c):
    d = len(c) - 1
    return [sum(cj * math.comb(d - j, i) for j, cj in enumerate(c))
            for i in range(d + 1)]


def _sign_changes(c):
    signs = [1 if v > 0 else -1 for v in c if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _from_roots(lead, roots):
    """Integer coefficients, constant first, of lead * prod (den t - num)."""
    c = [lead]
    for r in roots:
        num, den = r.numerator, r.denominator
        c = [den * a - num * b for a, b in zip([0] + c, c + [0])]
    return c


def _scale_down(c, k):
    """Coefficients of q(2**-k t) times 2**(k d), k >= 0: at k = 1 the exact
    halving that the fixed-point halving (_halve) is checked against."""
    d = len(c) - 1
    return [cj << k * (d - j) for j, cj in enumerate(c)]


coefficient_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(coefficient_lists, st.integers(-6, 6))
def test_taylor_shift_and_scale_match_their_expansions(c, k):
    assert _taylor_shift(c, c[::-1]) == (_shifted(c), _shifted(c[::-1]))
    # the root node's exact shift by 2: q(2t) shifted by 1, halved
    assert _halve(*_taylor_shift(_scale(c, 1), _scale(c, 1))) == (_shifted(c, 2),) * 2
    d = len(c) - 1
    t = Fraction(2) ** k
    want = [cj * t ** j * (t ** -d if k < 0 else 1) for j, cj in enumerate(c)]
    assert (_scale(c, k) if k >= 0 else _scale_down(c, -k)) == want
    assert _variations(c, c) == _sign_changes(_descartes_image(c))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, -3]),
       st.lists(st.fractions(-2, 3, max_denominator=9), max_size=5))
def test_variations_bound_the_roots_in_the_unit_interval(lead, roots):
    # Descartes: the count is at least the roots in (0, 1), with their parity
    v = _variations(*[_from_roots(lead, roots)] * 2)
    inside = sum(0 < r < 1 for r in roots)
    assert v >= inside and (v - inside) % 2 == 0


def test_variations_examples():
    assert _variations([1, 1], [1, 1]) == 0                  # t + 1
    assert _variations([-2, -1, 1], [-2, -1, 1]) == 0        # root 2 only
    assert _variations([-1, 2], [-1, 2]) == 1                # root 1/2
    node = _from_roots(1, [Fraction(1, 3), Fraction(5, 2)])  # one simple root
    assert _variations(node, node) == 1
    # bounds that fix every sign count as the polynomials between them
    assert _variations([-3, 5], [-1, 7]) == 1
    # a transformed coefficient whose sign the bounds leave open
    assert _variations([-1, 2], [1, 2]) is None


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(0, 5),
                          st.fractions(0, 1)), min_size=1, max_size=8))
def test_variations_of_bounds_hold_for_every_polynomial_between(rows):
    lo = [l for l, _, _ in rows]
    hi = [l + w for l, w, _ in rows]
    v = _variations(lo, hi)
    if v is not None:
        inner = [math.floor(l + t * w) for l, w, t in rows]
        assert _variations(inner, inner) == v


def _exact_root_node(bounds, k_root):
    """The root node as exact integers: phi(x_n, 2 + 2**-64 (1 + 2**(k_root + 64) t))
    on the bounds, times 2**(64 d), in the bounds' unit."""
    lo, hi, _ = bounds
    lo, hi = _taylor_shift(*_taylor_shift(lo, hi))
    lo, hi = _taylor_shift(_scale_down(lo, 64), _scale_down(hi, 64))
    return _scale(lo, k_root + 64), _scale(hi, k_root + 64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-(1 << 600), 1 << 600), st.integers(0, 1 << 40)),
                min_size=1, max_size=10),
       st.integers(1, 20))
def test_fixed_point_root_node_encloses_the_exact_one(rows, k_root):
    # bounds on the oracle's unit 2**-(2P + 32), some 600 bits at P = 300:
    # the exact root node is F_j / 2**(64 d) in that unit, the fixed-point
    # one holds it, and each floor or ceiling widens coefficient j by less
    # than 2 (d + 1) units before the scale by 2**(k_root j)
    bounds = ([l for l, _ in rows], [l + w for l, w in rows], -2 * 300 - 32)
    d = len(rows) - 1
    lo, hi = _root_node(bounds, k_root)
    exact_lo, exact_hi = _exact_root_node(bounds, k_root)
    for j in range(d + 1):
        slack = 2 * (d + 1) << (k_root * j + 64 * d)
        assert lo[j] << 64 * d <= exact_lo[j] < (lo[j] << 64 * d) + slack
        assert hi[j] << 64 * d >= exact_hi[j] > (hi[j] << 64 * d) - slack


@pytest.mark.parametrize("cap", [64, 1 << 16])
def test_root_node_coefficients_carry_no_margin_tail(cap):
    # the exact shift by 2**-64 puts 64 bits per y-degree into the root
    # node; in fixed point the largest coefficient is the 2P + 32 bits of
    # the units, plus the scale by 2**(k_root deg_y), plus a few
    phi = riley_for_knot(DoubleTwistKnot(4, 6))
    oracle = _SignOracle(phi.poly, 12)
    k_root = (cap - 3).bit_length()
    deg_y = phi.poly.deg_y()
    budget = 2 * oracle.precision + 32 + k_root * deg_y
    bits = max(abs(c).bit_length() for c in sum(_root_node(oracle.bounds, k_root), []))
    assert bits <= budget + 8
    exact = max(abs(c).bit_length() for c in sum(_exact_root_node(oracle.bounds, k_root), []))
    assert exact > budget + 32 * deg_y


box_rows = st.lists(st.tuples(st.integers(-(1 << 200), 1 << 200),
                             st.one_of(st.integers(0, 3), st.integers(0, 1 << 200))),
                   min_size=2, max_size=13)


@settings(max_examples=300, deadline=None)
@given(box_rows)
def test_fixed_point_halving_counts_as_the_exact_halves(rows):
    # a node box lo <= c <= hi halves to floor(lo_j 2**-j), ceil(hi_j 2**-j)
    # on the same unit; the exact left child 2**d q(t/2), divided by 2**d,
    # lies inside that box, and the shift by 1 and the reversal of
    # _variations have nonnegative weights, so they keep the containment:
    # a count the fixed-point box decides is the exact child's count
    lo = [l for l, _ in rows]
    hi = [l + w for l, w in rows]
    half_lo, half_hi = _halve(lo, hi)
    for j in range(len(rows)):
        assert half_lo[j] << j <= lo[j] and half_hi[j] << j >= hi[j]
    exact_lo, exact_hi = _scale_down(lo, 1), _scale_down(hi, 1)
    children = [((half_lo, half_hi), (exact_lo, exact_hi)),
                (_taylor_shift(half_lo, half_hi), _taylor_shift(exact_lo, exact_hi))]
    for fixed, exact in children:
        v = _variations(*fixed)
        if v is not None:
            assert _variations(*exact) == v


@settings(max_examples=300, deadline=None)
@given(box_rows, st.integers(1, 12))
def test_one_step_part_encloses_m_halvings(rows, m):
    # the leftmost 2**-m part in one step, c_j 2**-mj floored and ceiled, is
    # the box of m plain halvings and holds the exact part 2**(md) q(t/2**m)
    # / 2**(md); a count it decides is the exact part's count
    lo = [l for l, _ in rows]
    hi = [l + w for l, w in rows]
    part = _halve(lo, hi, m)
    halved = (lo, hi)
    for _ in range(m):
        halved = _halve(*halved)
    assert part == halved
    for j in range(len(rows)):
        assert part[0][j] << m * j <= lo[j] and part[1][j] << m * j >= hi[j]
    v = _variations(*part)
    if v is not None:
        assert _variations(_scale_down(lo, m), _scale_down(hi, m)) == v


def test_node_coefficients_do_not_grow_with_depth(monkeypatch):
    # exact halving multiplies coefficient j by 2**(d - j), up to deg_y bits
    # a level: J:12,12's isolating node at n = 7 then holds 8,239-bit
    # integers; on the sign oracle's unit they stay near the root node's size
    sizes = []
    original = certify._variations

    def recording(lo, hi):
        sizes.append(max(abs(c).bit_length() for c in lo + hi))
        return original(lo, hi)

    monkeypatch.setattr(certify, "_variations", recording)
    report = find_root_gt2(riley_for_knot(DoubleTwistKnot(12, 12)), 7)
    assert report.certified
    assert len(sizes) == report.trace["nodes"]
    assert sizes[-1] < 2000  # the isolating node, the last one counted


def test_find_root_inconclusive_n2():
    knot = DoubleTwistKnot(1, 2)
    phi = riley_for_knot(knot)
    report = find_root_gt2(phi, 2, y_max_cap=64)
    assert report.status == "inconclusive"
    assert report.certificate is None
    assert report.trace["y_max_reached"] == 64
    assert "absence" in report.trace["note"]


def test_find_root_thresholds_sample():
    cases = [(DoubleTwistKnot(1, 4), 3, True),
             (DoubleTwistKnot(1, 3), 3, False),
             (DoubleTwistKnot(1, 3), 4, True),
             (DoubleTwistKnot(1, -2), 3, False),
             (DoubleTwistKnot(1, -2), 4, True),
             (KlKnot(2), 4, False),
             (KlKnot(2), 5, True),
             (KlKnot(3), 4, True),
             (KlKnot(4), 3, True)]
    for knot, n, expect in cases:
        phi = riley_for_knot(knot)
        report = find_root_gt2(phi, n, y_max_cap=64)
        assert report.certified == expect, (knot, n, report.status)
        if expect:
            assert verify_certificate(report.certificate, phi)


def test_find_root_generic_fraction():
    # figure-eight: double branched cover is a lens space, higher ones are
    # known not left-orderable; the scan must come back empty-handed
    phi = riley_for_knot(TwoBridgeFraction(5, 3))
    report = find_root_gt2(phi, 3, y_max_cap=16)
    assert report.status == "inconclusive"


def test_scan_signs_use_the_bounds_and_the_verifier_does_not(monkeypatch):
    # every scan sign is one eval_interval call given the cached bounds (the
    # trace counts them); the verifier shares only exact evaluation with
    # the search, so it never passes y_bounds
    calls = []
    original = certify.eval_interval

    def recording(p, x, y, **kwargs):
        calls.append("y_bounds" in kwargs)
        return original(p, x, y, **kwargs)

    monkeypatch.setattr(certify, "eval_interval", recording)
    phi = riley_for_knot(DoubleTwistKnot(2, -3))
    report = find_root_gt2(phi, 7, y_max_cap=64)
    assert report.certified
    assert calls == [True] * report.trace["evaluations"]
    calls.clear()
    assert verify_certificate(report.certificate, phi)
    assert calls == [False, False]


def test_an_undecided_count_at_the_precision_cap_ends_the_scan(monkeypatch):
    # J:8,8 at n = 7 needs 256 bits (a golden record); with the cap at the
    # starting precision its first variation count stays undecided, and the
    # isolation gives up there instead of splitting nodes it cannot count
    monkeypatch.setattr(certify, "DEFAULT_PRECISION_CAP", certify.DEFAULT_PRECISION)
    report = find_root_gt2(riley_for_knot(DoubleTwistKnot(8, 8)), 7, y_max_cap=64)
    assert report.status == "inconclusive" and report.certificate is None
    assert report.trace["nodes"] <= 2
    assert report.trace["indefinite"] >= 1
    assert report.trace["precision_escalations"] == 0


# the isolating node's bounds sign its ends, so the first evaluation is the
# guessed point: an indefinite one is retried at 256, ..., 4096 bits
# (6 evaluations), an exact zero is not
@pytest.mark.parametrize("value, evaluations, indefinite",
                         [((-1, 1), 6, 6), ((0, 0), 1, 0)])
def test_an_undecided_midpoint_sign_ends_the_scan(monkeypatch, value, evaluations,
                                                  indefinite):
    # every evaluation answers the interval `value`: indefinite at every
    # precision, or an exact zero.  Refinement gives up on the first such
    # sign, at the point the guess picked; no other point or later interval
    # is tried.
    points = []

    def undecided(p, x, y, **kwargs):
        points.append(y.lo)
        return DyadicInterval(Dyadic(value[0]), Dyadic(value[1]))

    monkeypatch.setattr(certify, "eval_interval", undecided)
    report = find_root_gt2(riley_for_knot(DoubleTwistKnot(2, -3)), 7, y_max_cap=64)
    assert report.status == "inconclusive" and report.certificate is None
    assert report.trace["evaluations"] == evaluations == len(points)
    assert report.trace["indefinite"] == indefinite
    assert all(p == points[0] for p in points) and Dyadic(2) < points[0] < Dyadic(64)


def test_refinement_signs_about_two_points_per_certificate():
    # the 431 criterion 2/3 scans at the acceptance cap: the Newton guess
    # puts the first pair on the root's cell (862 evaluations in all), where
    # quadratic interval refinement from the node's secant made 5,561; a
    # guess that misses the cell costs a bisection of some 30 midpoints,
    # so a few misses fail here
    from test_acceptance import SCANS
    cases = SCANS["criterion 2"] + SCANS["criterion 3"]
    phis = {knot: riley_for_knot(knot) for knot, _ in cases}
    reports = [find_root_gt2(phis[knot], n, y_max_cap=64) for knot, n in cases]
    assert len(reports) == 431 and all(r.certified for r in reports)
    assert sum(r.trace["evaluations"] for r in reports) <= 1000


def test_every_phi_has_a_unit_leading_y_coefficient():
    # the premise that no scan sign is an exact zero: phi(x_n, .) is monic
    # up to sign over the algebraic integers, so its roots are algebraic
    # integers, while every point the scan evaluates, 2 + 2**-64 + i * 2**-32,
    # has 64 fractional bits and so is not one
    knots = [DoubleTwistKnot(k, m) for k in range(1, 7)
             for m in range(-6, 7) if abs(m) >= 2]
    knots += [KlKnot(l) for l in range(2, 9)]
    knots += [TwoBridgeFraction(p, q) for p in range(3, 52, 2)
              for q in range(1, p, 2) if math.gcd(p, q) == 1]
    for knot in knots:
        phi = riley_for_knot(knot).poly
        lead = y_slices(phi)[phi.deg_y()]
        assert [(i, abs(c)) for i, _, c in lead.terms()] == [(0, 1)], knot


def test_certificate_tampering_detected():
    knot = DoubleTwistKnot(1, 4)
    phi = riley_for_knot(knot)
    cert = find_root_gt2(phi, 3).certificate
    assert verify_certificate(cert, phi)
    assert not verify_certificate(cert._replace(a=cert.b, b=cert.a), phi)
    assert not verify_certificate(cert._replace(a=Dyadic(1), b=cert.b), phi)
    assert not verify_certificate(
        cert._replace(sign_a=cert.sign_b, sign_b=cert.sign_a), phi)
    # a <= 2 is rejected outright
    assert not verify_certificate(cert._replace(a=Dyadic(2)), phi)
    # a record relabelled as another knot does not verify
    assert not verify_certificate(cert._replace(knot="Kl:6"), phi)
    with pytest.raises(HashMismatch):
        verify_certificate(cert._replace(poly_hash="0" * 64), phi)
    other = riley_for_knot(DoubleTwistKnot(1, 3))
    with pytest.raises(HashMismatch):
        verify_certificate(cert, other)


def test_certificate_serialization_round_trip():
    knot = KlKnot(3)
    phi = riley_for_knot(knot)
    cert = find_root_gt2(phi, 4).certificate
    blob = json.dumps(cert.to_json_dict(), sort_keys=True)
    restored = RootCertificate.from_json_dict(json.loads(blob))
    assert restored == cert
    assert json.dumps(restored.to_json_dict(), sort_keys=True) == blob
    assert verify_certificate(restored, phi)
    signs = cert.to_json_dict()["signs"]
    assert set(signs) == {"+", "-"}


def test_certificate_parsing_is_strict():
    knot = DoubleTwistKnot(2, 3)
    phi = riley_for_knot(knot)
    record = find_root_gt2(phi, 5, y_max_cap=64).certificate.to_json_dict()
    assert verify_certificate(RootCertificate.from_json_dict(record), phi)
    for signs in (["?", "+"], ["-", "plus"], ["-"], ["-", "+", "+"], "-+", None):
        with pytest.raises(MalformedCertificate, match="signs"):
            RootCertificate.from_json_dict({**record, "signs": signs})
    for key in record:
        if key == "tool_version":
            continue
        with pytest.raises(MalformedCertificate, match=key):
            RootCertificate.from_json_dict({k: v for k, v in record.items() if k != key})
    bad_fields = {"n": "five", "precision": None, "knot": 7, "poly_hash": [],
                  "bracket": {"a": record["bracket"]["a"]}}
    for key, value in bad_fields.items():
        with pytest.raises(MalformedCertificate, match=key):
            RootCertificate.from_json_dict({**record, key: value})
    for not_an_object in ([], 5, None, "record"):
        with pytest.raises(MalformedCertificate):
            RootCertificate.from_json_dict(not_an_object)
    # the key set is exact: a key to_json_dict does not write is refused
    for key, value in (("kind", "per-n"), ("extra", None), ("", 1), ("N", 5)):
        with pytest.raises(MalformedCertificate, match="unknown"):
            RootCertificate.from_json_dict({**record, key: value})
    # and so is that of the bracket and of each endpoint: J:4,6 at n = 7
    # with an extra key in either parsed and verified before
    j46_phi, j46 = j46_record()
    assert verify_certificate(RootCertificate.from_json_dict(j46), j46_phi)
    bracket = j46["bracket"]
    for nested in ({**bracket, "zzz": 0}, {**bracket, "a": {**bracket["a"], "junk": 1}},
                   {**bracket, "b": {**bracket["b"], "": None}}, {"a": bracket["a"]},
                   {"a": bracket["a"], "b": {"mantissa": bracket["b"]["mantissa"]}},
                   [bracket["a"], bracket["b"]], {**bracket, "a": list(bracket["a"].items())}):
        with pytest.raises(MalformedCertificate, match="bracket"):
            RootCertificate.from_json_dict({**j46, "bracket": nested})
    # tool_version may be absent or any string, but nothing else
    for version in (["0.1.0"], None, True, 1, float("nan"), {}):
        with pytest.raises(MalformedCertificate, match="tool_version"):
            RootCertificate.from_json_dict({**record, "tool_version": version})
    for ok in ({k: v for k, v in record.items() if k != "tool_version"},
               {**record, "tool_version": "9.9"}, {**record, "tool_version": ""}):
        assert verify_certificate(RootCertificate.from_json_dict(ok), phi)


RECORD_KEYS = ("knot", "n", "bracket", "signs", "precision", "y_max", "poly_hash",
               "tool_version")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=6)
# a key added, tool_version replaced by a value that is no string, a field
# replaced by any JSON value, or a field dropped
record_mutations = st.one_of(
    st.tuples(st.just("add"), st.text(max_size=8).filter(lambda k: k not in RECORD_KEYS),
              json_values),
    st.tuples(st.just("set"), st.just("tool_version"),
              json_values.filter(lambda v: not isinstance(v, str))),
    st.tuples(st.just("set"), st.sampled_from(RECORD_KEYS), json_values),
    st.tuples(st.just("drop"), st.sampled_from(RECORD_KEYS), st.none()))


@lru_cache(maxsize=1)
def j46_record():
    phi = riley_for_knot(DoubleTwistKnot(4, 6))
    return phi, find_root_gt2(phi, 7).certificate.to_json_dict()


def _parse_and_verify(record, phi):
    # "malformed", "hash mismatch" or the verdict of verify_certificate
    try:
        cert = RootCertificate.from_json_dict(record)
    except MalformedCertificate:
        return "malformed"
    try:
        return verify_certificate(cert, phi)
    except HashMismatch:
        return "hash mismatch"


@settings(max_examples=300, deadline=None)
@given(mutation=record_mutations)
@example(mutation=("add", "kind", "per-n"))
@example(mutation=("set", "tool_version", ["0.1.0"]))
@example(mutation=("set", "tool_version", float("nan")))
@example(mutation=("set", "tool_version", True))
@example(mutation=("set", "y_max", 3))
@example(mutation=("set", "precision", 4096))
@example(mutation=("set", "n", 10 ** 4999))
def test_mutated_records_are_refused_or_still_sound(mutation):
    # every mutated record parses or raises MalformedCertificate, and one
    # that parses verifies, fails or raises HashMismatch, within 2 s for
    # the parse and the verify together, the largest precision and an n of
    # 5,000 digits included; an added key or a tool_version that is no
    # string never parses, and a record that still verifies differs from
    # the original only where the claim does not rest
    phi, record = j46_record()
    kind, key, value = mutation
    mutated = {k: v for k, v in record.items() if k != key}
    if kind != "drop":
        mutated[key] = value
    start = time.perf_counter()
    verdict = _parse_and_verify(mutated, phi)
    assert time.perf_counter() - start < 2.0, mutation
    if verdict == "malformed":
        return
    assert kind != "add"
    assert kind == "drop" or key != "tool_version" or isinstance(value, str)
    if verdict == "hash mismatch":
        assert key == "poly_hash"
        return
    assert verdict in (True, False)
    if verdict:
        assert (key in ("precision", "y_max", "tool_version")
                or mutated[key] == record[key]), mutation


def test_certificate_fields_are_bounded():
    # hostile records are rejected by the parser alone, never verified: a
    # 2**40 exponent would make a 2**40-bit shift, a 10**7 precision a
    # 10**7-bit pi
    knot = DoubleTwistKnot(2, 3)
    record = find_root_gt2(riley_for_knot(knot), 5, y_max_cap=64).certificate.to_json_dict()
    bad_values = {"precision": (10**7, 4097, 0, -128, float("inf"), 128.5, True, "128"),
                  "n": (1, 0, -5, 5.5, "5"), "y_max": (2, -3, 64.0, "64")}
    for key, values in bad_values.items():
        for value in values:
            with pytest.raises(MalformedCertificate, match=f"'{key}'"):
                RootCertificate.from_json_dict({**record, key: value})
    endpoints = [{"mantissa": "1", "exponent": e} for e in (-2**40, 2**40, -10**4)]
    endpoints += [{"mantissa": "5", "exponent": -1.5}, {"mantissa": 5, "exponent": -1},
                  {"mantissa": "5", "exponent": True}]
    # int() alone also reads Arabic-Indic digits, '_' and surrounding whitespace
    endpoints += [{"mantissa": m, "exponent": -1}
                  for m in ("\u0665", "5_1", " 5", "5\n", "+5", "")]
    for end in ("a", "b"):
        for endpoint in endpoints:
            bracket = {**record["bracket"], end: endpoint}
            with pytest.raises(MalformedCertificate, match="bracket"):
                RootCertificate.from_json_dict({**record, "bracket": bracket})


def test_endpoint_values_are_bounded():
    # every scan writes endpoints in (2, MAX_Y_MAX_CAP]; a 13000-bit mantissa
    # at exponent 0 would make the verifier evaluate phi on 13000-bit y
    knot = DoubleTwistKnot(2, 3)
    record = find_root_gt2(riley_for_knot(knot), 5, y_max_cap=64).certificate.to_json_dict()
    for mantissa, ok in ((MAX_Y_MAX_CAP, True), (-MAX_Y_MAX_CAP, True),
                         (MAX_Y_MAX_CAP + 1, False), (-MAX_Y_MAX_CAP - 1, False),
                         (2**13000 + 1, False)):
        bracket = {**record["bracket"], "b": {"mantissa": str(mantissa), "exponent": 0}}
        hostile = {**record, "bracket": bracket}
        if ok:
            assert RootCertificate.from_json_dict(hostile).b == Dyadic(mantissa)
        else:
            with pytest.raises(MalformedCertificate, match="bracket"):
                RootCertificate.from_json_dict(hostile)


def test_endpoint_exponents_sit_on_the_scan_lattice():
    # every scan writes odd integers on the window unit 2**-64, so a record's
    # endpoints have |exponent| <= 64 whatever its precision.  One past that
    # is refused before any arithmetic, so a record cannot carry thousands of
    # fractional bits; an exponent of +64 passes that bound and is refused
    # only because 3 * 2**64 lies above 2**20.  The exponent check comes
    # first, so a huge exponent is never shifted by the value check
    knot = DoubleTwistKnot(2, 3)
    record = find_root_gt2(riley_for_knot(knot), 5, y_max_cap=64).certificate.to_json_dict()
    assert {record["bracket"][end]["exponent"] for end in ("a", "b")} == {-64}

    def refusal(precision, exponent):
        bracket = {**record["bracket"], "b": {"mantissa": "3", "exponent": exponent}}
        with pytest.raises(MalformedCertificate, match="bracket") as info:
            RootCertificate.from_json_dict({**record, "precision": precision,
                                            "bracket": bracket})
        return str(info.value.__cause__)

    for precision in (128, 129, 4096):
        bracket = {**record["bracket"], "b": {"mantissa": "3", "exponent": -64}}
        hostile = {**record, "precision": precision, "bracket": bracket}
        assert RootCertificate.from_json_dict(hostile).b == Dyadic(3, -64)
        assert refusal(precision, 64) == f"endpoint is beyond +-{MAX_Y_MAX_CAP}"
        for exponent in (65, -65):
            assert refusal(precision, exponent) == f"exponent {exponent} is beyond +-64"
    # the bound P/2 + 280 of earlier versions admitted -2327 at 4096 bits
    assert refusal(4096, -2327) == "exponent -2327 is beyond +-64"
    assert refusal(128, 10**30) == f"exponent {10**30} is beyond +-64"
    # y_max has the range find_root_gt2 accepts for y_max_cap
    assert RootCertificate.from_json_dict({**record, "y_max": MAX_Y_MAX_CAP}).y_max == MAX_Y_MAX_CAP
    with pytest.raises(MalformedCertificate, match="'y_max'"):
        RootCertificate.from_json_dict({**record, "y_max": MAX_Y_MAX_CAP + 1})


def test_verifying_a_record_at_the_precision_cap():
    # a record may claim any precision up to the cap; re-checking it at 4096
    # bits must stay cheap (the x_n enclosure dominates)
    knot = DoubleTwistKnot(2, 3)
    phi = riley_for_knot(knot)
    record = find_root_gt2(phi, 5, y_max_cap=64).certificate.to_json_dict()
    record["precision"] = 4096
    assert verify_certificate(RootCertificate.from_json_dict(record), phi) is True


def test_find_root_rejects_degenerate_arguments():
    phi = riley_for_knot(DoubleTwistKnot(1, 2))
    for kwargs in ({"y_max_cap": 2}, {"y_max_cap": 0}, {"y_max_cap": -64},
                   {"y_max_cap": MAX_Y_MAX_CAP + 1}):
        with pytest.raises(ValueError):
            find_root_gt2(phi, 2, **kwargs)
    # the scan always starts at DEFAULT_PRECISION; there is no keyword for it
    with pytest.raises(TypeError):
        find_root_gt2(phi, 2, precision=128)


def test_lo_set_deterministic_and_correct():
    # the per-n scan behind the lo-set command
    knot = DoubleTwistKnot(1, -3)
    phi = riley_for_knot(knot)

    def scan_all():
        return {n: find_root_gt2(phi, n, y_max_cap=64)
                for n in range(2, 6)}

    first, second = scan_all(), scan_all()
    assert set(first) == {2, 3, 4, 5}
    for n in first:
        assert first[n].status == second[n].status
        assert first[n].certificate == second[n].certificate
    # m <= -3: certified from n = 3 on
    assert not first[2].certified
    assert all(first[n].certified for n in (3, 4, 5))
    assert all(verify_certificate(first[n].certificate, phi) for n in (3, 4, 5))


def test_scan_report_shape():
    report = ScanReport("inconclusive", None, {"y_max_reached": 64})
    assert not report.certified
    knot = DoubleTwistKnot(2, 2)
    phi = riley_for_knot(knot)
    # every scan's trace has the same counters, whatever its status
    for n, status in ((6, "certified"), (2, "inconclusive")):
        rep = find_root_gt2(phi, n, y_max_cap=64)
        assert rep.status == status
        assert {"y_max_reached", "nodes", "evaluations", "precision_escalations",
                "indefinite"} <= set(rep.trace)
        assert rep.trace["y_max_reached"] == 64


def test_certificate_survives_precision_refinement():
    # a certificate valid at precision P stays valid at every P' > P
    knot = DoubleTwistKnot(1, 3)
    phi = riley_for_knot(knot)
    cert = find_root_gt2(phi, 4).certificate
    for factor in (2, 4):
        finer = cert._replace(precision=cert.precision * factor)
        assert verify_certificate(finer, phi)


def test_alpha_exceeds_one_on_xn_enclosures():
    # alpha(x_n, y) > 1 for y >= 2: interval evaluation of alpha - 1 is
    # positive-definite at sampled y across the whole n-grid
    from rileycert.riley import alpha_dt
    samples = [Dyadic(2), Dyadic(5, -1), Dyadic(7), Dyadic(161, -2), Dyadic(40)]
    for k in range(1, 5):
        alpha_minus_1 = XY.of(alpha_dt(k)) - 1
        for n in range(2, 13):
            xn = xn_enclosure(n, 128)
            for y in samples:
                iv = eval_interval(alpha_minus_1, xn, DyadicInterval.point(y))
                assert iv.sign() == 1, (k, n, y)


def test_witness_sign_consistency():
    # at y_c: (-1)^(m-1) phi(x_n, y_c) < 0 for the double twists, and the
    # K_l alpha is negative-definite
    for k in (1, 2):
        for m in (3, 4, 5):
            n_min = 4 if m == 3 else 3
            phi = riley_for_knot(DoubleTwistKnot(k, m))
            for n in (n_min, n_min + 2):
                xn = xn_enclosure(n, 128)
                y_c = solve_lambda_witness(lambda_dt(k), xn,
                                           CosRatio(m - 2, m - 1), 128, n=n)
                sign = reference_eval_interval(phi.poly, xn, y_c).sign()
                assert sign == (-1 if m % 2 == 1 else 1), (k, m, n)
    lam, alpha, _ = kl_named_polys()
    for l in (3, 4):
        n_min = 4 if l == 3 else 3
        for n in (n_min, n_min + 2):
            xn = xn_enclosure(n, 128)
            y_c = solve_lambda_witness(lam, xn, CosRatio(l - 2, l - 1), 128,
                                       n=n, require_c_le_1=True)
            assert reference_eval_interval(alpha, xn, y_c).sign() == -1, (l, n)
