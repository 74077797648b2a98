"""The scan's isolation kernels against the list versions they replaced
(cert_oracle.py): the running-sum Taylor shift and margin shift, and the
Descartes count on packed (lo, hi) pairs, give the same integers and
counts, and a scan of the acceptance grid is the same with either set."""

from hypothesis import example, given, settings, strategies as st

from rileycert import certify
from rileycert.certify import (_MARGIN_BITS, _halve, _root_node, _scale, _taylor_shift,
                               _variations, find_root_gt2)
from rileycert.riley import riley_for_knot

import cert_oracle
from test_acceptance import SCANS

LIMIT = 1 << 700
big = st.integers(-LIMIT, LIMIT)
pairs = st.one_of(
    st.just((0, 0)),
    # bounds that straddle 0: no sign
    st.tuples(st.integers(1, LIMIT), st.integers(1, LIMIT)).map(lambda t: (-t[0], t[1])),
    st.tuples(big, st.integers(0, 3)).map(lambda t: (t[0], t[0] + t[1])),
    st.tuples(big, big).map(sorted),
)


def _split(ps):
    return [l for l, _ in ps], [h for _, h in ps]


# up to degree 60 in both; narrow boxes alone leave most counts decided
boxes = st.one_of(
    st.lists(pairs, min_size=1, max_size=61),
    st.lists(st.tuples(big, st.integers(0, 1 << 20)).map(lambda t: (t[0], t[0] + t[1])),
             min_size=1, max_size=61),
).map(_split)


@st.composite
def slot_limits(draw):
    """Every |lo_j| at 2**bits - 1, the largest the packed count's slot
    width allows for, with signs and box widths drawn."""
    d, bits = draw(st.integers(0, 60)), draw(st.integers(0, 700))
    top = (1 << bits) - 1
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=d + 1, max_size=d + 1))
    same = draw(st.booleans())
    lo = [top if same else s * top for s in signs]
    widths = draw(st.lists(st.sampled_from([0, 0, 1, top]), min_size=d + 1, max_size=d + 1))
    return lo, [l + w for l, w in zip(lo, widths)]


def _reference_root_node(bounds, k_root):
    lo, hi = _halve(*cert_oracle.reference_taylor_shift(_scale(bounds[0], 1),
                                                         _scale(bounds[1], 1)))
    lo, hi = cert_oracle.reference_margin_shift(lo, hi, _MARGIN_BITS)
    return _scale(lo, k_root), _scale(hi, k_root)


@settings(max_examples=300, deadline=None)
@given(st.one_of(boxes, slot_limits()))
@example(([0] * 61, [0] * 61))
@example(([(1 << 700) - 1] * 61, [(1 << 700) - 1] * 61))
@example(([-(1 << 700) + 1] * 61, [-(1 << 700) + 1] * 61))
@example(([1], [1]))
@example(([-1, 0, 1], [1, 0, 1]))
def test_kernels_match_the_list_kernels(box):
    lo, hi = box
    assert _taylor_shift(lo, hi) == cert_oracle.reference_taylor_shift(lo, hi)
    assert _variations(lo, hi) == cert_oracle.reference_variations(lo, hi)


@settings(max_examples=200, deadline=None)
@given(st.one_of(boxes, slot_limits()), st.integers(1, 20))
def test_root_node_matches_the_indexed_margin_loop(box, k_root):
    bounds = (*box, -632)
    assert _root_node(bounds, k_root) == _reference_root_node(bounds, k_root)


def test_the_acceptance_grid_scans_alike_with_the_list_kernels(monkeypatch):
    # the 431 criterion 2/3 scans at cap 64: every count, bracket,
    # precision and trace is the same whichever kernels run
    cases = SCANS["criterion 2"] + SCANS["criterion 3"]
    phis = {knot: riley_for_knot(knot) for knot, _ in cases}

    def scan():
        return [find_root_gt2(phis[knot], n, y_max_cap=64) for knot, n in cases]

    new = scan()
    with monkeypatch.context() as patch:
        patch.setattr(certify, "_taylor_shift", cert_oracle.reference_taylor_shift)
        patch.setattr(certify, "_variations", cert_oracle.reference_variations)
        patch.setattr(certify, "_root_node", _reference_root_node)
        old = scan()
    assert len(new) == 431 and all(r.certified for r in new)
    assert new == old
    assert [(r.certificate.to_json_dict(), r.trace) for r in new] \
        == [(r.certificate.to_json_dict(), r.trace) for r in old]
