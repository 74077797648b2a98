"""The paper's sets, sampled: every 64th n from each family knot's threshold
to 1024, at the default cap.  Each scan must certify, re-verify from its
JSON record and make at most 2 evaluations.  This is the tier-1 half of the
family net; CI runs `lo-set` to n = 1024 for every knot and checks it with
`family_sets.py`.  Beyond the 45, a few knots of the box are scanned at
n = 2..8 against the threshold law (`family_sets.threshold`); CI checks
the law's larger sample at n = 2..12."""

import pytest

from rileycert.certify import RootCertificate, find_root_gt2, verify_certificate
from rileycert.cli import parse_knot_spec
from rileycert.riley import riley_for_knot

from family_sets import FAMILY, N_MAX, law_problems, row, rows_digest, threshold

# 2,692 Descartes counts over the 720 scans on Python 3.11
MAX_SAMPLE_NODES = 3_300
SAMPLE_DIGEST = "440ca8ca2c0e54e3d3a2e48bfe8d3ddeee939c00b7707b6dbd97e7731335ca93"


def test_every_64th_n_of_each_family_knot_certifies():
    rows, nodes = [], 0
    for knot, threshold in FAMILY:
        phi = riley_for_knot(parse_knot_spec(knot))
        assert phi.knot == knot
        for n in range(threshold, N_MAX + 1, 64):
            report = find_root_gt2(phi, n)
            assert report.certified, (knot, n)
            record = report.certificate.to_json_dict()
            assert verify_certificate(RootCertificate.from_json_dict(record), phi), (knot, n)
            assert report.trace["evaluations"] <= 2, (knot, n)
            nodes += report.trace["nodes"]
            rows.append(row(knot, n, report.status, record))
    assert len(FAMILY) == 45 and len(rows) == 720
    assert nodes <= MAX_SAMPLE_NODES, nodes
    assert rows_digest(rows) == SAMPLE_DIGEST


def test_the_threshold_law_holds_beyond_the_family():
    # knots of the box outside the 45, at n = 2..8: each certifies exactly
    # from the law's threshold up (J_THRESHOLDS for |m| <= 6, 3 for
    # |m| >= 7 and for Kl:l, l >= 4) and is inconclusive below it, which
    # claims nothing about left-orderability
    knots = ["J:5,7", "J:5,-7", "J:5,2", "J:10,-2", "J:10,3", "J:10,10", "J:10,-10",
             "Kl:10", "Kl:20"]
    assert [threshold(knot) for knot in knots] == [3, 3, 5, 4, 4, 3, 3, 3, 3]
    problems = []
    for knot in knots:
        phi = riley_for_knot(parse_knot_spec(knot))
        problems += law_problems(knot, {n: find_root_gt2(phi, n).status for n in range(2, 9)})
    assert problems == []


def test_the_law_flags_a_status_on_the_wrong_side_of_the_threshold():
    # law_problems names an inconclusive n at or above the threshold and a
    # certified one below it, for the table's knots and the law's alike;
    # a fraction or a knot outside the box has no threshold
    assert law_problems("J:1,2", {4: "inconclusive", 5: "certified"}) == []
    assert law_problems("Kl:3", {3: "certified", 4: "inconclusive"}) == [
        "Kl:3 n=3: certified, threshold 4", "Kl:3 n=4: inconclusive, threshold 4"]
    assert law_problems("J:20,-20", {2: "certified", 3: "certified"}) == [
        "J:20,-20 n=2: certified, threshold 3"]
    for spec in ("7/3", "J:21,2", "Kl:51"):
        with pytest.raises(ValueError):
            threshold(spec)
