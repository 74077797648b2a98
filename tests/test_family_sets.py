"""The paper's sets, sampled: every 64th n from each family knot's threshold
to 1024, at the default cap.  Each scan must certify, re-verify from its
JSON record and make at most 2 evaluations.  This is the tier-1 half of the
family net; CI runs `lo-set` to n = 1024 for every knot and checks it with
`family_sets.py`."""

from rileycert.certify import RootCertificate, find_root_gt2, verify_certificate
from rileycert.cli import parse_knot_spec
from rileycert.riley import riley_for_knot

from family_sets import FAMILY, N_MAX, row, rows_digest

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
