"""Golden CLI outputs: the SHA-256 of (exit code, stdout) for a fixed set of
invocations, recorded from a known-good tree.

The set covers one structured `certify` per criterion 2/3 family knot at its
threshold n, the three criterion 9 n = 2 scans, one `lo-set`, one
text-format `certify`, and four `certify` scans that raise the x_n
precision (J:8,8 at n = 7 and Kl:20 at n = 5 to 256 bits, J:10,10 at n = 5
to 512, and J:12,12 at n = 7 to 512 at the default cap, so that the
fixed-point root node and bounds are checked after two escalations).  A
refactor of the search must leave every digest unchanged, and every
certificate in these outputs must still parse and verify.  A change that
does less work changes the trace's nodes and evaluations, and so these
digests: check that every other output field matches the previous
commit's before re-recording.  To re-record after an intended change of
output, run

    PYTHONPATH=src python tests/test_golden_outputs.py > tests/data/golden_outputs.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from rileycert.certify import RootCertificate, verify_certificate
from rileycert.cli import main, parse_knot_spec
from rileycert.riley import riley_for_knot

DATA = Path(__file__).resolve().parent / "data" / "golden_outputs.json"

J_THRESHOLDS = {-6: 3, -5: 3, -4: 3, -3: 3, -2: 4, 2: 5, 3: 4, 4: 3, 5: 3, 6: 3}
KL_THRESHOLDS = {2: 5, 3: 4, 4: 3, 5: 3, 6: 3}


def golden_argvs() -> list[list[str]]:
    family = [(f"J:{k},{m}", n) for k in range(1, 5)
              for m, n in J_THRESHOLDS.items()]
    family += [(f"Kl:{l}", n) for l, n in KL_THRESHOLDS.items()]
    argvs = [["certify", "--knot", spec, "--n", str(n), "--ymax-cap", "64",
              "--format", "structured"] for spec, n in family]
    argvs += [["certify", "--knot", spec, "--n", "2", "--ymax-cap", "64",
               "--format", "structured"]
              for spec in ("J:1,2", "J:1,4", "Kl:2")]
    argvs.append(["lo-set", "--knot", "J:1,3", "--n-max", "6", "--ymax-cap", "64",
                  "--format", "structured"])
    argvs.append(["certify", "--knot", "J:1,4", "--n", "3"])
    argvs += [["certify", "--knot", spec, "--n", str(n), "--ymax-cap", "64",
               "--format", "structured"]
              for spec, n in (("J:8,8", 7), ("Kl:20", 5), ("J:10,10", 5))]
    argvs.append(["certify", "--knot", "J:12,12", "--n", "7", "--format", "structured"])
    return argvs


def run(argv: list[str]) -> tuple[str, str]:
    """(SHA-256 of exit code and stdout, stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    stdout = out.getvalue()
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest(), stdout


def certificates(argv: list[str], stdout: str) -> list[dict]:
    """The certificate records in a structured certify or lo-set output."""
    if "structured" not in argv:
        return []
    payload = json.loads(stdout)
    reports = payload["reports"].values() if "reports" in payload else [payload]
    return [r["certificate"] for r in reports if r["certificate"] is not None]


def test_golden_outputs():
    records = json.loads(DATA.read_text())
    assert [r["argv"] for r in records] == golden_argvs()
    mismatched, parsed = [], 0
    for record in records:
        sha, stdout = run(record["argv"])
        if sha != record["sha256"]:
            mismatched.append(" ".join(record["argv"]))
        for cert in certificates(record["argv"], stdout):
            parsed_cert = RootCertificate.from_json_dict(cert)
            assert parsed_cert.to_json_dict() == cert
            assert verify_certificate(parsed_cert, riley_for_knot(parse_knot_spec(cert["knot"])))
            parsed += 1
    for line in mismatched:
        print(f"golden output changed: rileycert {line}")
    assert not mismatched, f"{len(mismatched)} golden output(s) changed"
    assert parsed >= 45


if __name__ == "__main__":
    records = [json.dumps({"argv": argv, "sha256": run(argv)[0]})
               for argv in golden_argvs()]
    sys.stdout.write("[\n" + ",\n".join(records) + "\n]\n")
