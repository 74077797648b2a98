"""Golden CLI outputs: two SHA-256 digests of (exit code, stdout) for a
fixed set of invocations, recorded from a known-good tree.

The set covers one structured `certify` per criterion 2/3 family knot at its
threshold n, the three criterion 9 n = 2 scans, one `lo-set`, one
text-format `certify`, and four `certify` scans that raise the x_n
precision (J:8,8 at n = 7 and Kl:20 at n = 5 to 256 bits, J:10,10 at n = 5
to 512, and J:12,12 at n = 7 to 512 at the default cap, so that the
fixed-point root node and bounds are checked after two escalations).
"sha256" digests the whole output; "sha256_no_work" digests it with the
trace's nodes and evaluations removed from every report, so it covers every
certificate, precision, escalation and status.  A refactor of the search
must leave both unchanged, and every certificate in these outputs must
still parse, verify and pass the independent oracle of cert_oracle.py.
A change that does less work changes only the
"sha256" digests: the test then lists those outputs apart from any that
changed beyond the work counters, and after re-recording, `git diff` of
the data file must show no "sha256_no_work" value changed.  To re-record
after an intended change of output, run

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

import cert_oracle

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


def run(argv: list[str]) -> tuple[dict, str]:
    """({"sha256", "sha256_no_work"} digests, stdout) of one CLI invocation."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    stdout = out.getvalue()
    return {"sha256": _digest(code, stdout),
            "sha256_no_work": _digest(code, _without_work(argv, stdout))}, stdout


def _digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()


def _without_work(argv: list[str], stdout: str) -> str:
    """A structured output without the trace's nodes and evaluations, in the
    CLI's own JSON layout; a text output carries no trace and is kept."""
    if "structured" not in argv:
        return stdout
    payload = json.loads(stdout)
    for report in _reports(payload):
        for key in ("nodes", "evaluations"):
            del report["trace"][key]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _reports(payload: dict) -> list[dict]:
    return list(payload["reports"].values()) if "reports" in payload else [payload]


def certificates(argv: list[str], stdout: str) -> list[dict]:
    """The certificate records in a structured certify or lo-set output."""
    if "structured" not in argv:
        return []
    return [r["certificate"] for r in _reports(json.loads(stdout))
            if r["certificate"] is not None]


def test_golden_outputs():
    records = json.loads(DATA.read_text())
    assert [r["argv"] for r in records] == golden_argvs()
    changed = {"sha256": [], "sha256_no_work": []}
    parsed = 0
    for record in records:
        digests, stdout = run(record["argv"])
        for kind in changed:
            if digests[kind] != record[kind]:
                changed[kind].append(" ".join(record["argv"]))
        for cert in certificates(record["argv"], stdout):
            parsed_cert = RootCertificate.from_json_dict(cert)
            assert parsed_cert.to_json_dict() == cert
            phi = riley_for_knot(parse_knot_spec(cert["knot"]))
            assert verify_certificate(parsed_cert, phi)
            assert cert_oracle.accepts(cert, phi.knot, list(phi.poly.terms()))
            parsed += 1
    for line in changed["sha256_no_work"]:
        print(f"golden output changed beyond the work counters: rileycert {line}")
    for line in sorted(set(changed["sha256"]) - set(changed["sha256_no_work"])):
        print(f"golden output changed in trace nodes or evaluations only: rileycert {line}")
    assert not changed["sha256_no_work"], \
        f"{len(changed['sha256_no_work'])} golden output(s) changed beyond the work counters"
    assert not changed["sha256"], f"{len(changed['sha256'])} golden output(s) changed"
    assert parsed >= 45


if __name__ == "__main__":
    records = [json.dumps({"argv": argv, **run(argv)[0]}) for argv in golden_argvs()]
    sys.stdout.write("[\n" + ",\n".join(records) + "\n]\n")
