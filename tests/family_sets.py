"""The 45 criterion 2/3 family knots with their thresholds, the threshold
law over the whole parameter box, and the checks of `lo-set` runs against
both.

The knots are J(k, m) for k = 1..4 and the ten m of J_THRESHOLDS, and K_l
for l = 2..6.  The threshold of each is the smallest cover index the
acceptance grids certify; every n from it up to 1024 certifies too.  The
law (`threshold`) extends the table to every J:k,m and Kl:l the tool
accepts: the threshold depends on m or l alone, and is 3 for |m| >= 7
and for l >= 4.  Below it the scans are inconclusive, which claims
nothing about left-orderability.

As a script, on a directory that holds the output of

    rileycert lo-set --knot K --n-max 1024 --format structured > DIR/K.json

for each knot K that `python tests/family_sets.py --knots` prints:

    python tests/family_sets.py --digest HEX DIR

It exits 1 unless every report from a knot's threshold up is certified with
at most 2 evaluations, the Descartes counts (trace nodes) and evaluations of
all 46,035 reports stay within MAX_NODES and MAX_EVALUATIONS, and the
digest of their (knot, n, status, bracket) rows is HEX.  The rows leave out
the precision and the work counters, so a scan that does less work moves
only the totals; a moved bracket or status moves the digest.

On a directory that holds `lo-set --n-max 12` outputs, DIR/K.json, for
each knot K that `python tests/family_sets.py --law-knots` prints:

    python tests/family_sets.py --law DIR

It exits 1 unless every n = 2..12 of each knot is certified exactly from
the knot's threshold up and inconclusive below it.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from rileycert.cli import parse_knot_spec
from rileycert.knots import DoubleTwistKnot, KlKnot

# smallest certified cover index per twist parameter m of J(k, m), and per l
# of K_l
J_THRESHOLDS = {-6: 3, -5: 3, -4: 3, -3: 3, -2: 4, 2: 5, 3: 4,
                4: 3, 5: 3, 6: 3}
KL_THRESHOLDS = {2: 5, 3: 4, 4: 3, 5: 3, 6: 3}


def threshold(spec: str) -> int:
    """The smallest n from which the knot J:k,m or Kl:l certifies, by the
    law: J_THRESHOLDS[m] for |m| <= 6 and 3 for |m| >= 7, whatever k;
    KL_THRESHOLDS[l], that is 5, 4 and 3 for l = 2, 3 and >= 4."""
    knot = parse_knot_spec(spec)
    if isinstance(knot, DoubleTwistKnot):
        return J_THRESHOLDS.get(knot.m, 3)
    if isinstance(knot, KlKnot):
        return KL_THRESHOLDS.get(knot.l, 3)
    raise ValueError(f"{spec}: the law covers J:k,m and Kl:l only")


# (knot spec, threshold) of each family knot
FAMILY = [(spec, threshold(spec)) for spec in
          [f"J:{k},{m}" for k in range(1, 5) for m in J_THRESHOLDS]
          + [f"Kl:{l}" for l in KL_THRESHOLDS]]

# the law's sample of the box beyond the family, k <= 10, at n = 2..LAW_N_MAX
LAW_KNOTS = ([f"J:{k},{sign * m}" for k in (5, 10) for m in (2, 3, 4, 5, 6, 7, 10, 15, 20)
              for sign in (1, -1)] + [f"Kl:{l}" for l in (10, 20, 30)])
LAW_N_MAX = 12

N_MAX = 1024
# 176,522 counts and 91,942 evaluations (2 per certified report) to n = 1024
# on Python 3.11
MAX_NODES = 200_000
MAX_EVALUATIONS = 92_000


def row(knot: str, n: int, status: str, certificate: dict | None) -> tuple:
    """A report's digest row: its knot, n, status and certificate bracket."""
    return knot, n, status, certificate["bracket"] if certificate else None


def rows_digest(rows) -> str:
    """SHA-256 of the rows sorted by knot and n, one JSON array a line."""
    lines = (json.dumps(list(r), sort_keys=True) + "\n"
             for r in sorted(rows, key=lambda r: r[:2]))
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def law_problems(knot: str, statuses: dict[int, str]) -> list[str]:
    """The n of {n: status} that break the law: each n must be certified
    from the knot's threshold up and inconclusive below it."""
    t = threshold(knot)
    return [f"{knot} n={n}: {status}, threshold {t}" for n, status in sorted(statuses.items())
            if status != ("certified" if n >= t else "inconclusive")]


def check_law(directory: Path) -> list[str]:
    """The problems of the law sample's lo-set outputs in `directory`."""
    problems, count = [], 0
    for knot in LAW_KNOTS:
        payload = json.loads((directory / f"{knot}.json").read_text())
        statuses = {int(n): r["status"] for n, r in payload["reports"].items()}
        if payload["knot"] != knot or sorted(statuses) != list(range(2, LAW_N_MAX + 1)):
            problems.append(f"{knot}: not a lo-set run of this knot to n = {LAW_N_MAX}")
        problems += law_problems(knot, statuses)
        count += len(statuses)
    print(f"{len(LAW_KNOTS)} knots, {count} reports checked against the threshold law")
    return problems


def check(directory: Path, digest: str) -> list[str]:
    """The problems of the lo-set outputs in `directory`; none if it passes."""
    problems, rows, nodes, evaluations = [], [], 0, 0
    for knot, threshold in FAMILY:
        payload = json.loads((directory / f"{knot}.json").read_text())
        reports = {int(n): r for n, r in payload["reports"].items()}
        if payload["knot"] != knot or sorted(reports) != list(range(2, N_MAX + 1)):
            problems.append(f"{knot}: not a lo-set run of this knot to n = {N_MAX}")
        for n, report in sorted(reports.items()):
            trace = report["trace"]
            nodes += trace["nodes"]
            evaluations += trace["evaluations"]
            rows.append(row(knot, n, report["status"], report["certificate"]))
            if n >= threshold and (report["status"] != "certified"
                                   or trace["evaluations"] > 2):
                problems.append(f"{knot} n={n}: {report['status']}, "
                                f"{trace['evaluations']} evaluations")
    if nodes > MAX_NODES or evaluations > MAX_EVALUATIONS:
        problems.append(f"{nodes} counts (at most {MAX_NODES}), {evaluations} "
                        f"evaluations (at most {MAX_EVALUATIONS})")
    got = rows_digest(rows)
    if got != digest:
        problems.append(f"row digest {got}, expected {digest}")
    print(f"{len(rows)} reports, {nodes} counts, {evaluations} evaluations, "
          f"digest {got}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--knots", action="store_true",
                        help="print the family's knot specs and exit")
    parser.add_argument("--law-knots", action="store_true",
                        help="print the law sample's knot specs and exit")
    parser.add_argument("--digest", help="the expected row digest")
    parser.add_argument("--law", action="store_true",
                        help="check the law sample's lo-set outputs")
    parser.add_argument("directory", nargs="?", type=Path)
    args = parser.parse_args(argv)
    if args.knots or args.law_knots:
        print("\n".join(LAW_KNOTS if args.law_knots else (knot for knot, _ in FAMILY)))
        return 0
    if args.directory is None or bool(args.digest) == args.law:
        parser.error("a directory and either --digest or --law are needed")
    problems = check_law(args.directory) if args.law else check(args.directory, args.digest)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
