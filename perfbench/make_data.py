"""Record the reference data the `riley` workload checks against.

For every two-bridge fraction p/q with p odd in 17..151, q odd, coprime to p
and 0 < q < p, and for every family knot of the certificate grid, store the
number of terms of phi_K and the first 16 hex digits of its content hash.
The benchmark treats these as an oracle: a later commit must reproduce them
exactly.  Run from the repository root:

    python3 perfbench/make_data.py

It uses one process per available core and takes about a quarter of an
hour on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import cases  # noqa: E402

OUT = ROOT / "perfbench" / "data" / "riley_reference.json"


def _record(spec: str) -> tuple[str, int, str]:
    from rileycert.cli import parse_knot_spec
    from rileycert.riley import riley_for_knot
    phi = riley_for_knot(parse_knot_spec(spec))
    return spec, len(phi.poly.triples()), phi.content_hash[:cases.HASH_DIGITS]


def main() -> int:
    specs = [f"{p}/{q}" for p, q in cases.all_fractions()]
    specs += cases.family_specs()
    # largest first, so the pool is not left waiting on one slow fraction
    specs.sort(key=lambda s: -int(s.split("/")[0]) if "/" in s else 0)
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        rows = dict((spec, [terms, digest]) for spec, terms, digest
                    in pool.imap_unordered(_record, specs, chunksize=4))
    ordered = {spec: rows[spec] for spec in sorted(rows, key=cases.spec_sort_key)}
    lines = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in ordered.items())
    OUT.write_text("{\n" + lines + "\n}\n")
    print(f"wrote {len(ordered)} entries to {OUT.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
