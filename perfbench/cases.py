"""The three workloads as lists of CLI invocations, made from a seed.

Every op is one `rileycert.cli.main(argv)` call.  The same (workload, seed)
always gives the same ops in the same order; the seed never reaches the
program except through the inputs chosen here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("grid", "sweep", "riley")

# Seconds of --seconds that one pass stands for: about the time of one pass
# at the host's reference speed (perfbench/hostspeed.py), except that sweep's
# 2.6 s is rounded up so that a 20 s run makes five passes, not eight.  A run
# makes round(--seconds / PASS_SECONDS) passes (at least two), a number fixed
# per workload rather than taken from the clock, so that op_tail_ms is the
# same order statistic in every run however fast the host is that day.
PASS_SECONDS = {"grid": 10.0, "sweep": 4.0, "riley": 5.0}

# Smallest cover index n certified for each family member, as in acceptance
# criteria 2 and 3 (tests/test_acceptance.py); the grids run n up to 12.
J_THRESHOLDS = {-6: 3, -5: 3, -4: 3, -3: 3, -2: 4, 2: 5, 3: 4, 4: 3, 5: 3, 6: 3}
KL_THRESHOLDS = {2: 5, 3: 4, 4: 3, 5: 3, 6: 3}
N_MAX = 12
GRID_YMAX_CAP = 64

# Criterion 9's n = 2 cases plus the below-threshold n = 3, 4 scans of J:1,2
# and Kl:2, as (knot, n, y_max cap).  All end inconclusive; a cap above 64
# makes the 1/8 grid walk and the y_max doubling run.  J:1,2 has the smallest
# phi, so it scans to 256 (two doublings) and the others to 128 (one): every
# scan then costs about the same, and the pooled median and tail of op
# latency fall inside one cost cluster instead of between two.
SWEEP_CASES = (("J:1,2", 2, 256), ("J:1,4", 2, 128), ("Kl:2", 2, 128),
               ("J:1,2", 3, 256), ("J:1,2", 4, 256), ("Kl:2", 3, 128),
               ("Kl:2", 4, 128))

FRACTION_P_RANGE = range(17, 152, 2)
# Construction time spans 3 ms to 2 s and follows p (the word length) and
# the size (terms) of phi.  So that every seed draws the same mix of costs,
# each pass takes one fraction at each of the 5%, 15%, ..., 95% quantiles of
# size: the seed picks among the FRACTION_WINDOW fractions with the same p as
# the quantile's own fraction that are closest to it in size.
FRACTION_QUANTILES = 10
FRACTION_WINDOW = 4
HASH_DIGITS = 16
REFERENCE = Path(__file__).resolve().parent / "data" / "riley_reference.json"


@dataclass(frozen=True)
class Op:
    kind: str        # certified | inconclusive | fraction | cross-check
    spec: str        # knot spec as the CLI takes it
    argv: tuple[str, ...]
    n: int = 0


def family_specs() -> list[str]:
    specs = [f"J:{k},{m}" for k in range(1, 5) for m in J_THRESHOLDS]
    return specs + [f"Kl:{l}" for l in KL_THRESHOLDS]


def _threshold(spec: str) -> int:
    if spec.startswith("Kl:"):
        return KL_THRESHOLDS[int(spec[3:])]
    return J_THRESHOLDS[int(spec.split(",")[1])]


def grid_cases() -> list[tuple[str, int]]:
    """The 431 (knot, n) cases of acceptance criteria 2 and 3."""
    return [(spec, n) for spec in family_specs()
            for n in range(_threshold(spec), N_MAX + 1)]


def all_fractions() -> list[tuple[int, int]]:
    return [(p, q) for p in FRACTION_P_RANGE for q in range(1, p, 2)
            if math.gcd(p, q) == 1]


def spec_sort_key(spec: str):
    if "/" in spec:
        p, q = spec.split("/")
        return (1, int(p), int(q), "")
    return (0, 0, 0, spec)


def load_reference() -> dict[str, list]:
    """spec -> [terms, hash prefix] recorded by make_data.py."""
    return json.loads(REFERENCE.read_text())


def _certify_argv(spec: str, n: int, cap: int) -> tuple[str, ...]:
    return ("certify", "--knot", spec, "--n", str(n), "--ymax-cap", str(cap),
            "--format", "structured")


def _grid_ops(rng: random.Random, reference) -> list[Op]:
    # One case per knot with a seeded n: the cost of a scan follows the size
    # of phi far more than n, so every seed gets the same cost profile.
    by_knot: dict[str, list[int]] = {}
    for spec, n in grid_cases():
        by_knot.setdefault(spec, []).append(n)
    ops = []
    for spec, ns in by_knot.items():
        n = rng.choice(ns)
        ops.append(Op("certified", spec, _certify_argv(spec, n, GRID_YMAX_CAP), n))
    rng.shuffle(ops)
    return ops


def _sweep_ops(rng: random.Random, reference) -> list[Op]:
    ops = [Op("inconclusive", spec, _certify_argv(spec, n, cap), n)
           for spec, n, cap in SWEEP_CASES]
    rng.shuffle(ops)
    return ops


def _riley_ops(rng: random.Random, reference) -> list[Op]:
    by_p: dict[int, list[str]] = {}
    for p, q in all_fractions():
        by_p.setdefault(p, []).append(f"{p}/{q}")
    by_size = sorted((s for specs in by_p.values() for s in specs),
                     key=lambda s: (reference[s][0], spec_sort_key(s)))
    ops = []
    for i in range(FRACTION_QUANTILES):
        centre = by_size[len(by_size) * (2 * i + 1) // (2 * FRACTION_QUANTILES)]
        size = reference[centre][0]
        window = sorted(by_p[int(centre.split("/")[0])],
                        key=lambda s: (abs(reference[s][0] - size), spec_sort_key(s)))
        spec = rng.choice(window[:FRACTION_WINDOW])
        ops.append(Op("fraction", spec,
                      ("riley", "--fraction", spec, "--format", "structured")))
    # every family knot: closed form versus the generic engine
    ops += [Op("cross-check", spec, ("riley", "--knot", spec, "--cross-check",
                                     "--format", "structured"))
            for spec in family_specs()]
    rng.shuffle(ops)
    return ops


_BUILDERS = {"grid": _grid_ops, "sweep": _sweep_ops, "riley": _riley_ops}


def build_ops(workload: str, seed: int, reference) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, reference)
