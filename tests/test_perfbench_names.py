"""The names the benchmark reads from the package still exist.

`perfbench/worker.py` clears lru caches and calls functions by name, and
`perfbench/tracing.py` wraps and reads functions by name.  A name deleted
from the package would otherwise show up only as a failed benchmark op or a
per-layer metric that reads 0.  The check runs in a subprocess, because the
harness imports its modules as top-level `cases`, `worker` and `tracing`
and the tracer rebinds the package's functions while it is installed.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import sys
sys.path.insert(0, sys.argv[1])
import cases, tracing, worker
import rileycert
from rileycert import certify, chebyshev, cli, dyadic, knots, polyring, riley

mods = {"rileycert": rileycert, "cli": cli, "riley": riley, "knots": knots,
        "chebyshev": chebyshev, "polyring": polyring, "dyadic": dyadic,
        "certify": certify}
# every function a per-layer metric of tracing.layer_metrics reads by name
TRACED = ("polyring.eval_interval", "polyring.symmetric_rewrite",
          "certify.find_root_gt2", "certify.verify_certificate",
          "certify.xn_enclosure", "riley.riley_for_knot", "riley.riley_generic",
          "riley.evaluate_word", "riley.riley_double_twist", "riley.riley_kl",
          "chebyshev.sl2_power", "knots.sign_sequence", "knots.word_from_signs",
          "knots.word_double_twist", "knots.word_kl")
originals = {name: getattr(mods[name.split(".")[0]], name.split(".")[1])
             for name in TRACED}
for workload in cases.WORKLOADS:
    reference = cases.load_reference() if workload == "riley" else {}
    ops = cases.build_ops(workload, 1, reference)
    checker = worker.Checker(mods, reference, ops)
    checker.clear_caches()
    tracer = tracing.Tracer(mods)
    tracer.install()
    for name, original in originals.items():
        layer, attr = name.split(".")
        assert getattr(mods[layer], attr) is not original, f"{name} is not traced"
    tracer.uninstall()
    for name, original in originals.items():
        layer, attr = name.split(".")
        assert getattr(mods[layer], attr) is original, f"{name} is not restored"
    print(workload, len(ops))
# the dyadic micro-probes time these
for owner, attr in ((dyadic.Dyadic, "__mul__"), (dyadic.Dyadic, "__add__"),
                    (dyadic.DyadicInterval, "__mul__"),
                    (dyadic.DyadicInterval, "__add__"),
                    (dyadic.DyadicInterval, "round_outward")):
    getattr(owner, attr)
"""


def test_benchmark_reads_only_names_that_exist():
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                          capture_output=True, text=True, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["grid", "45", "sweep", "7", "riley", "55"]
