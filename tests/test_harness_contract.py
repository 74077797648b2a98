"""The benchmark's own checks, run on the package in tier-1.

`perfbench/worker.py` runs a workload's ops through the CLI and checks each
against its oracle; with --trace 1 it also runs a traced pass, whose
wrappers count the scan's sign evaluations by where they are made.  The
benchmark rejects a run whose ops report a problem, whose per-op counters
differ between passes, or whose traced grid, probe and bisection
evaluations do not add up to the `evaluations` the scans report (only the
calls of `polyring.eval_interval` on `phi.poly` itself are counted).  Each
workload runs here in a subprocess with this interpreter, as the harness
imports its modules as top-level `cases`, `worker` and `tracing`; the test
changes no file under `perfbench/`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["grid", "sweep"])
def test_a_traced_worker_pass_keeps_the_harness_contract(workload):
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"),
                           "--workload", workload, "--seed", "1", "--passes", "1",
                           "--trace", "1"],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    (plain,), (traced,) = result["passes"], result["traced_passes"]
    ops = plain["ops"] + traced["ops"]
    assert len(plain["ops"]) == len(traced["ops"]) == len(result["ops"]) > 0
    assert [rec["problem"] for rec in ops if "problem" in rec] == []
    assert [rec["counters"] for rec in plain["ops"]] == \
        [rec["counters"] for rec in traced["ops"]]
    layer = traced["layer"]
    split = sum(layer.get(f"count:{phase}_evals", 0) for phase in ("grid", "probe", "bisect"))
    assert split == sum(rec["counters"]["evaluations"] for rec in traced["ops"])
