"""rileycert benchmark: one command prints every metric by name and unit.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Run from the repository root.  It imports the package from ./src and
nothing else, drives it through `rileycert.cli.main` in a fresh interpreter
(perfbench/worker.py), closed loop, one op at a time on one thread, and
checks every op against an oracle.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics: set-up time (median of several fresh
           interpreters), pass time, throughput and op latency, each
           adjusted to the host's reference speed by perfbench/hostspeed.py;
           the raw figures are printed on a comment line.
--trace 1  per-layer metrics from an interpreter that alternates untraced
           passes with traced ones, in which the public functions of each
           library module are wrapped by perfbench/tracing.py; plus the
           dyadic probes and the tracing overhead (traced against untraced
           pass time).
--profile FILE  after measuring, run one more untraced pass in a further
           interpreter under cProfile and write its stats to FILE.  That
           pass is checked but kept out of the metrics.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "rileycert"

import cases  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import hostspeed  # noqa: E402

SETUP_PROBES = 31     # fresh interpreters timed to READY, for setup_s
MIN_PASSES = 2        # so every run checks that its counters repeat
TRACE_PASSES = 2      # untraced and as many traced passes in a traced run
RUN_LIMIT_S = 170     # the whole run, all children included
TAIL_SAMPLES = 10     # samples that must lie beyond the reported tail


class BenchError(Exception):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="rileycert benchmark")
    p.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--profile", help="cProfile output file inside the checkout")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.profile and args.trace:
        p.error("--profile profiles an untraced run; use it with --trace 0")
    if args.profile:
        target = (Path.cwd() / args.profile).resolve()
        if ROOT not in target.parents:
            p.error("--profile must name a file inside the checkout")
        args.profile = str(target)
    return args


class Children:
    """Starts worker interpreters and makes sure none outlives the run."""

    def __init__(self, deadline: float):
        self.deadline = deadline

    def run(self, *worker_args: str) -> tuple[float, str]:
        """(seconds from spawn to READY, remaining stdout) of one worker."""
        env = dict(os.environ)
        env.pop("RILEYCERT_PREC", None)  # the CLI default must not vary
        cmd = [sys.executable, str(HERE / "worker.py"), *worker_args]
        t0 = time.perf_counter()
        # unbuffered, so reading the READY line takes nothing more from the
        # pipe than that line and communicate() sees the rest
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, bufsize=0,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ)
                if not sel.select(timeout=self._remaining()):
                    raise BenchError("worker did not start in time")
            first = proc.stdout.readline().decode()
            ready_s = time.perf_counter() - t0
            out, err = (b.decode() for b in
                        proc.communicate(timeout=self._remaining()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded the {RUN_LIMIT_S} s run limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if first.strip() != "READY" or proc.returncode != 0:
            raise BenchError(f"worker failed (exit {proc.returncode}):\n"
                             f"{first}{out}{err}".rstrip())
        return ready_s, out

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        return left


def loadavg():
    """The 1, 5 and 15 minute load averages (read only), if the OS has them."""
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def environment(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
            "commit": _git_commit(), "src_sha256": digest.hexdigest()[:16],
            "loadavg": loadavg(), "profile": args.profile}


def _git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has
    TAIL_SAMPLES samples beyond it; the maximum when there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_SAMPLES:
        return s[-1], 100.0
    return s[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def check_passes(result: dict, reference_counters) -> list[str]:
    """Failed ops, and deterministic counters that did not repeat."""
    issues = []
    for i, one_pass in enumerate(result["passes"]):
        counters = [rec.get("counters") for rec in one_pass["ops"]]
        issues += [rec["problem"] for rec in one_pass["ops"] if "problem" in rec]
        if counters != reference_counters:
            issues.append(f"pass {i}: deterministic counters differ from the "
                          "first pass")
    return issues


def _total(records: list[dict], counter: str) -> int:
    return sum(rec.get("counters", {}).get(counter, 0) for rec in records)


def counters_digest(counters) -> str:
    """Short digest of one pass's per-op counters, to compare runs by eye."""
    return hashlib.sha256(json.dumps(counters, sort_keys=True).encode()).hexdigest()[:16]


def op_stats(result: dict) -> tuple[int, int]:
    ops = [rec for p in result["passes"] for rec in p["ops"]]
    return len(ops), sum(1 for rec in ops if "problem" in rec)


def adjust(one_pass: dict) -> tuple[list[float], float]:
    """(op latencies in ms, pass time in s) of one pass at the host's
    reference speed: each op scaled by the kernel timings on either side."""
    host = one_pass["host_ms"]
    factors = [hostspeed.factor(a, b) for a, b in zip(host, host[1:])]
    ops = one_pass["ops"]
    latencies = [rec["latency_ms"] * f for rec, f in zip(ops, factors)]
    return latencies, sum(rec["span_ms"] * f for rec, f in zip(ops, factors)) / 1e3


def end_to_end(args, children, info) -> tuple[dict, list[str], tuple[int, int]]:
    setup, raw_setup = [], []
    host = [hostspeed.kernel_ms()]
    for _ in range(SETUP_PROBES):
        ready_s, _ = children.run("--workload", args.workload, "--seed",
                                  str(args.seed), "--setup-only")
        host.append(hostspeed.kernel_ms())
        raw_setup.append(ready_s)
        setup.append(ready_s * hostspeed.factor(host[-2], host[-1]))
    n_passes = max(MIN_PASSES, round(args.seconds / cases.PASS_SECONDS[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    _, out = children.run(*common, "--passes", str(n_passes))
    result = json.loads(out.splitlines()[-1])
    passes = result["passes"]
    first = [rec.get("counters") for rec in passes[0]["ops"]]
    issues = check_passes(result, first)
    attempted, failed = op_stats(result)
    if args.profile:
        _, out = children.run(*common, "--passes", "1", "--profile", args.profile)
        profiled = json.loads(out.splitlines()[-1])
        issues += check_passes(profiled, first)
        info.append(f"cProfile stats of one further pass written to {args.profile}")
        extra = op_stats(profiled)
        attempted, failed = attempted + extra[0], failed + extra[1]
    n_ops = len(passes[0]["ops"])
    adjusted = [adjust(p) for p in passes]
    latencies = [lat for lats, _ in adjusted for lat in lats]
    walls = [wall for _, wall in adjusted]
    tail_ms, tail_pct = tail(latencies)
    raw_latencies = [rec["latency_ms"] for p in passes for rec in p["ops"]]
    raw_walls = [p["wall_s"] for p in passes]
    info.append(f"ops: {n_ops} per pass x {len(passes)} passes; "
                f"op_p50_ms over {len(latencies)} samples; op_tail_ms is "
                f"p{tail_pct:.1f} over {len(latencies)} samples")
    info.append(f"deterministic counters digest: {counters_digest(first)}")
    kernel = host + [ms for p in passes for ms in p["host_ms"]]
    info.append(f"reference kernel (ms): median {statistics.median(kernel):.3f}, "
                f"range {min(kernel):.3f}-{max(kernel):.3f}, against "
                f"{hostspeed.REFERENCE_MS} at the reference speed")
    info.append("setup samples (s): " + " ".join(f"{s:.4f}" for s in setup))
    info.append("pass times (s): " + " ".join(f"{w:.4f}" for w in walls))
    info.append(f"raw, unadjusted: setup_s {statistics.median(raw_setup):.4f}, "
                f"wall_s {statistics.median(raw_walls):.4f}, "
                f"op_p50_ms {statistics.median(raw_latencies):.4f}, "
                f"op_tail_ms {tail(raw_latencies)[0]:.4f}; pass walls (s): "
                + " ".join(f"{w:.4f}" for w in raw_walls))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "ops_per_s": (statistics.median(n_ops / w for w in walls), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
    }
    return metrics, issues, (attempted, failed)


def per_layer(args, children, info) -> tuple[dict, list[str], tuple[int, int]]:
    import tracing
    _, out = children.run("--workload", args.workload, "--seed", str(args.seed),
                          "--passes", str(TRACE_PASSES), "--trace", "1")
    result = json.loads(out.splitlines()[-1])
    plain = {"passes": result["passes"]}
    traced = {"passes": result["traced_passes"]}
    first = [rec.get("counters") for rec in plain["passes"][0]["ops"]]
    issues = check_passes(plain, first) + check_passes(traced, first)

    per_pass = []
    layer_counts = None
    for i, one_pass in enumerate(traced["passes"]):
        delta = one_pass["layer"]
        reported = _total(one_pass["ops"], "evaluations")
        split = sum(delta.get(f"count:{p}_evals", 0) for p in ("grid", "probe", "bisect"))
        if split != reported:
            issues.append(f"traced pass {i}: grid + probe + bisection evaluations "
                          f"{split} != {reported} reported by the scans")
        counts = tracing.deterministic_counters(delta)
        if layer_counts is None:
            layer_counts = counts
        elif counts != layer_counts:
            issues.append(f"traced pass {i}: layer call counts differ from pass 0")
        cli_self = statistics.median(rec["cli_self_ms"] for rec in one_pass["ops"])
        per_pass.append(tracing.layer_metrics(delta, result["maxima"], cli_self))
    # counts repeat exactly (checked above); timings are medians over passes
    metrics = {name: (value if unit in ("count", "bits")
                      else statistics.median(m[name][0] for m in per_pass), unit)
               for name, (value, unit) in per_pass[0].items()}
    ops = plain["passes"][0]["ops"]
    metrics["certify.escalations"] = (_total(ops, "escalations"), "count")
    metrics["riley.terms"] = (_total(ops, "terms"), "count")
    verify = [rec["verify_ms"] for p in plain["passes"] for rec in p["ops"]
              if "verify_ms" in rec]
    metrics["certify.verify_p50_ms"] = (statistics.median(verify) if verify else 0.0,
                                        "ms")
    plain_walls = [adjust(p)[1] for p in plain["passes"]]
    traced_walls = [adjust(p)[1] for p in traced["passes"]]
    plain_wall = statistics.median(plain_walls)
    traced_wall = statistics.median(traced_walls)
    overhead = traced_wall / plain_wall - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    metrics.update({k: tuple(v) for k, v in result["probes"].items()})
    info.append(f"deterministic counters digest: {counters_digest(first)}")
    info.append("untraced pass times (s): " + " ".join(f"{w:.4f}" for w in plain_walls)
                + "; traced: " + " ".join(f"{w:.4f}" for w in traced_walls))
    # the host's speed drifts from pass to pass; an overhead no larger than
    # the untraced passes' own range cannot be told from that drift
    noise = (max(plain_walls) - min(plain_walls)) / plain_wall
    if overhead <= noise:
        info.append(f"trace.overhead_frac {overhead:+.3f} is unresolved: within "
                    f"the untraced pass-to-pass range of {noise:.3f}")
    info.append("traced functions (calls, inclusive s, self s), per pass:")
    delta = traced["passes"][0]["layer"]
    for name in sorted(k[6:] for k in delta if k.startswith("calls:")):
        info.append(f"  {name:40s} {delta['calls:' + name]:8d} "
                    f"{delta.get('incl:' + name, 0):10.4f} {delta['self:' + name]:10.4f}")
    a = op_stats(plain)
    b = op_stats(traced)
    return metrics, issues, (a[0] + b[0], a[1] + b[1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no rileycert package under {PACKAGE.parent}; run from the "
              "root of a checkout", file=sys.stderr)
        return 1
    children = Children(time.monotonic() + RUN_LIMIT_S)
    info = []
    env = environment(args)
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, issues, (attempted, failed) = measure(args, children, info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()
    print("# env " + json.dumps(env, sort_keys=True))
    for line in info:
        print("# " + line)
    for issue in issues[:20]:
        print("# FAILED " + issue)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not issues,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
