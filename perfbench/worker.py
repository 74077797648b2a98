"""One fresh interpreter that runs one workload; run.py starts it.

It prints `READY` once the package is imported and the op list is built
(run.py times interpreter start to that line as set-up), then, unless
--setup-only is given, runs passes over the op list and prints one JSON
line with the raw samples.  Every op starts with the package's caches
cleared, as a separate CLI process would, so an op's cost does not depend
on the ops before it and passes repeat the same work.

With --trace 1 the untraced passes alternate with traced ones (untraced,
traced, traced, untraced, ...), the tracing wrappers being installed for
each traced pass and removed after it, so that both sides of the
tracing overhead are measured in one interpreter over the same stretch of
time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cases  # noqa: E402  (perfbench/ is sys.path[0] when run as a script)
import hostspeed  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=cases.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--passes", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--profile", help="write cProfile stats of the passes here "
                   "(untraced only)")
    return p.parse_args(argv)


class Checker:
    """Runs one op through the CLI and checks it against its oracle."""

    def __init__(self, mods, reference, ops):
        self.mods = mods
        self.reference = reference
        self.tracer = None
        # phi for the independent re-check of each certificate, built once
        # here, before any tracing is installed and outside the passes
        riley_for_knot, parse = mods["riley"].riley_for_knot, mods["cli"].parse_knot_spec
        self.phis = {op.spec: riley_for_knot(parse(op.spec))
                     for op in ops if op.kind == "certified"}
        # the original lru_cache objects, whose cache_clear tracing would hide
        dyadic, riley = mods["dyadic"], mods["riley"]
        self.xn_caches = (dyadic.two_cos_pi_ratio, dyadic.pi_bounds,
                          dyadic.sqrt_enclosure)
        self.all_caches = self.xn_caches + (riley.kl_named_polys,
                                            riley.generator_images)

    def clear_caches(self):
        for cached in self.all_caches:
            cached.cache_clear()

    def run(self, op) -> dict:
        self.clear_caches()
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        lib0 = tracer.top_s if tracer else 0.0
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.mods["cli"].main(list(op.argv))
        except Exception as exc:  # an op that crashes counts as failed
            code, crash = None, f"raised {type(exc).__name__}: {exc}"
        else:
            crash = None
        latency = time.perf_counter() - t0
        rec = {"latency_ms": latency * 1e3}
        if tracer:
            rec["cli_self_ms"] = (latency - (tracer.top_s - lib0)) * 1e3
        try:
            problem = crash or getattr(self, "_check_" + op.kind.replace("-", "_"))(
                op, code, out.getvalue(), rec)
        except (ValueError, KeyError, TypeError) as exc:  # malformed output
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            rec["problem"] = (f"{' '.join(op.argv)}: exit {code}: {problem}; "
                              f"stderr {err.getvalue().strip()[:200]!r}")
        return rec

    def _check_certified(self, op, code, out, rec):
        payload = json.loads(out)
        trace = payload["trace"]
        rec["counters"] = {"evaluations": trace["evaluations"],
                           "escalations": trace["precision_escalations"]}
        if code != 0 or payload["status"] != "certified":
            return f"expected a certificate, got {payload['status']}"
        certify = self.mods["certify"]
        phi = self.phis[op.spec]
        for cached in self.xn_caches:  # the verifier shares no state with the search
            cached.cache_clear()
        t0 = time.perf_counter()
        cert = certify.RootCertificate.from_json_dict(payload["certificate"])
        verdict = certify.verify_certificate(cert, phi)
        rec["verify_ms"] = (time.perf_counter() - t0) * 1e3
        rec["counters"]["precision"] = cert.precision
        if not verdict or cert.n != op.n or cert.knot != phi.knot:
            return "certificate does not re-verify from its JSON record"
        return None

    def _check_inconclusive(self, op, code, out, rec):
        payload = json.loads(out)
        trace = payload["trace"]
        rec["counters"] = {"evaluations": trace["evaluations"],
                           "escalations": trace["precision_escalations"],
                           "indefinite": trace["indefinite"],
                           "y_max_reached": trace["y_max_reached"]}
        if code != 2 or payload["certificate"] is not None:
            # criterion 9: a certificate here needs manual review
            return "expected an inconclusive scan without a certificate"
        return None

    def _check_fraction(self, op, code, out, rec):
        payload = json.loads(out)
        rec["counters"] = {"terms": len(payload["terms"])}
        terms, digest = self.reference[op.spec]
        if code != 0 or payload["hash"][:len(digest)] != digest \
                or len(payload["terms"]) != terms:
            return "polynomial differs from the recorded reference"
        return None

    def _check_cross_check(self, op, code, out, rec):
        problem = self._check_fraction(op, code, out, rec)
        if problem is None and json.loads(out).get("cross_check") != "ok":
            problem = "engines disagree"
        return problem


def run_pass(checker, ops, tracer=None) -> dict:
    """One pass over the ops; traced when a tracer is given."""
    gc.collect()
    if tracer:
        tracer.install()
        checker.tracer = tracer
        snap0 = tracer.snapshot()
    # the reference kernel runs before the first op and after every op; a
    # span is one op with its check, and the pass time is the sum of spans
    host_ms = [hostspeed.kernel_ms()]
    records = []
    for op in ops:
        t0 = time.perf_counter()
        rec = checker.run(op)
        rec["span_ms"] = (time.perf_counter() - t0) * 1e3
        records.append(rec)
        host_ms.append(hostspeed.kernel_ms())
    result = {"wall_s": sum(rec["span_ms"] for rec in records) / 1e3,
              "host_ms": host_ms, "ops": records}
    if tracer:
        snap1 = tracer.snapshot()
        tracer.uninstall()
        checker.tracer = None
        result["layer"] = {k: v - snap0.get(k, 0) for k, v in snap1.items()}
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    from rileycert import certify, chebyshev, cli, dyadic, knots, polyring, riley
    import rileycert
    mods = {"rileycert": rileycert, "cli": cli, "riley": riley, "knots": knots,
            "chebyshev": chebyshev, "polyring": polyring, "dyadic": dyadic,
            "certify": certify}
    reference = cases.load_reference() if args.workload == "riley" else {}
    ops = cases.build_ops(args.workload, args.seed, reference)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    checker = Checker(mods, reference, ops)
    result = {"ops": [" ".join(op.argv) for op in ops]}
    if args.trace:
        import tracing
        tracer = tracing.Tracer(mods)
        passes, traced = [], []
        for i in range(args.passes):
            # ABBA order, so neither side always runs first
            pair = [passes, traced] if i % 2 == 0 else [traced, passes]
            for side in pair:
                side.append(run_pass(checker, ops, tracer if side is traced else None))
        result.update(passes=passes, traced_passes=traced, maxima=dict(tracer.maxima),
                      probes=tracing.dyadic_probes(
                          dyadic, certify.xn_enclosure,
                          (dyadic.two_cos_pi_ratio, dyadic.pi_bounds), args.seed))
    else:
        profiler = None
        if args.profile:
            import cProfile
            profiler = cProfile.Profile()
            profiler.enable()
        result["passes"] = [run_pass(checker, ops) for _ in range(args.passes)]
        if profiler:
            profiler.disable()
            profiler.dump_stats(args.profile)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
