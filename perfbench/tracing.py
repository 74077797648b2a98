"""Per-layer tracing from outside the program, and dyadic micro-probes.

`Tracer.install()` replaces every public module-level function of the
library modules (and a few polynomial methods) with a timing wrapper, in
every rileycert namespace that holds a reference to it.  The program itself
is not edited.  Spans are aggregated in memory per function: calls,
inclusive time (outermost call only, so recursion is not counted twice) and
self time (minus the time of wrapped calls made inside it).

Scan phases are classified from outside: in a scan, an evaluation of phi at
a point of the 1/8 lattice (or at the first grid sample, 2 + 2**-(prec/2))
is a grid evaluation, one before the first grid sample is a witness probe,
and any other is a bisection midpoint.
"""

from __future__ import annotations

import functools
import inspect
import random
import statistics
import time
from collections import defaultdict

LIBRARY_MODULES = ("riley", "knots", "chebyshev", "polyring", "dyadic", "certify")
# polynomial methods on the op path; Dyadic arithmetic is called too often to
# wrap inside the workloads, so the probes time it instead
POLY_METHODS = ("content_hash", "triples")

PROBE_BITS = (128, 512, 4096)
PROBE_REPEATS = 7
# A cold x_7 (pi enclosure plus cosine series in Fractions) takes about 4 ms
# at 128 bits, 0.2 s at 512, 3.6 s at 1024 and 60 s at 2048 bits on a 2-core
# x86 VM, so 4096 bits cannot be timed within one run; 1024 stands in for it.
XN_PROBE = {128: 3, 512: 3, 1024: 1}   # bits -> repeats
XN_PROBE_N = 7


class _Scan:
    __slots__ = ("poly", "min_a", "seen_grid")

    def __init__(self, poly, min_a):
        self.poly, self.min_a, self.seen_grid = poly, min_a, False


class Tracer:
    def __init__(self, rileycert_modules: dict):
        self.mods = rileycert_modules
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.top_s = 0.0          # time in outermost wrapped calls
        self._stack: list[list[float]] = []
        self._active = defaultdict(int)
        self._scan: _Scan | None = None
        self._in_verify = 0
        self._in_witness = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        """Wrap the library; `uninstall` puts the originals back."""
        replacements = {}
        for layer in LIBRARY_MODULES:
            mod = self.mods[layer]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_own_function(obj, mod):
                    continue
                replacements[id(obj)] = self._wrap(f"{layer}.{name}", obj,
                                                   self._hooks(layer, name))
        for mod in self.mods.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replacements:
                    self._originals.append((mod, name, obj))
                    setattr(mod, name, replacements[id(obj)])
        poly = self.mods["polyring"]._SparsePoly
        for meth in POLY_METHODS:
            original = getattr(poly, meth)
            self._originals.append((poly, meth, original))
            setattr(poly, meth, self._wrap(f"polyring.{meth}", original, None))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def _hooks(self, layer: str, name: str):
        return {("polyring", "eval_interval"): self._on_eval,
                ("certify", "find_root_gt2"): self._scan_context,
                ("certify", "verify_certificate"): self._verify_context,
                ("certify", "solve_lambda_witness"): self._witness_context,
                ("certify", "xn_enclosure"): self._on_xn,
                }.get((layer, name))

    def _wrap(self, name: str, fn, hook):
        stack, active = self._stack, self._active
        calls, incl, self_s = self.calls, self.incl, self.self_s
        clock = time.perf_counter

        def call(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += dt - frame[0]
                if not active[name]:
                    incl[name] += dt
                if stack:
                    stack[-1][0] += dt
                else:
                    self.top_s += dt

        if hook is None:
            return functools.wraps(fn)(call)
        return functools.wraps(fn)(hook(call))

    # -- hooks --------------------------------------------------------
    def _on_eval(self, call):
        def eval_interval(p, x, y, *args, **kwargs):
            t0 = time.perf_counter()
            result = call(p, x, y, *args, **kwargs)
            dt = time.perf_counter() - t0
            bits = max(result.lo.m.bit_length(), result.hi.m.bit_length())
            if bits > self.maxima["eval_bits"]:
                self.maxima["eval_bits"] = bits
            scan = self._scan
            if self._in_verify:
                self.counts["verify_evals"] += 1
            elif self._in_witness:
                self.incl["probe_eval_s"] += dt
            elif scan is not None and p is scan.poly:
                y_pt = y.lo
                if y_pt.e >= -3 or y_pt == scan.min_a:
                    phase = "grid"
                    scan.seen_grid = True
                else:
                    phase = "bisect" if scan.seen_grid else "probe"
                self.counts[f"{phase}_evals"] += 1
                self.incl[f"{phase}_eval_s"] += dt
                if result.sign() is None:
                    self.counts["indefinite"] += 1
            return result
        return eval_interval

    def _scan_context(self, call):
        dyadic = self.mods["dyadic"]
        default_prec = self.mods["certify"].DEFAULT_PRECISION

        def find_root_gt2(phi, n, **kwargs):
            prec = kwargs.get("precision", default_prec)
            outer, self._scan = self._scan, _Scan(
                phi.poly, dyadic.Dyadic(2) + dyadic.Dyadic(1, -(prec // 2)))
            try:
                return call(phi, n, **kwargs)
            finally:
                self._scan = outer
        return find_root_gt2

    def _verify_context(self, call):
        def verify_certificate(*args, **kwargs):
            self._in_verify += 1
            try:
                return call(*args, **kwargs)
            finally:
                self._in_verify -= 1
        return verify_certificate

    def _witness_context(self, call):
        def solve_lambda_witness(*args, **kwargs):
            self._in_witness += 1
            try:
                return call(*args, **kwargs)
            finally:
                self._in_witness -= 1
        return solve_lambda_witness

    def _on_xn(self, call):
        def xn_enclosure(n, precision):
            if precision > self.maxima["xn_prec"]:
                self.maxima["xn_prec"] = precision
            return call(n, precision)
        return xn_enclosure

    # -- results ------------------------------------------------------
    def snapshot(self) -> dict:
        """Cumulative totals; per-pass figures are differences of two."""
        out = {"top_s": self.top_s}
        for name, v in self.calls.items():
            out[f"calls:{name}"] = v
        for name, v in self.incl.items():
            out[f"incl:{name}"] = v
        for name, v in self.self_s.items():
            out[f"self:{name}"] = v
        for name, v in self.counts.items():
            out[f"count:{name}"] = v
        return out


def _is_own_function(obj, mod) -> bool:
    target = getattr(obj, "__wrapped__", obj)  # lru_cache keeps the function here
    return inspect.isfunction(target) and target.__module__ == mod.__name__


def layer_metrics(delta: dict, maxima: dict, cli_self_ms: float) -> dict:
    """Per-layer metrics of one pass from a snapshot difference."""
    def get(kind, name):
        return delta.get(f"{kind}:{name}", 0)

    evals = get("calls", "polyring.eval_interval")
    scan_evals = sum(get("count", f"{p}_evals") for p in ("grid", "probe", "bisect"))
    m = {
        "polyring.eval_interval.calls": (evals, "count"),
        "polyring.eval_interval.us_per_call": (
            1e6 * get("incl", "polyring.eval_interval") / evals if evals else 0.0, "us"),
        "polyring.eval_interval.max_bits": (maxima.get("eval_bits", 0), "bits"),
        "certify.evaluations": (scan_evals, "count"),
        "certify.grid_evals": (get("count", "grid_evals"), "count"),
        "certify.probe_evals": (get("count", "probe_evals"), "count"),
        "certify.bisect_evals": (get("count", "bisect_evals"), "count"),
        "certify.grid_s": (get("incl", "grid_eval_s"), "s"),
        "certify.bisect_s": (get("incl", "bisect_eval_s"), "s"),
        "certify.probe_s": (get("incl", "certify.solve_lambda_witness")
                            + get("incl", "probe_eval_s"), "s"),
        "certify.scan_s": (get("incl", "certify.find_root_gt2"), "s"),
        "certify.indefinite_frac": (
            get("count", "indefinite") / scan_evals if scan_evals else 0.0, "ratio"),
        "certify.verify_s": (get("incl", "certify.verify_certificate"), "s"),
        "certify.verify_evals": (get("count", "verify_evals"), "count"),
        "dyadic.xn.calls": (get("calls", "certify.xn_enclosure"), "count"),
        "dyadic.xn_s": (get("incl", "certify.xn_enclosure"), "s"),
        "dyadic.xn.max_prec": (maxima.get("xn_prec", 0), "bits"),
        "riley.build_s": (get("incl", "riley.riley_for_knot"), "s"),
        "riley.generic_s": (get("incl", "riley.riley_generic"), "s"),
        "riley.evaluate_word_s": (get("incl", "riley.evaluate_word"), "s"),
        "riley.closed_form_s": (get("incl", "riley.riley_double_twist")
                                + get("incl", "riley.riley_kl"), "s"),
        "chebyshev.sl2_power_s": (get("incl", "chebyshev.sl2_power"), "s"),
        "polyring.symmetric_rewrite_s": (get("incl", "polyring.symmetric_rewrite"), "s"),
        "polyring.compose_univariate_s": (get("incl", "polyring.compose_univariate"), "s"),
        "polyring.content_hash_s": (get("incl", "polyring.content_hash"), "s"),
        "knots.word_s": (sum(get("incl", f"knots.{name}") for name in
                             ("sign_sequence", "word_from_signs",
                              "word_double_twist", "word_kl")), "s"),
        "cli.self_ms": (cli_self_ms, "ms"),
    }
    for layer in LIBRARY_MODULES:
        m[f"{layer}.self_s"] = (sum(v for k, v in delta.items()
                                    if k.startswith(f"self:{layer}.")), "s")
    return m


def deterministic_counters(delta: dict) -> dict:
    """The traced counters that must repeat exactly from pass to pass."""
    return {k: v for k, v in delta.items() if k.startswith(("calls:", "count:"))}


# -- dyadic layer probes -------------------------------------------------
def _ns_per_op(fn, a, b, loops: int) -> float:
    samples = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            fn(a, b)
        samples.append((time.perf_counter() - t0) / loops * 1e9)
    return statistics.median(samples)


def _random_dyadic(D, rng: random.Random, bits: int):
    """A Dyadic with an odd `bits`-bit mantissa and an exponent in (-bits, 0]."""
    return D(rng.getrandbits(bits) | 1 | (1 << (bits - 1)), -rng.randrange(bits))


def dyadic_probes(dyadic, xn_enclosure, caches, seed: int) -> dict:
    """Time Dyadic / DyadicInterval *, + and round_outward at each width in
    PROBE_BITS, and an x_n enclosure with `caches` cleared at each width in
    XN_PROBE."""
    rng = random.Random(f"probes:{seed}")
    D, DI = dyadic.Dyadic, dyadic.DyadicInterval
    out = {}
    for bits in PROBE_BITS:
        a, b, c = (_random_dyadic(D, rng, bits) for _ in range(3))
        ia = DI(a, a + c)
        ib = DI(-b, b)
        loops = max(200, 400_000 // bits)
        out[f"dyadic.mul_ns.b{bits}"] = (_ns_per_op(D.__mul__, a, b, loops), "ns")
        out[f"dyadic.add_ns.b{bits}"] = (_ns_per_op(D.__add__, a, b, loops), "ns")
        out[f"dyadic.imul_ns.b{bits}"] = (_ns_per_op(DI.__mul__, ia, ib, loops), "ns")
        out[f"dyadic.iadd_ns.b{bits}"] = (_ns_per_op(DI.__add__, ia, ib, loops), "ns")
        wide = ia * ib * ia
        out[f"dyadic.round_ns.b{bits}"] = (
            _ns_per_op(DI.round_outward, wide, bits // 2, loops), "ns")
    for bits, repeats in XN_PROBE.items():
        cold = []
        for _ in range(repeats):
            for cached in caches:
                cached.cache_clear()
            t0 = time.perf_counter()
            xn_enclosure(XN_PROBE_N, bits)
            cold.append((time.perf_counter() - t0) * 1e3)
        out[f"dyadic.xn_cold_ms.b{bits}"] = (statistics.median(cold), "ms")
    return out
