"""Command-line front end: polynomials, sign sequences, certificates.

Exit codes: 0 success/certified, 2 inconclusive, 1 error.  Structured (JSON)
output is the primary interface; the text renderings are derived from it.
No timestamps are emitted, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .certify import (DEFAULT_Y_MAX_CAP, MAX_Y_MAX_CAP, find_root_gt2,
                      verify_certificate)
from .chebyshev import cheb_eval, cheb_poly
from .dyadic import _decimal
from .knots import (DoubleTwistKnot, KlKnot, TwoBridgeFraction, expand,
                    hm_reduce, kl_fraction, run_length, sign_sequence,
                    sign_sequence_raw, word_double_twist, word_from_signs,
                    word_kl)
from .riley import (kl_alpha_derivative_check, kl_cross_check,
                    riley_double_twist, riley_for_knot, riley_generic,
                    riley_kl)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class CliError(ValueError):
    """A CLI argument the program cannot use; exits with EXIT_ERROR."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad arguments; 2 means inconclusive
    here, so usage errors are remapped to the error exit code.  Prefixes of
    options are not expanded, so --ymax is an unknown option, not --ymax-cap."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _int_in_range(lo: int, hi: int | None = None):
    """argparse type: an ASCII decimal integer in [lo, hi] (hi=None: no
    upper limit)."""
    def parse(text: str) -> int:
        try:
            value = _decimal(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            limits = f"{lo}..{hi}" if hi is not None else f">= {lo}"
            raise argparse.ArgumentTypeError(f"{value} is out of range ({limits})")
        return value
    return parse


# Largest `lo-set --n-max`.  lo-set runs one scan per n: at the default cap
# `lo-set --knot J:4,6 --n-max 1024` took 14.4 s on a 2-core x86 host.
MAX_N_MAX = 1024

_cover_index = _int_in_range(2)
_n_max = _int_in_range(2, MAX_N_MAX)
_y_cap = _int_in_range(3, MAX_Y_MAX_CAP)


def parse_knot_spec(text: str):
    """`J:k,m` (meaning J(2k+1, 2m)), `Kl:l`, or a fraction `p/q`, each
    part an ASCII decimal integer."""
    if text.startswith("J:"):
        form, parts, make = "J:k,m", text[2:].split(","), DoubleTwistKnot
    elif text.startswith("Kl:"):
        form, parts, make = "Kl:l", [text[3:]], KlKnot
    elif "/" in text:
        form, parts, make = "p/q", text.split("/"), TwoBridgeFraction
    else:
        raise CliError(f"invalid knot spec {text!r} (expected J:k,m | Kl:l | p/q)")
    if make is not KlKnot and len(parts) != 2:
        raise CliError(f"invalid knot spec {text!r} (expected {form})")
    try:
        return make(*map(_decimal, parts))
    except ValueError as exc:
        raise CliError(f"invalid knot spec {text!r}: {exc}") from exc


def _knot_from_args(args):
    """The knot of --knot (a family spec) or --fraction (a fraction);
    argparse requires exactly one (for `signs`, --fraction)."""
    if getattr(args, "knot", None) is not None:
        knot = parse_knot_spec(args.knot)
        if isinstance(knot, TwoBridgeFraction):
            raise CliError(f"--knot takes J:k,m or Kl:l; give the fraction "
                           f"{args.knot} with --fraction")
        return knot
    if "/" not in args.fraction:
        raise CliError(f"invalid fraction {args.fraction!r}")
    return parse_knot_spec(args.fraction)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def cmd_riley(args) -> int:
    knot = _knot_from_args(args)
    if args.cross_check and isinstance(knot, TwoBridgeFraction):
        raise CliError("--cross-check applies to family knots (J:k,m or Kl:l)")
    phi = riley_for_knot(knot)
    # hashed before the cross-check: malloc then serves the generic route's
    # integers from the megabytes phi's text frees, not from fresh pages
    # (about 0.5 s of 8 s at J:20,20)
    digest = phi.content_hash
    if args.cross_check and riley_for_knot(knot, engine="generic").poly != phi.poly:
        raise CliError("cross-check FAILED: engines disagree")
    if args.format == "text":
        lines = [phi.poly.to_text(), f"hash: {digest}"]
        _emit(args, {}, lines + ["cross-check: ok"] * args.cross_check)
        return EXIT_OK
    payload = {"knot": phi.knot, "presentation": phi.presentation,
               "terms": phi.poly.triples(), "hash": digest}
    _emit(args, payload | ({"cross_check": "ok"} if args.cross_check else {}), [])
    return EXIT_OK


def cmd_signs(args) -> int:
    knot = _knot_from_args(args)
    rs = run_length(sign_sequence(knot))
    chain = [rs]
    if args.reduce:
        while not chain[-1].is_degenerate():
            cur = chain[-1]
            if cur.p // cur.q < 2:
                break
            chain.append(hm_reduce(cur))
    payload = {
        "fraction": knot.spec_string(),
        "runs": list(rs.runs),
        "text": rs.to_text(),
    }
    lines = [rs.to_text()]
    if args.reduce:
        payload["reduction_chain"] = [
            {"fraction": f"{step.p}/{step.q}", "runs": list(step.runs),
             "text": step.to_text()} for step in chain]
        lines = [f"{step.p}/{step.q}: {step.to_text() or '<empty>'}"
                 for step in chain]
    _emit(args, payload, lines)
    return EXIT_OK


def _scan(args, phi, n: int):
    report = find_root_gt2(phi, n, y_max_cap=args.ymax_cap)
    if report.certified and not verify_certificate(report.certificate, phi):
        raise CliError("internal error: fresh certificate failed verification")
    return report


def _report_payload(report) -> dict:
    return {
        "status": report.status,
        "certificate": (report.certificate.to_json_dict()
                        if report.certificate else None),
        "trace": report.trace,
    }


def cmd_certify(args) -> int:
    knot = _knot_from_args(args)
    phi = riley_for_knot(knot)
    report = _scan(args, phi, args.n)
    payload = {"knot": phi.knot, "n": args.n, **_report_payload(report)}
    if report.certified:
        cert = report.certificate
        lines = [f"{phi.knot} n={args.n}: certified",
                 f"bracket: ({float(cert.a)!r}, {float(cert.b)!r})",
                 f"signs: {'+' if cert.sign_a > 0 else '-'}"
                 f" / {'+' if cert.sign_b > 0 else '-'}",
                 f"precision: {cert.precision} bits",
                 json.dumps(cert.to_json_dict(), sort_keys=True)]
        _emit(args, payload, lines)
        return EXIT_OK
    lines = [f"{phi.knot} n={args.n}: inconclusive "
             f"(searched y <= {report.trace['y_max_reached']}; "
             "this does NOT assert absence of a root or non-left-orderability)"]
    _emit(args, payload, lines)
    return EXIT_INCONCLUSIVE


def cmd_lo_set(args) -> int:
    knot = _knot_from_args(args)
    phi = riley_for_knot(knot)
    reports = {}
    for n in range(2, args.n_max + 1):
        reports[n] = _scan(args, phi, n)
    payload = {"knot": phi.knot, "poly_hash": phi.content_hash,
               "reports": {str(n): _report_payload(r) for n, r in reports.items()}}
    certified = [n for n, r in reports.items() if r.certified]
    lines = [f"certified left-orderable covers of {phi.knot}: "
             + (", ".join(f"n={n}" for n in certified) or "none found")]
    lines += [f"  n={n}: {r.status}" for n, r in reports.items()]
    _emit(args, payload, lines)
    return EXIT_OK


def _selftest_checks():
    yield ("chebyshev endpoint values",
           lambda: all(cheb_eval(n, 2) == n + 1
                       and cheb_eval(n, -2) == (-1) ** n * (n + 1)
                       for n in range(80)))
    yield ("chebyshev recurrence expansion",
           lambda: cheb_poly(5) == (0, 3, 0, -4, 0, 1))

    def signs_suite():
        for s in range(1, 11):
            f = TwoBridgeFraction(10 * s + 7, 4 * s + 3)
            rs = run_length(sign_sequence(f))
            if rs.runs != (2, -2) + (3, -2) * (2 * s) + (2,):
                return False
            if expand(hm_reduce(rs)).signs != sign_sequence_raw(f.p - 2 * f.q, f.q):
                return False
        return True

    yield ("sign-sequence closed form and reduction", signs_suite)
    yield ("K_l word synthesis",
           lambda: all(word_kl(KlKnot(l))
                       == word_from_signs(sign_sequence(kl_fraction(KlKnot(l))))
                       for l in range(2, 7)))
    yield ("K_l named polynomials vs engine", kl_cross_check)
    yield ("K_l alpha derivative and discriminant", kl_alpha_derivative_check)

    def engine_equivalence():
        for k in (1, 2):
            w, _ = word_double_twist(DoubleTwistKnot(k, 2))
            for m in (2, -2, 3):
                if riley_generic(w, m).poly != riley_double_twist(k, m).poly:
                    return False
        return all(riley_for_knot(KlKnot(l), engine="generic").poly
                   == riley_kl(l).poly for l in (2, 3))

    yield ("engine equivalence (closed forms vs matrix words)", engine_equivalence)


def cmd_selftest(args) -> int:
    failures = 0
    for name, check in _selftest_checks():
        ok = check()
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    if failures:
        print(f"selftest: {failures} check(s) FAILED")
        return EXIT_ERROR
    print("selftest: all checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rileycert",
        description="Riley polynomials of two-bridge knots and rigorous "
                    "left-orderability certificates for cyclic branched covers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fraction_help = "two-bridge fraction p/q (p odd, q odd, 0<q<p)"

    def add_knot_args(p):
        knot = p.add_mutually_exclusive_group(required=True)
        knot.add_argument("--knot",
                          help="family spec: J:k,m for J(2k+1,2m), or Kl:l")
        knot.add_argument("--fraction", help=fraction_help)
        p.add_argument("--format", choices=("text", "structured"), default="text")

    p_riley = sub.add_parser("riley", help="print a Riley polynomial")
    add_knot_args(p_riley)
    p_riley.add_argument("--cross-check", action="store_true",
                         help="also run the generic matrix-word engine and compare")
    p_riley.set_defaults(func=cmd_riley)

    p_signs = sub.add_parser("signs", help="print the sign sequence of a fraction")
    p_signs.add_argument("--fraction", required=True, help=fraction_help)
    p_signs.add_argument("--format", choices=("text", "structured"), default="text")
    p_signs.add_argument("--reduce", action="store_true",
                         help="print the reduction chain down to a base case")
    p_signs.set_defaults(func=cmd_signs)

    def add_scan_args(p):
        p.add_argument("--ymax-cap", type=_y_cap, default=DEFAULT_Y_MAX_CAP,
                       help="end of the searched window (2 + 2^-64, ymax-cap], 3.."
                            f"{MAX_Y_MAX_CAP} (default {DEFAULT_Y_MAX_CAP})")

    p_cert = sub.add_parser("certify",
                            help="certify a root y_n > 2 of phi(x_n, .)")
    add_knot_args(p_cert)
    p_cert.add_argument("--n", type=_cover_index, required=True,
                        help="cover index n >= 2")
    add_scan_args(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_lo = sub.add_parser("lo-set",
                          help="scan n = 2..n-max and report certified covers")
    add_knot_args(p_lo)
    p_lo.add_argument("--n-max", type=_n_max, required=True,
                      help=f"largest cover index, 2..{MAX_N_MAX}")
    add_scan_args(p_lo)
    p_lo.set_defaults(func=cmd_lo_set)

    p_self = sub.add_parser("selftest", help="run the built-in identity suite")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help/--version, or remapped usage errors
        return exc.code or 0
    except ValueError as exc:  # CliError, ReductionInapplicable, bad values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
