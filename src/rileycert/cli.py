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
from .knots import (L_MAX, DoubleTwistKnot, KlKnot, TwoBridgeFraction, expand,
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
# `lo-set --knot J:4,6 --n-max 1024` took 2.7-3.2 s on a 2-core x86 host
# (README.md, three runs).
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
    digest = phi.content_hash
    if args.cross_check and riley_for_knot(knot, engine="generic").poly != phi.poly:
        raise CliError("cross-check FAILED: engines disagree")
    if args.format == "text":
        lines = [phi.poly.to_text(), f"hash: {digest}"]
        _emit(args, {}, lines + ["cross-check: ok"] * args.cross_check)
        return EXIT_OK
    payload = {"knot": phi.knot, "presentation": phi.presentation, "hash": digest}
    if args.cross_check:
        payload["cross_check"] = "ok"
    head = json.dumps(payload, sort_keys=True, indent=2)
    # the bytes of json.dumps(payload | {"terms": phi.poly.triples()},
    # sort_keys=True, indent=2), whose indenting encoder is pure Python:
    # "terms" sorts last, so its array closes the object, one template per
    # term (phi is monic in y, so the array is never empty): an
    # [x_deg, y_deg, "coeff"] triple as json.dumps(indent=2) lays it out
    # there, and a decimal coefficient needs no escaping
    terms = ",".join([f'\n    [\n      {i},\n      {j},\n      "{c}"\n    ]'
                      for (i, j), c in phi.poly.term_map().items()])
    print(f'{head[:-2]},\n  "terms": [{terms}\n  ]\n}}')
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


def _certify_lines(phi, n: int, report) -> list[str]:
    """The text rendering of one scan."""
    cert = report.certificate
    if not report.certified:
        return [f"{phi.knot} n={n}: inconclusive "
                f"(searched y <= {report.trace['y_max_reached']}; "
                "this does NOT assert absence of a root or non-left-orderability)"]
    return [f"{phi.knot} n={n}: certified",
            f"bracket: ({float(cert.a)!r}, {float(cert.b)!r})",
            f"signs: {'+' if cert.sign_a > 0 else '-'}"
            f" / {'+' if cert.sign_b > 0 else '-'}",
            f"precision: {cert.precision} bits",
            json.dumps(cert.to_json_dict(), sort_keys=True)]


def cmd_certify(args) -> int:
    knot = _knot_from_args(args)
    phi = riley_for_knot(knot)
    report = _scan(args, phi, args.n)
    if args.format == "text":
        _emit(args, {}, _certify_lines(phi, args.n, report))
    else:
        _emit(args, {"knot": phi.knot, "n": args.n, **_report_payload(report)}, [])
    return EXIT_OK if report.certified else EXIT_INCONCLUSIVE


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
                       for l in range(2, L_MAX + 1)))
    yield ("K_l named polynomials vs engine", kl_cross_check)
    yield ("K_l alpha derivative and discriminant", kl_alpha_derivative_check)

    def engine_equivalence():
        for k in (1, 2):
            w, _ = word_double_twist(DoubleTwistKnot(k, 2))
            for m in (2, -2, 3):
                if riley_generic(w, m).poly != riley_double_twist(k, m).poly:
                    return False
        # the whole relator word, not the combination riley_kl shares
        return all(riley_generic(word_kl(KlKnot(l))).poly == riley_kl(l).poly
                   for l in (2, 3))

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


_FRACTION_HELP = "two-bridge fraction p/q (p odd, q odd, 0<q<p)"


def _knot_args(p):
    knot = p.add_mutually_exclusive_group(required=True)
    knot.add_argument("--knot", help="family spec: J:k,m for J(2k+1,2m), or Kl:l")
    knot.add_argument("--fraction", help=_FRACTION_HELP)
    p.add_argument("--format", choices=("text", "structured"), default="text")


def _riley_args(p):
    _knot_args(p)
    p.add_argument("--cross-check", action="store_true",
                   help="also run the generic matrix-word engine and compare")


def _signs_args(p):
    p.add_argument("--fraction", required=True, help=_FRACTION_HELP)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--reduce", action="store_true",
                   help="print the reduction chain down to a base case")


def _scan_args(index: str, **index_kwargs):
    """The adder of a scanning command's arguments; `index` is its
    cover-index option."""
    def add(p):
        _knot_args(p)
        p.add_argument(index, required=True, **index_kwargs)
        p.add_argument("--ymax-cap", type=_y_cap, default=DEFAULT_Y_MAX_CAP,
                       help="end of the searched window (2 + 2^-64, ymax-cap], 3.."
                            f"{MAX_Y_MAX_CAP} (default {DEFAULT_Y_MAX_CAP})")
    return add


# name -> (help, argument adder, command), in the order of the usage line
# and of --help
_COMMANDS = {
    "riley": ("print a Riley polynomial", _riley_args, cmd_riley),
    "signs": ("print the sign sequence of a fraction", _signs_args, cmd_signs),
    "certify": ("certify a root y_n > 2 of phi(x_n, .)",
                _scan_args("--n", type=_cover_index, help="cover index n >= 2"),
                cmd_certify),
    "lo-set": ("scan n = 2..n-max and report certified covers",
               _scan_args("--n-max", type=_n_max,
                          help=f"largest cover index, 2..{MAX_N_MAX}"),
               cmd_lo_set),
    "selftest": ("run the built-in identity suite", lambda p: None, cmd_selftest),
}


def _command_args(p, name: str):
    """Give `p` the arguments of command `name`; argparse names a subparser
    `rileycert <name>`, so a standalone parser of that prog is the same."""
    _, add_args, func = _COMMANDS[name]
    add_args(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command.  `main` uses it for -h, --version, a
    missing or unknown command, and to report arguments that a command's
    own parser left over."""
    parser = _Parser(
        prog="rileycert",
        description="Riley polynomials of two-bridge knots and rigorous "
                    "left-orderability certificates for cyclic branched covers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_args(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    """Run one CLI call.  When argv[0] names a command, only that command's
    parser is built, and the full parser only to report arguments left
    over; any other first argument (-h, --version, a bad command, none)
    gets the full parser."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _COMMANDS:
            parser = _Parser(prog="rileycert " + argv[0])
            args, extra = _command_args(parser, argv[0]).parse_known_args(argv[1:])
            if extra:  # the full parser's usage line and message
                build_parser().error("unrecognized arguments: " + " ".join(extra))
        else:
            args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help/--version, or remapped usage errors
        return exc.code or 0
    except ValueError as exc:  # CliError, ReductionInapplicable, bad values
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
