import functools
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from rileycert import cli, riley
from rileycert.certify import MAX_Y_MAX_CAP, RootCertificate, verify_certificate
from rileycert.cli import MAX_N_MAX, main, parse_knot_spec
from rileycert.knots import (K_MAX, L_MAX, M_MAX, P_MAX, DoubleTwistKnot, KlKnot,
                             TwoBridgeFraction)
from rileycert.riley import riley_for_knot

from poly_oracle import XY

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_knot_spec(capsys):
    assert parse_knot_spec("J:1,2") == DoubleTwistKnot(1, 2)
    assert parse_knot_spec("J:2,-3") == DoubleTwistKnot(2, -3)
    assert parse_knot_spec("Kl:4") == KlKnot(4)
    assert parse_knot_spec("17/7") == TwoBridgeFraction(17, 7)
    for bad in ("X:1", "J:1", "Kl:x", "4/2", "J:0,2"):
        with pytest.raises(Exception):
            parse_knot_spec(bad)
    # the wrong number of parts names the expected form
    for option, spec, form in (("--knot", "J:1", "J:k,m"), ("--knot", "J:1,2,3", "J:k,m"),
                               ("--fraction", "5/3/1", "p/q")):
        with pytest.raises(cli.CliError, match=f"invalid knot spec .* \\(expected {form}\\)"):
            parse_knot_spec(spec)
        code, out, err = run(capsys, "riley", option, spec)
        assert (code, out) == (1, "")
        assert err == f"error: invalid knot spec {spec!r} (expected {form})\n"
    # int() also reads fullwidth and Arabic-Indic digits, '_' and
    # surrounding whitespace; each part must be ASCII -?[0-9]+
    for text in ("\uff11", "\u0663", "6_4", " 3", "3\n", "+3", "", "\u00b2"):
        for spec in (f"J:{text},4", f"J:1,{text}", f"Kl:{text}", f"{text}/3", f"5/{text}"):
            with pytest.raises(cli.CliError, match="invalid knot spec"):
                parse_knot_spec(spec)


def test_riley_output_deterministic(capsys):
    code1, out1, _ = run(capsys, "riley", "--knot", "J:1,2")
    code2, out2, _ = run(capsys, "riley", "--knot", "J:1,2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "hash: " in out1
    code3, out3, _ = run(capsys, "riley", "--knot", "J:1,2",
                         "--format", "structured")
    assert code3 == 0
    payload = json.loads(out3)
    assert payload["hash"] == riley_for_knot(DoubleTwistKnot(1, 2)).content_hash
    assert payload["terms"] == riley_for_knot(DoubleTwistKnot(1, 2)).poly.triples()


RILEY_FAMILY = [f"J:{k},{m}" for k in range(1, 5)
                for m in (-6, -5, -4, -3, -2, 2, 3, 4, 5, 6)]
RILEY_FAMILY += [f"Kl:{l}" for l in range(2, 7)]


@pytest.mark.parametrize("argv", [
    *(("--knot", spec, *cross) for spec in RILEY_FAMILY for cross in ((), ("--cross-check",))),
    # 127/33 and 149/51 are the largest fractions of the benchmark's riley workload
    *(("--fraction", spec) for spec in ("5/3", "17/7", "37/13", "87/31", "127/33", "149/51")),
], ids=" ".join)
def test_structured_riley_bytes_are_jsons_own(capsys, argv):
    # cli renders the terms array itself; its bytes must be those of
    # json.dumps(sort_keys=True, indent=2) on the same payload
    code, out, err = run(capsys, "riley", *argv, "--format", "structured")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    phi = riley_for_knot(parse_knot_spec(argv[1]))
    assert payload == {"knot": phi.knot, "presentation": phi.presentation,
                       "terms": phi.poly.triples(), "hash": phi.content_hash,
                       **({"cross_check": "ok"} if "--cross-check" in argv else {})}


def test_riley_cross_check(capsys):
    code, out, _ = run(capsys, "riley", "--knot", "Kl:2", "--cross-check")
    assert code == 0
    assert "cross-check: ok" in out


def test_riley_cross_check_on_a_fraction_fails_first(capsys, monkeypatch):
    # the option is refused before any polynomial is built
    def engine(*args, **kwargs):
        raise AssertionError("the Riley engine ran")

    monkeypatch.setattr(cli, "riley_for_knot", engine)
    code, out, err = run(capsys, "riley", "--fraction", "151/57", "--cross-check")
    assert (code, out) == (1, "")
    assert err == "error: --cross-check applies to family knots (J:k,m or Kl:l)\n"


@pytest.mark.parametrize("argv", [
    ("riley", "--fraction", f"{P_MAX + 2}/3"),
    ("riley", "--fraction", "1000001/3"),
    ("signs", "--fraction", f"{P_MAX + 2}/3"),
    ("certify", "--fraction", f"{P_MAX + 2}/3", "--n", "2"),
    ("riley", "--knot", f"J:{K_MAX + 1},2", "--cross-check"),
    ("riley", "--knot", f"J:1,{M_MAX + 1}"),
    ("lo-set", "--knot", f"J:1,{-M_MAX - 1}", "--n-max", "3"),
    ("riley", "--knot", f"Kl:{L_MAX + 1}", "--cross-check"),
])
def test_knot_parameters_past_the_limits_fail_first(capsys, monkeypatch, argv):
    # refused when the spec is parsed, before any polynomial is built
    def engine(*args, **kwargs):
        raise AssertionError("the Riley engine ran")

    monkeypatch.setattr(cli, "riley_for_knot", engine)
    monkeypatch.setattr(cli, "sign_sequence", engine)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid knot spec")
    assert "must be at most" in err or "must lie in" in err


@pytest.mark.parametrize("argv", [
    ("certify", "--knot", "J:\uff11,\uff14", "--n", "3"),
    ("certify", "--knot", "J:1,4", "--n", "\u0663"),
    ("certify", "--knot", "J:1,4", "--n", "3", "--ymax-cap", "6_4"),
    ("certify", "--knot", "J:1,4", "--n", " 3"),
    ("lo-set", "--knot", "J:1,4", "--n-max", "\u0664"),
    ("lo-set", "--knot", "Kl:\u0663", "--n-max", "4"),
    ("riley", "--fraction", "\u0665/\u0663"),
    ("signs", "--fraction", "5/3 "),
], ids=ascii)
def test_integers_that_are_not_ascii_decimal_fail_first(capsys, monkeypatch, argv):
    def engine(*args, **kwargs):
        raise AssertionError("the Riley engine ran")

    monkeypatch.setattr(cli, "riley_for_knot", engine)
    monkeypatch.setattr(cli, "sign_sequence", engine)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert "invalid knot spec" in err or "invalid integer" in err


def test_riley_fraction(capsys):
    code, out, _ = run(capsys, "riley", "--fraction", "5/3")
    assert code == 0
    assert riley_for_knot(TwoBridgeFraction(5, 3)).content_hash in out


def test_signs_command(capsys):
    code, out, _ = run(capsys, "signs", "--fraction", "17/7")
    assert code == 0
    assert out.strip() == "<2><-2><3><-2><3><-2><2>"
    code, out, _ = run(capsys, "signs", "--fraction", "17/7", "--reduce")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "17/7: <2><-2><3><-2><3><-2><2>"
    assert lines[1] == "3/7: <2>"
    code, out, err = run(capsys, "signs", "--fraction", "4/2")
    assert code == 1
    assert "error" in err
    code, out, err = run(capsys, "signs")
    assert code == 1 and out == ""
    assert "error: the following arguments are required: --fraction" in err


def test_certify_exit_codes_and_payload(capsys):
    code, out, _ = run(capsys, "certify", "--knot", "J:1,4", "--n", "3",
                       "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "certified"
    cert = RootCertificate.from_json_dict(payload["certificate"])
    assert verify_certificate(cert, riley_for_knot(DoubleTwistKnot(1, 4)))
    # at the default cap of 2**16: the isolation drops the whole window at
    # once, where a walk proportional to the cap would take seconds
    code, out, _ = run(capsys, "certify", "--knot", "J:1,2", "--n", "2")
    assert code == 2
    assert "inconclusive" in out and "searched y <= 65536" in out
    code, out, _ = run(capsys, "certify", "--knot", "Kl:3", "--n", "4")
    assert code == 0


@pytest.mark.parametrize("argv, knot", [
    # a root near y = 2.0075, closer to 2 than any fixed grid step
    (("certify", "--fraction", "37/25", "--n", "3", "--ymax-cap", "64"),
     TwoBridgeFraction(37, 25)),
])
def test_certify_close_roots_and_low_precision(capsys, argv, knot):
    code, out, err = run(capsys, *argv, "--format", "structured")
    payload = json.loads(out)
    assert (code, err, payload["status"]) == (0, "", "certified")
    cert = RootCertificate.from_json_dict(payload["certificate"])
    assert verify_certificate(cert, riley_for_knot(knot))


def test_certify_structured_deterministic(capsys):
    args = ("certify", "--knot", "Kl:4", "--n", "3", "--format", "structured")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_lo_set(capsys):
    code, out, _ = run(capsys, "lo-set", "--knot", "Kl:4", "--n-max", "6",
                       "--ymax-cap", "64", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    statuses = {n: payload["reports"][n]["status"] for n in payload["reports"]}
    assert statuses == {"2": "inconclusive", "3": "certified",
                        "4": "certified", "5": "certified", "6": "certified"}
    code, out, _ = run(capsys, "lo-set", "--knot", "J:1,3", "--n-max", "5",
                       "--ymax-cap", "64")
    assert code == 0
    assert "n=4: certified" in out and "n=3: inconclusive" in out
    # deterministic, and every certificate verifies on its own
    argv = ("lo-set", "--knot", "J:1,-3", "--n-max", "5", "--ymax-cap", "64",
            "--format", "structured")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    reports = json.loads(out1)["reports"]
    # m <= -3: certified from n = 3 on
    assert {n: r["status"] for n, r in reports.items()} == {
        "2": "inconclusive", "3": "certified", "4": "certified", "5": "certified"}
    phi = riley_for_knot(DoubleTwistKnot(1, -3))
    for n in ("3", "4", "5"):
        cert = RootCertificate.from_json_dict(reports[n]["certificate"])
        assert cert.n == int(n)
        assert verify_certificate(cert, phi)


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS  ") for line in lines[:7])
    assert lines[7] == "selftest: all checks passed"


@pytest.mark.parametrize("slip", ["lambda", "alpha", "beta"])
def test_selftest_detects_a_slip_in_each_transcription(capsys, monkeypatch, slip):
    # lambda comes from the trace of C, alpha and beta from R_12 of D and
    # of C^-1 D: a slip in any one must make the cross-check fail
    named = list(riley.kl_named_polys())
    k = ("lambda", "alpha", "beta").index(slip)
    named[k] = XY.of(named[k]) + 1
    monkeypatch.setattr(riley, "kl_named_polys", lambda: tuple(named))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    assert "FAIL  K_l named polynomials vs engine" in out


@pytest.mark.parametrize("slip", [(2, 1, 1), (0, 3, -1), (4, 1, 2)])
def test_selftest_detects_a_slip_in_alpha_by_its_derivative(capsys, monkeypatch, slip):
    # a slip in one of alpha's y-terms moves d(alpha)/dy, so the derivative
    # line fails on its own, beside the cross-check with the engine
    lam, alpha, beta = riley.kl_named_polys()
    slipped = XY.of(alpha) + XY.from_terms([slip])
    monkeypatch.setattr(riley, "kl_named_polys", lambda: (lam, slipped, beta))
    code, out, _ = run(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert "FAIL  K_l alpha derivative and discriminant" in lines
    assert "FAIL  K_l named polynomials vs engine" in lines


def test_error_exits(capsys):
    code, _, err = run(capsys, "riley", "--knot", "bogus")
    assert code == 1 and "invalid knot spec" in err
    code, _, err = run(capsys, "certify", "--n", "3")
    assert code == 1
    code, _, err = run(capsys, "riley", "--fraction", "5/3", "--cross-check")
    assert code == 1
    # argparse usage errors must exit 1 (2 is reserved for inconclusive)
    code, _, err = run(capsys, "certify", "--knot", "J:1,2")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "--version")
    assert code == 0
    # a metavar on the command list would rename "argument command"
    code, _, err = run(capsys, "bogus")
    assert code == 1 and "error: argument command: invalid choice: 'bogus'" in err


USAGE_ERRORS = [
    ("certify", "--knot", "J:1,2", "--n", "2", "--ymax", "64"),
    ("certify", "--knot", "J:1,2", "--n", "2", "--prec", "128"),
    ("certify", "--knot", "J:2,3", "--n", "5", "--ymax-cap", "2"),
    ("signs",),
    ("certify", "--knot", "J:1,2", "--n", "2", "--ymax-cap", str(MAX_Y_MAX_CAP + 1)),
    ("lo-set", "--knot", "J:1,2", "--n-max", "3", "--ymax-cap", str(MAX_Y_MAX_CAP << 20)),
    ("lo-set", "--knot", "J:2,3", "--n-max", "5", "--prec", "128"),
    ("signs", "--fraction", "17/7", "--knot", "J:1,2"),
    ("certify", "--knot", "J:2,3", "--n", "1"),
    ("lo-set", "--knot", "J:2,3", "--n-max", "1"),
    ("certify", "--knot", "J:1,3", "--fraction", "5/3", "--n", "5", "--ymax-cap", "64"),
    ("certify", "--n", "5", "--ymax-cap", "64"),
    ("lo-set", "--fraction", "5/3", "--knot", "J:1,3", "--n-max", "3"),
    ("riley", "--knot", "J:1,3", "--fraction", "5/3"),
    ("riley",),
    ("selftest", "--quick"),
    ("lo-set", "--knot", "J:1,2", "--n-max", str(MAX_N_MAX + 1)),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage:") and "error:" in err


def test_knot_takes_only_family_specs(capsys):
    # a fraction goes through --fraction only
    for command in (("certify", "--n", "3", "--ymax-cap", "64"),
                    ("lo-set", "--n-max", "3"), ("riley",)):
        code, out, err = run(capsys, *command, "--knot", "5/3")
        assert code == 1 and out == ""
        assert err == ("error: --knot takes J:k,m or Kl:l; "
                       "give the fraction 5/3 with --fraction\n")


def test_help_lists_the_options(capsys):
    for command in ((), ("riley",), ("signs",), ("certify",), ("lo-set",),
                    ("selftest",)):
        code, out, err = run(capsys, *command, "--help")
        assert code == 0 and err == "" and out.startswith("usage: rileycert")
        if command in (("certify",), ("lo-set",)):
            assert "--ymax-cap" in out and "--prec" not in out


COMMANDS = ("riley", "signs", "certify", "lo-set", "selftest")


def _full_parser_main(argv):
    """main's exit codes and error line around the parser of every command."""
    try:
        args = cli.build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code or 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_ERROR


@pytest.mark.parametrize("argv", [
    *USAGE_ERRORS,
    ("--help",), *((command, "--help") for command in COMMANDS),
    (), ("bogus",), ("Certify",), ("--",),
    ("certify", "--knot", "J:1,2", "--n", "7", "--bogus"),
    ("certify", "--knot", "J:1,2", "--n", "7", "--version"),
    ("--version", "certify"),
    ("certify", "--", "--knot", "J:1,2"),
    ("certify", "--knot", "J:1,2", "--n", "7", "extra"),
    ("riley", "--knot", "J:2,3", "--cross-check", "--format", "structured"),
], ids=ascii)
def test_one_command_parser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    # main parses a named command with that command's parser alone; its
    # help, usage errors, output and exit codes must be those of the parser
    # of every command (compared in process, since argparse's texts differ
    # between versions)
    for columns in ("80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code = _full_parser_main(list(argv))
        expected = (code, *capsys.readouterr())
        assert run(capsys, *argv) == expected


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    # one parser for a named command, not all six; the full parser only
    # when argv[0] is no command, or to report arguments left over
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    for argv, code, parsers in [(("certify", "--knot", "J:1,2", "--n", "2"), 2, 1),
                                (("riley", "--knot", "J:1,2"), 0, 1),
                                *(((command, "--help"), 0, 1) for command in COMMANDS),
                                (("certify", "--knot", "J:1,2", "--n", "2", "extra"), 1, 1 + 6),
                                (("--help",), 0, 6), (("bogus",), 1, 6)]:
        built.clear()
        assert run(capsys, *argv)[0] == code, argv
        assert len(built) == parsers, (argv, built)


def test_main_reads_the_command_from_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["rileycert", "signs", "--fraction", "17/7"])
    assert main() == 0
    assert capsys.readouterr() == ("<2><-2><3><-2><3><-2><2>\n", "")


def test_n_max_limit_itself_is_accepted(capsys, monkeypatch):
    # one scan per n up to the limit; the scan is stubbed, since the 1023
    # real ones take about 30 s
    scanned = []

    def scan(phi, n, **kwargs):
        scanned.append(n)
        return SimpleNamespace(status="inconclusive", certificate=None, trace={},
                               certified=False)

    monkeypatch.setattr(cli, "find_root_gt2", scan)
    code, out, err = run(capsys, "lo-set", "--knot", "J:1,2", "--n-max", str(MAX_N_MAX),
                         "--format", "structured")
    assert (code, err) == (0, "")
    assert scanned == list(range(2, MAX_N_MAX + 1))
    assert len(json.loads(out)["reports"]) == MAX_N_MAX - 1


def test_ymax_cap_limit_itself_is_accepted(capsys):
    # the root node of the isolation is then 2**20 wide
    code, _, err = run(capsys, "certify", "--knot", "J:2,3", "--n", "5",
                       "--ymax-cap", str(MAX_Y_MAX_CAP))
    assert code == 0 and err == ""


ENV_PROBES = (("--version",), ("selftest",),
              ("certify", "--knot", "J:2,3", "--n", "5", "--format", "structured"))


def _run_cli(argv, extra_env):
    env = {key: value for key, value in os.environ.items()
           if key != "RILEYCERT_PREC"}
    env.update(extra_env, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-m", "rileycert.cli", *argv],
                          env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


@functools.cache
def _run_cli_plain(argv):
    return _run_cli(argv, {})


@pytest.mark.parametrize("value", ["abc", "0", "4097", ""])
def test_bad_precision_environment_variable(value):
    # the starting precision is a constant: RILEYCERT_PREC must change
    # nothing, even when it is not a valid precision
    for argv in ENV_PROBES:
        assert _run_cli(argv, {"RILEYCERT_PREC": value}) == _run_cli_plain(argv), argv


# Hostile argv values: integers of 4,299 to 5,000 digits (past the 4,300 of
# int()'s limit too), other Unicode digits, small integers and junk.  Each
# option is about as often a valid small value, so that calls get past the
# parser and reach the commands; a knot spec is one of these values, or two
# joined after a family prefix.
_HUGE = st.tuples(st.sampled_from(["", "-"]), st.sampled_from([4299, 4300, 4301, 5000]),
                  st.sampled_from("17")).map(lambda t: t[0] + t[2] * t[1])
_VALUES = st.one_of(_HUGE, st.text(st.characters(categories=["Nd"]), min_size=1, max_size=3),
                    st.integers(-3, 6).map(str), st.text(max_size=5),
                    st.sampled_from(["", " 3", "+3", "3_0", "0x3", "1e3", "\u00b2"]))
_SPECS = _VALUES | st.tuples(st.sampled_from(["J:", "Kl:", ""]), _VALUES,
                             st.sampled_from(["", ",", "/", ",,", "/-"]), _VALUES).map("".join)
_KNOT = (st.sampled_from([("--knot", "J:1,2"), ("--knot", "J:2,-3"), ("--knot", "Kl:3"),
                          ("--fraction", "5/3"), ("--fraction", "27/11")])
         | st.tuples(st.sampled_from(["--knot", "--fraction"]), _SPECS))
_FRACTION = st.sampled_from(["5/3", "27/11", "499/97"]) | _SPECS
_FORMAT = st.lists(st.tuples(st.just("--format"), st.sampled_from(["text", "structured"])
                             | _VALUES), max_size=1)
_INDEX = st.integers(2, 8).map(str) | _VALUES
_YMAX = st.lists(st.tuples(st.just("--ymax-cap"), st.integers(3, 64).map(str) | _VALUES),
                 max_size=1)


def _flat(*parts):
    return [text for part in parts for pair in part for text in pair]


_ARGVS = st.one_of(
    st.builds(lambda k, f, x: ["riley", *k, *_flat(f), *x], _KNOT, _FORMAT,
              st.lists(st.just("--cross-check"), max_size=1)),
    st.builds(lambda s, f, r: ["signs", "--fraction", s, *_flat(f), *r], _FRACTION, _FORMAT,
              st.lists(st.just("--reduce"), max_size=1)),
    st.builds(lambda k, n, y, f: ["certify", *k, "--n", n, *_flat(y, f)],
              _KNOT, _INDEX, _YMAX, _FORMAT),
    st.builds(lambda k, n, y, f: ["lo-set", *k, "--n-max", n, *_flat(y, f)],
              _KNOT, _INDEX, _YMAX, _FORMAT),
    st.builds(lambda extra: ["selftest", *extra], st.lists(_VALUES, max_size=2)))


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_ARGVS)
def test_hostile_argv_exits_cleanly(argv):
    # every call ends in an exit code, 0, 1 or 2, never an exception, and
    # quickly: a value past its limit is refused before any work
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2), (argv, code)
    assert time.perf_counter() - start < 2.0, argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("error: "), argv
