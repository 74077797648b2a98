import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
before = set(sys.modules)
import rileycert
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"rileycert"}))
"""


def test_import_loads_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


# The public API, sorted: a name changes only on purpose, and then here too.
PUBLIC_NAMES = [
    "DoubleTwistKnot", "Dyadic", "DyadicInterval", "KlKnot", "MalformedCertificate",
    "RileyPolynomial", "RootCertificate", "ScanReport", "TwoBridgeFraction",
    "Word", "XYPoly", "alpha_dt", "cheb_eval", "cheb_poly", "eval_interval",
    "find_root_gt2", "hm_reduce", "kl_fraction", "lambda_dt",
    "riley_double_twist", "riley_for_knot", "riley_generic", "riley_kl",
    "run_length", "sign_sequence", "symmetric_rewrite", "verify_certificate",
    "word_double_twist", "word_from_signs", "word_kl", "xn_enclosure",
]


def test_public_names_are_pinned():
    import rileycert
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(rileycert.__all__) == PUBLIC_NAMES
    assert len(set(rileycert.__all__)) == len(rileycert.__all__)
    assert all(hasattr(rileycert, name) for name in PUBLIC_NAMES)


# Modules the CLI's cold start does without: dataclasses (and inspect, which
# it imports) generate code at import, fractions pulls in decimal and
# numbers, and typing is only ever needed by annotations.
COLD_START_ABSENT = ("dataclasses", "inspect", "fractions", "decimal", "numbers", "typing")

CLI_PROBE = f"""
import sys
import rileycert.cli
print(sorted(set({COLD_START_ABSENT!r}) & set(sys.modules)))
"""


def test_cli_cold_start_skips_unused_modules():
    # python -S: site, which may preload typing or re, stays out, so this
    # pins what the package itself imports, by module rather than by time
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-S", "-c", CLI_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


# One polynomial algebra: the program multiplies polynomials only as packed
# integers, so of the package's classes only the dyadic values define + - *,
# and Word its product in the free group on a and b.
ARITHMETIC = {"__add__", "__sub__", "__mul__"}
ARITHMETIC_CLASSES = {("dyadic", "Dyadic"), ("dyadic", "DyadicInterval"), ("knots", "Word")}


def test_no_polynomial_class_defines_arithmetic():
    owners = set()
    for path in sorted((SRC / "rileycert").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = {item.name}
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                else:
                    continue
                if names & ARITHMETIC:
                    owners.add((path.stem, cls.name))
    assert owners == ARITHMETIC_CLASSES


# The verifier shares only x_n's enclosure and exact evaluation with the
# search: these are all the module globals verify_certificate reads, so a
# scan helper, or a P_n built anywhere but in y_rows, fails here.
VERIFIER_GLOBALS = {"HashMismatch", "Dyadic", "DyadicInterval", "xn_enclosure", "y_rows",
                    "eval_interval"}


def test_the_verifier_reads_only_the_shared_kernels():
    tree = ast.parse((SRC / "rileycert" / "certify.py").read_text())
    func = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "verify_certificate")
    # the body only: the annotations are strings under postponed evaluation
    names = [node for stmt in func.body for node in ast.walk(stmt) if isinstance(node, ast.Name)]
    local = {arg.arg for arg in func.args.args} | {
        node.id for node in names if isinstance(node.ctx, ast.Store)}
    loaded = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    assert loaded - local - set(dir(builtins)) == VERIFIER_GLOBALS
