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
    "RileyPolynomial", "RootCertificate", "SYPoly", "ScanReport", "TwoBridgeFraction",
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
