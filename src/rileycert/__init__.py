"""Riley polynomials of two-bridge knots and machine-checkable certificates
that cyclic branched covers are left-orderable, via bracketed roots y_n > 2
of phi_K(2cos(pi/n), y)."""

__version__ = "0.1.0"

from .dyadic import Dyadic, DyadicInterval  # noqa: E402
from .polyring import SYPoly, XYPoly, eval_interval, symmetric_rewrite  # noqa: E402
from .chebyshev import cheb_eval, cheb_poly  # noqa: E402
from .knots import (DoubleTwistKnot, KlKnot, TwoBridgeFraction, Word,  # noqa: E402
                    hm_reduce, kl_fraction, run_length, sign_sequence,
                    word_double_twist, word_from_signs, word_kl)
from .riley import (RileyPolynomial, alpha_dt, lambda_dt, riley_double_twist,  # noqa: E402
                    riley_for_knot, riley_generic, riley_kl)
from .certify import (MalformedCertificate, RootCertificate, ScanReport,  # noqa: E402
                      find_root_gt2, verify_certificate, xn_enclosure)

__all__ = [
    "Dyadic", "DyadicInterval",
    "SYPoly", "XYPoly", "eval_interval", "symmetric_rewrite",
    "cheb_eval", "cheb_poly",
    "DoubleTwistKnot", "KlKnot", "TwoBridgeFraction", "Word",
    "hm_reduce", "kl_fraction", "run_length", "sign_sequence",
    "word_double_twist", "word_from_signs", "word_kl",
    "RileyPolynomial", "alpha_dt", "lambda_dt", "riley_double_twist",
    "riley_for_knot", "riley_generic", "riley_kl",
    "MalformedCertificate", "RootCertificate", "ScanReport", "find_root_gt2",
    "verify_certificate", "xn_enclosure",
]
