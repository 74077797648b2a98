"""The package's value classes: namedtuple subclasses that validate in
__new__, refuse attribute assignment, and compare by value; those whose
fields all hash also hash by value."""

import pytest

from rileycert.certify import RootCertificate, ScanReport
from rileycert.dyadic import Dyadic
from rileycert.knots import (K_MAX, L_MAX, M_MAX, P_MAX, DoubleTwistKnot, KlKnot,
                             RunSeq, SignSequence, TwoBridgeFraction, Word)
from rileycert.riley import RileyPolynomial, riley_kl


def samples():
    """One instance of each of the nine value classes."""
    cert = RootCertificate(knot="J:1,2", n=5, a=Dyadic(5, -1), b=Dyadic(3), sign_a=1,
                           sign_b=-1, precision=128, y_max=64, poly_hash="0" * 64)
    return [TwoBridgeFraction(5, 3), DoubleTwistKnot(1, 2), KlKnot(3),
            SignSequence((1, -1), 3, 1), RunSeq((1, -1), 3, 1), Word("abAB"),
            cert, ScanReport("certified", cert, {"nodes": 1}), riley_kl(2)]


def test_there_is_one_sample_per_value_class():
    assert len({type(v) for v in samples()}) == 9


@pytest.mark.parametrize("value", samples(), ids=lambda v: type(v).__name__)
def test_value_classes_are_immutable_values(value):
    cls = type(value)
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(value, first, getattr(value, first))
    with pytest.raises(AttributeError):
        value.extra = 1
    twin = cls(*value)
    assert twin == value and twin is not value
    # a ScanReport's trace is a dict and a RootCertificate's bracket ends are
    # Dyadic, which defines no hash, so neither has one
    if cls in (ScanReport, RootCertificate):
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(twin) == hash(value)
    assert repr(twin).startswith(f"{cls.__name__}({first}=")


VALIDATION = [
    (lambda: TwoBridgeFraction(4, 3), "p must be a positive odd integer, got 4"),
    (lambda: TwoBridgeFraction(P_MAX + 2, 3), f"p must be at most {P_MAX}, got {P_MAX + 2}"),
    (lambda: TwoBridgeFraction(5, 7), "q must satisfy 0 < q < p, got 7"),
    (lambda: TwoBridgeFraction(5, 2), "q must be odd, got 2"),
    (lambda: TwoBridgeFraction(9, 3), "p and q must be coprime, got (9, 3)"),
    (lambda: DoubleTwistKnot(0, 2), f"k must lie in 1..{K_MAX}, got 0"),
    (lambda: DoubleTwistKnot(1, -1), f"|m| must lie in 2..{M_MAX}, got -1"),
    (lambda: KlKnot(L_MAX + 1), f"l must lie in 2..{L_MAX}, got {L_MAX + 1}"),
    (lambda: SignSequence((1, 0), 3, 1), "signs must be +1 or -1"),
    (lambda: RunSeq((2, 0), 3, 1), "zero-length run"),
    (lambda: RunSeq((1, 2), 3, 1), "runs must alternate in sign"),
    # _replace builds through __new__, so it validates as construction does
    (lambda: TwoBridgeFraction(5, 3)._replace(q=2), "q must be odd, got 2"),
    (lambda: DoubleTwistKnot(1, 2)._replace(m=1), f"|m| must lie in 2..{M_MAX}, got 1"),
    (lambda: KlKnot(3)._replace(l=1), f"l must lie in 2..{L_MAX}, got 1"),
    (lambda: SignSequence((1, -1), 3, 1)._replace(signs=(2,)), "signs must be +1 or -1"),
    (lambda: RunSeq((1, -1), 3, 1)._replace(runs=(0,)), "zero-length run"),
    (lambda: Word("abc"), "unknown letter 'c'"),
    (lambda: Word("ab")._replace(text="x"), "unknown letter 'x'"),
]


@pytest.mark.parametrize("make, message", VALIDATION)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_keyword_construction_and_replace():
    assert TwoBridgeFraction(q=3, p=5) == TwoBridgeFraction(5, 3)
    assert TwoBridgeFraction(5, 3)._replace(p=7) == TwoBridgeFraction(7, 3)


def test_word_product_is_a_word():
    w = Word("ab") * Word("bA")
    assert type(w) is Word and w.text == "abbA"
    empty = Word("ab") * Word("BA")
    assert type(empty) is Word and empty.text == ""
    # _make, and so _replace, reduce as construction does
    assert Word("ab")._replace(text="aAb") == Word._make(["b"]) == Word("b")


def test_scan_report_trace_is_required():
    with pytest.raises(TypeError):
        ScanReport("inconclusive", None)
    assert ScanReport("inconclusive", None, {}).trace == {}


def test_riley_polynomial_caches_its_hash():
    phi = riley_kl(2)
    assert "content_hash" not in phi.__dict__
    assert phi.content_hash == phi.poly.content_hash()
    assert phi.__dict__["content_hash"] == phi.content_hash
    with pytest.raises(AttributeError):
        phi.content_hash = "0" * 64
    # the cache is no field: equality and hashing see the fields alone
    fresh = RileyPolynomial(*phi)
    assert fresh == phi and hash(fresh) == hash(phi)
