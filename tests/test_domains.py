import time
from fractions import Fraction

import pytest

from retractlab import QQ, ZZ, GF
from retractlab.domains import MAX_MODULUS, Domain


def test_flags():
    assert QQ.is_field and QQ.characteristic == 0
    assert not ZZ.is_field and ZZ.characteristic == 0
    g = GF(7)
    assert g.is_field and g.characteristic == 7


def test_prime_check():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(1)
    GF(2)
    GF(97)


def test_prime_check_large_moduli():
    start = time.perf_counter()
    GF(1000000000000000003)
    GF(2 ** 61 - 1)
    assert time.perf_counter() - start < 1.0
    for composite in (10 ** 18 + 1, 3215031751, 3825123056546413051,
                      1000003 * 1000000007 * 1000000009):
        with pytest.raises(ValueError, match="must be prime"):
            GF(composite)
    # past the range where the Miller-Rabin bases are proven
    with pytest.raises(ValueError, match="too large"):
        GF(MAX_MODULUS)


def test_one_field_per_modulus():
    assert GF(32003) is GF(32003)
    # a rejected modulus is not cached: it raises on every call
    for _ in range(2):
        for bad in (32001, MAX_MODULUS):
            with pytest.raises(ValueError):
                GF(bad)


def test_modulus_must_be_an_int():
    # a float or Fraction modulus would give float or Fraction coefficients
    GF(5)
    for _ in range(2):
        for bad in (5.0, Fraction(5), "5", None):
            with pytest.raises(ValueError, match="must be prime, got "):
                GF(bad)


@pytest.mark.parametrize("c,dom,expected", [
    (1, ZZ, True),
    (2, ZZ, False),
    (-1, ZZ, True),
    (Fraction(2, 3), QQ, True),
    (0, QQ, False),
])
def test_scalar_is_unit(c, dom, expected):
    assert dom.is_unit(dom.coerce(c)) is expected


def test_prime_field_arithmetic():
    g = GF(5)
    assert g.coerce(-1) == 4
    assert g.from_fraction(1, 2) == 3  # 2*3 = 6 = 1 mod 5
    assert g.mul(3, 4) == 2
    assert g.invert(3) == 2


def test_integers_reject_fractions():
    with pytest.raises(ValueError):
        ZZ.from_fraction(1, 2)
    assert ZZ.from_fraction(4, 2) == 2


def test_format_lowest_terms():
    # canonical coefficients print by str
    assert str(QQ.coerce(Fraction(4, 6))) == "2/3"
    assert str(QQ.coerce(Fraction(-4, 2))) == "-2"
    assert str(GF(5).coerce(-1)) == "4"


def test_rationals_canonical_form():
    # int when integral, Fraction otherwise; equal and hashed alike
    for value in (QQ.coerce(Fraction(4, 2)), QQ.from_fraction(6, 3),
                  QQ.add(Fraction(1, 2), Fraction(1, 2)),
                  QQ.mul(Fraction(2, 3), Fraction(3, 2)),
                  QQ.invert(Fraction(1, 5))):
        assert type(value) is int
    assert QQ.sub(Fraction(1, 2), 1) == Fraction(-1, 2)
    assert hash(Fraction(7)) == hash(7) and Fraction(7) == 7
    assert str(QQ.coerce(Fraction(-8, 4))) == "-2"


def test_unit_inverses_keep_the_canonical_type():
    # over QQ, ±1 inverts with no Fraction; an integral inverse is an int
    for a, inverse in ((1, 1), (-1, -1), (Fraction(1), 1), (Fraction(-1), -1),
                       (Fraction(1, 2), 2), (Fraction(-1, 3), -3)):
        got = QQ.invert(a)
        assert got == inverse and type(got) is int, a
    for a, k, value in ((-1, -3, -1), (1, -2, 1), (-1, -2, 1),
                        (Fraction(1, 2), -3, 8)):
        got = QQ.pow(a, k)
        assert got == value and type(got) is int, (a, k)
    assert QQ.invert(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.pow(Fraction(-2, 3), -3) == Fraction(-27, 8)
    # ZZ and GF(p) are unchanged
    assert ZZ.invert(-1) == -1 and ZZ.pow(-1, -3) == -1
    assert GF(5).invert(4) == 4 and GF(5).pow(2, -3) == 2


@pytest.mark.parametrize("call,message", [
    (lambda: Domain("reals"), "unknown domain kind: 'reals'"),
    (lambda: Domain("prime-field", 6),
     "prime-field modulus must be prime, got 6"),
    (lambda: Domain("prime-field", 5.0),
     "prime-field modulus must be prime, got 5.0"),
    (lambda: Domain("rationals", 5),
     "modulus only makes sense for prime fields"),
    (lambda: ZZ.invert(2), "2 is not a unit in ZZ"),
    (lambda: QQ.invert(0), "0 is not a unit in QQ"),
    (lambda: GF(7).invert(0), "0 is not a unit in GF(7)"),
], ids=["kind", "composite", "float-modulus", "stray-modulus", "zz-non-unit",
        "qq-zero", "gf-zero"])
def test_domain_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
