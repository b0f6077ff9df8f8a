import random
from fractions import Fraction

import pytest

from retractlab import (QQ, ZZ, GF, RingSignature, MixedPoly,
                        RingMismatchError, NonUnitError)
from retractlab.endo import identity
from retractlab.intlinalg import IntMatrix
from random_elements import random_element


def ring2():
    return RingSignature(["x1", "x2"], 2, QQ)


def mixed_ring():
    # QQ[x1^±, x2]
    return RingSignature(["x1", "x2"], 1, QQ)


def test_signature_invariants():
    with pytest.raises(ValueError):
        RingSignature(["x", "x"], 0, QQ)
    # the message a repeated header name reports, as the ring checks it
    with pytest.raises(ValueError, match="^duplicate variable name$"):
        RingSignature(("a", "b", "a"), 1, ZZ)
    # a Laurent count of 1.5 would print as QQ[x^±,y^±], and the ring's
    # elements could not be built
    for laurent in (3, -1, 1.5, 1.0, Fraction(1), "1", None):
        with pytest.raises(ValueError, match="^laurent block size "):
            RingSignature(["x", "y"], laurent, QQ)


def test_signature_rejects_names_the_grammar_cannot_read():
    # a name is an ASCII identifier, the one spelling a problem file reads
    for names in (["x^2", "1"], ["x", ""], ["2x"], ["x y"], ["x-1"],
                  ["x*y"], ["\u00e9"], ["x", 1], [None]):
        with pytest.raises(ValueError, match="^bad variable name "):
            RingSignature(names, 0, QQ)
    R = RingSignature(["_", "x_1", "X9", "__a"], 2, ZZ)
    assert R.names == ("_", "x_1", "X9", "__a")


def test_negative_exponent_outside_laurent_block():
    R = mixed_ring()
    with pytest.raises(ValueError):
        R.monomial((0, -1))
    R.monomial((-3, 0))  # fine on the Laurent block


def test_add_examples():
    R = ring2()
    x1 = R.variable(0)
    assert (x1 + (-x1)).is_zero()
    assert x1 + R.constant(1) + x1 == MixedPoly(R, [((1, 0), 2), ((0, 0), 1)])
    inv = R.monomial((-1, 0))
    assert len((inv + x1).terms) == 2


def test_mul_examples():
    R = ring2()
    x1 = R.variable(0)
    assert x1 * R.monomial((-1, 0)) == R.constant(1)
    p = x1 + R.monomial((-1, 0))
    # (x1 + x1^-1)^2 = x1^2 + 2 + x1^-2, expanded by hand
    assert p * p == MixedPoly(R, [((2, 0), 1), ((0, 0), 2), ((-2, 0), 1)])
    assert (R.zero() * p).is_zero()


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ring2().constant(1) + mixed_ring().constant(1)
    # substitute maps only into rings over the source's domain: 1/2·x1
    # under images over GF(5) does not become 3·x1
    R = ring2()
    for other in (GF(5), ZZ):
        S = RingSignature(R.names, 2, other)
        with pytest.raises(RingMismatchError):
            R.monomial((1, 0), Fraction(1, 2)).substitute(
                [S.variable(0), S.variable(1)])
        with pytest.raises(RingMismatchError):
            S.variable(0).substitute([R.variable(0), R.variable(1)])
    # one image per variable, all in one ring
    with pytest.raises(ValueError, match="expected 2 images, got 1"):
        R.variable(0).substitute([R.variable(0)])
    T = RingSignature(["y1", "y2"], 2, QQ)
    with pytest.raises(RingMismatchError, match="images live in different rings"):
        R.variable(0).substitute([R.variable(0), T.variable(1)])


def test_is_unit():
    R = ring2()
    p = R.monomial((-2, 1), 3)
    assert p.is_unit() == (Fraction(3), (-2, 1))
    assert (R.variable(0) + R.constant(1)).is_unit() is None
    M = mixed_ring()
    assert M.variable(1).is_unit() is None  # x2 outside the Laurent block
    assert M.zero().is_unit() is None


def test_invert_unit():
    R = ring2()
    assert R.variable(0) ** -1 == R.monomial((-1, 0))
    assert (R.variable(0) * R.constant(3)) ** -1 == \
        R.monomial((-1, 0), Fraction(1, 3))
    Z = RingSignature(["x1", "x2"], 2, ZZ)
    p = Z.monomial((1, -1), -1)
    assert p ** -1 == Z.monomial((-1, 1), -1)
    with pytest.raises(NonUnitError):
        (R.constant(1) + R.variable(0)) ** -1


def test_substitute_examples():
    M = mixed_ring()
    x1 = M.variable(0)
    img = x1 + M.monomial((-1, 0))
    # x2^2 under x2 -> x1 + x1^-1
    got = M.monomial((0, 2)).substitute([x1, img])
    assert got == MixedPoly(M, [((2, 0), 1), ((0, 0), 2), ((-2, 0), 1)])

    R = ring2()
    p = random_element(R, random.Random(5))
    assert p.substitute([R.variable(0), R.variable(1)]) == p

    # x1^-1 under x1 -> x1*x2
    got = R.monomial((-1, 0)).substitute([R.variable(0) * R.variable(1),
                                          R.variable(1)])
    assert got == R.monomial((-1, -1))


def test_variable_index_in_range():
    R = mixed_ring()
    assert str(R.variable(1)) == "x2"
    for i in (2, 5, -1):
        with pytest.raises(ValueError,
                           match="index %d outside a ring of 2 " % i):
            R.variable(i)


def test_variables_are_built_once_per_ring():
    for R in (mixed_ring(), RingSignature(["a", "b", "c"], 3, GF(5)),
              RingSignature(["t"], 0, ZZ)):
        for i in range(R.n):
            x = R.variable(i)
            e = tuple(int(k == i) for k in range(R.n))
            assert x == MixedPoly(R, [(e, 1)])
            assert x._variable_index() == i
            assert R.variable(i) is x
        images = identity(R).images
        assert len(images) == R.n
        assert all(img is R.variable(i) for i, img in enumerate(images))
        # an equal ring built apart holds its own variables, equal to these
        S = RingSignature(R.names, R.laurent, R.domain)
        for i in range(R.n):
            assert S.variable(i) is not R.variable(i)
            assert S.variable(i) == R.variable(i)
        for i in (R.n, -1):
            with pytest.raises(ValueError, match="outside a ring of"):
                R.variable(i)


def test_substitute_without_variables():
    # a ring of no variables has no images to read a target ring from
    c = RingSignature([], 0, QQ).constant(3)
    assert c.substitute([]) is c


def test_exact_api_rejects_floats():
    # a float would be truncated, or read as its binary value over QQ
    for dom in (QQ, ZZ, GF(5)):
        for value in (2.5, 0.1, 2.0):
            with pytest.raises(ValueError, match="not an exact int"):
                dom.coerce(value)
    R = mixed_ring()
    for exp in ((1.5, 0), (0, 2.0)):
        with pytest.raises(ValueError, match="is not an int"):
            R.monomial(exp)
        with pytest.raises(ValueError, match="is not an int"):
            MixedPoly(R, [(exp, 1)])
    # a float exponent is rejected on a term that cancels or merges too
    for terms in ([((1.5, 0), 1), ((1.5, 0), -1)],
                  [((1, 0), 1), ((1.0, 0), 1)]):
        with pytest.raises(ValueError, match="is not an int"):
            MixedPoly(R, terms)
    with pytest.raises(ValueError, match="not an exact int"):
        MixedPoly(R, [((1, 0), 0.5)])
    # a power takes an int exponent, on one term as on several
    x1, x2 = R.variable(0), R.variable(1)
    for base, k in ((x2, 0.5), (x1, 2.0), (x1 + x2, 2.0)):
        with pytest.raises(ValueError, match="exponent is not an int"):
            base ** k
    for dom in (QQ, ZZ, GF(5)):
        for num, den in ((2.5, 1), (1, 2.0)):
            with pytest.raises(ValueError, match="not an int fraction"):
                dom.from_fraction(num, den)
        with pytest.raises(ValueError, match="exponent is not an int"):
            dom.pow(2, 0.5)
        # the arithmetic takes no float operand either, in either place
        for call in (lambda: dom.add(2.5, 1), lambda: dom.add(1, 2.5),
                     lambda: dom.sub(2.5, 1), lambda: dom.sub(1, 0.5),
                     lambda: dom.mul(2.5, 2), lambda: dom.mul(2, 2.0),
                     lambda: dom.neg(2.5), lambda: dom.invert(0.5),
                     lambda: dom.pow(2.5, 2), lambda: dom.pow(0.5, -1)):
            with pytest.raises(ValueError, match="not an exact int"):
                call()
    with pytest.raises(ValueError, match="entries must be ints"):
        IntMatrix([[1.5, 2.7]])
    # exact values are still read
    assert ZZ.coerce(Fraction(4, 2)) == 2 and GF(5).coerce(Fraction(1, 2)) == 3
    assert IntMatrix([[1, -2]]).entries == ((1, -2),)


def test_canonical_form_idempotent():
    R = ring2()
    rng = random.Random(1)
    for _ in range(50):
        p = random_element(R, rng)
        assert MixedPoly(R, p.terms) == p


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(5)])
def test_ring_axioms_random(domain):
    R = RingSignature(["x1", "x2", "x3"], 2, domain)
    rng = random.Random(42)
    for _ in range(40):
        p, q, s = (random_element(R, rng) for _ in range(3))
        assert (p + q) + s == p + (q + s)
        assert p * q == q * p
        assert p * (q + s) == p * q + p * s
        assert (p * q) * s == p * (q * s)
        if not p.is_zero() and not q.is_zero():
            assert not (p * q).is_zero()


@pytest.mark.parametrize("domain", [QQ, ZZ, GF(5), GF(32003)])
def test_sub_equals_add_of_negation_random(domain):
    # a - b merges the two term tuples itself, without building -b
    R = RingSignature(["x1", "x2", "x3"], 2, domain)
    rng = random.Random(222)
    for _ in range(60):
        p, q = (random_element(R, rng, max_terms=6, max_exp=1, max_coeff=9)
                for _ in range(2))
        diff = p - q
        assert diff == p + (-q)
        assert MixedPoly(R, diff.terms) == diff  # canonical
        assert (p - p).is_zero() and p - (p + q) == -q
    with pytest.raises(RingMismatchError):
        R.constant(1) - mixed_ring().constant(1)


def test_unit_iff_invertible_random():
    R = ring2()
    rng = random.Random(7)
    for _ in range(60):
        p = random_element(R, rng)
        u = p.is_unit()
        if u is not None:
            assert p * p ** -1 == R.constant(1)
    for _ in range(40):
        # a 2-term element is never a unit
        p = R.zero()
        while len(p.terms) != 2:
            p = random_element(R, rng, max_terms=2)
        assert p.is_unit() is None


def test_substitute_is_homomorphism():
    R = ring2()
    rng = random.Random(11)
    images = [R.variable(0) * R.variable(1), R.monomial((-1, 0), 2)]
    for _ in range(30):
        p, q = random_element(R, rng), random_element(R, rng)
        sub = lambda f: f.substitute(images)
        assert sub(p + q) == sub(p) + sub(q)
        assert sub(p * q) == sub(p) * sub(q)


def reference_str(p):
    """The printer as it was before the per-ring power tables: each term
    formats its monomial, then its sign is read off the piece."""
    if not p.terms:
        return "0"
    pieces = []
    for exp, c in p.terms:
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e)
                        for name, e in zip(p.ring.names, exp) if e != 0)
        cs = str(c)
        if not mono:
            piece = cs
        elif cs == "1":
            piece = mono
        elif cs == "-1":
            piece = "-" + mono
        else:
            piece = "%s*%s" % (cs, mono)
        pieces.append(piece)
    out = pieces[0]
    for piece in pieces[1:]:
        if piece.startswith("-"):
            out += " - " + piece[1:]
        else:
            out += " + " + piece
    return out


PRINT_COEFFICIENTS = (1, -1, 2, -2, 3, 12, -100, Fraction(1, 2),
                      Fraction(-1, 2), Fraction(-3, 4), Fraction(-1, 7),
                      Fraction(22, 3))


def test_printer_matches_reference():
    rng = random.Random(32)
    seen = set()
    for dom in (QQ, ZZ, GF(2), GF(5), GF(32003)):
        pool = [dom.coerce(c) for c in PRINT_COEFFICIENTS
                if dom is QQ or type(c) is int]
        # two rings with the same names hold a table each; the second
        # prints after the first has filled its own
        rings = [RingSignature(["x", "y1", "z_2", "w"], 2, dom)
                 for _ in range(2)]
        for _ in range(60):
            ring = rng.choice(rings)
            terms = [(tuple(rng.randint(-4 if i < ring.laurent else 0, 4)
                            if rng.random() < 0.6 else 0
                            for i in range(ring.n)), rng.choice(pool))
                     for _ in range(rng.randint(0, 6))]
            p = MixedPoly(ring, terms)
            expected = reference_str(p)
            assert str(p) == expected
            assert str(p) == expected  # the filled tables are reused
            assert repr(p) == "<%s in %r>" % (expected, ring)
            if not p.terms:
                seen.add("zero")
            for exp, c in p.terms:
                seen.add("constant" if not any(exp) else "negative exponent"
                         if min(exp) < 0 else "monomial")
                seen.add("one" if c == 1 else "minus one"
                         if str(c) == "-1" else "fraction"
                         if type(c) is Fraction else "other")
                if c == Fraction(-1, 2):
                    seen.add("-1/2")
            # the pieces are joined by " + ", and each " + -" becomes " - "
            signs = [str(c)[0] == "-" for _, c in p.terms]
            if len(signs) > 1:
                if signs[0]:
                    seen.add("negative first term")
                if signs[-1]:
                    seen.add("negative last term")
                if dom.characteristic:
                    seen.add("GF(p) sum")
        assert all(ring._powers is not None for ring in rings)
    assert seen == {"zero", "constant", "negative exponent", "monomial",
                    "one", "minus one", "fraction", "other", "-1/2",
                    "negative first term", "negative last term", "GF(p) sum"}
