"""The product kernel, which sums term pairs in one dict on integer
coefficients, and the two-stage substitute, with its compiled exponent map,
its power tables and its Horner stage, against the plain algorithms they
replaced.

`reference_mul` is the nested-loop product with domain arithmetic and one
final sort; `reference_substitute` expands every image power and adds the
substituted terms one at a time.
Both build their results through the checked public constructors, so they
share nothing with the kernel but the canonical form.  The constructor
`MixedPoly(ring, terms)`, which builds their inputs, is checked in turn
against `reference_terms`, which sums each exponent's coefficients as exact
rationals.
"""

import os
import random
from fractions import Fraction

import pytest

from retractlab import (QQ, ZZ, GF, RingSignature, MixedPoly, NonUnitError,
                        GeneratorSpec, gen_random_idempotent, analyze)
from retractlab import ring as ring_module
from retractlab.cli import run_cli


def reference_mul(p, q):
    dom = p.ring.domain
    acc = {}
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            c = dom.mul(c1, c2)
            acc[e] = dom.add(acc[e], c) if e in acc else c
    return MixedPoly(p.ring, tuple(
        (e, c) for e, c in acc.items() if c != 0))


def reference_pow(p, k):
    if k < 0:
        unit = p.is_unit()
        if unit is None:
            raise NonUnitError("not a unit: %s" % p)
        c, exp = unit
        # the constructor reads 1/c in each domain, mod p over GF(p)
        inverse = MixedPoly(p.ring, [(tuple(-e for e in exp), Fraction(1, c))])
        return reference_pow(inverse, -k)
    result = p.ring.constant(1)
    for _ in range(k):
        result = reference_mul(result, p)
    return result


def reference_substitute(p, images, target=None):
    target = images[0].ring if target is None else target
    result = target.zero()
    for exp, c in p.terms:
        term = target.constant(c)
        for i, e in enumerate(exp):
            if e:
                term = reference_mul(term, reference_pow(images[i], e))
        result = result + term
    return result


DOMAINS = [QQ, ZZ, GF(5), GF(32003)]


def random_coeff(dom, rng):
    if dom is QQ:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if dom.kind == "prime-field":
        return rng.randrange(dom.p)
    return rng.randint(-9, 9)


def random_unit(dom, rng):
    c = 0
    while not dom.is_unit(c):
        c = dom.coerce(rng.choice([-1, 1]) * random_coeff(dom, rng))
    return c


def random_poly(ring, rng, max_terms=6, max_exp=3):
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(-max_exp if i < ring.laurent else 0, max_exp)
                    for i in range(ring.n))
        terms.append((exp, random_coeff(ring.domain, rng)))
    return MixedPoly(ring, terms)


def assert_canonical_qq(p):
    for _, c in p.terms:
        assert type(c) is int or c.denominator != 1


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_mul_matches_reference(dom):
    rng = random.Random(2024)
    for n, laurent in ((1, 1), (3, 2), (4, 0), (5, 3), (8, 4)):
        R = RingSignature(["x%d" % i for i in range(n)], laurent, dom)
        for _ in range(60):
            p, q = random_poly(R, rng), random_poly(R, rng)
            got = p * q
            assert got.terms == reference_mul(p, q).terms
            if dom is QQ:
                assert_canonical_qq(got)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_pow_matches_reference(dom):
    rng = random.Random(7)
    R = RingSignature(["x", "y", "z"], 2, dom)
    for _ in range(20):
        p = random_poly(R, rng, max_terms=3, max_exp=2)
        k = rng.randint(0, 5)
        assert (p ** k).terms == reference_pow(p, k).terms
    u = R.monomial((2, -1, 0), random_unit(dom, rng))
    assert (u ** -3).terms == reference_pow(u, -3).terms


def wide_poly(ring, rng, max_terms=6):
    """A polynomial whose exponent entries are near 0 or near ±2^40, past
    any machine-word exponent encoding, with entries of both signs; entries
    come from a small set, so product terms collide."""
    big = 2 ** 40
    laurent_entries = (-big, -big + 1, -1, 0, 1, big - 1, big)
    plain_entries = (0, 1, big - 1, big)
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.choice(laurent_entries if i < ring.laurent
                               else plain_entries) for i in range(ring.n))
        terms.append((exp, random_coeff(ring.domain, rng)))
    return MixedPoly(ring, terms)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_mul_wide_exponents_match_reference(dom):
    rng = random.Random(40)
    for n, laurent in ((1, 1), (2, 2), (3, 1), (8, 8), (8, 3)):
        R = RingSignature(["x%d" % i for i in range(n)], laurent, dom)
        for _ in range(40):
            p, q = wide_poly(R, rng), wide_poly(R, rng)
            assert (p * q).terms == reference_mul(p, q).terms
            assert (p * p).terms == reference_mul(p, p).terms


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_one_term_and_zero_operands(dom):
    rng = random.Random(5)
    for n, laurent in ((1, 1), (3, 2), (8, 4)):
        R = RingSignature(["x%d" % i for i in range(n)], laurent, dom)
        for _ in range(30):
            one = random_poly(R, rng, max_terms=1)
            while not one.terms:
                one = random_poly(R, rng, max_terms=1)
            other = random_poly(R, rng, max_exp=4)
            wide = wide_poly(R, rng)
            for q in (other, wide, one, R.zero()):
                assert (one * q).terms == reference_mul(one, q).terms
                assert (q * one).terms == reference_mul(q, one).terms
                assert (R.zero() * q).terms == () == (q * R.zero()).terms
            if dom is QQ:
                assert_canonical_qq(one * other)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_pow_heavy_combination_matches_reference(dom):
    # sums of few short terms raised to a power: most term pairs of each
    # product land on an exponent another pair already reached
    rng = random.Random(11)
    R = RingSignature(["x", "y", "z"], 2, dom)
    x, y, z = (R.variable(i) for i in range(3))
    coeff = (lambda: Fraction(rng.randint(1, 9), rng.randint(2, 7))) \
        if dom is QQ else (lambda: random_unit(dom, rng))
    bases = [R.constant(1) + x + y,
             x + R.monomial((-1, 0, 0)) + y * z,
             R.constant(coeff()) + x * R.constant(coeff()) + R.monomial(
                 (0, -1, 1), coeff()) + x * y * R.constant(coeff())]
    for p in bases:
        for k in (2, 5, 8):
            got = p ** k
            assert got.terms == reference_pow(p, k).terms
            if dom is QQ:
                assert_canonical_qq(got)
                if k == 8 and len(p.terms) == 4:
                    assert any(type(c) is Fraction for _, c in got.terms)


def random_image(target, rng, source, laurent_source):
    """An image for the source variable x_source: a unit, a unit scalar or
    a Laurent variable for a Laurent one (negative exponents invert it);
    otherwise also zero, a scalar, any variable, a single term or a sum of
    terms.  A variable x_k, coefficient 1, sits at the source's own index,
    one below it (so a map into the smaller ring shifts the variables), at
    its partner's source ^ 1 (two partners swap), or anywhere (two sources
    may share one)."""
    dom = target.domain
    kind = rng.randrange(3 if laurent_source else 5)
    if kind == 0:
        exp = tuple(rng.randint(-2, 2) if i < target.laurent else 0
                    for i in range(target.n))
        return target.monomial(exp, random_unit(dom, rng))
    if kind == 1:
        return target.constant(random_unit(dom, rng) if laurent_source
                               else random_coeff(dom, rng))
    if kind == 2:
        places = target.laurent if laurent_source else target.n
        k = rng.choice((source, source - 1, source ^ 1, rng.randrange(places)))
        return target.variable(k if 0 <= k < places else rng.randrange(places))
    if kind == 3:
        return random_poly(target, rng, max_terms=1, max_exp=2)
    return random_poly(target, rng, max_terms=3, max_exp=2)


def variable_places(images):
    """{source: k} for the images that are a variable x_k."""
    target = images[0].ring
    return {i: k for i, img in enumerate(images) for k in range(target.n)
            if img == target.variable(k)}


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_substitute_matches_reference(dom):
    rng = random.Random(99)
    R = RingSignature(["x1", "x2", "x3", "x4"], 2, dom)
    # substitute also maps into rings other than the source, one of them
    # of one variable
    S = RingSignature(["u", "v", "w"], 1, dom)
    U = RingSignature(["t"], 1, dom)
    seen = set()
    for target in (R, S, U):
        for _ in range(40):
            images = [random_image(target, rng, i, i < R.laurent)
                      for i in range(R.n)]
            places = variable_places(images)
            for i, k in places.items():
                seen.add("same index" if i == k else "shifted index"
                         if target is S and k == i - 1 else "other index")
                if places.get(k) == i != k:
                    seen.add("swap")
            if len(set(places.values())) < len(places):
                seen.add("shared target")
            p = random_poly(R, rng, max_exp=2)
            if rng.random() < 0.5:
                # x_k -> 1 makes every bucket of (x_k - 1)·q cancel
                k = rng.randrange(R.n)
                images[k] = target.constant(1)
                q = random_poly(R, rng, max_terms=4, max_exp=2)
                p = p + q * (R.variable(k) - R.constant(1))
                if k >= R.laurent:
                    seen.add("one at a polynomial place")
                elif any(exp[k] < 0 for exp, _ in p.terms):
                    seen.add("one at a negative Laurent power")
                if target is U:
                    seen.add("one into one variable")
            if all(len(img.terms) <= 1 for img in images):
                # stage 1 alone, with no β buckets
                seen.add("no multi-term image")
            got = p.substitute(images)
            assert got.terms == reference_substitute(p, images, target).terms
            if dom is QQ:
                assert_canonical_qq(got)
    assert seen == {"same index", "shifted index", "other index", "swap",
                    "shared target", "no multi-term image",
                    "one at a polynomial place",
                    "one at a negative Laurent power", "one into one variable"}


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_one_term_substitute_matches_reference(dom):
    # a one-term element c·x^e maps to c·∏ images[i]^e_i: by exponent
    # arithmetic when its used images have one term each, else by the
    # two-stage path at its first multi-term image: coefficients other
    # than 1, negative Laurent exponents, zero images, constants and a
    # target ring smaller than the source
    rng = random.Random(2027)
    R = RingSignature(["x1", "x2", "x3", "x4"], 2, dom)
    S = RingSignature(["u", "v", "w"], 1, dom)
    seen = set()
    for target in (R, S):
        for _ in range(150):
            images = [random_image(target, rng, i, i < R.laurent)
                      for i in range(R.n)]
            for i in range(R.n):
                # a zero image, or a Laurent image that is not a unit
                if rng.random() < 0.15:
                    images[i] = target.zero()
                elif i < R.laurent and rng.random() < 0.1:
                    images[i] = random_poly(target, rng, max_exp=2)
            exp = tuple(rng.randint(-3 if i < R.laurent else 0, 3)
                        if rng.random() < 0.6 else 0 for i in range(R.n))
            p = R.monomial(exp, random_coeff(dom, rng) or 1)
            assert len(p.terms) == 1
            seen.add("constant" if not any(exp) else "negative"
                     if min(exp) < 0 else "nonnegative")
            if p.terms[0][1] != 1:
                seen.add("coefficient")
            if any(exp[i] for i in variable_places(images)):
                seen.add("variable image")
            sizes = {len(img.terms) for e, img in zip(exp, images) if e}
            if 1 in sizes and max(sizes) > 1:
                # exponent arithmetic, then a product by the multi-term powers
                seen.add("single- and multi-term images")
            zero = [e and not img.terms for e, img in zip(exp, images)]
            if any(zero):
                seen.add("zero image")
                if any(e < 0 for e in exp[zero.index(True) + 1:]):
                    seen.add("negative power after a zero image")
            try:
                expected = reference_substitute(p, images, target)
            except NonUnitError as error:
                seen.add("not a unit")
                with pytest.raises(NonUnitError) as got:
                    p.substitute(images)
                assert str(got.value) == str(error)
                continue
            got = p.substitute(images)
            assert got.ring is target
            assert got.terms == expected.terms
            if dom is QQ:
                assert_canonical_qq(got)
    assert seen == {"constant", "negative", "nonnegative", "coefficient",
                    "variable image", "zero image",
                    "negative power after a zero image", "not a unit",
                    "single- and multi-term images"}


def test_one_term_substitute_identities():
    R = RingSignature(["x1", "x2", "x3"], 2, QQ)
    x1, x2, x3 = (R.variable(i) for i in range(3))
    p = x1 + x3
    one = R.constant(1)
    assert p ** 1 is p
    for q in (p, x2, R.monomial((1, -1, 2), Fraction(3, 2)), R.zero()):
        assert (one * q).terms is q.terms
    # a bare variable maps to its image's terms, copied nowhere
    assert x2.substitute([x1, p, x3]).terms is p.terms
    # a negative power of a multi-term image names that image
    with pytest.raises(NonUnitError, match=r"^not a unit: x1 \+ x3$"):
        R.monomial((0, -1, 0), 2).substitute([x1, p, x3])
    # x1^-1 with x1 sent to a multi-term image: `**` raises it
    with pytest.raises(NonUnitError, match=r"^not a unit: x1 \+ x3$"):
        R.monomial((-1, 1, 0), 3).substitute([p, x2, x3])
    # a multi-term element whose x2^-1 maps to a multi-term image, alone,
    # after a term whose image is zero, and in a term whose image is zero:
    # `**` raises in stage 1, before any bucket could cancel
    q = R.monomial((1, -1, 0), 2) + x1
    for element, images in ((q, [x1, p, x3]), (q + x3, [x1, p, R.zero()]),
                            (R.monomial((0, -1, 1)) + x1, [x1, p, R.zero()])):
        with pytest.raises(NonUnitError, match=r"^not a unit: x1 \+ x3$"):
            element.substitute(images)


def test_substitute_cancelling_buckets():
    R = RingSignature(["x1", "x2", "x3"], 1, QQ)
    x1, x2, x3 = (R.variable(i) for i in range(3))
    images = [R.constant(1), x2 + x3, x3]
    # each exponent of x2 meets x1^0 and x1^1 with opposite signs
    p = (x1 - R.constant(1)) * (x2 ** 3 + x2 * x3 + R.constant(1))
    assert p.substitute(images).is_zero()
    assert reference_substitute(p, images).is_zero()
    got = (p + x2).substitute(images)
    assert got == x2 + x3 == reference_substitute(p + x2, images)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_stage_two_buckets_match_reference(dom, monkeypatch):
    # stage 2 multiplies each bucket that does not cancel, in the ring or
    # mod p, by its image powers.  The multi-term images are raised to the
    # first power only, so each `*` multiplies a bucket by its product, or
    # the two images for β = (1, 1)
    R = RingSignature(["x1", "x2", "x3"], 1, dom)
    x1, x2, x3 = (R.variable(i) for i in range(3))
    one = R.constant(1)
    # a Fraction over QQ, a unit elsewhere
    half = R.constant(Fraction(1, 2) if dom is QQ else -1)
    unit = R.monomial((2, 0, 0), -1)
    multi = [x2 * half + x3, x3 + R.constant(3)]
    calls = []
    mul = MixedPoly.__mul__

    def recorded(a, b):
        calls.append((len(a.terms), len(b.terms)))
        return mul(a, b)

    def products(p, x1_image):
        images = [x1_image] + multi
        expected = reference_substitute(p, images)
        monkeypatch.setattr(MixedPoly, "__mul__", recorded)
        del calls[:]
        got = p.substitute(images)
        monkeypatch.setattr(MixedPoly, "__mul__", mul)
        assert got.terms == expected.terms
        if dom is QQ:
            assert_canonical_qq(got)
        return calls[:]

    # x1 -> 1: the x2·x3 bucket cancels, and x2 alone takes one product
    cancelling = (x1 - one) * x2 * x3 + x2
    assert products(cancelling, one) == [(1, 2)]
    # 1 + 4 = 5: the x2·x3 bucket is 0 over GF(5) only
    mod5 = x1 * x2 * x3 + R.constant(4) * x2 * x3 + x2
    assert products(mod5, one) == ([(1, 2)] if dom.p == 5
                                   else [(2, 2), (1, 4), (1, 2)])
    # x1 -> -x1^2 keeps the x1-powers apart: three terms in the x2 bucket,
    # with coefficients half, -3 and half^2, Fractions over QQ
    several = ((half * x1 ** 2 - R.constant(3) * x1 ** -1 + half * half) * x2
               + x1 * x3)
    assert products(several, unit) == [(3, 2), (1, 2)]
    # the same terms, with x1 -> 1 summing the bucket into one term
    assert products(several, one) == [(1, 2), (1, 2)]
    # a negative power of a multi-term image raises from stage 1, with the
    # reference's message, before any bucket product
    with pytest.raises(NonUnitError) as expected:
        reference_substitute(several * x1 ** -1, [multi[0]] + multi)
    with pytest.raises(NonUnitError) as got:
        (several * x1 ** -1).substitute([multi[0]] + multi)
    assert str(got.value) == str(expected.value)


def test_substitute_non_unit_errors_match_reference():
    R = RingSignature(["x1", "x2", "x3"], 2, QQ)
    x1, x2, x3 = (R.variable(i) for i in range(3))
    inv = R.monomial((-1, 0, 0))
    # a negative exponent on a multi-term image, in a bucket that cancels
    images = [x1 + x3, x2, R.constant(1)]
    cancelling = inv * x3 - inv
    assert not cancelling.is_zero()
    # a zero image ahead of a negative exponent on another zero image
    zeros = [R.zero(), R.zero(), x3]
    # one term with negative powers on a zero image and on a multi-term
    # image, in either order, and a Laurent x1 sent to the variable x3
    both = inv * R.monomial((0, -1, 0)) + x3
    for p, imgs in ((cancelling, images),
                    (x1 * R.monomial((0, -1, 0)), zeros),
                    (both, [R.zero(), x1 + x3, x3]),
                    (both, [x1 + x3, R.zero(), x3]),
                    (inv * x2 + x3, [x3, x2, x3])):
        with pytest.raises(NonUnitError) as expected:
            reference_substitute(p, imgs)
        with pytest.raises(NonUnitError) as got:
            p.substitute(imgs)
        assert str(got.value) == str(expected.value)


def test_stage_two_builds_each_power_from_the_last(monkeypatch):
    # the powers of x2's image that the buckets need, 2, 3 and 5, are built
    # as p^2, p^2·p and p^3·p^2, so `**` runs once.  A gap power the table
    # does not hold is not built: 2 and 5 take `**` each, and a lone needed
    # power is exactly `**`
    R = RingSignature(["x1", "x2", "x3"], 1, QQ)
    x1, x2, x3 = (R.variable(i) for i in range(3))
    images = [R.constant(2), x1 + x3 + R.constant(1), x3]
    powers = []
    pow_ = MixedPoly.__pow__

    def recorded(a, k):
        powers.append(k)
        return pow_(a, k)

    for exps, calls in (((2, 3, 5), [2]), ((2, 5), [2, 5]), ((4,), [4])):
        p = R.zero()
        for e in exps:
            p = p + (x1 + x3) * x2 ** e
        expected = reference_substitute(p, images)
        monkeypatch.setattr(MixedPoly, "__pow__", recorded)
        del powers[:]
        got = p.substitute(images)
        monkeypatch.setattr(MixedPoly, "__pow__", pow_)
        assert got.terms == expected.terms
        assert powers == calls


def horner_draw(source, target, rng):
    """A polynomial and images under which every bucket of `substitute`
    holds one term, the shape on which a Horner fold could share image
    powers between buckets: the Laurent images are unit scalars and the
    other single-term images scalars or zero, while 1-3 polynomial
    variables get multi-term images.  Their exponents are drawn from 0, 1,
    2 and 4, so needed powers skip exponents, and a shared factor sometimes
    makes the least exponent positive.  With x1 -> 1, adding q·(x1 - 1)
    makes some buckets cancel, and q·(x1 - 1) alone makes every bucket
    cancel."""
    dom = target.domain
    d, n = source.laurent, source.n
    multi = rng.sample(range(d, n), rng.randint(1, 3))
    images = []
    for i in range(n):
        if i in multi:
            img = target.zero()
            while len(img.terms) < 2:
                img = random_poly(target, rng, max_terms=3, max_exp=1)
        elif i < d:
            img = target.constant(random_unit(dom, rng))
        else:
            img = target.constant(
                random_coeff(dom, rng) if rng.random() < 0.7 else 0)
        images.append(img)

    def draw_poly(terms):
        return MixedPoly(source, [
            (tuple(rng.randint(-2, 2) if i < d else
                   rng.choice((0, 1, 2, 4)) if i in multi else
                   rng.choice((0, 0, 0, 1)) for i in range(n)),
             random_coeff(dom, rng)) for _ in range(terms)])

    p = draw_poly(rng.randint(4, 8))
    if rng.random() < 0.3:
        shared = [0] * n
        for i in multi:
            shared[i] = rng.randint(1, 2)
        p = p * source.monomial(shared)
    kind = rng.randrange(4)
    if kind:
        images[0] = target.constant(1)
        x1 = source.variable(0)
        q = draw_poly(rng.randint(2, 5)) * (x1 - source.constant(1))
        p = q if kind == 1 else p + q
    return p, images


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_horner_substitute_matches_reference(dom):
    rng = random.Random(1004)
    R = RingSignature(["x1", "x2", "x3", "x4", "x5", "x6"], 2, dom)
    S = RingSignature(["u", "v", "w"], 1, dom)
    for target in (R, S):
        for _ in range(20):
            p, images = horner_draw(R, target, rng)
            got = p.substitute(images)
            expected = reference_substitute(p, images, target)
            assert got.terms == expected.terms
            if dom is QQ:
                assert_canonical_qq(got)


def one_term_image(target, rng, source, laurent_source):
    """A `random_image` of one term: a unit for a Laurent source."""
    img = target.zero()
    while len(img.terms) != 1:
        img = random_image(target, rng, source, laurent_source)
    return img


def large_element(ring, rng, unused=()):
    """An element of at least _COMPILED_MAP_TERMS terms, with negative
    Laurent powers, that does not use the variables in `unused`."""
    terms = {}
    while len(terms) < ring_module._COMPILED_MAP_TERMS:
        exp = tuple(0 if i in unused else rng.randint(-3, 3)
                    if i < ring.laurent else rng.randint(0, 3)
                    for i in range(ring.n))
        terms[exp] = random_coeff(ring.domain, rng) or 1
    return MixedPoly(ring, terms.items())


def record_exponent_maps(monkeypatch):
    """The list of rows each compiled exponent map is built from."""
    built = []
    exponent_map = ring_module._exponent_map

    def recorded(rows, n):
        built.append(rows)
        return exponent_map(rows, n)

    monkeypatch.setattr(ring_module, "_exponent_map", recorded)
    return built


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_compiled_exponent_map_matches_reference(dom, monkeypatch):
    # an element above the size gate whose used images each have one term,
    # a unit at a Laurent place, maps every exponent through one compiled
    # function; a used zero image or a non-unit at a Laurent place sends it
    # to the per-term loop, which raises the reference's NonUnitError
    built = record_exponent_maps(monkeypatch)
    rng = random.Random(36)
    R = RingSignature(["x1", "x2", "x3", "x4"], 2, dom)
    S = RingSignature(["u", "v", "w"], 1, dom)
    U = RingSignature(["t"], 1, dom)
    seen = set()
    for target in (R, S, U):
        for _ in range(16):
            images = [one_term_image(target, rng, i, i < R.laurent)
                      for i in range(R.n)]
            kind = rng.randrange(5)
            unused = ()
            bad = None
            if kind == 1:
                # a zero image: not a unit at a Laurent place
                bad = target.zero()
                images[rng.randrange(R.n)] = bad
            elif kind == 2 and target.laurent < target.n:
                # x1 sent to a polynomial variable, not a unit
                bad = images[0] = target.variable(target.n - 1)
            elif kind == 3:
                # an image the element does not use: zero or several terms
                j = rng.randrange(R.n)
                images[j] = rng.choice((target.zero(), target.variable(0)
                                        + target.constant(1)))
                unused = (j,)
            p = large_element(R, rng, unused)
            compiles = all(len(img.terms) == 1 and (i >= R.laurent
                                                    or img.is_unit())
                           for i, img in enumerate(images) if i not in unused)
            del built[:]
            try:
                expected = reference_substitute(p, images, target)
            except NonUnitError as error:
                seen.add("not a unit" if bad.terms else "zero, not a unit")
                with pytest.raises(NonUnitError) as got:
                    p.substitute(images)
                assert str(got.value) == str(error) == "not a unit: %s" % bad
                assert not built
                continue
            got = p.substitute(images)
            assert got.ring is target
            assert got.terms == expected.terms
            if dom is QQ:
                assert_canonical_qq(got)
            assert len(built) == compiles
            if not compiles:
                seen.add("zero image, per-term loop")
                continue
            if any(e < 0 for exp, _ in p.terms for e in exp[:R.laurent]):
                seen.add("negative Laurent power")
            if any(img.terms[0][1] != 1 for img in images if img.terms):
                seen.add("scalar other than 1")
            if any(k != i for i, k in variable_places(images).items()):
                seen.add("variable at another index")
            if target is U:
                seen.add("one-variable target")
            if unused:
                seen.add("unused image")
    assert seen == {"negative Laurent power", "scalar other than 1",
                    "variable at another index", "one-variable target",
                    "unused image", "zero image, per-term loop",
                    "zero, not a unit", "not a unit"}
    # one term fewer than the gate, or a ring wider than the gate, takes
    # the per-term loop
    p = large_element(R, rng)
    p = MixedPoly._trusted(R, p.terms[:ring_module._COMPILED_MAP_TERMS - 1])
    width = ring_module._COMPILED_MAP_WIDTH + 1
    W = RingSignature(["y%d" % i for i in range(width)], 2, dom)
    for p in (p, large_element(W, rng)):
        images = [p.ring.variable(i) for i in range(p.ring.n)]
        images[0] = images[0] ** -1
        del built[:]
        assert p.substitute(images).terms == \
            reference_substitute(p, images).terms
        assert not built
    # into a ring of no variables, every image a scalar
    Z = RingSignature([], 0, dom)
    p = large_element(R, rng)
    images = [Z.constant(random_unit(dom, rng)) for _ in range(R.n)]
    assert p.substitute(images).terms == \
        reference_substitute(p, images, Z).terms
    assert built


def test_analyzing_golden_files_compiles_no_map(monkeypatch, capsys):
    # the golden files stay below the size gate, while 1014's `gen` maps
    # its 1834-term image through a compiled map
    built = record_exponent_maps(monkeypatch)
    data = os.path.join(os.path.dirname(__file__), "data")
    for name in sorted(os.listdir(data)):
        run_cli(["analyze", "--json", os.path.join(data, name)])
    capsys.readouterr()
    assert not built
    gen_random_idempotent(GeneratorSpec(6, 3, 2, 1014, 4, QQ))
    assert built


def multi_term_pairs(monkeypatch):
    """A list whose first entry counts the term pairs of every product
    `MixedPoly.__mul__` computes on two operands of several terms each; a
    one-term operand only shifts the other one."""
    pairs = [0]
    mul = MixedPoly.__mul__

    def counted(a, b):
        if len(a.terms) > 1 and len(b.terms) > 1:
            pairs[0] += len(a.terms) * len(b.terms)
        return mul(a, b)

    monkeypatch.setattr(MixedPoly, "__mul__", counted)
    return pairs


@pytest.mark.parametrize("dom", [QQ, GF(32003)], ids=repr)
def test_tail_instance_1004_term_pairs(dom, monkeypatch):
    # the benchmark's named instance 1004: expanding phi∘phi makes ~116k
    # term pairs, and require_idempotent's subalgebra search proves it from
    # the witness phi(x5) = 2*phi(x4)^2 + 2*phi(x4) instead
    phi = gen_random_idempotent(GeneratorSpec(5, 3, 0, 1004, 3, dom))
    pairs = multi_term_pairs(monkeypatch)
    analyze(phi)
    assert pairs[0] <= 5000


def test_gen_1014_term_pairs(monkeypatch):
    # every substitution multiplies each bucket by its own product of
    # image powers
    pairs = multi_term_pairs(monkeypatch)
    gen_random_idempotent(GeneratorSpec(6, 3, 2, 1014, 4, QQ))
    assert pairs[0] == 3197


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_cancellation(dom):
    R = RingSignature(["x", "y"], 1, dom)
    x, y = R.variable(0), R.variable(1)
    inv = R.monomial((-1, 0))
    half = R.constant(dom.from_fraction(1, 2) if dom.is_field else 1)
    a, b = (x + inv) * half, y * half
    # middle terms cancel inside the product
    got = (a + b) * (a - b)
    assert got.terms == reference_mul(a + b, a - b).terms
    assert got == a * a - b * b
    # the product with zero, and a substitution that cancels to zero
    assert (R.zero() * a).terms == () and (a * R.zero()).terms == ()
    assert (x - y).substitute([y, y]).is_zero()
    g = a * a - b * b  # b -> a under y -> x + x^-1
    assert not g.is_zero()
    assert g.substitute([x, x + inv]).is_zero()
    assert reference_substitute(g, [x, x + inv]).is_zero()


def test_cancellation_mod_p():
    # (x + 1)^5 = x^5 + 1 over GF(5): the binomial coefficients vanish
    R = RingSignature(["x"], 1, GF(5))
    p = R.variable(0) + R.constant(1)
    assert (p ** 5).terms == (((5,), 1), ((0,), 1))
    assert (p ** 5).terms == reference_pow(p, 5).terms
    assert (p * (p * R.constant(-1)) + p * p).is_zero()


def test_integral_fractions_come_out_as_int():
    # the checked constructor accepts Fraction(k); products still give int
    R = RingSignature(["x", "y"], 1, QQ)
    p = MixedPoly(R, (((1, 0), Fraction(2)), ((0, 1), Fraction(1, 2))))
    q = p * p
    assert q.terms == reference_mul(p, p).terms
    assert_canonical_qq(q)
    assert [type(c) for _, c in q.terms] == [int, int, Fraction]


def reference_terms(ring, terms):
    """The canonical terms of a term list: each exponent's coefficients are
    summed as exact rationals and mapped into the domain once, and the
    nonzero sums are sorted by (total degree, exponent), descending."""
    sums = {}
    for exp, c in terms:
        sums[tuple(exp)] = sums.get(tuple(exp), Fraction(0)) + Fraction(c)
    out = []
    for exp, v in sums.items():
        if ring.domain.kind == "prime-field":
            p = ring.domain.p
            v = v.numerator * pow(v.denominator, -1, p) % p
        elif v.denominator == 1:
            v = v.numerator
        if v:
            out.append((exp, v))
    return tuple(sorted(out, key=lambda t: (sum(t[0]), t[0]), reverse=True))


def raw_coeff(dom, rng):
    """A coefficient as a caller may pass it to MixedPoly: an int, over
    GF(p) often outside [0, p), or over QQ and GF(p) a fraction whose
    denominator is a unit."""
    k = rng.randint(-9, 9)
    if dom.kind == "prime-field":
        k += dom.p * rng.randint(-2, 2)
    if dom is ZZ or rng.random() < 0.5:
        return k
    return Fraction(k, rng.choice((2, 3, 4, 7)))


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_constructor_matches_reference(dom):
    # unsorted terms with repeated exponents, some of whose sums cancel
    rng = random.Random(313)
    R = RingSignature(["x", "y", "z"], 1, dom)
    zeros = partial = 0
    for _ in range(300):
        terms = [(tuple(rng.randint(-2 if i < R.laurent else 0, 2)
                        for i in range(R.n)), raw_coeff(dom, rng))
                 for _ in range(rng.randint(0, 10))]
        kind = rng.randrange(3)
        if kind:  # cancel every term (1) or some of them (2)
            cancelled = terms if kind == 1 else terms[::2]
            terms = terms + [(list(e), -c + rng.randint(-1, 1) * (dom.p or 0))
                             for e, c in cancelled]
        rng.shuffle(terms)
        got = MixedPoly(R, terms)
        expected = reference_terms(R, terms)
        assert got.terms == expected
        assert [type(c) for _, c in got.terms] == \
            [type(c) for _, c in expected]
        assert MixedPoly(R, terms) == got
        zeros += kind == 1 and len(terms) > 0 and got.is_zero()
        partial += kind == 2 and 0 < len(got.terms) < len({
            tuple(e) for e, _ in terms})
    assert zeros >= 50 and partial >= 50
    if dom is QQ:  # fractions that sum to integers come out as int
        got = MixedPoly(R, [((1, 0, 0), Fraction(1, 3)),
                            ((0, 0, 0), Fraction(5, 2)),
                            ((1, 0, 0), Fraction(2, 3)),
                            ((0, 0, 0), Fraction(-1, 2))])
        assert got.terms == (((1, 0, 0), 1), ((0, 0, 0), 2))
        assert [type(c) for _, c in got.terms] == [int, int]


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_constructor_checks_surviving_exponents_only(dom):
    # a negative exponent on the polynomial variable y is accepted on a
    # term that cancels and rejected on one that survives
    R = RingSignature(["x", "y"], 1, dom)
    bad = (0, -1)
    got = MixedPoly(R, [(bad, 3), ((1, 0), 2), (bad, -3)])
    assert got == R.monomial((1, 0), 2)
    with pytest.raises(ValueError, match="polynomial variable y"):
        MixedPoly(R, [(bad, 3), ((1, 0), 2), (bad, 3)])


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_constructor_coerces_coefficients(dom):
    # 7 is 2 over GF(5); over QQ and ZZ, Fraction(4, 2) is the int 2
    R = RingSignature(["x", "y"], 1, dom)
    got = MixedPoly(R, [((1, 0), dom.p + 2 if dom.p else Fraction(4, 2))])
    assert got == R.monomial((1, 0), 2)
    assert [type(c) for _, c in got.terms] == [int]
    assert str(got) == "2*x"


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_constructor_merges_repeated_exponents(dom):
    R = RingSignature(["x", "y"], 1, dom)
    got = MixedPoly(R, [((1, 0), 1), ((0, 1), 3), ((1, 0), 1)])
    assert got.terms == (((1, 0), 2), ((0, 1), 3))
    twice = MixedPoly(R, [((1, 0), 1), ((1, 0), 1)])
    assert twice + R.zero() == R.monomial((1, 0), 2)
    assert twice - R.variable(0) == R.variable(0)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_zero_coefficient_gives_zero(dom):
    # a coefficient that reduces to 0 (5 over GF(5)) gives the zero element
    R = RingSignature(["x", "y"], 1, dom)
    for c in (0, dom.p or Fraction(0, 3)):
        assert R.monomial((1, 0), c) == R.zero()
        assert R.constant(c) == R.zero()
        assert R.variable(1) * R.constant(c) == R.zero()


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_wrong_length_exponent_raises_even_if_it_cancels(dom):
    R = RingSignature(["x", "y"], 1, dom)
    cancelling = [((0,), 1), ((1, 0), 2), ((0,), -1)]
    with pytest.raises(ValueError, match="exponent length 1 != 2"):
        MixedPoly(R, cancelling)
    with pytest.raises(ValueError, match="exponent length 3 != 2"):
        R.monomial((0, 0, 0), 0)


@pytest.mark.parametrize("dom, factor", [
    (GF(5), 0), (GF(5), -1), (GF(5), 7), (QQ, Fraction(-3, 4))], ids=repr)
def test_constant_product_matches_constructor(dom, factor):
    rng = random.Random(8)
    R = RingSignature(["x", "y", "z"], 2, dom)
    for _ in range(40):
        p = random_poly(R, rng)
        got = p * R.constant(factor)
        assert got.terms == MixedPoly(
            R, [(e, c * factor) for e, c in p.terms]).terms
        if dom is QQ:
            assert_canonical_qq(got)


@pytest.mark.parametrize("dom", DOMAINS, ids=repr)
def test_add_sub_match_constructor(dom):
    # + and - merge two canonical term tuples; the constructor coerces and
    # sums any term list
    rng = random.Random(19)
    R = RingSignature(["x", "y", "z"], 1, dom)
    zeros = partial = 0
    for _ in range(300):
        p = random_poly(R, rng)
        q = random_poly(R, rng)
        kind = rng.randrange(4)
        if kind == 1:
            q = p  # p - q cancels to zero
        elif kind == 2:
            q = -p  # p + q cancels to zero
        elif kind == 3:  # some terms of p + q cancel, others do not
            q = MixedPoly(R, [(e, -c) for e, c in p.terms[::2]]
                          + list(q.terms))
        neg = tuple((e, -c) for e, c in q.terms)
        total, difference = p + q, p - q
        assert total.terms == MixedPoly(R, p.terms + q.terms).terms
        assert difference.terms == MixedPoly(R, p.terms + neg).terms
        for got in (total, difference):
            zeros += got.is_zero()
            if dom is QQ:
                assert_canonical_qq(got)
        partial += kind == 3 and len(total.terms) < len(p.terms) + len(q.terms)
    assert zeros >= 100 and partial >= 20
