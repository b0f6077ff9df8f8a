import hashlib
import itertools
import os
import random

import pytest

from retractlab import QQ, ZZ, GF, analyze
from retractlab.endo import is_idempotent
from retractlab.generator import (GeneratorSpec, gen_random_idempotent,
                                  problem_text, RNG_ALGORITHM)


def test_complexity_zero_is_standard_projection():
    spec = GeneratorSpec(n=3, d=2, r=1, seed=5, complexity=0, domain=QQ)
    phi = gen_random_idempotent(spec)
    for img in phi.images:
        assert img.is_unit() is not None or img.is_zero() \
            or img == phi.ring.variable(phi.images.index(img))


def test_rank_full_is_conjugate_of_identity_on_laurent_block():
    spec = GeneratorSpec(n=2, d=2, r=2, seed=1, complexity=3, domain=QQ)
    phi = gen_random_idempotent(spec)
    assert analyze(phi).classification.tag == "WholeRing"


def test_generated_always_valid_and_idempotent():
    rng = random.Random(0)
    for _ in range(60):
        n = rng.randint(1, 4)
        d = rng.randint(1, n)
        r = rng.randint(0, d)
        domain = rng.choice([QQ, ZZ, GF(5)])
        spec = GeneratorSpec(n=n, d=d, r=r, seed=rng.getrandbits(64),
                             complexity=rng.randint(0, 3), domain=domain)
        phi = gen_random_idempotent(spec)
        assert is_idempotent(phi)
        assert analyze(phi).r == r


BENCH_NAMED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "bench", "named")


@pytest.mark.parametrize("dom,tag", [(QQ, "QQ"), (GF(32003), "GF32003")])
@pytest.mark.parametrize("n,d,r,seed,complexity", [
    (5, 3, 0, 1004, 3), (6, 3, 2, 1014, 4), (6, 3, 0, 1016, 3)])
def test_named_instances_match_their_files(n, d, r, seed, complexity, dom,
                                           tag):
    # the benchmark's named tail instances are problem_text's output, byte
    # for byte; a change to the generator or to `substitute` shows here
    name = "%s_n%dd%dr%dc%d_s%d.ring" % (tag, n, d, r, complexity, seed)
    with open(os.path.join(BENCH_NAMED, name), "rb") as fh:
        expected = fh.read()
    spec = GeneratorSpec(n, d, r, seed, complexity, dom)
    assert problem_text(spec).encode("utf-8") == expected


# the named files above draw only shift and invert: each of these n=4, d=2,
# r=1, complexity-6 draws meets all six kinds, scale and pscale among them,
# so the unit scalars' random stream and printed bytes are pinned by SHA-256
EVERY_KIND = [
    (QQ, 21,
     "6af3cb87bb6ed49e113a4ace91b9aacec8389209d45d07be5fc3e36737874da2"),
    (ZZ, 99,
     "a60a453cd44b7fd86fe44143334e1c91ef428bd7256cfa3dd8dcf01556497197"),
    (GF(5), 99,
     "fea05d58b80e9b510e2a9fbae04359372263dd1f5644bc93124eeb2632ba905f"),
    (GF(32003), 2,
     "1296cdb35a4ef8ff71ca0b35ce9874521ac2f5201f1c79f57687664fbf756b4b"),
]


@pytest.mark.parametrize("dom,seed,digest", EVERY_KIND,
                         ids=["QQ", "ZZ", "GF5", "GF32003"])
def test_draws_of_every_kind_keep_their_bytes(dom, seed, digest,
                                              monkeypatch):
    from retractlab import generator
    kinds = []
    draw = generator._automorphism_of_kind

    def spy(ring, kind, rng, complexity):
        kinds.append(kind)
        return draw(ring, kind, rng, complexity)

    monkeypatch.setattr(generator, "_automorphism_of_kind", spy)
    text = problem_text(GeneratorSpec(4, 2, 1, seed, 6, dom))
    assert set(kinds) == {"mult", "swap", "invert", "scale", "pscale",
                          "shift"}
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_determinism():
    spec = GeneratorSpec(n=3, d=2, r=1, seed=123456789, complexity=3, domain=QQ)
    assert problem_text(spec) == problem_text(spec)
    other = GeneratorSpec(n=3, d=2, r=1, seed=123456790, complexity=3, domain=QQ)
    assert problem_text(spec) != problem_text(other)


def test_header_records_algorithm_and_seed():
    spec = GeneratorSpec(n=2, d=2, r=1, seed=42, complexity=1, domain=GF(7))
    text = problem_text(spec)
    head = text.splitlines()[1]
    assert RNG_ALGORITHM in head and "seed=42" in head and "GF(7)" in head


@pytest.mark.parametrize("field,value", [
    ("n", 2.0), ("d", 1.0), ("r", 1.0), ("seed", 3.0), ("complexity", 1.0),
    ("seed", "3"), ("domain", "QQ")])
def test_spec_rejects_a_field_of_the_wrong_type(field, value):
    # each field is checked for its type as well as its size, so a float or
    # a domain's name fails here with ValueError, not later in the draw
    fields = dict(n=2, d=1, r=1, seed=3, complexity=1, domain=QQ)
    fields[field] = value
    with pytest.raises(ValueError, match="^%s must be " % field):
        GeneratorSpec(**fields)


def test_elementary_inverses_are_two_sided():
    # every kind's closed-form inverse, on each domain, drawn directly
    # rather than only as the kinds the generator happens to pick
    from retractlab.endo import compose, identity
    from retractlab.generator import _automorphism_of_kind
    from retractlab.ring import RingSignature
    kinds = ["mult", "swap", "invert", "scale", "pscale", "shift"]
    for domain in (QQ, ZZ, GF(5)):
        ring = RingSignature(["x1", "x2", "x3", "x4"], 2, domain)
        ident = identity(ring)
        rng = random.Random(17)
        for kind in kinds:
            for complexity in (1, 2, 3) * 5:
                alpha, alpha_inv = _automorphism_of_kind(ring, kind, rng,
                                                         complexity)
                assert compose(alpha, alpha_inv) == ident, (domain, kind)
                assert compose(alpha_inv, alpha) == ident, (domain, kind)


def test_trdeg_oracle_on_conjugated_projections():
    # a conjugate of standard_projection(ring, L, P) has a retract
    # isomorphic to R^[±|L|] ⊗ R^[|P|], so r = |L| and trdeg = |L| + |P|;
    # over GF(p) only an interval containing that value is reported
    from retractlab.endo import conjugate, standard_projection
    from retractlab.generator import _elementary_automorphism
    rng = random.Random(2301)
    strata = [(n, d, c) for n in range(2, 6) for d in range(1, min(3, n) + 1)
              for c in range(3)]
    for (n, d, complexity), domain, _ in itertools.product(
            strata, (QQ, ZZ, GF(5), GF(32003)), range(4)):
        ring = GeneratorSpec(n, d, 0, 0, 0, domain).ring()
        keep_laurent = sorted(rng.sample(range(d), rng.randint(0, d)))
        keep_poly = sorted(j for j in range(d, n) if rng.random() < 0.5)
        phi = standard_projection(ring, keep_laurent, keep_poly)
        for _ in range(complexity):
            phi = conjugate(phi, *_elementary_automorphism(ring, rng,
                                                           complexity))
        report = analyze(phi)
        r = len(keep_laurent)
        t = r + len(keep_poly)
        case = (n, d, complexity, domain, keep_laurent, keep_poly)
        assert report.r == r, case
        if isinstance(report.trdeg, tuple):
            assert domain.characteristic, case
            lo, hi = report.trdeg
            assert lo <= t <= hi, case
        else:
            assert report.trdeg == t, case
