"""Metamorphic tests: a report depends on the retract, not on how phi is
written.

An automorphism α of B that keeps the Laurent and polynomial blocks gives
α∘phi∘α⁻¹, which is idempotent exactly when phi is, with retract α(A) ≅ A.
So the exit class, r, trdeg, tag and rationality of the two analyses must
agree, though the bytes may differ.  `generatorsExplicit` is exempt: it
reads the shape of the quotient images, so it describes the presentation,
and `tests/data/ufd.ring` flips it under conjugation.  A permutation of
each block, with the variables renamed, must keep it too, as it maps a
lone variable to a lone variable.
"""

import os
import random

from retractlab import (GF, QQ, ZZ, Endomorphism, GeneratorSpec,
                        InvalidEndomorphismError, NotIdempotentError,
                        ParseError, RingSignature, analyze,
                        gen_random_idempotent, parse_problem)
from retractlab.endo import conjugate
from retractlab.generator import _elementary_automorphism
from point_count import laurent_family, plane_family

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def invariants(phi, explicit=False):
    """(exit class, r, trdeg, tag and its parameters but
    generatorsExplicit, unless `explicit`, rationality); (1,) for a
    rejected map."""
    try:
        rep = analyze(phi)
    except (InvalidEndomorphismError, NotIdempotentError):
        return (1,)
    params = sorted((k, v) for k, v in rep.classification.params.items()
                    if explicit or k != "generatorsExplicit")
    return (0, rep.r, rep.trdeg, rep.classification.tag, params,
            rep.rationality)


def conjugated(phi, rng):
    """phi conjugated by two draws of `_elementary_automorphism`."""
    for _ in range(2):
        alpha, alpha_inv = _elementary_automorphism(phi.ring, rng, 1)
        phi = conjugate(phi, alpha, alpha_inv)
    return phi


def permuted(phi, rng):
    """phi conjugated by a random permutation of each block, on a ring
    whose variables are renamed y1..yn in a random order, so that the
    quotient ring's y-names collide with polynomial ones."""
    ring = phi.ring
    d, n = ring.laurent, ring.n
    order = rng.sample(range(d), d) + rng.sample(range(d, n), n - d)
    alpha = Endomorphism(ring, [ring.variable(k) for k in order])
    inverse = Endomorphism(ring, [ring.variable(order.index(k))
                                  for k in range(n)])
    psi = conjugate(phi, alpha, inverse)
    names = ["y%d" % k for k in rng.sample(range(1, n + 1), n)]
    renamed = RingSignature(names, d, ring.domain)
    images = [renamed.variable(k) for k in range(n)]
    return Endomorphism(renamed, [g.substitute(images) for g in psi.images])


def golden_maps():
    """The maps of the golden files that parse; undeclared.ring does not."""
    maps = {}
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as f:
            try:
                maps[name] = parse_problem(f.read())[1]
            except ParseError:
                continue
    return maps


def small_specs():
    """The small strata's draws: n 2-5, d 1-3, complexity 0-2 and seeds 0-4
    over four domains, r = seed mod (d + 1)."""
    for dom in (QQ, ZZ, GF(5), GF(32003)):
        for n in range(2, 6):
            for d in range(1, min(3, n) + 1):
                for c in range(3):
                    for seed in range(5):
                        yield GeneratorSpec(n, d, seed % (d + 1), seed, c,
                                            dom)


def all_maps():
    """The golden maps, the small strata's draws and the point-count
    families over GF(2) and GF(3): 1,037 maps."""
    golden = golden_maps()
    assert sorted(golden) == ["e1.ring", "e3.ring", "e7.ring", "gf5.ring",
                              "swap.ring", "ufd.ring", "zz.ring"]
    maps = list(golden.values())
    maps += [gen_random_idempotent(spec) for spec in small_specs()]
    for p in (2, 3):
        maps += plane_family(p) + laurent_family(p)
    assert len(maps) == 7 + 660 + 65 + 82 + 27 + 196
    return maps


def test_conjugation_keeps_the_invariants():
    rng = random.Random(14)
    classes = set()
    for phi in all_maps():
        want = invariants(phi)
        assert invariants(conjugated(phi, rng)) == want, phi
        classes.add(want[0])
    assert classes == {0, 1}  # gf5, swap and zz stay non-idempotent


def test_block_permutation_keeps_the_invariants_and_generators_explicit():
    # a permutation maps a lone variable to a lone variable, so even the
    # presentation's generatorsExplicit must survive it
    rng = random.Random(47)
    classes = set()
    explicit = set()
    moved = False
    for phi in all_maps():
        psi = permuted(phi, rng)
        moved |= psi.ring.names != tuple("y%d" % (k + 1)
                                         for k in range(phi.ring.n))
        want = invariants(phi, explicit=True)
        assert invariants(psi, explicit=True) == want, (phi, psi)
        classes.add(want[0])
        if want[0] == 0:
            explicit.add(dict(want[4]).get("generatorsExplicit"))
    assert classes == {0, 1} and moved
    assert explicit == {None, False, True}


def test_ufd_ring_flips_generators_explicit_under_conjugation():
    # the one exemption, pinned: x3 ↦ x2 is conjugated to x3 ↦ x2 - 2*x1,
    # whose quotient image is no lone variable, though its retract is the
    # same
    with open(os.path.join(DATA, "ufd.ring"), encoding="utf-8") as f:
        phi = parse_problem(f.read())[1]
    psi = conjugated(phi, random.Random(13))
    assert str(psi.images[2]) == "-2*x1 + x2"
    before, after = analyze(phi), analyze(psi)
    assert repr(before.classification) == \
        "UFDClassified(generatorsExplicit=True, r=1, s=1)"
    assert repr(after.classification) == \
        "UFDClassified(generatorsExplicit=False, r=1, s=1)"
    assert invariants(phi) == invariants(psi)
