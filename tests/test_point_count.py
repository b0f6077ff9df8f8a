"""The point-count oracle against `analyze`, over small prime fields.

An idempotent phi over GF(p) must fix exactly (p - 1)^r·p^t points of
(F_p^*)^d × F_p^(n-d), with r the unit rank that `analyze` reports and
r + t the transcendence degree, inside today's trdeg interval.  The maps
are generated ones, and four families enumerated without `gen`: every map
whose images lie in a fixed support, two of them on a Laurent x1, kept
when `require_idempotent` accepts it.  A count of this form is evidence
for r and trdeg, not a proof of the classification tag.  The two slow
families of `slow_point_count.py` run outside the suite.
"""

import pytest

from retractlab import (GF, GeneratorSpec, RingSignature,
                        gen_random_idempotent, require_idempotent)
from point_count import check_count, family, supported


def test_generated_maps_fix_a_point_count_of_their_rank():
    seen = set()
    maps = 0
    for p, max_n in ((2, 4), (3, 4), (5, 3), (7, 3)):
        for n in range(1, max_n + 1):
            for d in range(n + 1):
                for r in range(d + 1):
                    for seed in range(4):
                        spec = GeneratorSpec(n, d, r, seed, 1 + seed % 2,
                                             GF(p))
                        phi = gen_random_idempotent(spec)
                        require_idempotent(phi)
                        seen.add(check_count(phi))
                        maps += 1
    assert maps == 424
    # both the unit part and the polynomial part of the count get used
    assert any(r and t for r, t in seen), seen


@pytest.mark.parametrize("p, monomials, idempotents", [
    # GF(2)[x1,x2] of degree at most 2: 4,096 maps
    (2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 65),
    # GF(3)[x1,x2] multilinear: 6,561 maps
    (3, [(0, 0), (1, 0), (0, 1), (1, 1)], 82),
], ids=["GF(2) degree 2", "GF(3) multilinear"])
def test_exhaustive_families_fix_a_point_count_of_their_rank(
        p, monomials, idempotents):
    ring = RingSignature(["x1", "x2"], 0, GF(p))
    images = supported(ring, monomials)
    maps = family(ring, [images, images])
    assert len(maps) == idempotents
    # a retract of GF(p)[x1,x2] of each dimension 0, 1 and 2 occurs
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (0, 2)}


@pytest.mark.parametrize("p, idempotents", [(2, 27), (3, 196)],
                         ids=["GF(2)", "GF(3)"])
def test_laurent_families_fix_a_point_count_of_their_rank(p, idempotents):
    # GF(p)[x1^±,x2] with x1 sent to c·x1^a, a in -1..1, and x2 to any
    # element with support x1^(-1..1)·x2^(0..1): 192 and 4,374 maps
    ring = RingSignature(["x1", "x2"], 1, GF(p))
    first_images = [ring.monomial((a, 0), c)
                    for a in (-1, 0, 1) for c in range(1, p)]
    monomials = [(a, b) for a in (-1, 0, 1) for b in (0, 1)]
    maps = family(ring, [first_images, supported(ring, monomials)])
    assert len(maps) == idempotents
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (1, 0),
                                                 (1, 1)}
