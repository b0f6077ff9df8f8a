"""The point-count oracle against `analyze`, over small prime fields.

An idempotent phi over GF(p) must fix exactly (p - 1)^r·p^t points of
(F_p^*)^d × F_p^(n-d), with r the unit rank that `analyze` reports and
r + t the transcendence degree, inside today's trdeg interval.  The maps
are generated ones, and six families enumerated without `gen`: every map
whose images lie in a fixed support, two of them on a Laurent x1 and one
on a torus, kept when `require_idempotent` accepts it.  That is 1,028 maps
in all.  A count of this form is evidence for r and trdeg, not a proof of
the classification tag.  The two slow families of `slow_point_count.py`
run outside the suite.
"""

import pytest

from retractlab import (GF, GeneratorSpec, RingSignature,
                        gen_random_idempotent, require_idempotent)
from point_count import (check_count, family, laurent_family, plane_family,
                         supported)


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


@pytest.mark.parametrize("p, idempotents", [(2, 65), (3, 82)],
                         ids=["GF(2) degree 2", "GF(3) multilinear"])
def test_exhaustive_families_fix_a_point_count_of_their_rank(p, idempotents):
    maps = plane_family(p)
    assert len(maps) == idempotents
    # a retract of GF(p)[x1,x2] of each dimension 0, 1 and 2 occurs
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (0, 2)}


@pytest.mark.parametrize("p, idempotents", [(2, 27), (3, 196)],
                         ids=["GF(2)", "GF(3)"])
def test_laurent_families_fix_a_point_count_of_their_rank(p, idempotents):
    maps = laurent_family(p)
    assert len(maps) == idempotents
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (1, 0),
                                                 (1, 1)}


def test_affine_maps_of_three_variables_fix_a_point_count_of_their_rank():
    # GF(2)[x1,x2,x3], each image with support {1, x1, x2, x3}: 4,096 maps.
    # x ↦ Ax + b is idempotent when A² = A and Ab = 0: 8 + 28·4 + 28·2 + 1
    ring = RingSignature(["x1", "x2", "x3"], 0, GF(2))
    images = supported(ring, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    maps = family(ring, [images] * 3)
    assert len(maps) == 177
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (0, 2),
                                                 (0, 3)}


def test_monomial_maps_of_a_torus_fix_a_point_count_of_their_rank():
    # GF(5)[x1^±,x2^±] with x1 and x2 each sent to c·x1^a·x2^b, a and b in
    # -1..1: 1,296 maps, whose retracts are tori of each rank 0, 1 and 2
    ring = RingSignature(["x1", "x2"], 2, GF(5))
    images = [ring.monomial((a, b), c) for a in (-1, 0, 1)
              for b in (-1, 0, 1) for c in range(1, 5)]
    maps = family(ring, [images, images])
    assert len(maps) == 57
    assert {check_count(phi) for phi in maps} == {(0, 0), (1, 0), (2, 0)}
