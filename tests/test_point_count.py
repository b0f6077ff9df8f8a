"""The point-count oracle against `analyze`, over small prime fields.

An idempotent phi over GF(p) must fix exactly (p - 1)^r·p^t points of
(F_p^*)^d × F_p^(n-d), with r the unit rank that `analyze` reports and
r + t the transcendence degree, inside today's trdeg interval.  The maps
are generated ones, and two families enumerated without `gen`: every map
whose images lie in a fixed support, kept when `require_idempotent`
accepts it.  A count of this form is evidence for r and trdeg, not a proof
of the classification tag.
"""

from itertools import product

import pytest

from retractlab import (GF, Endomorphism, GeneratorSpec, MixedPoly,
                        NotIdempotentError, RingSignature, analyze,
                        gen_random_idempotent, require_idempotent)
from point_count import count_fixed_points, point_count_exponents


def check_count(phi):
    """Assert the count's form for an idempotent phi over GF(p)."""
    report = analyze(phi)
    p = phi.ring.domain.p
    count = count_fixed_points(phi)
    t = point_count_exponents(count, p, report.r)
    assert t is not None, (phi, count, report.r)
    trdeg = report.trdeg
    lo, hi = trdeg if isinstance(trdeg, tuple) else (trdeg, trdeg)
    assert lo <= report.r + t <= hi, (phi, count, report.r, trdeg)
    return report.r, t


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


def family(p, monomials):
    """Every map of GF(p)[x1,x2] whose images have support in monomials,
    and the number of them that `require_idempotent` accepts."""
    ring = RingSignature(["x1", "x2"], 0, GF(p))
    images = [MixedPoly(ring, zip(monomials, coeffs))
              for coeffs in product(range(p), repeat=len(monomials))]
    idempotent = []
    for pair in product(images, repeat=2):
        phi = Endomorphism(ring, pair)
        try:
            require_idempotent(phi)
        except NotIdempotentError:
            continue
        idempotent.append(phi)
    return idempotent


@pytest.mark.parametrize("p, monomials, idempotents", [
    # GF(2)[x1,x2] of degree at most 2: 4,096 maps
    (2, [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)], 65),
    # GF(3)[x1,x2] multilinear: 6,561 maps
    (3, [(0, 0), (1, 0), (0, 1), (1, 1)], 82),
], ids=["GF(2) degree 2", "GF(3) multilinear"])
def test_exhaustive_families_fix_a_point_count_of_their_rank(
        p, monomials, idempotents):
    maps = family(p, monomials)
    assert len(maps) == idempotents
    # a retract of GF(p)[x1,x2] of each dimension 0, 1 and 2 occurs
    assert {check_count(phi) for phi in maps} == {(0, 0), (0, 1), (0, 2)}
