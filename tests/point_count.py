"""The point-count oracle: fixed points of an endomorphism mod p.

ker phi is generated by the x_i - phi(x_i), so the retract A is
B/(x - phi(x)), and its F_p-points are the fixed points of phi in
(F_p^*)^d × F_p^(n-d).  If A ≅ F_p[y^±r, z^t] there are exactly
(p - 1)^r·p^t of them.  The count needs only the images mod p, and no
engine code; `check_count` compares it with `analyze`, and `family`
enumerates the idempotents of a family of maps drawn without `gen`.
`plane_family` and `laurent_family` are the first four such families,
built once per process: the metamorphic tests conjugate them too.
"""

from functools import cache
from itertools import product, repeat
from math import prod

from retractlab import (GF, Endomorphism, MixedPoly, NotIdempotentError,
                        RingSignature, analyze, require_idempotent)


def count_fixed_points(phi):
    """The number of points of (F_p^*)^d × F_p^(n-d) that phi, a map over
    GF(p), fixes."""
    ring = phi.ring
    p = ring.domain.p
    images = [img.terms for img in phi.images]
    ranges = ([range(1, p)] * ring.laurent
              + [range(p)] * (ring.n - ring.laurent))
    count = 0
    for point in product(*ranges):
        if all(sum(c * prod(map(pow, point, exp, repeat(p)))
                   for exp, c in terms) % p == x
               for terms, x in zip(images, point)):
            count += 1
    return count


def point_count_exponents(count, p, r):
    """t with count = (p - 1)^r·p^t, or None when count has no such form."""
    unit_points = (p - 1) ** r
    if count % unit_points:
        return None
    rest = count // unit_points
    t = 0
    while rest % p == 0:
        rest //= p
        t += 1
    return t if rest == 1 else None


def check_count(phi):
    """(r, t) for an idempotent phi over GF(p), asserting that its count
    is (p - 1)^r·p^t with r from `analyze` and r + t inside its trdeg."""
    report = analyze(phi)
    p = phi.ring.domain.p
    count = count_fixed_points(phi)
    t = point_count_exponents(count, p, report.r)
    assert t is not None, (phi, count, report.r)
    trdeg = report.trdeg
    lo, hi = trdeg if isinstance(trdeg, tuple) else (trdeg, trdeg)
    assert lo <= report.r + t <= hi, (phi, count, report.r, trdeg)
    return report.r, t


def supported(ring, monomials):
    """Every element of a ring over GF(p) with support in monomials."""
    p = ring.domain.p
    return [MixedPoly(ring, zip(monomials, coeffs))
            for coeffs in product(range(p), repeat=len(monomials))]


def family(ring, choices):
    """The maps x_i ↦ an element of choices[i] that `require_idempotent`
    accepts, over every combination."""
    idempotent = []
    for images in product(*choices):
        phi = Endomorphism(ring, images)
        try:
            require_idempotent(phi)
        except NotIdempotentError:
            continue
        idempotent.append(phi)
    return idempotent


# the image support of GF(p)[x1,x2]'s family: degree at most 2 over GF(2),
# multilinear over GF(3)
PLANE_SUPPORTS = {
    2: [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
    3: [(0, 0), (1, 0), (0, 1), (1, 1)],
}


@cache
def plane_family(p):
    """The idempotents of GF(p)[x1,x2] whose images have support
    PLANE_SUPPORTS[p]: of 4,096 maps over GF(2) and 6,561 over GF(3)."""
    ring = RingSignature(["x1", "x2"], 0, GF(p))
    images = supported(ring, PLANE_SUPPORTS[p])
    return tuple(family(ring, [images, images]))


@cache
def laurent_family(p):
    """The idempotents of GF(p)[x1^±,x2] with x1 sent to c·x1^a, a in
    -1..1, and x2 to any element with support x1^(-1..1)·x2^(0..1): of 192
    maps over GF(2) and 4,374 over GF(3)."""
    ring = RingSignature(["x1", "x2"], 1, GF(p))
    first_images = [ring.monomial((a, 0), c)
                    for a in (-1, 0, 1) for c in range(1, p)]
    monomials = [(a, b) for a in (-1, 0, 1) for b in (0, 1)]
    return tuple(family(ring, [first_images, supported(ring, monomials)]))
