"""The two slow point-count families, outside the test suite.

    PYTHONPATH=src python tests/slow_point_count.py [family ...]

Each family is every map of a ring over GF(2) whose images lie in a fixed
support, with x1 Laurent and sent to x1^a for a in -1..1:

    wide   GF(2)[x1^±,x2], x2 with support x1^(-2..2)·x2^(0..2): 98,304 maps
    three  GF(2)[x1^±,x2,x3], x2 and x3 with support x1^(-1..1)·{1,x2,x3}:
           786,432 maps

For every map that `require_idempotent` accepts, the count of its fixed
points must be (p - 1)^r·p^t with r from `analyze` and r + t inside its
trdeg (`point_count.check_count`).  A family prints its maps, its
idempotents, the (r, t) pairs that occur and its time; the exit code is 1
if a count fails.  The file's name does not start with `test_`, so pytest
does not collect it.
"""

import sys
import time

from retractlab import GF, RingSignature
from point_count import check_count, family, supported


def laurent_images(ring):
    return [ring.monomial((a,) + (0,) * (ring.n - 1)) for a in (-1, 0, 1)]


def wide():
    ring = RingSignature(["x1", "x2"], 1, GF(2))
    monomials = [(a, b) for a in range(-2, 3) for b in range(3)]
    return ring, [laurent_images(ring), supported(ring, monomials)]


def three():
    ring = RingSignature(["x1", "x2", "x3"], 1, GF(2))
    monomials = [(a,) + z for a in (-1, 0, 1)
                 for z in ((0, 0), (1, 0), (0, 1))]
    images = supported(ring, monomials)
    return ring, [laurent_images(ring), images, images]


FAMILIES = {"wide": wide, "three": three}


def main(names):
    failed = False
    for name in names or FAMILIES:
        start = time.perf_counter()
        ring, choices = FAMILIES[name]()
        maps = 1
        for images in choices:
            maps *= len(images)
        idempotents = family(ring, choices)
        pairs = set()
        failures = 0
        for phi in idempotents:
            try:
                pairs.add(check_count(phi))
            except AssertionError as exc:
                failures += 1
                print("%s: count fails: %s" % (name, exc))
        failed = failed or failures > 0
        print("%s: %r, %d maps, %d idempotent, (r, t) in %s, %d failed, "
              "%.1f s" % (name, ring, maps, len(idempotents), sorted(pairs),
                          failures, time.perf_counter() - start))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
