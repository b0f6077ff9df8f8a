"""Random ring elements for the property tests."""

from retractlab import MixedPoly


def random_element(ring, rng, max_terms=3, max_exp=2, max_coeff=5):
    """A small random ring element, for property tests."""
    dom = ring.domain
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        exp = []
        for i in range(ring.n):
            lo = -max_exp if i < ring.laurent else 0
            exp.append(rng.randint(lo, max_exp))
        c = 0
        while c == 0:
            c = rng.randint(-max_coeff, max_coeff)
        terms.append((tuple(exp), dom.coerce(c)))
    return MixedPoly(ring, terms)
