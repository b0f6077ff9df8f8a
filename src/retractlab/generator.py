"""Seeded random generation of idempotent endomorphisms.

Construction: start from a standard projection of the requested unit rank,
then conjugate by a chain of elementary automorphisms (unimodular monomial
maps, unit rescalings, and triangular shifts on polynomial variables), each
carrying a closed-form inverse.  Conjugation preserves idempotency and the
unit rank, so every generated instance analyzes back to the requested r.

The random source is Python's Mersenne Twister; generated files record the
algorithm identifier `mt19937-py` in their header for reproducibility.
"""

import random
from fractions import Fraction

from .endo import Endomorphism, standard_projection, conjugate
from .grammar import render_problem
from .ring import RingSignature

RNG_ALGORITHM = "mt19937-py"


class GeneratorSpec:

    __slots__ = ("n", "d", "r", "seed", "complexity", "domain")

    def __init__(self, n, d, r, seed, complexity, domain):
        if not 0 <= r <= d <= n:
            raise ValueError("need 0 <= r <= d <= n")
        if complexity < 0:
            raise ValueError("complexity must be >= 0")
        self.n = n
        self.d = d
        self.r = r
        self.seed = seed & 0xFFFFFFFFFFFFFFFF
        self.complexity = complexity
        self.domain = domain

    def ring(self):
        return RingSignature(["x%d" % (i + 1) for i in range(self.n)],
                             self.d, self.domain)


def _random_unit_scalar(domain, rng):
    if domain.kind == "integers":
        return rng.choice([1, -1])
    if domain.kind == "prime-field":
        return rng.randrange(1, domain.p)
    num = rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(num, rng.randint(1, 3))


def _random_shift_poly(ring, skip, rng, complexity):
    """Small random element not involving variable `skip`."""
    dom = ring.domain
    bound = max(1, min(complexity, 2))
    terms = []
    for _ in range(rng.randint(1, 2)):
        exp = []
        for i in range(ring.n):
            if i == skip:
                exp.append(0)
            elif i < ring.laurent:
                exp.append(rng.randint(-bound, bound))
            else:
                exp.append(rng.randint(0, bound))
        c = 0
        while c == 0:
            c = rng.randint(-2, 2)
        terms.append((tuple(exp), dom.coerce(c)))
    return ring.from_terms(terms)


def _elementary_automorphism(ring, rng, complexity):
    """A random elementary automorphism and its inverse."""
    d, n = ring.laurent, ring.n
    kinds = []
    if d >= 2:
        kinds += ["mult", "swap"]
    if d >= 1:
        kinds += ["invert", "scale"]
    if n > d:
        kinds += ["shift", "pscale"]
    return _automorphism_of_kind(ring, rng.choice(kinds), rng, complexity)


def _automorphism_of_kind(ring, kind, rng, complexity):
    """An elementary automorphism of the given kind and its closed-form
    inverse; the tests check that the two are inverse for every kind."""
    d, n = ring.laurent, ring.n
    fwd = [ring.variable(i) for i in range(n)]
    inv = [ring.variable(i) for i in range(n)]
    if kind == "mult":
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-2, -1, 1, 2])
        fwd[i] = ring.variable(i) * ring.variable(j) ** c
        inv[i] = ring.variable(i) * ring.variable(j) ** (-c)
    elif kind == "swap":
        i, j = rng.sample(range(d), 2)
        fwd[i], fwd[j] = fwd[j], fwd[i]
        inv[i], inv[j] = inv[j], inv[i]
    elif kind == "invert":
        i = rng.randrange(d)
        fwd[i] = ring.variable(i) ** -1
        inv[i] = ring.variable(i) ** -1
    elif kind == "scale":
        i = rng.randrange(d)
        u = _random_unit_scalar(ring.domain, rng)
        fwd[i] = ring.variable(i).scale(u)
        inv[i] = ring.variable(i).scale(ring.domain.invert(u))
    elif kind == "pscale":
        j = rng.randrange(d, n)
        u = _random_unit_scalar(ring.domain, rng)
        fwd[j] = ring.variable(j).scale(u)
        inv[j] = ring.variable(j).scale(ring.domain.invert(u))
    else:  # shift
        j = rng.randrange(d, n)
        q = _random_shift_poly(ring, j, rng, complexity)
        fwd[j] = ring.variable(j) + q
        inv[j] = ring.variable(j) - q
    return Endomorphism(ring, fwd), Endomorphism(ring, inv)


def gen_random_idempotent(spec):
    """Deterministic-in-seed idempotent endomorphism with unit rank spec.r."""
    rng = random.Random(spec.seed)
    ring = spec.ring()
    keep_laurent = sorted(rng.sample(range(spec.d), spec.r))
    poly_indices = range(spec.d, spec.n)
    keep_poly = sorted(j for j in poly_indices if rng.random() < 0.5)
    phi = standard_projection(ring, keep_laurent, keep_poly)
    for _ in range(spec.complexity):
        alpha, alpha_inv = _elementary_automorphism(ring, rng, spec.complexity)
        phi = conjugate(phi, alpha, alpha_inv)
    return phi


def problem_text(spec):
    """Full problem file for a spec, with a reproducibility header."""
    phi = gen_random_idempotent(spec)
    header = [
        "generated by retractlab gen",
        "rng=%s seed=%d n=%d d=%d r=%d complexity=%d domain=%r"
        % (RNG_ALGORITHM, spec.seed, spec.n, spec.d, spec.r,
           spec.complexity, spec.domain),
    ]
    return render_problem(phi, header)
