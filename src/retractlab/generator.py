"""Seeded random generation of idempotent endomorphisms.

Construction: start from a standard projection of the requested unit rank,
then conjugate by a chain of elementary automorphisms (unimodular monomial
maps, unit rescalings, and triangular shifts on polynomial variables), each
carrying a closed-form inverse.  Conjugation preserves idempotency and the
unit rank, so every generated instance analyzes back to the requested r.

A `GeneratorSpec`, an immutable namedtuple checked when it is built, names
the draw: n and d, the unit rank r, the seed (kept to 64 bits), the number
of conjugations (complexity) and the domain.  The random source is
Python's Mersenne Twister; generated files record the algorithm identifier
`mt19937-py` in their header for reproducibility.
"""

import random
from collections import namedtuple
from fractions import Fraction

from .domains import Domain
from .endo import Endomorphism, standard_projection, conjugate
from .grammar import MAX_VARIABLES, render_problem
from .ring import MixedPoly, RingSignature

RNG_ALGORITHM = "mt19937-py"


class GeneratorSpec(namedtuple("GeneratorSpec",
                               "n d r seed complexity domain")):
    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __new__(cls, n, d, r, seed, complexity, domain):
        for name, value in zip(cls._fields, (n, d, r, seed, complexity)):
            if not isinstance(value, int):
                raise ValueError("%s must be an int, got %r" % (name, value))
        if not isinstance(domain, Domain):
            raise ValueError("domain must be a Domain, got %r" % (domain,))
        if n < 1:
            raise ValueError("need n >= 1, got %d" % n)
        if n > MAX_VARIABLES:
            raise ValueError("need n <= %d, got %d" % (MAX_VARIABLES, n))
        if not 0 <= r <= d <= n:
            raise ValueError("need 0 <= r <= d <= n")
        if complexity < 0:
            raise ValueError("complexity must be >= 0")
        return tuple.__new__(cls, (n, d, r, seed & 0xFFFFFFFFFFFFFFFF,
                                   complexity, domain))

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
    return MixedPoly(ring, terms)


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
    inv = list(fwd)
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
    elif kind in ("scale", "pscale"):
        i = rng.randrange(d) if kind == "scale" else rng.randrange(d, n)
        u = _random_unit_scalar(ring.domain, rng)
        fwd[i] = ring.variable(i) * ring.constant(u)
        inv[i] = ring.variable(i) * ring.constant(ring.domain.invert(u))
    else:  # shift
        j = rng.randrange(d, n)
        q = _random_shift_poly(ring, j, rng, complexity)
        fwd[j] = ring.variable(j) + q
        inv[j] = ring.variable(j) - q
    return (Endomorphism._trusted(ring, tuple(fwd)),
            Endomorphism._trusted(ring, tuple(inv)))


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
