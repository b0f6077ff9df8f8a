"""R-algebra endomorphisms of a mixed Laurent/polynomial ring.

An endomorphism is given by the images of the n variables.  Laurent-block
variables must map to units, otherwise no ring map exists on x_i^-1.  The
induced action on the unit lattice Z^d is extracted as MonomialData with the
convention: column i of the matrix is the Laurent exponent of the image of
x_i, so composition multiplies matrices in application order.

`require_idempotent` proves phi∘phi = phi from phi = σ∘ω with ω∘phi = ω,
as phi∘phi = σ∘(ω∘phi) = σ∘ω, in any characteristic.  ω keeps phi's images
in R[x_L^±], fixes a set C of the other variables, and sends the rest to
witnesses W_j in R[x_L^±][x_C], phi(x_j) = W_j(phi(x_C)); σ sends x_c in C
to phi(x_c) and fixes the rest.  C first holds all of them; if that ω
fails, each image joins C in leading-term order unless subduction by C
finds its witness (Robbiano & Sweedler, "Subalgebra bases", 1990).  Both
equalities are checked by exact substitution.  phi∘phi is expanded instead
when that is cheap (EXPANSION_PRODUCTS) or no factorisation holds.

The proof also fixes variables mod J, the ideal of the killed y-variables
(see `engine`): every c in C whose image uses no polynomial variable
outside C has phi(x_c) ≡ x_c mod J.  With π: B → B/J and φ̄ = phi mod J,
π∘phi = φ̄∘π and φ̄ fixes the Laurent part of B/J, so π∘ω = π on
R[x_L^±][x_C], where ω(x_i) = phi(x_i) and ω(x_c) = x_c; so
π(phi(x_c)) = π(ω(phi(x_c))) = π(ω(x_c)) = π(x_c).  `require_idempotent`
returns those c as `MonomialData.fixed`, empty after an expanded phi∘phi.
"""

from math import prod

from .domains import QQ
from .intlinalg import IntMatrix
from .ring import MixedPoly, RingMismatchError, RingSignature


class InvalidEndomorphismError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


class Endomorphism:

    __slots__ = ("ring", "images")

    def __init__(self, ring, images):
        images = tuple(images)
        if len(images) != ring.n:
            raise ValueError("expected %d images, got %d" % (ring.n, len(images)))
        for img in images:
            if not isinstance(img, MixedPoly) or (img.ring is not ring
                                                  and img.ring != ring):
                raise RingMismatchError("image not in the endomorphism's ring")
        self.ring = ring
        self.images = images

    @classmethod
    def _trusted(cls, ring, images):
        """Wrap a tuple of n images already in ring, skipping the checks."""
        phi = object.__new__(cls)
        phi.ring = ring
        phi.images = images
        return phi

    def __eq__(self, other):
        return (isinstance(other, Endomorphism)
                and self.ring == other.ring and self.images == other.images)

    def __hash__(self):
        return hash((self.ring, self.images))

    def __repr__(self):
        maps = ", ".join("%s -> %s" % (name, img)
                         for name, img in zip(self.ring.names, self.images))
        return "Endomorphism(%s)" % maps


class MonomialData:
    """Unit-lattice matrix and scalar parts of the Laurent-block images, and
    the polynomial variables x_c that the idempotency proof shows to have
    phi(x_c) ≡ x_c mod J (see the module docstring)."""

    __slots__ = ("matrix", "lambdas", "fixed")

    def __init__(self, matrix, lambdas):
        self.matrix = matrix
        self.lambdas = tuple(lambdas)
        self.fixed = ()


def identity(ring):
    return Endomorphism._trusted(
        ring, tuple([ring.variable(i) for i in range(ring.n)]))


def apply(phi, p):
    return p.substitute(phi.images)


def compose(phi, psi):
    """The endomorphism p ↦ phi(psi(p))."""
    if phi.ring is not psi.ring and phi.ring != psi.ring:
        raise RingMismatchError("cannot compose endomorphisms of different rings")
    # each image substitutes into phi's images, so it lies in phi's ring
    images = phi.images
    return Endomorphism._trusted(
        phi.ring, tuple([img.substitute(images) for img in psi.images]))


def is_idempotent(phi):
    return compose(phi, phi) == phi


def idempotency_defect(phi):
    """Per-variable differences phi²(x_i) − phi(x_i); all zero iff idempotent."""
    sq = compose(phi, phi)
    return [s - p if s != p else phi.ring.zero()
            for s, p in zip(sq.images, phi.images)]


# phi∘phi is expanded up to this many term products.  On generated maps of
# n 2-6, trying the factorisation first took 1-1.6x as long below 100,
# about as long to ~2,500, and a tenth or less past 10,000 if idempotent.
EXPANSION_PRODUCTS = 1000
# term pairs the witness search may multiply before it gives up
SUBDUCTION_PAIRS = 100000


def _expansion_exceeds(phi):
    """Whether expanding phi∘phi term by term, with no cancellation, makes
    more than EXPANSION_PRODUCTS term products with a multi-term image.
    It makes none unless a polynomial variable maps to something other than
    itself that involves the polynomial variables, so then ω is not phi."""
    sizes = [(j, len(img.terms)) for j, img in enumerate(phi.images)
             if len(img.terms) > 1]
    count = 0
    for img in phi.images:
        for e, _ in img.terms:
            count += prod(size ** e[j] for j, size in sizes) - 1
            if count > EXPANSION_PRODUCTS:
                return True
    return False


def _leading(p, d):
    """(α, the terms of p on x^α), x^α p's graded-lex leading monomial in
    the polynomial variables."""
    alpha = max((sum(e[d:]), e[d:]) for e, _ in p.terms)[1]
    return alpha, [(e, c) for e, c in p.terms if e[d:] == alpha]


def _split(alpha, leads):
    """Multiplicities a ≥ 0 with Σ a_k·leads[k] = alpha, each as large as
    it goes in turn, or None."""
    split = []
    for lead in leads:
        k = min(a // b for a, b in zip(alpha, lead) if b)
        alpha = tuple(a - k * b for a, b in zip(alpha, lead))
        split.append(k)
    return None if any(alpha) else split


def _subduce(f, gens, d, budget):
    """W in R[x_L^±][x_C] with f = W(phi(x_C)), by leading-term subduction
    against gens = [(c, α_c, (λ, E), [phi(x_c), phi(x_c)^2, ...])], where
    λ·x^E, λ a unit, leads phi(x_c); None if that fails or passes budget."""
    ring = f.ring
    dom = ring.domain
    witness = []
    while f.terms:
        alpha, lead = _leading(f, d)
        if not any(alpha):
            witness.extend(f.terms)  # f lies in R[x_L^±]
            break
        split = _split(alpha, [g[1] for g in gens])
        if split is None:
            return None
        # ∏ phi(x_c)^a_c has leading term scale·x^shift: q times it takes
        # the leading term of f away
        scale, shift, x_c = 1, (0,) * ring.n, [0] * (ring.n - d)
        for (c, _, (lam, exp), _), k in zip(gens, split):
            scale = dom.mul(scale, dom.pow(lam, k))
            shift = tuple(s + k * x for s, x in zip(shift, exp))
            x_c[c - d] = k
        inverse = dom.invert(scale)
        part = q = MixedPoly._trusted(ring, tuple(
            (tuple(x - s for x, s in zip(e, shift)), dom.mul(c, inverse))
            for e, c in lead))
        for (_, _, _, powers), k in zip(gens, split):
            while len(powers) < k:
                budget[0] -= len(powers[-1].terms) * len(powers[0].terms)
                if budget[0] < 0:
                    return None
                powers.append(powers[-1] * powers[0])
            if k:
                budget[0] -= len(part.terms) * len(powers[k - 1].terms)
                if budget[0] < 0:
                    return None
                part = part * powers[k - 1]
        f = f - part
        witness.extend((e[:d] + tuple(x_c), c) for e, c in q.terms)
    return MixedPoly(ring, witness)


def _factorisation_holds(phi, sigma, omega, witnessed):
    """Whether σ∘ω = phi on the witnessed variables, where it does not hold
    by construction, and ω∘phi = ω; the smallest images are checked first."""
    ring, images = phi.ring, phi.images
    if any(omega[j].substitute(sigma) != images[j] for j in witnessed):
        return False
    for i in sorted(range(ring.n), key=lambda i: len(images[i].terms)):
        if images[i].substitute(omega) != omega[i]:
            return False
    return True


def _fixed_mod_J(images, d, C):
    """The c in C whose image uses no polynomial variable outside C: each
    has phi(x_c) ≡ x_c mod J once ω∘phi = ω holds (module docstring)."""
    outside = [j for j in range(d, len(images)) if j not in C]
    if not outside:
        return tuple(C)
    return tuple(c for c in C
                 if not any(e[j] for e, _ in images[c].terms for j in outside))


def _factorisation_proves_idempotent(phi):
    """The variables `_fixed_mod_J` reads off a factorisation phi = σ∘ω
    with ω∘phi = ω that is found and checked (see the module docstring),
    or None, which proves nothing.  A map over ZZ is searched over QQ,
    where any nonzero lead is a unit: phi∘phi = phi holds over both or
    neither."""
    ring = phi.ring
    if not ring.domain.is_field:  # ints are canonical QQ coefficients
        ring = RingSignature(ring.names, ring.laurent, QQ)
        phi = Endomorphism._trusted(ring, tuple(
            [MixedPoly._trusted(ring, img.terms) for img in phi.images]))
    d = ring.laurent
    images = phi.images
    variables = [ring.variable(j) for j in range(ring.n)]
    free = [j for j in range(d, ring.n)
            if any(any(e[d:]) for e, _ in images[j].terms)]
    omega = [variables[j] if j in free else p for j, p in enumerate(images)]
    if _factorisation_holds(phi, None, omega, ()):
        return _fixed_mod_J(images, d, free)
    leads = {j: _leading(images[j], d) for j in free}
    gens = []
    budget = [SUBDUCTION_PAIRS]
    for j in sorted(free, key=lambda j: (sum(leads[j][0]), leads[j][0], j)):
        omega[j] = _subduce(images[j], gens, d, budget)
        if omega[j] is None:
            alpha, lead = leads[j]
            if len(lead) != 1 or not ring.domain.is_unit(lead[0][1]):
                return None
            (exp, c), = lead
            gens.append((j, alpha, (c, exp), [images[j]]))
            omega[j] = variables[j]
    witnessed = [j for j in free if omega[j] is not variables[j]]
    if not witnessed:
        return None  # that ω failed above
    sigma = list(variables)
    for c, _, _, powers in gens:
        sigma[c] = powers[0]
    if not _factorisation_holds(phi, sigma, omega, witnessed):
        return None
    return _fixed_mod_J(images, d, [g[0] for g in gens])


def require_idempotent(phi):
    """The check every input passes: return monomial_part(phi), which raises
    InvalidEndomorphismError unless each Laurent variable maps to a unit,
    with the `fixed` variables of a factorisation proof, or raise
    NotIdempotentError naming the first variable with phi²(x) != phi(x)."""
    mono = monomial_part(phi)
    if _expansion_exceeds(phi):
        fixed = _factorisation_proves_idempotent(phi)
        if fixed is not None:
            mono.fixed = fixed
            return mono
    for name, delta in zip(phi.ring.names, idempotency_defect(phi)):
        if not delta.is_zero():
            raise NotIdempotentError(
                "phi²(%s) - phi(%s) = %s != 0" % (name, name, delta))
    return mono


def monomial_part(phi):
    """(M, λ) with images[i] = λ_i·x^{M·e_i} for Laurent-block i, the one
    reader of the Laurent block: raise InvalidEndomorphismError for the
    first image that is not a unit."""
    d = phi.ring.laurent
    cols = []
    lambdas = []
    for i in range(d):
        unit = phi.images[i].is_unit()
        if unit is None:
            raise InvalidEndomorphismError(
                "image of Laurent variable %s is not a unit: %s"
                % (phi.ring.names[i], phi.images[i]))
        c, exp = unit
        cols.append(exp[:d])
        lambdas.append(c)
    M = IntMatrix(tuple(zip(*cols))) if d else IntMatrix(())
    return MonomialData(M, lambdas)


def conjugate(phi, alpha, alpha_inv):
    """Return alpha ∘ phi ∘ alpha_inv; requires alpha_inv to be a two-sided
    inverse of alpha."""
    ident = identity(phi.ring)
    if compose(alpha, alpha_inv) != ident or compose(alpha_inv, alpha) != ident:
        raise ValueError("alpha_inv is not a two-sided inverse of alpha")
    return compose(alpha, compose(phi, alpha_inv))


def standard_projection(ring, keep_laurent=(), keep_poly=()):
    """The idempotent map fixing the kept variables, sending dropped Laurent
    variables to 1 and dropped polynomial variables to 0."""
    keep_laurent = set(keep_laurent)
    keep_poly = set(keep_poly)
    if not keep_laurent <= set(range(ring.laurent)):
        raise ValueError("keep_laurent indices outside the Laurent block")
    if not keep_poly <= set(range(ring.laurent, ring.n)):
        raise ValueError("keep_poly indices outside the polynomial block")
    one, zero = ring.constant(1), ring.zero()
    return Endomorphism._trusted(ring, tuple(
        [ring.variable(i) if i in keep_laurent or i in keep_poly
         else one if i < ring.laurent else zero for i in range(ring.n)]))
