"""R-algebra endomorphisms of a mixed Laurent/polynomial ring.

An endomorphism is given by the images of the n variables.  Laurent-block
variables must map to units, otherwise no ring map exists on x_i^-1.  The
induced action on the unit lattice Z^d is extracted as MonomialData with the
convention: column i of the matrix is the Laurent exponent of the image of
x_i, so composition multiplies matrices in application order.
"""

from .intlinalg import IntMatrix
from .ring import MixedPoly, RingMismatchError


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
            if not isinstance(img, MixedPoly) or img.ring != ring:
                raise RingMismatchError("image not in the endomorphism's ring")
        self.ring = ring
        self.images = images

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
    """Unit-lattice matrix and scalar parts of the Laurent-block images."""

    __slots__ = ("matrix", "lambdas")

    def __init__(self, matrix, lambdas):
        self.matrix = matrix
        self.lambdas = tuple(lambdas)


def identity(ring):
    return Endomorphism(ring, [ring.variable(i) for i in range(ring.n)])


def require_valid(phi):
    """Raise InvalidEndomorphismError unless every Laurent-block variable
    maps to a unit."""
    for i in range(phi.ring.laurent):
        if phi.images[i].is_unit() is None:
            raise InvalidEndomorphismError(
                "image of Laurent variable %s is not a unit: %s"
                % (phi.ring.names[i], phi.images[i]))


def apply(phi, p):
    return p.substitute(phi.images, phi.ring)


def compose(phi, psi):
    """The endomorphism p ↦ phi(psi(p))."""
    if phi.ring != psi.ring:
        raise RingMismatchError("cannot compose endomorphisms of different rings")
    return Endomorphism(phi.ring, [apply(phi, img) for img in psi.images])


def is_idempotent(phi):
    return compose(phi, phi) == phi


def idempotency_defect(phi):
    """Per-variable differences phi²(x_i) − phi(x_i); all zero iff idempotent."""
    sq = compose(phi, phi)
    return [s - p if s != p else phi.ring.zero()
            for s, p in zip(sq.images, phi.images)]


def require_idempotent(phi):
    """The check every input passes: raise InvalidEndomorphismError unless
    each Laurent variable maps to a unit, then NotIdempotentError naming the
    first variable with phi²(x) != phi(x)."""
    require_valid(phi)
    defect = idempotency_defect(phi)
    for name, delta in zip(phi.ring.names, defect):
        if not delta.is_zero():
            raise NotIdempotentError(
                "phi²(%s) - phi(%s) = %s != 0" % (name, name, delta))


def monomial_part(phi):
    """Extract (M, λ) with images[i] = λ_i·x^{M·e_i} for Laurent-block i."""
    require_valid(phi)
    d = phi.ring.laurent
    cols = []
    lambdas = []
    for i in range(d):
        c, exp = phi.images[i].is_unit()
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
    images = []
    for i in range(ring.n):
        if i in keep_laurent or i in keep_poly:
            images.append(ring.variable(i))
        elif i < ring.laurent:
            images.append(ring.one())
        else:
            images.append(ring.zero())
    return Endomorphism(ring, images)
