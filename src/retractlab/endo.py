"""R-algebra endomorphisms of a mixed Laurent/polynomial ring.

An `Endomorphism` is an immutable namedtuple of its ring and the tuple of
the images of the n variables.  Laurent-block variables must map to units,
otherwise no ring map exists on x_i^-1.  The induced action on the unit
lattice Z^d is extracted as MonomialData with the convention: column i of
the matrix is the Laurent exponent of the image of x_i, so composition
multiplies matrices in application order.

`require_idempotent` decides phi∘phi = phi by one subalgebra search
(Robbiano & Sweedler, "Subalgebra bases", 1990), in any characteristic.
With L = R[x_L^±] and S = phi(L), phi must first fix its images in L; then
it fixes S, and a q in L with phi(q) = q lies in S.  The search builds G
in phi(B), each g_j named by the x_j whose image it comes from, and P_j in
S[x_G] with phi(x_j) = P_j(G).  With ω: x_j ↦ P_j, ω = phi on L, and
σ: x_j ↦ g_j fixing L, phi = σ∘ω, so phi(g_j) − g_j = σ(ω(g_j) − x_j): if
that is 0 for every g_j, phi fixes S[G], which holds every image, and a
nonzero one refutes idempotency.  G first holds the images.  If some
ω(g_j) ≠ x_j, each image is instead subduced, in graded-lex order of its
lead in the polynomial variables, by the g_k whose lead coefficient
lc(g_k) in L is a unit: a lead Σ a_k·lead(g_k), split by backtracking,
goes with q·∏ g_k^a_k when q = lc/∏ lc(g_k)^a_k has phi(q) = q, and the
remainder joins G when it does not.  phi∘phi is expanded instead when
that is cheap (EXPANSION_PRODUCTS), after a refutation, for its message,
and past SUBDUCTION_PAIRS.

The proof also fixes variables mod J, the ideal of the killed y-variables
(see `engine`).  Let C hold the x_c with P_c = x_c and ω(g_c) = x_c.  With
π: B → B/J and φ̄ = phi mod J, π∘phi = φ̄∘π and φ̄ fixes the Laurent part
of B/J, so π∘ω = π on R[x_L^±][x_C]; each c in C whose image uses no
polynomial variable outside C has π(phi(x_c)) = π(ω(g_c)) = π(x_c).
`require_idempotent` returns them as `MonomialData.fixed`, empty after an
expanded phi∘phi.
"""

from collections import namedtuple
from itertools import compress
from math import prod

from .domains import QQ
from .intlinalg import IntMatrix
from .ring import MixedPoly, RingMismatchError, RingSignature, _term_key


class InvalidEndomorphismError(ValueError):
    pass


class NotIdempotentError(ValueError):
    pass


class Endomorphism(namedtuple("Endomorphism", "ring images")):
    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __new__(cls, ring, images):
        images = tuple(images)
        if len(images) != ring.n:
            raise ValueError("expected %d images, got %d" % (ring.n, len(images)))
        for img in images:
            if not isinstance(img, MixedPoly) or (img.ring is not ring
                                                  and img.ring != ring):
                raise RingMismatchError("image not in the endomorphism's ring")
        return tuple.__new__(cls, (ring, images))

    @classmethod
    def _trusted(cls, ring, images):
        """Wrap a tuple of n images already in ring, skipping the checks."""
        return tuple.__new__(cls, (ring, images))

    def __repr__(self):
        maps = ", ".join("%s -> %s" % (name, img)
                         for name, img in zip(self.ring.names, self.images))
        return "Endomorphism(%s)" % maps


class MonomialData(namedtuple("MonomialData", "matrix lambdas fixed")):
    """Unit-lattice matrix and scalar parts of the Laurent-block images, and
    the polynomial variables x_c that the idempotency proof shows to have
    phi(x_c) ≡ x_c mod J (see the module docstring).  A tuple, so
    immutable: `require_idempotent` returns a new one with `fixed` set."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented


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


# phi∘phi is expanded up to this many term products.  Searching every map
# with a free image instead kept every byte but made the `small` benchmark's
# op_p50_ms 6% and op_max_ms 20% slower, and `tail-qq` op_p95_ms 21%.
EXPANSION_PRODUCTS = 1000
# term pairs (in subduction and σ) and backtracking steps the subalgebra
# search may take: the costliest proof seen, GF(5) n4d0r0c5 seed 7, ~0.98M
SUBDUCTION_PAIRS = 2000000


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
    """(α, c): x^α, p's graded-lex leading monomial in the polynomial
    variables, and its coefficient c in R[x_L^±]."""
    alpha = max((sum(e[d:]), e[d:]) for e, _ in p.terms)[1]
    return alpha, MixedPoly._trusted(p.ring, tuple(
        (e[:d] + (0,) * len(alpha), c) for e, c in p.terms if e[d:] == alpha))


class _PastBudget(Exception):
    pass


def _spend(budget, pairs):
    budget[0] -= pairs
    if budget[0] < 0:
        raise _PastBudget


def _multiplicities(alpha, leads, budget):
    """a ≥ 0 with Σ a_k·leads[k] = alpha, each a_k as large as it goes
    first, by backtracking that drops a branch once alpha's rest needs a
    variable that no later lead holds; or None.  A step costs budget[0] 1."""
    _spend(budget, 1)
    if not leads:
        return None if any(alpha) else ()
    if not all(any(lead[i] for lead in leads)
               for i, r in enumerate(alpha) if r):
        return None
    lead = leads[0]
    for a in range(min(r // b for r, b in zip(alpha, lead) if b), -1, -1):
        tail = _multiplicities(tuple(r - a * b for r, b in zip(alpha, lead)),
                               leads[1:], budget)
        if tail is not None:
            return (a,) + tail
    return None


def _times_powers(q, split, powers, budget):
    """q·∏ g_j^k over (j, k) in split, with g_j^k = powers[j][k - 1], each
    power built once; budget[0] pays each product's term pairs."""
    for j, k in split:
        if k:
            table = powers[j]
            while len(table) < k:
                _spend(budget, len(table[-1].terms) * len(table[0].terms))
                table.append(table[-1] * table[0])
            _spend(budget, len(q.terms) * len(table[k - 1].terms))
            q = q * table[k - 1]
    return q


def _subalgebra(phi, free, budget):
    """(powers, ω): powers[j] = [g_j, g_j^2, ...] for each g_j in G, and ω's
    images, with phi(x_j) = ω(x_j)(G) for each free j, by subduction (see
    the module docstring); phi must fix its images in L."""
    ring, images = phi.ring, phi.images
    omega, powers, units = list(images), {}, {}  # units: j ↦ (α, lc(g_j))
    first = {j: _leading(images[j], ring.laurent) for j in free}
    for j in sorted(free, key=lambda j: _term_key(first[j][0])):
        f, (alpha, lc), omega[j] = images[j], first[j], ring.zero()
        while True:
            dividers = sorted(units, key=lambda k: _term_key(units[k][0]),
                              reverse=True)
            split = _multiplicities(alpha, [units[k][0] for k in dividers],
                                    budget)
            if split is not None:
                split, q = list(zip(dividers, split)), lc
                for k, a in split:
                    q = q * units[k][1] ** -a
            if split is None or q.substitute(images) != q:  # q is not in S
                if any(alpha) and lc.is_unit():
                    units[j] = (alpha, lc)
                powers[j] = [f]
                omega[j] = omega[j] + ring.variable(j)
                break
            f = f - _times_powers(q, split, powers, budget)
            omega[j] = omega[j] + prod(
                (ring.variable(k) ** a for k, a in split), start=q)
            if not f.terms:
                break
            alpha, lc = _leading(f, ring.laurent)
    return powers, omega


def _sigma(f, powers, budget):
    """σ(f) for f in R[x_L^±][x_G] by Horner's rule, the g_j with most terms
    outermost: f's terms are grouped by their exponent a of x_j, and the
    groups, mapped by the inner g's, folded as acc ← acc·g_j^gap + inner."""
    order = sorted(powers, key=lambda j: len(powers[j][0].terms), reverse=True)

    def horner(terms, depth):
        if depth == len(order):
            return MixedPoly._trusted(f.ring, tuple(terms))
        j, groups = order[depth], {}
        for e, c in terms:
            groups.setdefault(e[j], []).append((e[:j] + (0,) + e[j + 1:], c))
        acc, last = f.ring.zero(), max(groups)
        for a in sorted(groups, reverse=True):
            acc = (_times_powers(acc, [(j, last - a)], powers, budget)
                   + horner(groups[a], depth + 1))
            last = a
        return _times_powers(acc, [(j, last)], powers, budget)

    return horner(f.terms, 0)


def _fixed_mod_J(images, d, C):
    """The c in C whose image uses no polynomial variable outside C."""
    outside = [j for j in range(d, len(images)) if j not in C]
    if not outside:
        return tuple(C)
    return tuple(c for c in C
                 if not any(e[j] for e, _ in images[c].terms for j in outside))


def _subalgebra_proof(phi):
    """(True, `MonomialData.fixed`) when the subalgebra search proves phi
    idempotent, (False, ()) when it proves it is not, and (None, ()) past
    SUBDUCTION_PAIRS.  A map over ZZ is searched over QQ, where any nonzero
    lead is a unit: phi∘phi = phi holds over both or neither."""
    ring = phi.ring
    if not ring.domain.is_field:  # ints are canonical QQ coefficients
        ring = RingSignature(ring.names, ring.laurent, QQ)
        phi = Endomorphism._trusted(ring, tuple(
            [MixedPoly._trusted(ring, img.terms) for img in phi.images]))
    d, images = ring.laurent, phi.images
    x = [ring.variable(j) for j in range(ring.n)]
    free = [j for j in range(d, ring.n)
            if any(any(e[d:]) for e, _ in images[j].terms)]
    # the first candidate, G = the free images: ω(x_j) = x_j, else phi(x_j)
    omega = [x[j] if j in free else p for j, p in enumerate(images)]
    if any(images[i].substitute(omega) != images[i]
           for i in range(ring.n) if i not in free):
        return False, ()
    if all(images[j].substitute(omega) == x[j]
           for j in sorted(free, key=lambda j: len(images[j].terms))):
        return True, _fixed_mod_J(images, d, free)
    budget = [SUBDUCTION_PAIRS]
    try:
        powers, omega = _subalgebra(phi, free, budget)
        delta = {j: g.substitute(omega) - x[j] for j, (g, *_) in powers.items()}
        if any(p.terms and _sigma(p, powers, budget).terms
               for p in delta.values()):
            return False, ()
    except _PastBudget:
        return None, ()
    return True, _fixed_mod_J(images, d, [
        j for j, p in delta.items() if not p.terms and omega[j] == x[j]])


def require_idempotent(phi):
    """The check every input passes: return monomial_part(phi), which raises
    InvalidEndomorphismError unless each Laurent variable maps to a unit,
    with `fixed` replaced by those of a subalgebra proof, or raise
    NotIdempotentError naming the first variable with phi²(x) != phi(x)."""
    mono = monomial_part(phi)
    if _expansion_exceeds(phi):
        proved, fixed = _subalgebra_proof(phi)
        if proved:
            return mono._replace(fixed=fixed)
    for name, delta in zip(phi.ring.names, idempotency_defect(phi)):
        if not delta.is_zero():
            raise NotIdempotentError(
                "phi²(%s) - phi(%s) = %s != 0" % (name, name, delta))
    return mono


def monomial_part(phi):
    """(M, λ, ()) with images[i] = λ_i·x^{M·e_i} for Laurent-block i, the
    one reader of the Laurent block: raise InvalidEndomorphismError for the
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
        exp = exp[:d]
        cols.append(tuple(compress(enumerate(exp), exp)))
        lambdas.append(c)
    return MonomialData(IntMatrix.from_columns(d, cols), tuple(lambdas), ())


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
