"""The retract analysis pipeline.

From an idempotent endomorphism of R[x1^±,...,xd^±, x_{d+1},...,xn] this
module produces the new Laurent coordinates (y-variables), the generators of
the retract, the transcendence degree, a classification verdict, and a
rationality verdict, each backed by exact certificates computed inside the
call.  All checks are tolerance-zero.

In characteristic 0 the transcendence degree is the trace of the Jacobian
of phi at the fixed point phi(1, ..., 1), an idempotent matrix, computed
mod a prime above n in one pass over the images' terms, each term one
product of powers read from per-variable tables.
"""

from itertools import count
from math import prod
from operator import getitem

from .domains import _is_prime
from .intlinalg import IntMatrix, decompose
from .endo import require_idempotent
from .ring import MixedPoly, RingSignature, _integer_terms

# the first modulus of the fixed-point trace, the Mersenne prime 2^61 - 1
_P = (1 << 61) - 1


class CertificateError(RuntimeError):
    """An internal exact check failed; carries the evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence or {}


class YVariable:
    """A new Laurent coordinate y = normalizer^-1 · x^exponent.

    For the basis vector b = exponent, phi(x^b) = λ^b·x^(M·b), and the
    normalizer is λ^b.  A fixed y has phi(y) = y, that is M·b = b and
    normalizer 1; a killed y has phi(y) = 1, that is M·b = 0.  `verified`
    records whether the equality on M·b holds.
    """

    __slots__ = ("exponent", "normalizer", "kind", "poly", "verified")

    def __init__(self, exponent, normalizer, kind, poly, verified=False):
        self.exponent = tuple(exponent)
        self.normalizer = normalizer
        self.kind = kind  # "fixed" | "killed"
        self.poly = poly  # the element of B: normalizer^-1 · x^exponent
        self.verified = verified


class ClassificationVerdict:

    __slots__ = ("tag", "params")

    def __init__(self, tag, **params):
        self.tag = tag
        self.params = params

    def __eq__(self, other):
        return (isinstance(other, ClassificationVerdict)
                and self.tag == other.tag and self.params == other.params)

    def __repr__(self):
        if not self.params:
            return self.tag
        inner = ", ".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "%s(%s)" % (self.tag, inner)


class RetractReport:

    __slots__ = ("ring", "r", "decomposition", "y_variables", "generators",
                 "quotient_generators", "trdeg",
                 "classification", "rationality", "certificates")

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.pop(name))
        if kw:
            raise TypeError("unexpected fields: %s" % sorted(kw))


def compute_y_variables(phi):
    """New Laurent coordinates, read from the monomial part (M, λ) of phi.

    After the exact idempotency check (`require_idempotent`, which returns
    (M, λ)), phi sends x^b to λ^b·x^(M·b), so one product M·b checks each
    basis vector b of the summand decomposition without substituting:
    y = λ^-b·x^b, normalizer λ^b, is verified when M·b = b for a fixed y
    and M·b = 0 for a killed one, as recorded in `YVariable.verified`.
    `analyze` raises on a failed one, and on a fixed y whose normalizer is
    not 1.
    """
    mono = require_idempotent(phi)
    ring = phi.ring
    d = ring.laurent
    dom = ring.domain
    dec = decompose(mono.matrix)
    yvars = []
    for i, b in enumerate(dec.fixed_basis + dec.kernel_basis):
        image = mono.matrix.apply(b)
        exp = tuple(b) + (0,) * (ring.n - d)
        lam = 1
        for c, e in zip(mono.lambdas, b):
            if e:
                lam = dom.mul(lam, dom.pow(c, e))
        fixed = i < dec.r
        verified = image == b if fixed else not any(image)
        # decompose's int basis vectors need no exponent check
        y = MixedPoly._trusted(ring, ((exp, dom.invert(lam)),))
        yvars.append(YVariable(exp, lam, "fixed" if fixed else "killed", y,
                               verified))
    return dec, yvars


def quotient_mod_J(ring, polys, decomposition, y_variables):
    """Images of polys in B/J ≅ S^[n-d], written in y-coordinates: the ring
    of y_1..y_r, names made collision-free, and the polynomial variables.

    A Laurent exponent v has coordinates c = T·v, and J sets each killed y_i,
    i ≥ r, to its normalizer λ_i.  So x_j maps to the unit μ_j·y^(T[:r, j]),
    μ_j = ∏_{i≥r} λ_i^T[i][j], and a polynomial variable to itself in S^[n-d].
    The n images are built once, and each p goes through `substitute`.
    """
    d = ring.laurent
    r = decomposition.r
    poly_names = ring.names[d:]
    names = []
    for i in range(r):
        name = "y%d" % (i + 1)
        while name in poly_names or name in names:
            name = name + "_"
        names.append(name)
    target = RingSignature(tuple(names) + poly_names, r, ring.domain)
    dom = ring.domain
    T = decomposition.T.entries
    tail = (0,) * (ring.n - d)
    killed = [(T[i], y_variables[i].normalizer) for i in range(r, d)
              if y_variables[i].normalizer != 1]
    columns = list(zip(*T[:r])) if r else [()] * d  # the T[:r, j]
    images = []
    for j, column in enumerate(columns):
        scalar = 1
        for row, lam in killed:  # a normalizer 1 adds no scalar
            if row[j]:
                scalar = dom.mul(scalar, dom.pow(lam, row[j]))
        # a unit: its exponent is T's ints, its scalar a product of units
        images.append(MixedPoly._trusted(target, ((column + tail, scalar),)))
    images += [target.variable(k) for k in range(r, target.n)]
    return [p.substitute(images) for p in polys]


def _trace_primes(n):
    """2^61 - 1, then the primes above n in increasing order."""
    yield _P
    for q in count(n + 1):
        if _is_prime(q):
            yield q


def transcendence_degree(phi, unit_rank):
    """Transcendence degree of the retract A of phi.

    Characteristic 0: A is a retract of a smooth algebra, so it is smooth
    (Costa, J. Algebra 1977).  With F = (phi(x_1), ..., phi(x_n)), F∘F = F,
    so p = F(1, ..., 1) is fixed and E = JF(p) is idempotent of rank
    trdeg A, which is its trace Σ_i ∂phi(x_i)/∂x_i (p), in [0, n].  It is
    read mod a prime P > n that divides no image's denominator and no
    Laurent p_i: 2^61 - 1, else the least such prime above n.  The powers
    p_j^x mod P are kept in one dict per variable, shared by the n images
    and filled the first time a power is read; image i reads x_i through a
    table one power lower, so each term of ∂phi(x_i)/∂x_i is c·e_i times
    one product of table entries.
    Characteristic p: rank E = trdeg A there too, but GF(p) keeps the
    interval [r, r + n - d], as the rank step for p <= n (where the trace
    is not the rank) is not built yet; a pure Laurent ring forces r.
    """
    ring = phi.ring
    if ring.domain.characteristic == 0:
        images = [_integer_terms(g.terms) for g in phi.images]
        for P in _trace_primes(ring.n):
            if any(den % P == 0 for den, _ in images):
                continue
            point = [sum(c for _, c in terms) * pow(den, -1, P) % P
                     for den, terms in images]
            if not all(point[:ring.laurent]):
                continue
            # {x: p_j^x mod P} per variable, shared by the images and filled
            # on a KeyError, so each power is computed once: a negative one
            # inverts anew on every pow call
            tables = [{0: 1, 1: p} for p in point]
            row = tables[:]
            trace = 0
            for i, (den, terms) in enumerate(images):
                # ∂/∂x_i lowers x_i's power: image i reads x_i one lower
                row[i] = {1: 1, 2: point[i]}
                entry = 0
                for e, c in terms:
                    x = e[i]
                    if x:
                        try:
                            value = prod(map(getitem, row, e))
                        except KeyError:  # a power read for the first time
                            for j, (table, y) in enumerate(zip(row, e)):
                                if y not in table:
                                    table[y] = pow(point[j], y - (j == i), P)
                            value = prod(map(getitem, row, e))
                        entry += c * x * value
                row[i] = tables[i]
                trace += entry % P * pow(den, -1, P)
            return trace % P
    if ring.laurent == ring.n:
        return unit_rank
    return (unit_rank, unit_rank + ring.n - ring.laurent)


def classify(n, d, r, trdeg):
    """Classification verdict from the numeric invariants.

    trdeg may be an exact integer or an interval (lo, hi); intervals are
    classified only when the endpoints coincide.
    """
    if not 0 <= r <= d <= n:
        raise ValueError("inconsistent invariants: r=%d d=%d n=%d" % (r, d, n))
    if isinstance(trdeg, tuple):
        lo, hi = trdeg
        if lo == hi:
            trdeg = lo
        else:
            if not r <= lo <= hi <= r + n - d:
                raise ValueError("interval %r outside [r, r+n-d]" % (trdeg,))
            return ClassificationVerdict("BoundsOnly", lo=lo, hi=hi)
    if not r <= trdeg <= r + n - d:
        raise ValueError("trdeg %d outside [%d, %d]" % (trdeg, r, r + n - d))
    if trdeg == 0:
        return ClassificationVerdict("CoefficientRing")
    if trdeg == n:
        return ClassificationVerdict("WholeRing")
    if trdeg == r:
        return ClassificationVerdict("PureLaurent", r=r)
    if trdeg == r + n - d:
        return ClassificationVerdict("LaurentTensorPoly", r=r, s=n - d)
    # an intermediate value: the window has width n-d >= 2, since one of
    # width <= 1 holds only r and r+n-d
    if n - d == 2:
        return ClassificationVerdict("UFDClassified", r=r, s=trdeg - r,
                                     generatorsExplicit=False)
    return ClassificationVerdict("BoundsOnly", lo=r, hi=r + n - d)


def rationality_verdict(n, d, r, trdeg, domain):
    """"Rational" when the fraction field of the retract is known rational
    over the coefficient field, else "Unknown"; "NotApplicable" when the
    coefficients do not form a field."""
    if not domain.is_field:
        return "NotApplicable"
    if d >= n - 2 or n <= 3:
        return "Rational"
    if isinstance(trdeg, int) and trdeg in (0, 1, n):
        return "Rational"
    return "Unknown"


def _generators_witness_shape(quotient_gens, r, s):
    """True when the quotient images already exhibit R^[±r] ⊗ R^[s]: every
    generator is either supported on the y-block or a distinct polynomial
    variable, up to a unit scalar."""
    seen = set()
    for g in quotient_gens:
        if all(all(e == 0 for e in exp[r:]) for exp, _ in g.terms):
            continue  # lies in S
        if len(g.terms) != 1:
            return False
        (exp, c), = g.terms
        hot = [i for i, e in enumerate(exp) if e]
        # g lies outside S, so a lone variable of g is past the y-block
        if len(hot) != 1 or exp[hot[0]] != 1 or not g.ring.domain.is_unit(c):
            return False
        seen.add(hot[0])
    return len(seen) == s


def analyze(phi):
    """Run the whole pipeline on an idempotent endomorphism and return a
    RetractReport with exact certificates."""
    dec, yvars = compute_y_variables(phi)
    ring = phi.ring
    n, d = ring.n, ring.laurent
    r = dec.r

    unimodular = dec.Y * dec.T == IntMatrix.identity(d)
    # with Y·T = I, M·b = b on Y's fixed columns and M·b = 0 on its killed
    # ones give M = Y·diag(I_r, 0)·T: so M·M = M, and T·M = diag(I_r, 0)·T,
    # whose zero rows from r on put M's columns in the fixed lattice
    lattice = unimodular and all(y.verified for y in yvars)
    killed = all(y.verified for y in yvars if y.kind == "killed")
    certificates = {
        "matrix_idempotent": lattice,
        "unimodular_basis": unimodular,
        # phi(y) = y for a fixed y also needs the scalar λ^b = 1
        "fixed_y_images": all(y.verified and y.normalizer == 1
                              for y in yvars if y.kind == "fixed"),
        "killed_y_images": killed,
        # J is generated by the y - 1 for killed y, and phi(y - 1) =
        # phi(y) - 1, so phi(J) = 0 follows from the killed-image checks
        "ideal_killed": killed,
        "image_lattice_membership": lattice,
    }
    if not all(certificates.values()):
        # before the trace, whose trdeg holds only for an idempotent phi
        raise CertificateError("certificate check failed", certificates)

    generators = [y.poly for y in yvars[:r]] + \
        [phi.images[j] for j in range(d, n)]
    quotient_gens = quotient_mod_J(ring, generators, dec, yvars)

    trdeg = transcendence_degree(phi, r)
    verdict = classify(n, d, r, trdeg)
    if verdict.tag == "UFDClassified" and _generators_witness_shape(
            quotient_gens, r, verdict.params["s"]):
        verdict = ClassificationVerdict("UFDClassified", r=r,
                                        s=verdict.params["s"],
                                        generatorsExplicit=True)
    rationality = rationality_verdict(n, d, r, trdeg, ring.domain)

    return RetractReport(
        ring=ring, r=r, decomposition=dec, y_variables=yvars,
        generators=generators, quotient_generators=quotient_gens,
        trdeg=trdeg, classification=verdict,
        rationality=rationality, certificates=certificates)

