"""The retract analysis pipeline.

From an idempotent endomorphism of R[x1^±,...,xd^±, x_{d+1},...,xn] this
module produces the new Laurent coordinates (y-variables), the generators of
the retract, the transcendence degree, a classification verdict, and a
rationality verdict, each backed by exact certificates computed inside the
call.  All checks are tolerance-zero.  The records, `YVariable`,
`ClassificationVerdict` (a tag and a dict of its parameters) and the
`RetractReport` that `analyze` returns, are immutable namedtuples, read
by field name.

The transcendence degree is read off phi mod J.  J is generated by the
y - 1 for the killed y, phi(J) = 0, and B/J ≅ S[z] with
S = R[y1^±,...,yr^±].  An a in A ∩ J, A = phi(B), has a = phi(a) = 0, so
A embeds in S[z], as the image of the endomorphism φ̄: y_k ↦ y_k,
z_j ↦ phi(x_j) mod J.  Y·T = I and λ^b = 1 on a fixed column b make the
unit y_k = x^b map to y^(T·b) = y_k, so `quotient_mod_J` maps only the
z_j.  With π the quotient map, φ̄∘π = π∘phi, and π is onto, so φ̄ is
idempotent.  A process builds S[z] once per (polynomial names, r,
domain), in a memo of its own, so that it is never the input ring
(`ring.ring_memo`).  S[z] is smooth, so in characteristic 0 trdeg A is
the trace of φ̄'s Jacobian at its fixed point φ̄(1, ..., 1), an idempotent
matrix (a retract of a smooth algebra is smooth: Costa, "Retracts of
polynomial rings", J. Algebra 1977).  A one-term image c·x^e adds e_i, so
the y-block adds r; the other images are read mod the least usable prime
above n, each term one product of powers from per-variable tables built
before the read.  φ̄'s images can be far smaller than phi's: 5 terms against
1,916 on the n = 6, d = 3 instance seed 1014.

Some of them are read off the idempotency proof instead.  Its phi = σ∘ω
(see `endo`) fixes a set C of polynomial variables with ω(phi(x_c)) =
ω(x_c) = x_c, and ω ≡ id mod J on R[x_L^±][x_C], since π∘phi = φ̄∘π and
φ̄ fixes S.  So each c in C whose image uses no polynomial variable
outside C has phi(x_c) ≡ ω(phi(x_c)) = x_c mod J, and `analyze` hands
`quotient_mod_J` the variable x_c, which maps to z_c at once, in place of
phi(x_c); the report's generators stay phi's images.  On seed 1014 that
is every polynomial variable, so the 1,834-term phi(x4) is never mapped.
"""

from collections import namedtuple
from itertools import count
from math import prod
from operator import getitem, itemgetter

from .domains import _is_prime
from .intlinalg import IntMatrix, decompose
from .endo import Endomorphism, require_idempotent
from .ring import MixedPoly, RingSignature, _integer_terms, ring_memo


class CertificateError(RuntimeError):
    """An internal exact check failed; carries the evidence."""

    def __init__(self, message, evidence=None):
        super().__init__(message)
        self.evidence = evidence or {}


class YVariable(namedtuple("YVariable",
                           "exponent normalizer kind poly verified")):
    """A new Laurent coordinate y = normalizer^-1 · x^exponent; `poly` is
    that element of B.  For b = exponent, phi(x^b) = λ^b·x^(M·b), and the
    normalizer is λ^b.  `kind` is "fixed" (phi(y) = y: M·b = b and
    normalizer 1) or "killed" (phi(y) = 1: M·b = 0), and `verified`
    records whether the equality on M·b holds."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented


class ClassificationVerdict(namedtuple("ClassificationVerdict", "tag params")):
    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented

    def __new__(cls, tag, **params):
        return tuple.__new__(cls, (tag, params))

    def __getnewargs_ex__(self):  # so copy and pickle pass params by name
        return (self.tag,), self.params

    def __repr__(self):
        if not self.params:
            return self.tag
        inner = ", ".join("%s=%s" % kv for kv in sorted(self.params.items()))
        return "%s(%s)" % (self.tag, inner)


class RetractReport(namedtuple("RetractReport", (
        "ring r decomposition y_variables generators quotient_generators "
        "trdeg classification rationality certificates"))):
    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented


def compute_y_variables(phi):
    """(decomposition, y-variables, the polynomial variables the proof
    fixes mod J): the new Laurent coordinates, read from the monomial part
    (M, λ) of phi, and `MonomialData.fixed` (see the module docstring).

    After the exact idempotency check (`require_idempotent`, which returns
    (M, λ)), phi sends x^b to λ^b·x^(M·b), so one product M·b checks each
    basis vector b of the summand decomposition without substituting:
    y = λ^-b·x^b, normalizer λ^b, is verified when M·b = b for a fixed y
    and M·b = 0 for a killed one, as recorded in `YVariable.verified`.
    `analyze` raises on a failed one, and on a fixed y whose normalizer is
    not 1.  The basis vectors are Y's sparse columns, so M·b and λ^b cost
    the nonzero entries they meet.
    """
    mono = require_idempotent(phi)
    ring = phi.ring
    n = ring.n
    dom = ring.domain
    lambdas = mono.lambdas
    dec = decompose(mono.matrix)
    yvars = []
    for i, b in enumerate(dec.Y.columns):
        image = mono.matrix.times(b)
        exp = [0] * n
        lam = 1
        for k, e in b:
            exp[k] = e
            lam = dom.mul(lam, dom.pow(lambdas[k], e))
        exp = tuple(exp)
        fixed = i < dec.r
        verified = image == b if fixed else not image
        # decompose's int basis vectors need no exponent check
        y = MixedPoly._trusted(ring, ((exp, dom.invert(lam)),))
        yvars.append(YVariable(exp, lam, "fixed" if fixed else "killed", y,
                               verified))
    return dec, yvars, mono.fixed


def quotient_mod_J(ring, polys, decomposition, y_variables):
    """(S^[n-d], the images of polys in B/J ≅ S^[n-d]), written in
    y-coordinates: the ring of y_1..y_r, names made collision-free, and the
    polynomial variables.  The ring is returned too, since polys may be
    empty.

    A Laurent exponent v has coordinates c = T·v, and J sets each killed y_i,
    i ≥ r, to its normalizer λ_i.  So x_j maps to the unit μ_j·y^(T[:r, j]),
    μ_j = ∏_{i≥r} λ_i^T[i][j], and a polynomial variable to itself in S^[n-d].
    The n images are built once, and each p goes through `substitute`, so a
    polynomial variable x_c comes back as z_c at once.  `analyze` passes
    only phi's n - d polynomial images, as the fixed units map to y_1..y_r,
    and x_c for phi(x_c) when the proof shows phi(x_c) ≡ x_c mod J: ω∘phi
    = ω, ω fixes x_c and phi(x_c) lies in R[x_L^±][x_C], on which ω ≡ id
    mod J (see the module docstring).
    """
    d = ring.laurent
    r = decomposition.r
    target = _quotient_ring(ring.names[d:], r, ring.domain)
    dom = ring.domain
    tail = (0,) * (ring.n - d)
    normalizers = [y.normalizer for y in y_variables]
    images = []
    for column in decomposition.T.columns:  # sparse, rows ascending
        exp = [0] * r
        scalar = 1
        for i, t in column:
            if i < r:
                exp[i] = t
            elif normalizers[i] != 1:  # a normalizer 1 adds no scalar
                scalar = dom.mul(scalar, dom.pow(normalizers[i], t))
        # a unit: its exponent is T's ints, its scalar a product of units
        images.append(MixedPoly._trusted(target,
                                         ((tuple(exp) + tail, scalar),)))
    images += [target.variable(k) for k in range(r, target.n)]
    return target, [p.substitute(images) for p in polys]


@ring_memo(lambda poly_names, r, domain: len(poly_names) + r)
def _quotient_ring(poly_names, r, domain):
    # a memo of its own, so that S[z] is never the input ring itself
    names = []
    for i in range(r):
        name = "y%d" % (i + 1)
        while name in poly_names or name in names:
            name = name + "_"
        names.append(name)
    return RingSignature(tuple(names) + poly_names, r, domain)


def transcendence_degree(phi):
    """Transcendence degree of the retract A of phi, for an idempotent phi
    of a ring B; `analyze` passes φ̄, phi mod J (see the module docstring).

    Characteristic 0: A is a retract of the smooth algebra B, so it is
    smooth (Costa, J. Algebra 1977).  With F = (phi(x_1), ..., phi(x_n)),
    F∘F = F, so p = F(1, ..., 1) is fixed and E = JF(p) is idempotent of
    rank trdeg A, which is its trace Σ_i ∂phi(x_i)/∂x_i (p), in [0, n].
    A one-term image c·x^e adds e_i: p_i = c ≠ 0 and F_i(p) = p_i, so
    ∂(c·x^e)/∂x_i (p) = e_i·F_i(p)/p_i = e_i, and a zero image adds 0.
    When no image has two terms, the trace is that sum, read with no fixed
    point and no prime, as on φ̄ of seed 1014 and of a Laurent identity.
    Otherwise the other images are read mod P, the least prime above n
    that divides no image's denominator and leaves every Laurent p_i
    nonzero: the trace mod P is the rank, as rank ≤ n < P.  The tables
    {x: p_j^x mod P}, one per variable, hold every power those images'
    exponents read, each computed once; image i reads through a copy of
    them whose x_i table is one power lower, so each term of
    ∂phi(x_i)/∂x_i is c·e_i times one product of entries.
    Characteristic p: rank E = trdeg A there too, but GF(p) keeps the
    interval [r, r + n - d], as the rank step for p <= n (where the trace
    is not the rank) is not built yet; a pure Laurent ring has trdeg r.
    r = rank M = trace M for the idempotent M of the Laurent block, whose
    entry (i, i) is x_i's exponent in the unit phi(x_i): on φ̄, each
    y_k ↦ y_k adds 1.
    """
    ring = phi.ring
    if ring.domain.characteristic == 0:
        trace, multi = 0, []
        for i, g in enumerate(phi.images):
            if len(g.terms) == 1:
                trace += g.terms[0][0][i]  # c·x^e adds e_i, as above
            elif g.terms:
                multi.append(i)
        if not multi:
            return trace
        images = [_integer_terms(g.terms) for g in phi.images]
        # the powers of each variable that the multi-term images read
        exponents = [e for i in multi for e, _ in images[i][1]]
        read = [set(map(itemgetter(j), exponents)) for j in range(ring.n)]
        for P in filter(_is_prime, count(ring.n + 1)):
            if any(den % P == 0 for den, _ in images):
                continue
            point = [sum(map(itemgetter(1), terms)) * pow(den, -1, P) % P
                     for den, terms in images]
            if not all(point[:ring.laurent]):
                continue
            tables = [{x: pow(p, x, P) for x in powers}
                      for p, powers in zip(point, read)]
            for i in multi:
                den, terms = images[i]
                # ∂/∂x_i lowers x_i's power: image i reads x_i one lower
                row = tables[:]
                row[i] = {x: pow(point[i], x - 1, P) for x in read[i] if x}
                entry = sum(c * e[i] * prod(map(getitem, row, e))
                            for e, c in terms if e[i])
                trace += entry % P * pow(den, -1, P)
            return trace % P
    r = sum(g.terms[0][0][i] for i, g in enumerate(phi.images[:ring.laurent]))
    return r if ring.laurent == ring.n else (r, r + ring.n - ring.laurent)


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


def rationality_verdict(n, d, trdeg, domain):
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


def _generators_witness_shape(quotient_gens, r):
    """True when the quotient images already exhibit R^[±r] ⊗ R^[1], the
    one shape `UFDClassified` can take: n - d = 2 and r < trdeg < r + 2
    give s = 1.  Every generator outside S must be a unit scalar times one
    and the same polynomial variable."""
    seen = set()
    for g in quotient_gens:
        if not any(any(exp[r:]) for exp, _ in g.terms):
            continue  # lies in S
        exp, c = g.terms[0]
        # g lies outside S, so a lone entry 1 of g is a polynomial variable
        if (len(g.terms) != 1 or exp.count(0) != len(exp) - 1
                or 1 not in exp or not g.ring.domain.is_unit(c)):
            return False
        seen.add(exp)
    return len(seen) == 1


def analyze(phi):
    """Run the whole pipeline on an idempotent endomorphism and return a
    RetractReport with exact certificates."""
    dec, yvars, fixed = compute_y_variables(phi)
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

    generators = [y.poly for y in yvars[:r]] + list(phi.images[d:])
    # phi(x_c) ≡ x_c mod J for each c the proof fixes (module docstring)
    target, images = quotient_mod_J(
        ring, [ring.variable(j) if j in fixed else phi.images[j]
               for j in range(d, n)], dec, yvars)
    # y_k ↦ y_k exactly, by Y·T = I and λ^b = 1 (certified above)
    quotient_gens = [target.variable(k) for k in range(r)] + images

    # φ̄ = phi mod J, y_k ↦ y_k and z_j ↦ phi(x_j) mod J: idempotent, with
    # image ≅ A on the smooth ring B/J, so its trace is trdeg A too
    trdeg = transcendence_degree(
        Endomorphism._trusted(target, tuple(quotient_gens)))
    verdict = classify(n, d, r, trdeg)
    if verdict.tag == "UFDClassified" and _generators_witness_shape(
            quotient_gens, r):
        verdict = verdict._replace(params=dict(verdict.params,
                                               generatorsExplicit=True))
    rationality = rationality_verdict(n, d, trdeg, ring.domain)

    return RetractReport(
        ring=ring, r=r, decomposition=dec, y_variables=yvars,
        generators=generators, quotient_generators=quotient_gens,
        trdeg=trdeg, classification=verdict,
        rationality=rationality, certificates=certificates)

