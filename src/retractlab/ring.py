"""Canonical arithmetic in mixed Laurent/polynomial rings.

Elements of R[x1^±,...,xd^±, x_{d+1},...,xn] are kept in a canonical term
form: no zero coefficients, pairwise distinct exponent vectors, terms sorted
in descending graded-lex order.  Exponents are dense integer tuples of
length n; entries past the Laurent block must be nonnegative.  Coefficients
are in their domain's canonical form (see `domains`): over QQ an `int` when
integral and a `Fraction` otherwise, so a coefficient prints by `str`.

`MixedPoly(ring, terms)` is the one checked constructor: it coerces the
coefficients, merges repeated exponents and sorts.  `monomial` checks and
coerces one term, `constant` coerces one, and every operation below builds
its result from canonical terms directly.  A ring builds its variables
once, on the first call to `variable`, and hands out the same n elements
after that.

Sums (`+`, `-`, the constructor and the bucket sums of `substitute`) end in
one helper, `_canonical_sum`, and products (`*`, `**` and every product
inside `substitute`) in one kernel.  When either operand has one term, the
product only shifts the other operand's exponents and scales its
coefficients: a shift keeps graded-lex order, and the domains have no zero
divisors, so no dict and no sort are needed.  A product by the constant 1
is the other operand's terms, and `p ** 1` is p.  Otherwise every term pair
is summed into one dict keyed by exponent tuple, on integer coefficients (a
QQ operand is scaled over one common denominator, divided out at the end),
and the dict is canonicalized by `_canonical_sum`.

An element prints through its ring's `name^e` strings, one dict per
variable from exponent to text, built on the ring's first print and filled
with each exponent the first time it is printed.  Its terms' pieces are
joined once, so a print stays linear in its length.

`substitute` maps into a ring over the same domain; images over another
domain raise RingMismatchError.  A variable maps to its image.  Images
with at most one term (units, scalars, zero), such as the Laurent images
of an endomorphism, act by exponent arithmetic (stage 1): a one-term
element c·x^e, most of what composition substitutes, becomes one term that
way unless it uses a multi-term image.  Other elements take two stages.
In stage 1 the single-term images act term by term; a variable image x_k
adds nothing, as one gather per term moves its exponent to place k, and
an image 1 is not visited at all.  Whether an image is a variable or 1 is
worked out once per element.
An element of at least `_COMPILED_MAP_TERMS` terms, in rings of at most
`_COMPILED_MAP_WIDTH` variables, whose used images each have one term, a
unit where it stands for a Laurent variable, instead maps every exponent
through one function compiled from the images' exponents, e ↦ Σ e_i·m_i,
and scales only by the scalars other than 1; any other image keeps the
per-term loop, which raises every NonUnitError.
When no image that the element uses has two terms, stage 1 sums straight
into the result.  Otherwise the terms are grouped by their exponents β on
the variables with multi-term images, and only a group that does not
cancel is multiplied by ∏ images[i]^β_i (stage 2): the large powers that
a full expansion would build, and that then cancel, are never formed.
Each multi-term image keeps one power table per call.  The exponents the
groups need are built in increasing order, each as the previous needed
power times the power of the gap when the table holds that power, so a
run of consecutive powers costs one product by the image each (Fateman,
"On the computation of powers of sparse polynomials", Stud. Appl. Math.
53, 1974: on sparse inputs, building powers from lower ones beats
repeated squaring); any other, a lone needed power among them, is `**`.
"""

import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import getitem, itemgetter


# a variable name, the one spelling the grammar reads
VARIABLE_NAME = r"[A-Za-z_][A-Za-z_0-9]*"
_is_variable_name = re.compile(VARIABLE_NAME).fullmatch


class RingMismatchError(ValueError):
    pass


class NonUnitError(ValueError):
    pass


class RingSignature:
    """The ambient ring: n named variables, the first `laurent` of them
    invertible, over an exact coefficient domain.  Each name must match
    `VARIABLE_NAME`, so that every element prints as the grammar reads it;
    this is the one check of names and their distinctness, the parser's
    too.  `_index` maps each name to its position, for the parser;
    `_variables` holds x_1..x_n, built on the first call to `variable`, and
    `_powers` the printer's {exponent: text} dict of each variable, built on
    the first print."""

    __slots__ = ("names", "laurent", "domain", "n", "_index", "_variables",
                 "_powers")

    def __init__(self, names, laurent, domain):
        names = tuple(names)
        for name in names:
            if not isinstance(name, str) or not _is_variable_name(name):
                raise ValueError("bad variable name %r" % (name,))
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ValueError("duplicate variable name")
        if not isinstance(laurent, int) or not 0 <= laurent <= len(names):
            raise ValueError("laurent block size is not an int in [0, %d]: %r"
                             % (len(names), laurent))
        self.names = names
        self.laurent = laurent
        self.domain = domain
        self.n = len(names)
        self._index = index
        self._variables = None
        self._powers = None

    def __eq__(self, other):
        return (isinstance(other, RingSignature)
                and self.names == other.names
                and self.laurent == other.laurent
                and self.domain == other.domain)

    def __hash__(self):
        return hash((self.names, self.laurent, self.domain))

    def __repr__(self):
        parts = [name + "^±" if i < self.laurent else name
                 for i, name in enumerate(self.names)]
        return "%r[%s]" % (self.domain, ",".join(parts))

    def check_exponent(self, exp):
        """Raise ValueError unless exp is n ints, nonnegative past the
        Laurent block."""
        if len(exp) != self.n:
            raise ValueError("exponent length %d != %d variables" % (len(exp), self.n))
        for i, e in enumerate(exp):
            if not isinstance(e, int):
                raise ValueError("exponent of %s is not an int: %r"
                                 % (self.names[i], e))
            if e < 0 and i >= self.laurent:
                raise ValueError(
                    "negative exponent on polynomial variable %s" % self.names[i])

    # -- element constructors ------------------------------------------------

    def zero(self):
        return MixedPoly._trusted(self, ())

    def constant(self, c):
        c = self.domain.coerce(c)
        # the zero exponent is valid in every ring
        return MixedPoly._trusted(self, (((0,) * self.n, c),) if c else ())

    def variable(self, i):
        """x_i, the one element the ring holds for it."""
        if not 0 <= i < self.n:
            raise ValueError("variable index %d outside a ring of %d variables"
                             % (i, self.n))
        variables = self._variables
        if variables is None:
            variables = self._variables = tuple(
                self._build_variable(k) for k in range(self.n))
        return variables[i]

    def _build_variable(self, i):
        # x_i is valid once i is in range, and 1 is canonical in every domain
        exp = (0,) * i + (1,) + (0,) * (self.n - i - 1)
        x = MixedPoly._trusted(self, ((exp, 1),))
        x._variable = i
        return x

    def monomial(self, exp, coeff=1):
        """coeff·x^exp; zero when coeff reduces to 0 in the domain."""
        exp = tuple(exp)
        self.check_exponent(exp)
        c = self.domain.coerce(coeff)
        return MixedPoly._trusted(self, ((exp, c),) if c else ())


def _term_key(exp):
    # graded-lex: total degree first, then lexicographic on the entries
    return (sum(exp), exp)


@lru_cache(maxsize=None)
def _exponent_adder(n):
    """The function (a, b) ↦ a + b on exponent tuples of length n, unrolled;
    it makes the product's inner loop 15-20% faster than
    `tuple(map(add, a, b))` does."""
    body = "".join("a[%d] + b[%d], " % (i, i) for i in range(n))
    return eval("lambda a, b: (%s)" % body)


# an element of at least this many terms, whose used images each have one
# term, maps its exponents through one `_exponent_map`.  Building a map
# takes ~37 µs and saves ~0.6 µs a term over the per-term loop (Python
# 3.11), so a map built for one element breaks even at 64-96 terms, and
# one that `compose` reuses for the next image at fewer
_COMPILED_MAP_TERMS = 64
# ... in rings of at most this many variables.  The map builds each place
# in Python code where the loop gathers them in C, and its build grows as
# n²: on 400-term elements it took 2.9 against 4.0 µs a term at n = 24,
# 7.7 against 7.9 at n = 96 and 13.3 against 11.8 at n = 200
_COMPILED_MAP_WIDTH = 32


@lru_cache(maxsize=256)
def _exponent_map(rows, n):
    """The function e ↦ Σ_i e[i]·rows[i] on exponent tuples, with rows[i]
    the exponent of x_i's one-term image, or None for an image the element
    does not use; unrolled into one expression per target place, as
    `_exponent_adder` is."""
    places = []
    for k in range(n):
        parts = []
        for i, row in enumerate(rows):
            m = row[k] if row else 0
            if m:
                parts.append("e[%d]" % i if m == 1 else "-e[%d]" % i
                             if m == -1 else "%d*e[%d]" % (m, i))
        places.append((" + ".join(parts) or "0") + ", ")
    return eval("lambda e: (%s)" % "".join(places))


def _integer_terms(terms):
    """(D, the terms times D), D the least common denominator, so that the
    new coefficients are ints; terms without a Fraction come back as they
    are, with D = 1."""
    dens = [c.denominator for _, c in terms if type(c) is Fraction]
    if not dens:
        return 1, terms
    den = lcm(*dens)
    return den, [(e, c.numerator * (den // c.denominator)
                  if type(c) is Fraction else c * den) for e, c in terms]


def _product_terms(ring, f, g):
    """Canonical terms of f·g for canonical term tuples f and g."""
    if not f or not g:
        return ()
    if len(g) == 1 < len(f):
        f, g = g, f
    if len(f) == 1 and f[0][1] == 1 and not any(f[0][0]):
        return g  # f is the constant 1
    add = _exponent_adder(ring.n)
    reduce = ring.domain.reduce
    if len(f) == 1:
        # a shift keeps graded-lex order, and the domains have no zero
        # divisors: no two terms merge and none vanishes
        (e0, c0), = f
        return tuple([(add(e0, e), reduce(c0 * c)) for e, c in g])
    den_f, f = _integer_terms(f)
    den_g, g = _integer_terms(g)
    acc = {}
    get = acc.get
    for e1, c1 in f:
        for e2, c2 in g:
            e = add(e1, e2)
            acc[e] = get(e, 0) + c1 * c2
    den = den_f * den_g
    if den != 1:
        return _canonical_sum(acc, lambda c: reduce(Fraction(c, den)))
    return _canonical_sum(acc, reduce)


def _single_term_power(p, e):
    """The term (exponent, coefficient) of p**e for p with at most one term;
    the coefficient is 0 when p is zero.  A negative e raises NonUnitError
    unless p is a unit, as p**e does."""
    if e < 0 and p.is_unit() is None:
        raise NonUnitError("not a unit: %s" % p)
    if not p.terms:
        return (0,) * p.ring.n, 0
    exp, c = p.terms[0]
    return tuple(x * e for x in exp), c if c == 1 else p.ring.domain.pow(c, e)


def _canonical_sum(acc, reduce):
    """Canonical terms of an {exponent: unreduced coefficient} dict."""
    terms = []
    for e, c in acc.items():
        c = reduce(c)
        if c:
            terms.append((e, c))
    terms.sort(key=lambda t: _term_key(t[0]), reverse=True)
    return tuple(terms)


class MixedPoly:
    """An element of a mixed Laurent/polynomial ring in canonical term form."""

    __slots__ = ("ring", "terms", "_variable")

    def __init__(self, ring, terms):
        """Canonicalize an arbitrary (exponent, coefficient) sequence: the
        one checked constructor.  Coefficients are coerced into the domain
        and repeated exponents summed.  Every exponent must be n ints; only
        terms that survive cancellation must be nonnegative on polynomial
        variables."""
        coerce = ring.domain.coerce
        acc = {}
        for exp, c in terms:
            exp = tuple(exp)
            if len(exp) != ring.n or not all(isinstance(e, int) for e in exp):
                ring.check_exponent(exp)  # raises: wrong length or not ints
            c = coerce(c)
            acc[exp] = acc[exp] + c if exp in acc else c
        terms = _canonical_sum(acc, ring.domain.reduce)
        for exp, _ in terms:
            if any(e < 0 for e in exp[ring.laurent:]):
                ring.check_exponent(exp)  # raises: negative exponent
        self.ring = ring
        self.terms = terms
        self._variable = None

    @classmethod
    def _trusted(cls, ring, terms):
        """Wrap a term tuple already in canonical form, skipping the
        constructor's work: callers derive it from valid terms, and sums
        of valid exponents are valid."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        p._variable = None
        return p

    def __eq__(self, other):
        return (isinstance(other, MixedPoly) and self.terms == other.terms
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash((self.ring, self.terms))

    def is_zero(self):
        return not self.terms

    def _variable_index(self):
        """k when self is the variable x_k, -1 when self is the constant 1,
        else -2; worked out on the first call."""
        k = self._variable
        if k is None:
            e, c = self.terms[0] if len(self.terms) == 1 else ((), 0)
            if c == 1 and not any(e):
                k = -1
            elif c == 1 and e.count(0) == len(e) - 1 and 1 in e:
                k = e.index(1)
            else:
                k = -2
            self._variable = k
        return k

    def _require_same_ring(self, other):
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingMismatchError("operands live in different rings")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        self._require_same_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc[e] + c if e in acc else c
        return MixedPoly._trusted(
            self.ring, _canonical_sum(acc, self.ring.domain.reduce))

    def __neg__(self):
        reduce = self.ring.domain.reduce
        return MixedPoly._trusted(
            self.ring, tuple((e, reduce(-c)) for e, c in self.terms))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        self._require_same_ring(other)
        return MixedPoly._trusted(
            self.ring, _product_terms(self.ring, self.terms, other.terms))

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("exponent is not an int: %r" % (k,))
        if k == 1:
            return self
        if len(self.terms) == 1:
            exp, c = _single_term_power(self, k)
            return MixedPoly._trusted(self.ring,
                                      ((exp, self.ring.domain.reduce(c)),))
        if k < 0:
            raise NonUnitError("not a unit: %s" % self)
        result = self.ring.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            if k > 1:
                base = base * base
            k >>= 1
        return result

    # -- units ---------------------------------------------------------------

    def is_unit(self):
        """Return (scalar, exponent) with self = scalar·x^exponent when self
        is a unit of the ring, else None.  Units are unit scalars times
        monomials supported on the Laurent block."""
        if len(self.terms) != 1:
            return None
        exp, c = self.terms[0]
        if not self.ring.domain.is_unit(c):
            return None
        if any(exp[self.ring.laurent:]):
            return None
        return (c, exp)

    # -- homomorphisms -------------------------------------------------------

    def substitute(self, images):
        """Apply the R-algebra homomorphism x_i ↦ images[i].

        Images of Laurent-block variables must be units wherever a negative
        exponent needs inverting.  A negative exponent on an image that is
        not a unit raises NonUnitError, even where its term would vanish or
        cancel.  The module docstring describes the algorithm.

        The result lives in the images' ring, which must be over the
        domain of self: images over another domain raise RingMismatchError,
        as images in different rings do.  With no images (a ring of no
        variables) self is returned.
        """
        if len(images) != self.ring.n:
            raise ValueError("expected %d images, got %d" % (self.ring.n, len(images)))
        if not images:
            return self
        target_ring = images[0].ring
        for img in images:
            if img.ring is not target_ring and img.ring != target_ring:
                raise RingMismatchError("images live in different rings")
        if (target_ring.domain is not self.ring.domain
                and target_ring.domain != self.ring.domain):
            raise RingMismatchError("images live over a different domain")
        if not self.terms:
            return target_ring.zero()
        if len(self.terms) == 1:
            k = self._variable_index()
            if k >= 0:
                return images[k]
        zero_exp = (0,) * target_ring.n
        add = _exponent_adder(target_ring.n)
        reduce = target_ring.domain.reduce
        terms = self.terms
        if len(terms) == 1:
            # stage 1's exponent arithmetic, unless a used image has two
            # terms: then the element takes the two stages below
            (exp, c), = terms
            shift = zero_exp
            for img, e in zip(images, exp):
                if not e:
                    continue
                if len(img.terms) > 1:
                    break
                m, k = _single_term_power(img, e)
                if any(m):
                    shift = add(shift, m)
                if k != 1:
                    c = c * k
            else:  # no zero divisors: c is 0 only after a zero image
                return MixedPoly._trusted(
                    target_ring, ((shift, reduce(c)),) if c else ())
        multi = [len(img.terms) > 1 for img in images]
        # the multi-term images that the terms use: with none, stage 1
        # sums into the result
        multi_indices = [i for i, m in enumerate(multi)
                         if m and any(exp[i] for exp, _ in terms)]
        if (not multi_indices and len(terms) >= _COMPILED_MAP_TERMS
                and max(self.ring.n, target_ring.n) <= _COMPILED_MAP_WIDTH):
            mapped = self._mapped_terms(images)
            if mapped is not None:
                return MixedPoly._trusted(target_ring, mapped)
        single_powers = {}
        # an image 1 is skipped: x^e ↦ 1 adds no exponent and no
        # coefficient, and 1 is a unit.  The first variable image on each
        # x_k is gathered, with source -1 the 0 appended to each exponent,
        # unless a negative power needs it as a unit or x_k is its ring's
        # one variable (itemgetter of one place returns no tuple); the rest
        # are read in index order
        sources = [-1] * target_ring.n
        read = []
        for i, img in enumerate(images):
            k = img._variable_index()
            if k == -1:
                continue
            if (k < 0 or sources[k] >= 0 or target_ring.n == 1
                    or i < self.ring.laurent and k >= target_ring.laurent):
                read.append(i)
            else:
                sources[k] = i
        gather = (itemgetter(*sources) if sources.count(-1) < target_ring.n
                  else None)

        # stage 1: exponent arithmetic for the single-term images
        acc = bucket = {}
        buckets = {}
        for exp, c in terms:
            shift = gather(exp + (0,)) if gather else zero_exp
            for i in read:
                e = exp[i]
                if not e:
                    continue
                if multi[i]:
                    if e < 0:  # raises NonUnitError: it is not a unit
                        images[i] ** e
                    continue
                power = single_powers.get((i, e))
                if power is None:
                    m, k = _single_term_power(images[i], e)
                    power = single_powers[i, e] = (m if any(m) else None, k)
                m, k = power
                if m:  # a scalar power adds no exponent
                    shift = m if shift is zero_exp else add(shift, m)
                if k != 1:
                    c = c * k
            if not c:
                continue  # a zero image
            if multi_indices:
                beta = tuple([exp[i] for i in multi_indices])
                bucket = buckets.get(beta)
                if bucket is None:
                    bucket = buckets[beta] = {}
            bucket[shift] = bucket.get(shift, 0) + c
        if not multi_indices:
            return MixedPoly._trusted(target_ring, _canonical_sum(acc, reduce))

        # stage 2: multiply each bucket that does not cancel by its product
        # of multi-term image powers, read from one power table per image
        acc = buckets.pop((0,) * len(multi_indices), None) or {}
        tables = [{1: images[i]} for i in multi_indices]
        parts = []
        for beta, bucket in buckets.items():
            terms = _canonical_sum(bucket, reduce)
            if terms:
                parts.append((beta, terms))
        # each needed power in increasing order: the previous one times the
        # power of the gap when the table holds it, as it does along a run
        # of consecutive powers, else `**`.  On sparse images one product
        # by the image multiplies fewer term pairs than squaring (Fateman);
        # a gap power built for one product costs more than it saves
        if max(map(max, buckets), default=0) > 1:
            for j, table in enumerate(tables):
                last = 0
                for b in sorted({beta[j] for beta, _ in parts}):
                    if b and b not in table:
                        gap = table.get(b - last)
                        table[b] = table[last] * gap if gap else table[1] ** b
                    last = b
        for beta, terms in parts:
            product = None
            for table, b in zip(tables, beta):
                if b:
                    power = table[b]
                    product = power if product is None else product * power
            part = MixedPoly._trusted(target_ring, terms) * product
            for e, k in part.terms:
                acc[e] = acc.get(e, 0) + k
        return MixedPoly._trusted(target_ring, _canonical_sum(acc, reduce))

    def _mapped_terms(self, images):
        """The canonical terms of self.substitute(images) by one compiled
        `_exponent_map`, or None unless every image that self uses has one
        term and, for a Laurent variable, is a unit: any other image takes
        the per-term loop, which raises every NonUnitError."""
        terms = self.terms
        laurent = self.ring.laurent
        rows = []
        scalars = []
        for i, img in enumerate(images):
            if len(img.terms) == 1 and (i >= laurent or img.is_unit()):
                m, s = img.terms[0]
                rows.append(m)
                if s != 1:
                    scalars.append((i, s))
            elif any(exp[i] for exp, _ in terms):
                return None
            else:
                rows.append(None)
        target_ring = images[0].ring
        mapped = _exponent_map(tuple(rows), target_ring.n)
        domain = target_ring.domain
        scalar_powers = {}
        acc = {}
        get = acc.get
        for exp, c in terms:
            for i, s in scalars:
                e = exp[i]
                if e:
                    k = scalar_powers.get((i, e))
                    if k is None:
                        k = scalar_powers[i, e] = domain.pow(s, e)
                    c = c * k
            e = mapped(exp)
            acc[e] = get(e, 0) + c
        return _canonical_sum(acc, domain.reduce)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        ring = self.ring
        powers = ring._powers
        if powers is None:
            # "" for exponent 0, which the join below skips
            powers = ring._powers = [{0: "", 1: name} for name in ring.names]
        pieces = []
        for exp, c in terms:
            try:
                mono = "*".join(filter(None, map(getitem, powers, exp)))
            except KeyError:  # an exponent printed for the first time
                for table, name, e in zip(powers, ring.names, exp):
                    if e not in table:
                        table[e] = "%s^%d" % (name, e)
                mono = "*".join(filter(None, map(getitem, powers, exp)))
            cs = str(c)
            if not mono:
                piece = cs
            elif cs == "1":
                piece = mono
            elif cs == "-1":
                piece = "-" + mono
            else:
                piece = cs + "*" + mono
            pieces.append(piece)
        # no piece holds a space, so " + -" is only ever a negative term's
        # sign; one join keeps the print linear under a profile hook too
        return " + ".join(pieces).replace(" + -", " - ")

    def __repr__(self):
        return "<%s in %r>" % (self, self.ring)
