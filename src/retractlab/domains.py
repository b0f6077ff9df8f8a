"""Exact coefficient domains: rationals, integers, and prime fields.

Every coefficient is stored in a canonical form chosen by its domain: for
QQ an int when the value is integral and a Fraction in lowest terms
otherwise, int for ZZ, and the least nonnegative residue for GF(p).  Since
Fraction(k) == k and both hash alike, the QQ form changes no comparison or
printed output; it lets ring products run on plain ints (see `ring`).  A
canonical coefficient prints by `str` (a Fraction prints in lowest terms
with a positive denominator), and it is zero exactly when it equals 0, so
the domain has no formatting or zero test of its own.  All arithmetic is
arbitrary precision, and a float operand raises ValueError everywhere.
"""

from fractions import Fraction
from functools import lru_cache

# Miller-Rabin with the first 13 primes as bases is deterministic below this
# bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_MODULUS = 3317044064679887385961981


def _is_prime(p):
    """Deterministic primality test for p < MAX_MODULUS."""
    if p >= MAX_MODULUS:
        raise ValueError("prime-field modulus %d too large (the limit is %d)"
                         % (p, MAX_MODULUS - 1))
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _exact(value):
    """value, if it is an int or a Fraction; else raise ValueError."""
    if not isinstance(value, (int, Fraction)):
        raise ValueError("not an exact int or Fraction: %r" % (value,))
    return value


def _qq(c):
    """The canonical QQ form of an int or Fraction value."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


class Domain:
    """A coefficient domain: one of rationals, integers, prime-field(p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind, p=None):
        if kind not in ("rationals", "integers", "prime-field"):
            raise ValueError("unknown domain kind: %r" % (kind,))
        if kind == "prime-field":
            if not isinstance(p, int) or not _is_prime(p):
                raise ValueError("prime-field modulus must be prime, got %r" % (p,))
        elif p is not None:
            raise ValueError("modulus only makes sense for prime fields")
        self.kind = kind
        self.p = p

    @property
    def characteristic(self):
        return self.p if self.kind == "prime-field" else 0

    @property
    def is_field(self):
        return self.kind != "integers"

    def __eq__(self, other):
        return isinstance(other, Domain) and self.kind == other.kind and self.p == other.p

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        if self.kind == "prime-field":
            return "GF(%d)" % self.p
        return {"rationals": "QQ", "integers": "ZZ"}[self.kind]

    # -- element constructors ------------------------------------------------

    def from_fraction(self, num, den):
        """Build the element num/den, reducing in the domain.

        Raises ValueError unless num and den are ints, and when the quotient
        does not exist (ZZ, or den ≡ 0 mod p).
        """
        if not (isinstance(num, int) and isinstance(den, int)):
            raise ValueError("not an int fraction: %r/%r" % (num, den))
        if den == 0:
            raise ValueError("zero denominator")
        if self.kind == "rationals":
            return _qq(Fraction(num, den))
        if self.kind == "integers":
            if num % den:
                raise ValueError("%d/%d is not an integer" % (num, den))
            return num // den
        d = den % self.p
        if d == 0:
            raise ValueError("denominator %d is zero mod %d" % (den, self.p))
        return (num * pow(d, -1, self.p)) % self.p

    def coerce(self, value):
        """Normalize a Python int / Fraction into this domain's canonical
        form; any other value, a float included, raises ValueError."""
        if isinstance(_exact(value), Fraction):
            return self.from_fraction(value.numerator, value.denominator)
        return int(value) % self.p if self.p else int(value)

    # -- arithmetic ----------------------------------------------------------

    def reduce(self, c):
        """Canonical form of a sum or product of canonical elements."""
        if self.kind == "prime-field":
            return c % self.p
        return _qq(c) if self.kind == "rationals" else c

    def add(self, a, b):
        return self.reduce(_exact(a) + _exact(b))

    def sub(self, a, b):
        return self.reduce(_exact(a) - _exact(b))

    def mul(self, a, b):
        return self.reduce(_exact(a) * _exact(b))

    def neg(self, a):
        return self.reduce(-_exact(a))

    def is_unit(self, a):
        """True iff a lies in the unit group of the domain."""
        if self.kind == "integers":
            return a in (1, -1)
        return a != 0

    def invert(self, a):
        if not self.is_unit(_exact(a)):
            raise ValueError("%s is not a unit in %r" % (a, self))
        if self.kind == "rationals":
            # ±1 is its own inverse, with no Fraction to build
            if type(a) is int and (a == 1 or a == -1):
                return a
            return _qq(1 / Fraction(a))
        if self.kind == "integers":
            return a
        return pow(a, -1, self.p)

    def pow(self, a, k):
        _exact(a)
        if not isinstance(k, int):
            raise ValueError("exponent is not an int: %r" % (k,))
        if k < 0:
            a, k = self.invert(a), -k
        if self.kind == "prime-field":
            return pow(a, k, self.p)
        return a ** k if k else 1  # a Fraction ** 0 is Fraction(1)


QQ = Domain("rationals")
ZZ = Domain("integers")


@lru_cache(typed=True)
def GF(p):
    """GF(p) for a prime int p, one `Domain` per modulus, so a process tests
    each prime once; GF(5.0) raises even after GF(5) is cached."""
    return Domain("prime-field", p)
