"""Exact integer linear algebra for idempotent unit-lattice matrices.

For idempotent M, Z^d = im M ⊕ im(I - M): the fixed lattice is spanned by
the columns of M and the kernel by the columns of I - M.  Both bases are
canonicalized by Hermite normal form (positive pivots, entries above a pivot
reduced into [0, pivot)), so every decomposition is byte-reproducible.  The
assembled basis Y = [fixed | kernel] is then unimodular, and its inverse T
is read off the two bases by back-substitution.  A square M is idempotent
exactly when the ranks of its two lattices sum to d, so `decompose` forms no
product.  All arithmetic is exact.  Matrices are stored densely, and
`row_hnf`, `decompose` and `apply`'s row scan walk dense rows, so a sparse
matrix of width d costs at least d^2, not its nonzero entries.
"""

from heapq import heappop, heappush
from itertools import compress
from operator import index


class IntMatrix:
    """Immutable integer matrix, stored densely."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        try:
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise ValueError("matrix entries must be ints") from None
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows

    @classmethod
    def _trusted(cls, rows):
        """Wrap rows the caller built: a tuple of equally long int tuples,
        skipping the constructor's checks."""
        matrix = object.__new__(cls)
        matrix.entries = rows
        return matrix

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n):
        return IntMatrix._trusted(tuple(map(tuple, _identity_rows(n))))

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.entries)),)

    def __mul__(self, other):
        if self.cols != other.rows:
            raise ValueError("dimension mismatch %dx%d · %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        # row i of the product sums a·(row k of other), over the nonzero
        # entries a = self[i][k] and the nonzero entries of row k
        sparse = [[(j, b) for j, b in enumerate(row) if b]
                  for row in other.entries]
        product = [[0] * other.cols for _ in self.entries]
        for row, acc in zip(self.entries, product):
            for k, a in enumerate(row):
                if a:
                    for j, b in sparse[k]:
                        acc[j] += a * b
        return IntMatrix._trusted(tuple(map(tuple, product)))

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        # M·v sums x·(column k) over the nonzero entries x = v[k]
        image = [0] * self.rows
        for k, x in enumerate(v):
            if x:
                for i, row in enumerate(self.entries):
                    if row[k]:
                        image[i] += row[k] * x
        return tuple(image)


def _identity_rows(n):
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


def row_hnf(rows):
    """The nonzero rows, as tuples, of the row Hermite normal form H of the
    given rows: a canonical basis of the lattice they span, in row echelon
    form with positive pivots and reduced entries above."""
    m = len(rows)
    H = [list(r) for r in rows]
    n = len(H[0]) if H else 0
    pivot = 0
    for col in range(n):
        while True:
            live = [i for i in range(pivot, m) if H[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(H[i][col]))
            H[i0], H[pivot] = H[pivot], H[i0]
            if len(live) == 1:
                break
            for i in [i for i in range(pivot + 1, m) if H[i][col]]:
                q = H[i][col] // H[pivot][col]
                H[i] = [a - q * b for a, b in zip(H[i], H[pivot])]
        if pivot < m and H[pivot][col] != 0:
            if H[pivot][col] < 0:
                H[pivot] = [-a for a in H[pivot]]
            for i in [i for i in range(pivot) if H[i][col]]:
                q = H[i][col] // H[pivot][col]
                H[i] = [a - q * b for a, b in zip(H[i], H[pivot])]
            pivot += 1
    return [tuple(r) for r in H[:pivot]]


def _echelon_coordinates(rows, vectors):
    """Integer coordinates of each vector in the nonzero echelon rows, or
    None if one lies outside their span.  Back-substitution visits what is
    left of a vector at its nonzero indices, smallest first: there the rows
    with a smaller pivot are done and the others vanish, so it is a pivot."""
    pivots = {}
    for i, row in enumerate(rows):
        (k, lead), *tail = compress(enumerate(row), row)
        pivots[k] = i, lead, tail
    solved = []
    for v in vectors:
        coords = [0] * len(rows)
        rest = dict(compress(enumerate(v), v))
        todo = list(rest)  # ascending, so already a heap
        while todo:
            k = heappop(todo)
            x = rest.pop(k, 0)
            if x:
                if k not in pivots or x % pivots[k][1]:
                    return None
                i, lead, tail = pivots[k]
                q = coords[i] = x // lead
                for j, a in tail:
                    rest[j] = rest.get(j, 0) - q * a
                    heappush(todo, j)
        solved.append(tuple(coords))
    return solved


class SummandDecomposition:
    """Z^d = fixed lattice ⊕ kernel for an idempotent matrix M, witnessed by
    the assembled basis matrix Y (fixed columns first, r of them) and its
    integer inverse T."""

    __slots__ = ("M", "r", "fixed_basis", "kernel_basis", "Y", "T")

    def __init__(self, M, r, fixed_basis, kernel_basis, Y, T):
        self.M = M
        self.r = r
        self.fixed_basis = tuple(fixed_basis)
        self.kernel_basis = tuple(kernel_basis)
        self.Y = Y
        self.T = T


def decompose(M):
    """Full summand decomposition of an idempotent d×d matrix: the canonical
    Z-bases of the fixed lattice {v : Mv = v} (the columns of M) and of the
    kernel {v : Mv = 0} (the columns of I - M, since ker M = im(I - M)).
    This is the one entry point to both bases and the one idempotency check:
    every v is Mv + (I - M)v, so the two ranks sum to d exactly when the
    lattices meet in 0, that is when M·(I - M) = 0.  Column j of T = Y^-1
    stacks the coordinates of M·e_j in the fixed basis on those of
    (I - M)·e_j in the kernel basis.  A non-square or non-idempotent M
    raises ValueError."""
    if M.rows != M.cols:
        raise ValueError("idempotency only makes sense for square matrices")
    d = M.rows
    columns = list(zip(*M.entries))
    killed = [[e - a for e, a in zip(unit, col)]
              for unit, col in zip(_identity_rows(d), columns)]
    fixed = row_hnf(columns)
    kernel = row_hnf(killed)
    if len(fixed) + len(kernel) != d:
        raise ValueError("matrix is not idempotent")
    # each basis is the HNF of the vectors solved in it, so no solve fails
    Y = tuple(zip(*(fixed + kernel)))
    T = tuple(zip(*(f + k for f, k in zip(
        _echelon_coordinates(fixed, columns),
        _echelon_coordinates(kernel, killed)))))
    return SummandDecomposition(M, len(fixed), fixed, kernel,
                                IntMatrix._trusted(Y), IntMatrix._trusted(T))


def solve_in_lattice(v, basis):
    """Integer coordinates of v in the given lattice vectors, or None.
    Dependent spanning sets work too: the HNF of the rows b_i ‖ e_i carries,
    beside each echelon row of the b_i, the combination of the b_i that
    makes it, so coordinates in those rows pull back to the b_i."""
    v, basis = tuple(v), [list(b) for b in basis]
    n, m = len(v), len(basis)
    if any(len(b) != n for b in basis):
        raise ValueError("vector lengths differ")
    H = [h for h in row_hnf([b + e for b, e in zip(basis, _identity_rows(m))])
         if any(h[:n])]
    solved = _echelon_coordinates([h[:n] for h in H], [v])
    return None if solved is None else tuple(
        sum(c * h[j] for c, h in zip(solved[0], H)) for j in range(n, n + m))
