"""Exact integer linear algebra for idempotent unit-lattice matrices.

For idempotent M, Z^d = im M ⊕ im(I - M): the fixed lattice is spanned by
the columns of M and the kernel by the columns of I - M.  Both bases are
canonicalized by Hermite normal form (positive pivots, entries above a pivot
reduced into [0, pivot)), so every decomposition is byte-reproducible.  The
assembled basis Y = [fixed | kernel] is then unimodular, and its inverse T
comes from the HNF transform of its columns.  A square M is idempotent
exactly when the ranks of its two lattices sum to d, so `decompose` forms no
product.  All arithmetic is exact; products and `apply` skip zero entries,
so a sparse matrix of width d up to 1000 costs about its nonzero entries.
"""


class IntMatrix:
    """Immutable integer matrix, stored densely."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(map(int, row)) for row in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.entries = rows

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n):
        return IntMatrix(_identity_rows(n))

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
        return IntMatrix(product)

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
    """Row Hermite normal form with transformation.

    Returns (H, U) as lists of row tuples with U·rows = H, U unimodular,
    H in row echelon form with positive pivots and reduced entries above.
    """
    m = len(rows)
    H = [list(r) for r in rows]
    n = len(H[0]) if H else 0
    U = _identity_rows(m)

    def addrow(i, j, q):
        # row i -= q * row j
        H[i] = [a - q * b for a, b in zip(H[i], H[j])]
        U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    pivot = 0
    for col in range(n):
        while True:
            live = [i for i in range(pivot, m) if H[i][col] != 0]
            if not live:
                break
            i0 = min(live, key=lambda i: abs(H[i][col]))
            H[i0], H[pivot] = H[pivot], H[i0]
            U[i0], U[pivot] = U[pivot], U[i0]
            if len(live) == 1:
                break
            for i in [i for i in range(pivot + 1, m) if H[i][col]]:
                addrow(i, pivot, H[i][col] // H[pivot][col])
        if pivot < m and H[pivot][col] != 0:
            if H[pivot][col] < 0:
                H[pivot] = [-a for a in H[pivot]]
                U[pivot] = [-a for a in U[pivot]]
            for i in [i for i in range(pivot) if H[i][col]]:
                addrow(i, pivot, H[i][col] // H[pivot][col])
            pivot += 1
    return [tuple(r) for r in H], [tuple(r) for r in U]


def _lattice_basis(vectors):
    """Canonical (HNF) basis of the lattice spanned by the given vectors."""
    H, _ = row_hnf(list(vectors))
    return [r for r in H if any(r)]


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


def assemble_unimodular(fixed, kernel):
    """Assemble Y = [fixed | kernel] as columns and return (Y, T) with
    T = Y^-1.

    The rows of Y^t are the basis vectors; their row HNF is I exactly when
    Y is unimodular, and then the transform U (U·Y^t = I) gives T = U^t.
    """
    vectors = list(fixed) + list(kernel)
    d = len(vectors)
    if any(len(v) != d for v in vectors):
        raise ValueError("expected %d basis vectors of length %d" % (d, d))
    H, U = row_hnf(vectors)
    # an echelon form with unit diagonal has its pivots there, reduced: H = I
    if any(H[i][i] != 1 for i in range(d)):
        raise ValueError("assembled basis is not unimodular")
    return IntMatrix(zip(*vectors)), IntMatrix(zip(*U))


def decompose(M):
    """Full summand decomposition of an idempotent d×d matrix: the canonical
    Z-bases of the fixed lattice {v : Mv = v} (the columns of M) and of the
    kernel {v : Mv = 0} (the columns of I - M, since ker M = im(I - M)).
    This is the one entry point to both bases and the one idempotency check:
    every v is Mv + (I - M)v, so the two ranks sum to d exactly when the
    lattices meet in 0, that is when M·(I - M) = 0.  A non-square or
    non-idempotent M raises ValueError."""
    if M.rows != M.cols:
        raise ValueError("idempotency only makes sense for square matrices")
    d = M.rows
    columns = list(zip(*M.entries))
    fixed = _lattice_basis(columns)
    kernel = _lattice_basis([[e - a for e, a in zip(unit, col)]
                             for unit, col in zip(_identity_rows(d), columns)])
    if len(fixed) + len(kernel) != d:
        raise ValueError("matrix is not idempotent")
    Y, T = assemble_unimodular(fixed, kernel)
    return SummandDecomposition(M, len(fixed), fixed, kernel, Y, T)


def solve_in_lattice(v, basis):
    """Integer coordinates of v in the given lattice vectors, or None.

    Works for dependent spanning sets too: solves through the HNF of the
    vectors and pulls the answer back via the transformation matrix.
    """
    basis = [tuple(b) for b in basis]
    v = tuple(v)
    if not basis:
        return () if not any(v) else None
    if any(len(b) != len(v) for b in basis):
        raise ValueError("vector lengths differ")
    H, U = row_hnf(basis)
    t = [0] * len(basis)
    rem = list(v)
    for i, h in enumerate(H):
        piv = next((j for j, x in enumerate(h) if x), None)
        if piv is None:
            continue
        t[i], rest = divmod(rem[piv], h[piv])
        if rest:
            return None
        rem = [a - t[i] * b for a, b in zip(rem, h)]
    if any(rem):
        return None
    # coordinates in the original vectors: t·U
    return tuple(sum(t[i] * U[i][j] for i in range(len(basis)))
                 for j in range(len(basis)))
