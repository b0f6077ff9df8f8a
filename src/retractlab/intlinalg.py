"""Exact integer linear algebra for idempotent unit-lattice matrices.

For idempotent M, Z^d = im M ⊕ im(I - M): the fixed lattice is spanned by
the columns of M and the kernel by the columns of I - M.  Both bases are
canonicalized by Hermite normal form (positive pivots, entries above a pivot
reduced into [0, pivot)), so every decomposition is byte-reproducible.  The
assembled basis Y = [fixed | kernel] is then unimodular, and its inverse T
comes from the HNF transform of its columns.  All arithmetic is exact;
matrices here are desk-scale (d ≤ 8), so no modular shortcuts are used.
"""


class IntMatrix:
    """Immutable dense integer matrix."""

    __slots__ = ("entries",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
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
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n))
                               for i in range(n)))

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
        bt = list(zip(*other.entries)) if other.entries else []
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in bt)
            for row in self.entries))

    def transpose(self):
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def column(self, j):
        return tuple(row[j] for row in self.entries)

    def apply(self, v):
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    @property
    def is_square(self):
        return self.rows == self.cols


def mat_is_idempotent(M):
    if not M.is_square:
        raise ValueError("idempotency only makes sense for square matrices")
    return M * M == M


def row_hnf(rows):
    """Row Hermite normal form with transformation.

    Returns (H, U) as lists of row tuples with U·rows = H, U unimodular,
    H in row echelon form with positive pivots and reduced entries above.
    """
    m = len(rows)
    H = [list(r) for r in rows]
    n = len(H[0]) if H else 0
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

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
            if i0 != pivot:
                H[i0], H[pivot] = H[pivot], H[i0]
                U[i0], U[pivot] = U[pivot], U[i0]
            if len(live) == 1:
                break
            for i in range(pivot + 1, m):
                if H[i][col]:
                    addrow(i, pivot, H[i][col] // H[pivot][col])
        if pivot < m and H[pivot][col] != 0:
            if H[pivot][col] < 0:
                H[pivot] = [-a for a in H[pivot]]
                U[pivot] = [-a for a in U[pivot]]
            for i in range(pivot):
                if H[i][col]:
                    addrow(i, pivot, H[i][col] // H[pivot][col])
            pivot += 1
    return [tuple(r) for r in H], [tuple(r) for r in U]


def _lattice_basis(vectors):
    """Canonical (HNF) basis of the lattice spanned by the given vectors."""
    if not vectors:
        return []
    H, _ = row_hnf(list(vectors))
    return [r for r in H if any(r)]


class SummandDecomposition:
    """Z^d = fixed lattice ⊕ kernel for an idempotent matrix M, witnessed by
    the assembled basis matrix Y (fixed columns first) and its integer
    inverse T.  `idempotent` is the outcome of the M·M = M check that
    `decompose` ran."""

    __slots__ = ("M", "idempotent", "r", "fixed_basis", "kernel_basis", "Y",
                 "T")

    def __init__(self, M, idempotent, r, fixed_basis, kernel_basis, Y, T):
        self.M = M
        self.idempotent = idempotent
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
    if not vectors:
        return IntMatrix(()), IntMatrix(())
    d = len(vectors[0])
    if len(vectors) != d:
        raise ValueError("expected %d basis vectors, got %d" % (d, len(vectors)))
    H, U = row_hnf(vectors)
    if IntMatrix(H) != IntMatrix.identity(d):
        raise ValueError("assembled basis is not unimodular")
    return IntMatrix(tuple(zip(*vectors))), IntMatrix(U).transpose()


def decompose(M):
    """Full summand decomposition of an idempotent d×d matrix: the canonical
    Z-bases of the fixed lattice {v : Mv = v} (the columns of M) and of the
    kernel {v : Mv = 0} (the columns of I - M, since ker M = im(I - M)).
    This is the one entry point to both bases; M·M is computed once, here,
    and a non-idempotent M raises ValueError."""
    idempotent = mat_is_idempotent(M)
    if not idempotent:
        raise ValueError("matrix is not idempotent")
    d = M.rows
    fixed = _lattice_basis([M.column(j) for j in range(d)])
    kernel = _lattice_basis([tuple(int(i == j) - M.entries[i][j]
                                   for i in range(d)) for j in range(d)])
    Y, T = assemble_unimodular(fixed, kernel)
    return SummandDecomposition(M, idempotent, len(fixed), fixed, kernel, Y, T)


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
        if rem[piv] % h[piv] != 0:
            return None
        q = rem[piv] // h[piv]
        t[i] = q
        rem = [a - q * b for a, b in zip(rem, h)]
    if any(rem):
        return None
    # coordinates in the original vectors: t·U
    return tuple(sum(t[i] * U[i][j] for i in range(len(basis)))
                 for j in range(len(basis)))
