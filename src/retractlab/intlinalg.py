"""Exact integer linear algebra for idempotent unit-lattice matrices.

For idempotent M, Z^d = im M ⊕ im(I - M): the fixed lattice is spanned by
the columns of M and the kernel by the columns of I - M.  Both bases are
canonicalized by Hermite normal form (positive pivots, entries above a pivot
reduced into [0, pivot)), which is unique, so every decomposition is
byte-reproducible.  The assembled basis Y = [fixed | kernel] is then
unimodular, and its inverse T is read off the two bases by
back-substitution.  A square M is idempotent exactly when the ranks of its
two lattices sum to d, so `decompose` forms no product.  All arithmetic is
exact.

Storage is sparse.  A vector is a tuple of (index, value) pairs with
increasing indices and nonzero values; an `IntMatrix` is a namedtuple of
its row count and its columns as such vectors, so the columns of Y are the
two bases.  `row_hnf` scans its columns once, the echelon solve walks a
heap of nonzero indices, and `times` and the product touch nonzero entries
only, so a d×d matrix with N nonzero entries costs O(d + N), not d^2.
Dense rows exist only in `IntMatrix.entries`, for `repr` and the tests; the
report writer reads the sparse columns.  `decompose` is memoized per M:
matrices and decompositions are namedtuples, so immutable, and equal
matrices hash alike, so maps with the same monomial part share one
decomposition.  An analysis decomposes once, so the memo pays only when one
process analyzes several maps with one M, never in a single CLI `analyze`.
"""

from collections import namedtuple
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import index

# distinct matrices whose decompositions are kept.  An entry holds O(d + N)
# sparse pairs, ~0.4 MB at the widest ring (d = 1000), so the bound needs
# no width limit; one pass of a benchmark analyze workload meets 15-42
# distinct M.
DECOMPOSE_CACHE_SIZE = 64


class IntMatrix(namedtuple("IntMatrix", "rows columns")):
    """Integer matrix: its row count and its columns as sparse vectors."""

    __slots__ = ()
    __add__ = __rmul__ = lambda self, other: NotImplemented

    def __new__(cls, rows):
        try:
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise ValueError("matrix entries must be ints") from None
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        return tuple.__new__(cls, (len(rows), tuple(
            tuple(compress(enumerate(col), col)) for col in zip(*rows))))

    @classmethod
    def from_columns(cls, rows, columns):
        """Wrap sparse columns the caller built, each a tuple of (index,
        value) pairs with increasing indices below `rows` and nonzero
        values, skipping the constructor's checks."""
        return tuple.__new__(cls, (rows, tuple(columns)))

    def __reduce__(self):  # so copy and pickle pass the sparse columns
        return IntMatrix.from_columns, tuple(self)

    @property
    def cols(self):
        return len(self.columns)

    @property
    def entries(self):
        """The dense rows, as a tuple of int tuples."""
        dense = [[0] * len(self.columns) for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, a in col:
                dense[i][j] = a
        return tuple(map(tuple, dense))

    @staticmethod
    def identity(n):
        return IntMatrix.from_columns(n, (((i, 1),) for i in range(n)))

    def __repr__(self):
        return "IntMatrix(%r)" % (list(map(list, self.entries)),)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch %dx%d · %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return IntMatrix.from_columns(self.rows,
                                      map(self.times, other.columns))

    def times(self, vector):
        """M·v for a sparse vector v, as a sparse vector."""
        image = {}
        for k, x in vector:
            for i, a in self.columns[k]:
                image[i] = image.get(i, 0) + a * x
        return tuple([p for p in sorted(image.items()) if p[1]])


def _subtract(row, q, other):
    """row -= q·other in place, for a dict row and a sparse vector other."""
    for j, b in other:
        x = row.get(j, 0) - q * b
        if x:
            row[j] = x
        else:
            del row[j]


def row_hnf(rows):
    """The nonzero rows, as sparse vectors, of the row Hermite normal form H
    of the given sparse rows: a canonical basis of the lattice they span, in
    row echelon form with positive pivots and reduced entries above.

    Rows wait in buckets by their leading index, taken by one ascending scan
    of the columns up to the largest index of any row, since a reduced row
    can move past every starting lead.  A bucket's rows are reduced by the
    one with the smallest lead until one is left, which is the pivot row; a
    reduced row whose lead vanishes moves to its new lead's bucket.  Then
    each echelon row, last first, is reduced at the later pivots it meets,
    smallest first, by those final rows."""
    buckets, width = {}, 0
    for row in rows:
        if row:
            buckets.setdefault(row[0][0], []).append(dict(row))
            width = max(width, row[-1][0] + 1)
    echelon = []
    for col in range(width):
        live = buckets.pop(col, ())
        if not live:
            continue
        while len(live) > 1:
            pivot = min(live, key=lambda row: abs(row[col]))
            lead = pivot[col]
            items = tuple(pivot.items())
            left = [pivot]
            for row in live:
                if row is not pivot:
                    _subtract(row, row[col] // lead, items)
                    if col in row:
                        left.append(row)
                    elif row:
                        buckets.setdefault(min(row), []).append(row)
            live = left
        row, = live
        if row[col] < 0:
            for j in row:
                row[j] = -row[j]
        echelon.append((col, row))
    final = {}  # pivot index -> (pivot, finished row)
    hnf = []
    for col, row in reversed(echelon):
        todo = [k for k in row if k in final]
        heapify(todo)
        while todo:
            k = heappop(todo)
            lead, done = final[k]
            x = row.get(k, 0)
            if not 0 <= x < lead:
                _subtract(row, x // lead, done)
                for j, _ in done:
                    if j in final and j > k:
                        heappush(todo, j)
        done = tuple(sorted(row.items()))
        final[col] = row[col], done
        hnf.append(done)
    hnf.reverse()
    return hnf


def _echelon_coordinates(rows, vectors):
    """Integer coordinates, as sparse vectors, of each sparse vector in the
    nonzero echelon rows, or None if one lies outside their span.
    Back-substitution visits what is left of a vector at its nonzero
    indices, smallest first: there the rows with a smaller pivot are done
    and the others vanish, so it is a pivot, and the coordinates come out
    in increasing row order."""
    pivots = {row[0][0]: (i, row[0][1], row[1:]) for i, row in enumerate(rows)}
    solved = []
    for v in vectors:
        coords = []
        rest = dict(v)
        todo = list(rest)  # ascending, so already a heap
        while todo:
            k = heappop(todo)
            x = rest.pop(k, 0)
            if x:
                if k not in pivots or x % pivots[k][1]:
                    return None
                i, lead, tail = pivots[k]
                q = x // lead
                coords.append((i, q))
                for j, a in tail:
                    rest[j] = rest.get(j, 0) - q * a
                    heappush(todo, j)
        solved.append(tuple(coords))
    return solved


class SummandDecomposition(namedtuple("SummandDecomposition", "M r Y T")):
    """Z^d = fixed lattice ⊕ kernel for an idempotent matrix M, witnessed by
    the assembled basis matrix Y (fixed columns first, r of them) and its
    integer inverse T.  A tuple, so immutable, since `decompose` shares it
    between analyses; the two bases are Y's columns."""

    __slots__ = ()
    __add__ = __mul__ = __rmul__ = lambda self, other: NotImplemented


@lru_cache(maxsize=DECOMPOSE_CACHE_SIZE)
def decompose(M):
    """Full summand decomposition of an idempotent d×d matrix: the canonical
    Z-bases of the fixed lattice {v : Mv = v} (the columns of M) and of the
    kernel {v : Mv = 0} (the columns of I - M, since ker M = im(I - M)).
    This is the one entry point to both bases and the one idempotency check:
    every v is Mv + (I - M)v, so the two ranks sum to d exactly when the
    lattices meet in 0, that is when M·(I - M) = 0.  Column j of T = Y^-1
    stacks the coordinates of M·e_j in the fixed basis on those of
    (I - M)·e_j in the kernel basis.  A non-square or non-idempotent M
    raises ValueError.  Memoized per M, up to DECOMPOSE_CACHE_SIZE
    matrices."""
    if M.rows != M.cols:
        raise ValueError("idempotency only makes sense for square matrices")
    d = M.rows
    columns = M.columns
    killed = []
    for j, col in enumerate(columns):
        v = {i: -a for i, a in col}
        v[j] = v.get(j, 0) + 1
        killed.append(tuple(sorted((i, a) for i, a in v.items() if a)))
    fixed = row_hnf(columns)
    kernel = row_hnf(killed)
    r = len(fixed)
    if r + len(kernel) != d:
        raise ValueError("matrix is not idempotent")
    # each basis is the HNF of the vectors solved in it, so no solve fails
    T = [f + tuple((r + i, c) for i, c in k) for f, k in zip(
        _echelon_coordinates(fixed, columns),
        _echelon_coordinates(kernel, killed))]
    return SummandDecomposition(M, r,
                                IntMatrix.from_columns(d, fixed + kernel),
                                IntMatrix.from_columns(d, T))


def solve_in_lattice(v, basis):
    """Integer coordinates of v in the given lattice vectors, or None.
    Dependent spanning sets work too: the HNF of the rows b_i ‖ e_i carries,
    beside each echelon row of the b_i, the combination of the b_i that
    makes it, so coordinates in those rows pull back to the b_i."""
    v, basis = tuple(v), [tuple(b) for b in basis]
    n, m = len(v), len(basis)
    if any(len(b) != n for b in basis):
        raise ValueError("vector lengths differ")
    H = [h for h in row_hnf([tuple(compress(enumerate(b), b)) + ((n + i, 1),)
                             for i, b in enumerate(basis)]) if h[0][0] < n]
    solved = _echelon_coordinates([tuple(p for p in h if p[0] < n) for h in H],
                                  [tuple(compress(enumerate(v), v))])
    if solved is None:
        return None
    coords = [0] * m
    for i, c in solved[0]:
        for j, a in H[i]:
            if j >= n:
                coords[j - n] += c * a
    return tuple(coords)
