"""Dense reference for the lattice layer: row Hermite normal form and the
summand decomposition on dense rows, the way `intlinalg` computed them
before it stored matrices sparse.  The HNF of a lattice is unique, so the
sparse layer must return the same bases, Y and T.  `fixed_basis` and
`kernel_basis` are a decomposition's two bases as dense tuples, read off
Y's sparse columns."""


def _dense(vector, width):
    """The dense tuple of a sparse vector."""
    entries = [0] * width
    for i, a in vector:
        entries[i] = a
    return tuple(entries)


def fixed_basis(dec):
    """The fixed lattice's basis: Y's first r columns, dense."""
    return tuple(_dense(b, dec.Y.rows) for b in dec.Y.columns[:dec.r])


def kernel_basis(dec):
    """The kernel's basis: Y's columns from r on, dense."""
    return tuple(_dense(b, dec.Y.rows) for b in dec.Y.columns[dec.r:])


def dense_row_hnf(rows):
    """The nonzero rows, as tuples, of the row HNF of the given dense rows:
    row echelon form, positive pivots, entries above a pivot in
    [0, pivot)."""
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


def _dense_coordinates(rows, v):
    """Integer coordinates of v in the echelon rows, by back-substitution
    over the pivots in increasing order; v must lie in their span."""
    v = list(v)
    coords = []
    for row in rows:
        k = next(j for j, a in enumerate(row) if a)
        q, rest = divmod(v[k], row[k])
        assert rest == 0, "vector outside the lattice"
        coords.append(q)
        v = [a - q * b for a, b in zip(v, row)]
    assert not any(v), "vector outside the lattice"
    return coords


def dense_decompose(entries):
    """(fixed basis, kernel basis, Y rows, T rows) of the idempotent matrix
    with the given dense rows, or None when the two ranks do not sum to d."""
    d = len(entries)
    columns = list(zip(*entries))
    killed = [[(i == j) - a for i, a in enumerate(col)]
              for j, col in enumerate(columns)]
    fixed = dense_row_hnf(columns)
    kernel = dense_row_hnf(killed)
    if len(fixed) + len(kernel) != d:
        return None
    Y = tuple(zip(*(fixed + kernel)))
    T = tuple(zip(*(tuple(_dense_coordinates(fixed, c))
                    + tuple(_dense_coordinates(kernel, k))
                    for c, k in zip(columns, killed))))
    return tuple(fixed), tuple(kernel), Y, T
