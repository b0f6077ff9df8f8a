import itertools
import random

import pytest

from dense_hnf import (dense_decompose, dense_row_hnf, fixed_basis,
                       kernel_basis)
from retractlab import QQ, Endomorphism, RingSignature
from retractlab.endo import monomial_part
from retractlab.intlinalg import (IntMatrix, decompose, row_hnf,
                                  solve_in_lattice)


def test_fixed_lattice_basis_examples():
    assert fixed_basis(decompose(IntMatrix([[1, 0], [1, 0]]))) == ((1, 1),)
    assert fixed_basis(decompose(IntMatrix.identity(2))) == ((1, 0), (0, 1))
    assert fixed_basis(decompose(IntMatrix([[0, 0], [0, 0]]))) == ()


def test_kernel_basis_examples():
    assert kernel_basis(decompose(IntMatrix([[1, 0], [1, 0]]))) == ((0, 1),)
    assert kernel_basis(decompose(IntMatrix.identity(2))) == ()
    assert kernel_basis(decompose(IntMatrix([[1, -2], [0, 0]]))) == ((2, 1),)


def test_non_idempotent_rejected(monkeypatch):
    # the ranks of the two lattices decide idempotency, with no product:
    # the nilpotent [[0, 1], [0, 0]] has ranks 1 and 2
    products = []
    monkeypatch.setattr(IntMatrix, "__mul__",
                        lambda a, b: products.append((a, b)))
    monkeypatch.setattr(IntMatrix, "times",
                        lambda a, v: products.append((a, v)))
    for M in (IntMatrix([[0, 1], [1, 0]]), IntMatrix([[2, 0], [0, 0]]),
              IntMatrix([[0, 1], [0, 0]])):
        with pytest.raises(ValueError, match="not idempotent"):
            decompose(M)
    assert products == []
    with pytest.raises(ValueError, match="square"):
        decompose(IntMatrix([[1, 2, 3]]))


def test_decompose_y_and_t_examples():
    dec = decompose(IntMatrix([[1, 0], [1, 0]]))
    assert dec.Y == IntMatrix([[1, 0], [1, 1]])
    assert dec.T == IntMatrix([[1, 0], [-1, 1]])
    assert dec.Y * dec.T == IntMatrix.identity(2)

    dec = decompose(IntMatrix.identity(2))
    assert dec.Y == IntMatrix.identity(2) and dec.T == IntMatrix.identity(2)

    dec = decompose(IntMatrix([[1, -2], [0, 0]]))
    assert dec.Y == IntMatrix([[1, 2], [0, 1]])
    assert dec.T == IntMatrix([[1, -2], [0, 1]])
    assert dec.Y * dec.T == IntMatrix.identity(2)

    # determinant -1: back-substitution still inverts it
    dec = decompose(IntMatrix([[0, 0], [0, 1]]))
    assert dec.Y == IntMatrix([[0, 1], [1, 0]])
    assert dec.Y * dec.T == IntMatrix.identity(2)

    dec = decompose(IntMatrix(()))
    assert (dec.Y, dec.T) == (IntMatrix(()), IntMatrix(()))


def test_solve_in_lattice_examples():
    assert solve_in_lattice((2, 2), [(1, 1)]) == (2,)
    assert solve_in_lattice((1, 0), [(1, 1)]) is None
    assert solve_in_lattice((3, 1), [(1, 1), (2, 0)]) == (1, 1)
    assert solve_in_lattice((0, 0), []) == ()
    assert solve_in_lattice((1, 0), []) is None


def _random_unimodular(d, rng, steps=8):
    """A random unimodular C and its inverse, built together: each row
    operation row_i += c·row_j on C is undone on the right of C^-1 by
    column_j -= c·column_i."""
    C = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    Cinv = [row[:] for row in C]
    for _ in range(steps if d >= 2 else 0):
        i, j = rng.sample(range(d), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(d):
            C[i][k] += c * C[j][k]
            Cinv[k][j] -= c * Cinv[k][i]
    return IntMatrix(C), IntMatrix(Cinv)


def random_idempotent_matrix(d, rank, rng):
    """C·D·C^-1 with unimodular C and 0/1 diagonal D."""
    C, Cinv = _random_unimodular(d, rng)
    assert C * Cinv == IntMatrix.identity(d)
    D = IntMatrix([[1 if i == j and i < rank else 0 for j in range(d)]
                   for i in range(d)])
    return C * D * Cinv


def test_decompose_random_idempotents():
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        d = rng.randint(1, 5)
        M = random_idempotent_matrix(d, rng.randint(0, d), rng)
        dec = decompose(M)
        assert len(fixed_basis(dec)) + len(kernel_basis(dec)) == d
        assert dec.T * dec.Y == IntMatrix.identity(d)
        assert dec.Y * dec.T == IntMatrix.identity(d)
        # M·Y = Y·diag(1..1, 0..0)
        D = IntMatrix([[1 if i == j and i < dec.r else 0 for j in range(d)]
                       for i in range(d)])
        assert M * dec.Y == dec.Y * D
        # every column of M lies in the fixed lattice
        for j in range(d):
            column = [row[j] for row in M.entries]
            assert solve_in_lattice(column, fixed_basis(dec)) is not None
        checked += 1


def brute_force_member(v, basis, coord_bound=9):
    ranges = [range(-coord_bound, coord_bound + 1)] * len(basis)
    for coords in itertools.product(*ranges):
        cand = [sum(c * b[k] for c, b in zip(coords, basis))
                for k in range(len(v))]
        if tuple(cand) == tuple(v):
            return True
    return False


def test_membership_against_brute_force():
    # enumeration over coordinates in [-9, 9] is a complete oracle only for
    # solutions inside that window, so agreement is checked both ways
    # wherever the window decides
    rng = random.Random(99)
    for _ in range(150):
        d = rng.randint(1, 3)
        k = rng.randint(1, 2)
        basis = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        v = tuple(rng.randint(-6, 6) for _ in range(d))
        got = solve_in_lattice(v, basis)
        expected = brute_force_member(v, basis)
        if expected:
            assert got is not None
        if got is None:
            assert not expected
        else:
            rebuilt = [sum(c * b[i] for c, b in zip(got, basis))
                       for i in range(d)]
            assert tuple(rebuilt) == v
            if all(abs(c) <= 9 for c in got):
                assert expected


def test_built_matrices_equal_checked_ones():
    # products, identities and the Y and T of `decompose` skip the public
    # constructor's checks, so their entries must be what it would make
    def checked(A):
        rows = A.entries
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert all(type(x) is int for row in rows for x in row)
        assert IntMatrix(rows) == A
    rng = random.Random(7)
    for _ in range(100):
        d = rng.randint(1, 4)
        M = random_idempotent_matrix(d, rng.randint(0, d), rng)
        dec = decompose(M)
        for A in (dec.Y, dec.T, M * dec.Y, dec.T * M, IntMatrix.identity(d)):
            checked(A)
    empty = decompose(IntMatrix([]))
    for A in (empty.Y, empty.T, IntMatrix.identity(0)):
        checked(A)
    # the public constructor still checks every entry and row length
    with pytest.raises(ValueError, match="entries must be ints"):
        IntMatrix([[1, 2.0]])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        IntMatrix(([1], [2, 3]))


def _conjugated_projection(d, rank, rng):
    """C·D·C^-1 with a unimodular C of 2d + 4 row operations and a 0/1
    diagonal D of the given rank."""
    C, Cinv = _random_unimodular(d, rng, steps=2 * d + 4)
    D = IntMatrix([[1 if i == j and i < rank else 0 for j in range(d)]
                   for i in range(d)])
    return C * D * Cinv, C, Cinv


def test_sparse_layer_matches_dense_reference():
    # the HNF is unique, so the sparse layer returns the dense bases, Y and
    # T byte for byte; a non-idempotent M raises, as the dense ranks say
    rng = random.Random(1012)
    for d in range(1, 13):
        for _ in range(12):
            rank = rng.randint(0, d)
            M, C, Cinv = _conjugated_projection(d, rank, rng)
            dec = decompose(M)
            assert dec.r == rank
            assert (fixed_basis(dec), kernel_basis(dec), dec.Y.entries,
                    dec.T.entries) == dense_decompose(M.entries)
            assert dec.Y * dec.T == IntMatrix.identity(d)
            if d >= 2:
                nilpotent = IntMatrix([[int((i, j) == (0, 1))
                                        for j in range(d)] for i in range(d)])
                for bad in (C * nilpotent * Cinv, IntMatrix(
                        [[2 * a for a in row] for row in M.entries])):
                    if bad.entries != M.entries:
                        assert dense_decompose(bad.entries) is None
                        with pytest.raises(ValueError,
                                           match="not idempotent"):
                            decompose(bad)


def test_row_hnf_matches_dense_reference():
    # dependent rows, zero rows and negative leads, beyond idempotent input.
    # In the first fixed input the reduced row's lead moves past every
    # starting lead, to 2; in the second a row moves to the later bucket 1
    # and cancels to zero there
    cases = [(3, [(1, 0, 0), (1, 0, 1)]),
             (3, [(1, 1, 0), (1, 2, 0), (0, 1, 0)])]
    rng = random.Random(44)
    for _ in range(400):
        m, n = rng.randint(0, 6), rng.randint(1, 7)
        rows = [tuple(rng.choice((0, 0, 0, 1, -1, 2, -3, 4))
                      for _ in range(n)) for _ in range(m)]
        if rows and rng.random() < 0.3:
            rows.append(tuple(a - 2 * b for a, b in zip(rows[0], rows[-1])))
        cases.append((n, rows))
    for n, rows in cases:
        sparse = [tuple((j, a) for j, a in enumerate(row) if a)
                  for row in rows]
        got = [tuple(dict(h).get(j, 0) for j in range(n))
               for h in row_hnf(sparse)]
        assert got == dense_row_hnf(rows)


def test_equal_matrices_share_one_key():
    # decompose is memoized per M, so a matrix's hash and equality follow
    # its entries, however it was built
    R = RingSignature(["x1", "x2"], 2, QQ)
    e1 = Endomorphism(R, [R.monomial((1, 1)), R.constant(1)])
    built = [IntMatrix([[1, 0], [1, 0]]),
             IntMatrix(((1, 0), (1, 0))),
             IntMatrix(iter([iter([1, 0]), iter([1, 0])])),
             IntMatrix.from_columns(2, [((0, 1), (1, 1)), ()]),
             IntMatrix.identity(2) * IntMatrix([[1, 0], [1, 0]]),
             monomial_part(e1).matrix]
    assert len(set(built)) == 1 and len({hash(M) for M in built}) == 1
    assert all(M == built[0] for M in built)
    assert IntMatrix([[1, 0], [1, 0]]) != IntMatrix([[1, 0], [0, 1]])
    assert IntMatrix([]) == IntMatrix.identity(0) != IntMatrix([[], []])
    decompose.cache_clear()
    assert len({id(decompose(M)) for M in built}) == 1
    assert decompose.cache_info().misses == 1
