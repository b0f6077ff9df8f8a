"""Exact rank over QQ, the reference for the library's rank arguments."""

from fractions import Fraction


def fraction_rank(rows):
    """Rank over QQ of a matrix of ints or Fractions, by Gaussian
    elimination."""
    rows = [[Fraction(a) for a in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / pivot[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pivot)]
        rank += 1
    return rank
