"""Independent cross-check oracle: Gaussian-elimination rank over F_q on
FieldElements, the tests' reference for FieldSpec.ranks; no command calls
it.

Kept free of any orbit or scheme machinery and of the field's index
tables, so the tests compare two genuinely different computations.
"""

from __future__ import annotations


def matrix_rank(mat, field):
    """Rank of a matrix of FieldElements by Gaussian elimination."""
    rows = [list(r) for r in mat]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if not rows[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col].inv()
        rows[rank] = [v * inv for v in rows[rank]]
        for r in range(nrows):
            if r != rank and not rows[r][col].is_zero():
                c = rows[r][col]
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank

