"""Exact dense linear algebra over the field tables.

Matrices are tuples of row tuples of field elements.  Everything is small;
clarity over speed (the hot orbit loops use packed vectors, not these).
"""

from __future__ import annotations

from itertools import product

from ..errors import BadParameters, DimensionMismatch
from .fields import Field


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F: Field, a, b):
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    bt = tuple(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            acc = 0
            for x, y in zip(row, col):
                acc = F.add[acc][F.mul[x][y]]
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


def mat_vec(F: Field, a, v):
    return tuple(r[0] for r in mat_mul(F, a, tuple((x,) for x in v)))


def rref(F: Field, mat):
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in mat]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F.inv[rows[r][c]]
        rows[r] = [F.mul[inv][x] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [F.sub(x, F.mul[f][y]) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rank(F: Field, mat) -> int:
    return len(rref(F, mat)[0])


def inverse(F: Field, mat):
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise DimensionMismatch("inverse of non-square matrix")
    aug = tuple(row + irow for row, irow in zip(mat, identity(n)))
    red, pivots = rref(F, aug)
    if pivots[:n] != tuple(range(n)):
        raise BadParameters("matrix is not invertible")
    return tuple(row[n:] for row in red[:n])


def all_matrices(n_rows, n_cols, q):
    """Iterate every n_rows x n_cols matrix over F_q, row-major order."""
    for flat in product(range(q), repeat=n_rows * n_cols):
        yield tuple(flat[i * n_cols : (i + 1) * n_cols] for i in range(n_rows))
