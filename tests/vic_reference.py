"""Test references for the oracle: dense matrices, GL_n by a rank scan, the
morphism space as objects, and Burnside orbit counting.  A matrix is a tuple of
row tuples of field elements.  A morphism is a pair (f, K): f an n x m matrix of
full column rank, K the reduced-echelon basis of a complement of its column
space.  The enumeration is independent of the library's packed build
(`counts._space`, no row reduction): it picks the columns, then reduces each
complement of their span.
"""

from itertools import product
from typing import NamedTuple

from glstab.errors import InvariantViolated
from glstab.oracle.counts import space_size
from glstab.oracle.fields import field


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(F, a, b):
    def dot(row, col):
        acc = 0
        for x, y in zip(row, col):
            acc = F.add[acc][F.mul[x][y]]
        return acc

    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


def rref(F, mat):
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
                rows[i] = [F.add[x][F.neg[F.mul[f][y]]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rank(F, mat) -> int:
    return len(rref(F, mat)[0])


def gl_matrices(n, q) -> list:
    """Every invertible n x n matrix over F_q, by a rank scan of all q**(n*n)."""
    F = field(q)
    mats = (tuple(flat[i * n : (i + 1) * n] for i in range(n))
            for flat in product(range(q), repeat=n * n))
    return [mat for mat in mats if rank(F, mat) == n]


class VicMorphism(NamedTuple):
    """Canonical (injection, complement) pair from F_q^m to F_q^n."""

    q: int
    f: tuple  # n rows of length m
    K: tuple  # n - m reduced-echelon rows of length n


def _span(F, basis_rows, n):
    """All vectors of F_q^n in the row span, as tuples."""
    out = [(0,) * n]
    for row in basis_rows:
        out = [tuple(F.add[x][F.mul[c][y]] for x, y in zip(v, row))
               for v in out for c in range(F.q)]
    return out


def vic_morphisms(m, n, q) -> list:
    """Every morphism from F_q^m to F_q^n; count = vic_hom_count(m, n, q)."""
    total = space_size(m, n, q)
    F = field(q)
    out = []
    complements = {}  # a column space's reduced basis -> its complements, reduced

    def complements_of(basis, pivots):
        nonpiv = [j for j in range(n) if j not in pivots]
        # complements correspond to maps from the pivot-free coordinates into
        # the column space: basis vector e_j + u_j, each complement exactly once
        graphs = (tuple(u[:j] + (F.add[u[j]][1],) + u[j + 1 :] for j, u in zip(nonpiv, us))
                  for us in product(_span(F, basis, n), repeat=len(nonpiv)))
        # with no columns the rows are e_0, ..., e_{n-1}: already reduced
        return [rref(F, rows)[0] if basis and rows else rows for rows in graphs]

    def columns(chosen, span):
        if len(chosen) == m:
            basis, pivots = rref(F, tuple(chosen)) if chosen else ((), ())
            if basis not in complements:
                complements[basis] = complements_of(basis, pivots)
            f = tuple(zip(*chosen)) if chosen else ((),) * n
            out.extend(VicMorphism(q, f, K) for K in complements[basis])
            return
        for vec in product(range(q), repeat=n):
            if vec not in span:
                columns(chosen + [vec], set(_span(F, chosen + [vec], n)))

    columns([], {(0,) * n})
    if len(out) != total:
        raise InvariantViolated(f"built {len(out)} morphisms of ({m},{n},{q}); expected {total}")
    return out


def embed(v: VicMorphism) -> VicMorphism:
    """Push forward along the standard inclusion F_q^n -> F_q^{n+1}."""
    f = v.f + ((0,) * (len(v.f) - len(v.K)),)
    K = tuple(row + (0,) for row in v.K) + ((0,) * len(v.f) + (1,),)
    return VicMorphism(v.q, f, K)


def burnside_count(points, element_actions) -> int:
    """Average number of fixed points over every group element."""
    index, fixed = set(points), 0
    for act in element_actions:
        images = [act(p) for p in points]
        if left := [img for img in images if img not in index]:
            raise InvariantViolated(f"image {left[0]!r} left the point set")
        fixed += sum(img == p for img, p in zip(images, points))
    orbits, rem = divmod(fixed, len(element_actions))
    if rem:
        raise InvariantViolated(f"{fixed} fixed points over {len(element_actions)} group elements")
    return orbits
