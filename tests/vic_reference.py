"""Test references for the oracle: the morphism space as objects, and Burnside
orbit counting.  A morphism is a pair (f, K): f an n x m matrix of full column
rank, K the reduced-echelon basis of a complement of its column space.  The
enumeration is independent of the library's packed build (`counts._space`, no
row reduction): it picks the columns, then reduces each complement of their span.
"""

from itertools import product
from typing import NamedTuple

from glstab.errors import InvariantViolated
from glstab.oracle.counts import space_size
from glstab.oracle.fields import field
from glstab.oracle.matrices import rref


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
