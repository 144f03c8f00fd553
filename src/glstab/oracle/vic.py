"""Injection-with-complement morphisms between F_q^m and F_q^n.

A morphism is a pair (f, K): f an n x m matrix of full column rank, K the
reduced-echelon basis of a complementary subspace of the column space.
These pairs are the points of the coset spaces the orbit counters run on:
the block subgroup fixing the standard morphism plays the role of the
smaller general linear group, so coset spaces stay polynomial in q^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..degrees import vic_hom_count
from ..errors import BadParameters, GuardExceeded, InvariantViolated
from .fields import Field, field
from .matrices import mat_mul, rank, rref

VIC_SPACE_GUARD = 2**22


@dataclass(frozen=True)
class VicMorphism:
    """Canonical (injection, complement) pair from F_q^m to F_q^n."""

    q: int
    f: tuple  # n rows of length m
    K: tuple  # n - m reduced-echelon rows of length n

    @property
    def n(self) -> int:
        return len(self.f)

    @property
    def m(self) -> int:
        return len(self.f[0]) if self.f else 0


def make_vic(q, f_rows, K_rows) -> VicMorphism:
    F = field(q)
    f_rows = tuple(tuple(r) for r in f_rows)
    K_rows = tuple(tuple(r) for r in K_rows)
    n = len(f_rows)
    m = len(f_rows[0]) if f_rows else 0
    if m and rank(F, f_rows) != m:
        raise BadParameters("map part is not injective")
    if K_rows:
        K_rows, _ = rref(F, K_rows)
    if len(K_rows) != n - m:
        raise BadParameters("complement has wrong dimension")
    stacked = K_rows + tuple(zip(*f_rows)) if m else K_rows
    if n and rank(F, stacked) != n:
        raise BadParameters("complement does not complement the image")
    return VicMorphism(q=q, f=f_rows, K=K_rows)


def standard_morphism(m, n, q) -> VicMorphism:
    """Inclusion onto the first m coordinates, complement the last n - m."""
    if not 0 <= m <= n:
        raise BadParameters(f"need 0 <= m <= n, got m={m}, n={n}")
    f = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(n))
    K = tuple(tuple(1 if j == m + i else 0 for j in range(n)) for i in range(n - m))
    return VicMorphism(q=q, f=f, K=K)


def compose(g: VicMorphism, f: VicMorphism) -> VicMorphism:
    """(g, L) after (f, K): map g.f, complement g(K) + L."""
    if g.q != f.q:
        raise BadParameters("morphisms over different fields")
    if g.m != f.n:
        raise BadParameters(f"cannot compose {g.m} <- with -> {f.n}")
    F = field(g.q)
    if f.m:
        comp = mat_mul(F, g.f, f.f)
    else:
        comp = tuple(() for _ in range(g.n))
    pushed = tuple(
        tuple(row) for row in zip(*mat_mul(F, g.f, tuple(zip(*f.K))))
    ) if f.K else ()
    return make_vic(g.q, comp, pushed + g.K)


def _span(F: Field, basis_rows):
    """All vectors in the row span, as tuples."""
    out = [(0,) * (len(basis_rows[0]) if basis_rows else 0)]
    for row in basis_rows:
        out = [
            tuple(F.add[x][F.mul[c][y]] for x, y in zip(v, row))
            for v in out
            for c in range(F.q)
        ]
    return out


def vic_morphisms(m, n, q) -> list:
    """Every morphism from F_q^m to F_q^n; count = vic_hom_count(m, n, q)."""
    total = vic_hom_count(m, n, q)
    if total > VIC_SPACE_GUARD:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=total)
    F = field(q)
    out = []

    def complements(chosen):
        basis, pivots = rref(F, tuple(chosen)) if chosen else ((), ())
        nonpiv = [j for j in range(n) if j not in pivots]
        col_space = _span(F, basis) if basis else [(0,) * n]
        f_rows = tuple(zip(*chosen)) if chosen else tuple(() for _ in range(n))
        # complements correspond to maps from the pivot-free coordinates into
        # the column space: basis vector e_j + u_j, each complement exactly once
        for us in product(col_space, repeat=len(nonpiv)):
            rows = []
            for j, u in zip(nonpiv, us):
                rows.append(tuple(F.add[u[i]][1 if i == j else 0] for i in range(n)))
            K, _ = rref(F, tuple(rows)) if rows else ((), ())
            out.append(VicMorphism(q=q, f=f_rows, K=K))

    def columns(chosen, span):
        if len(chosen) == m:
            complements(chosen)
            return
        for vec in product(range(q), repeat=n):
            if vec not in span:
                columns(
                    chosen + [vec],
                    span | {tuple(F.add[x][F.mul[c][y]] for x, y in zip(s, vec))
                            for s in span for c in range(1, q)},
                )

    columns([], {(0,) * n})
    if len(out) != total:
        raise InvariantViolated(f"built {len(out)} morphisms of ({m},{n},{q}); expected {total}")
    return out


def embed(v: VicMorphism) -> VicMorphism:
    """Push forward along the standard inclusion F_q^n -> F_q^{n+1}."""
    f = tuple(v.f) + ((0,) * v.m,)
    K = tuple(row + (0,) for row in v.K) + ((0,) * v.n + (1,),)
    return VicMorphism(q=v.q, f=f, K=K)
