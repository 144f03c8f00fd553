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
from ..errors import GuardExceeded, InvariantViolated
from .fields import Field, field
from .matrices import rref

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


def space_size(m, n, q) -> int:
    """vic_hom_count(m, n, q), refused past VIC_SPACE_GUARD.  The count is at least
    q**(m*(2n-m-1)) >= 2**bits (q**n - q**i >= q**(n-1)); past 2**16 bits no count
    prints in decimal, so refuse on that bound, not an m*n*log2(q)-bit product."""
    bits = m * (2 * n - m - 1) * (q.bit_length() - 1)
    if bits > 2**16:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=f">= 2**{bits}")
    total = vic_hom_count(m, n, q)
    if total > VIC_SPACE_GUARD:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=total)
    return total


def vic_morphisms(m, n, q) -> list:
    """Every morphism from F_q^m to F_q^n; count = vic_hom_count(m, n, q)."""
    total = space_size(m, n, q)
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
                rows.append(u[:j] + (F.add[u[j]][1],) + u[j + 1 :])
            # with no columns the rows are e_0, ..., e_{n-1}: already reduced
            K = rref(F, tuple(rows))[0] if chosen and rows else tuple(rows)
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
