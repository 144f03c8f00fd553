"""Multiplicity stability: stable decompositions, the observed onset of
constancy, the consecutive-size path-count equality behind the 3m bound,
and the support bounds of stable shapes."""

from __future__ import annotations

from dataclasses import dataclass, field

from .branching import Decomposition, count_zigzag, decompose_perm_module
from .errors import BadParameters
from .labels import Label, pad, trivial_label


def stable_decomposition(m: int, q: int) -> Decomposition:
    """The decomposition at n = 3m, valid unchanged for all n >= 3m."""
    return decompose_perm_module(3 * m, m, q)


@dataclass
class StabilityReport:
    m: int
    q: int
    n_max: int
    decompositions: dict = field(repr=False)  # n -> Decomposition
    observed_stability_degree: int = 0
    bound_satisfied: bool = True

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "n_max": self.n_max,
            "observed_stability_degree": self.observed_stability_degree,
            "bound": 3 * self.m,
            "bound_satisfied": self.bound_satisfied,
            "decompositions": {
                str(n): dec.to_json() for n, dec in sorted(self.decompositions.items())
            },
        }


def empirical_stability_degree(m: int, q: int, n_max: int) -> StabilityReport:
    """Decompose for every n in [m, n_max] and locate the onset of constancy."""
    if n_max < 3 * m:
        raise BadParameters(f"n_max={n_max} must be >= 3m={3 * m}")
    sizes = range(m, n_max + 1)
    by_n = {n: decompose_perm_module(n, m, q) for n in sizes}
    final_map = by_n[n_max].stable_map()
    observed = n_max
    for n in reversed(sizes):
        if by_n[n].stable_map() != final_map:
            break
        observed = n
    report = StabilityReport(
        m=m,
        q=q,
        n_max=n_max,
        decompositions=by_n,
        observed_stability_degree=observed,
        bound_satisfied=observed <= 3 * m,
    )
    return report


def check_h_bijection(m: int, ell: int, q: int, lam: Label) -> bool:
    """Path-count equality between consecutive sizes ell and ell + 1.

    The paper proves it for ell >= 3m; below that threshold the call raises
    BadParameters.
    """
    if ell < 3 * m:
        raise BadParameters(f"ell={ell} below stability threshold {3 * m}")
    lhs = count_zigzag(trivial_label(ell - m), pad(lam, ell), m, q)
    rhs = count_zigzag(trivial_label(ell + 1 - m), pad(lam, ell + 1), m, q)
    return lhs == rhs


def support_bounds_check(dec: Decomposition) -> bool:
    """Every stable shape satisfies norm <= 2m and first iota row <= m."""
    for e in dec.entries:
        if e.shape.norm() > 2 * dec.m:
            return False
        if e.shape.iota and e.shape.iota[0] > dec.m:
            return False
    return True

