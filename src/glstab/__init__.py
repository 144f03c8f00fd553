"""Irreducible decompositions of the GL_n(F_q) permutation modules
k[G_n/G_{n-m}] by zigzag-path counting, their multiplicity stability, and a
brute-force oracle that cross-validates every number."""

from .branching import Decomposition, count_zigzag, decompose_perm_module
from .labels import Label, Shape, pad, stabilize, trivial_label
from .stability import (
    empirical_stability_degree,
    stable_decomposition,
    support_bounds_check,
)

__version__ = "0.1.0"

__all__ = [
    "Label",
    "Shape",
    "pad",
    "stabilize",
    "trivial_label",
    "count_zigzag",
    "decompose_perm_module",
    "Decomposition",
    "stable_decomposition",
    "empirical_stability_degree",
    "support_bounds_check",
    "__version__",
]
