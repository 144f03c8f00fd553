"""Brute-force ground truth: finite fields, the morphism spaces (listed once,
as point numbers, by `counts._space`; GL_n is the space at m = n), orbit,
double-coset and conjugacy-class counting, all in the one packed arithmetic:
vectors and group generators' columns are packed integers, complements are
keys of packed rows, and points are numbers.  Everything here is independent
of the branching dynamic program and exists to cross-validate it."""

from .counts import (
    conjugacy_class_count,
    double_cosets_gl,
    weakstab_cosets,
    weakstab_map_surjective,
)
from .fields import Field, field
from .orbits import orbit_partition

__all__ = [
    "Field",
    "field",
    "orbit_partition",
    "double_cosets_gl",
    "weakstab_cosets",
    "weakstab_map_surjective",
    "conjugacy_class_count",
]
