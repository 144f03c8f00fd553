"""Brute-force ground truth: finite fields, matrix groups, the morphism spaces
(listed once, packed, by `counts._space`), orbit and double-coset counting.
Everything here is independent of the branching dynamic program and exists to
cross-validate it."""

from .counts import (
    conjugacy_class_count,
    double_cosets_gl,
    enumerate_group,
    group_generators,
    weakstab_cosets,
    weakstab_map_surjective,
)
from .fields import Field, field
from .orbits import orbit_count, orbit_partition

__all__ = [
    "Field",
    "field",
    "orbit_count",
    "orbit_partition",
    "enumerate_group",
    "group_generators",
    "double_cosets_gl",
    "weakstab_cosets",
    "weakstab_map_surjective",
    "conjugacy_class_count",
]
