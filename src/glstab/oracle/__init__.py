"""Brute-force ground truth: finite fields, matrix groups, morphism spaces,
orbit and double-coset counting.  Everything here is independent of the
branching dynamic program and exists to cross-validate it."""

from .counts import (
    conjugacy_class_count,
    double_cosets_gl,
    enumerate_group,
    group_generators,
    weakstab_cosets,
    weakstab_map_surjective,
)
from .fields import Field, field
from .orbits import burnside_count, orbit_count, orbit_partition
from .vic import VicMorphism, embed, vic_morphisms

__all__ = [
    "Field",
    "field",
    "VicMorphism",
    "embed",
    "vic_morphisms",
    "orbit_count",
    "orbit_partition",
    "burnside_count",
    "enumerate_group",
    "group_generators",
    "double_cosets_gl",
    "weakstab_cosets",
    "weakstab_map_surjective",
    "conjugacy_class_count",
]
