"""Workload definitions: the fixed operation set of each workload, how each
operation is called through glstab's public API, and how its output is
compared with the frozen reference.

The operation set of a workload never depends on the seed; the seed only
permutes the order in which a pass runs the operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# stable-decompose: decompose_perm_module(n, m, q) at or just above n = 3m.
DECOMPOSE = [
    (9, 3, 2), (10, 3, 2), (12, 4, 2), (9, 3, 3),
    (6, 2, 4), (6, 2, 5), (6, 2, 7), (6, 2, 8), (6, 2, 9),
]
# pinned-paths: (m, q); every stable shape of (m, q) at ell = 3m and 3m + 1.
PINNED = [(3, 2), (2, 3), (2, 4), (2, 5)]
# oracle-orbits: double_cosets_gl(n, m, q) and weakstab_map_surjective(ell, m, r, q).
DOUBLE_COSETS = [(5, 2, 2), (5, 1, 3), (3, 1, 7), (4, 1, 4), (3, 2, 4), (3, 1, 9)]
WEAKSTAB = [(2, 1, 4, 2)]

WORKLOADS = ("stable-decompose", "pinned-paths", "oracle-orbits")


@dataclass
class Op:
    """One operation: a call resolved by name at call time, so that a tracer
    installed after set-up sees it, plus the expected output."""

    id: str
    module: object
    func: str
    args: tuple
    expect: object
    render: object  # output -> JSON-comparable value
    q: int

    def call(self):
        return getattr(self.module, self.func)(*self.args)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(path) -> dict:
    """A workload's frozen operations: {"largest": [frontier ids], "ops": [...]}."""
    with open(path) as fh:
        return json.load(fh)


def decompose_entries(dec) -> list:
    """Decomposition entries in JSON form; degrees are decimal strings."""
    return dec.to_json()["entries"]


def _same(value):
    return value


def build_ops(reference: dict) -> list:
    """The operations of one workload, in reference order, inputs built."""
    import glstab
    import glstab.oracle
    from glstab.labels import label_of_shape, shape_from_json

    ops = []
    for item in reference["ops"]:
        kind, a = item["kind"], item["args"]
        if kind == "decompose_perm_module":
            op = Op(item["id"], glstab, kind, tuple(a), item["expect"], decompose_entries, a[2])
        elif kind == "count_zigzag":
            m, q, ell = a["m"], a["q"], a["ell"]
            nu = glstab.trivial_label(ell - m)
            mu = glstab.pad(label_of_shape(shape_from_json(a["shape"])), ell)
            op = Op(item["id"], glstab, kind, (nu, mu, m, q), item["expect"], _same, q)
        elif kind in ("double_cosets_gl", "weakstab_map_surjective"):
            op = Op(item["id"], glstab.oracle, kind, tuple(a), item["expect"], _same, a[-1])
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        ops.append(op)
    return ops


def pass_order(ops: list, seed: int, pass_index: int) -> list:
    """The operations of one pass, in an order drawn from (seed, pass)."""
    out = list(ops)
    random.Random(f"{seed}/{pass_index}").shuffle(out)
    return out
