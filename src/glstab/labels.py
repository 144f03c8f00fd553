"""Finitely supported cuspidal-to-partition label functions and their shapes.

A label function assigns a partition to finitely many cuspidals.  Cuspidal
keys come in three kinds: the distinguished degree-1 trivial character
(IOTA), cuspidals pinned to a concrete identity (NAMED, used to fix the
support of zigzag endpoints), and interchangeable anonymous cuspidals
grouped by degree (ANON).  Entries never store the empty partition: the
support is literally the key set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, perm, prod

from . import partitions as pt
from .errors import BadParameters, GuardExceeded, InvariantViolated

IOTA = ("iota", 1, 0)

_KIND_RANK = {"iota": 0, "named": 1, "anon": 2}


def named_key(degree, token):
    return ("named", int(degree), token)


def anon_key(degree, slot):
    return ("anon", int(degree), int(slot))


def key_degree(key) -> int:
    return key[1]


def _key_sort(key):
    return (_KIND_RANK[key[0]], key[1], key[2])


class Label:
    """Immutable finitely supported map from cuspidal keys to partitions."""

    __slots__ = ("entries", "_hash")

    def __init__(self, mapping=()):
        items = mapping.items() if hasattr(mapping, "items") else mapping
        cleaned = []
        for key, rows in items:
            kind, degree, _tag = key
            if kind not in _KIND_RANK or degree < 1 or (kind == "iota" and key != IOTA):
                raise BadParameters(f"bad cuspidal key {key!r}")
            rows = pt.as_partition(rows)
            if rows:
                cleaned.append((key, rows))
        cleaned.sort(key=lambda kv: _key_sort(kv[0]))
        keys = [k for k, _ in cleaned]
        if len(set(keys)) != len(keys):
            raise BadParameters("duplicate cuspidal key")
        self.entries = tuple(cleaned)
        self._hash = hash(self.entries)

    def get(self, key) -> tuple:
        for k, rows in self.entries:
            if k == key:
                return rows
        return ()

    @property
    def iota(self) -> tuple:
        return self.get(IOTA)

    def support(self):
        return tuple(k for k, _ in self.entries)

    def norm(self) -> int:
        return sum(key_degree(k) * sum(rows) for k, rows in self.entries)

    def replace(self, key, rows) -> "Label":
        items = {k: r for k, r in self.entries}
        items[key] = rows
        return Label(items)

    def __eq__(self, other):
        return isinstance(other, Label) and self.entries == other.entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Label({format_label(self)!r})"


EMPTY_LABEL = Label()


def canonical(label: Label) -> Label:
    """Renumber anonymous slots: within each degree, sort by partition order."""
    fixed = [(k, r) for k, r in label.entries if k[0] != "anon"]
    anon = sorted(
        ((k[1], r) for k, r in label.entries if k[0] == "anon"),
        key=lambda dr: (dr[0], pt.part_sort_key(dr[1])),
    )
    counters = {}
    for d, rows in anon:
        slot = counters.get(d, 0)
        counters[d] = slot + 1
        fixed.append((anon_key(d, slot), rows))
    return Label(fixed)


def label_arrow_up(a: Label, b: Label) -> bool:
    """Keywise add-at-most-one-box-per-row relation."""
    keys = set(a.support()) | set(b.support())
    return all(pt.arrow_up(a.get(k), b.get(k)) for k in keys)


def trivial_label(n) -> Label:
    """The label of the trivial representation of G_n."""
    if n < 0:
        raise BadParameters("n must be non-negative")
    return Label({IOTA: (n,)}) if n else EMPTY_LABEL


def pad(stable: Label, n: int) -> Label:
    """Prepend the row n - ||lam|| to the iota partition of a stable label."""
    tail = stable.iota
    first = tail[0] if tail else 0
    if n < stable.norm() + first:
        raise BadParameters(f"cannot pad norm-{stable.norm()} label to {n}")
    return stable.replace(IOTA, (n - stable.norm(),) + tail)


def stabilize(label: Label):
    """Inverse of pad: strip the first iota row.  Returns (stable, n)."""
    n = label.norm()
    rows = label.iota
    stable = label.replace(IOTA, rows[1:])
    if pad(stable, n) != label:
        raise BadParameters(f"label is not of padded form: {format_label(label)}")
    return stable, n


def tilde(label: Label) -> Label:
    """Increment the first iota row; raises norm by exactly 1."""
    rows = label.iota
    return label.replace(IOTA, ((rows[0] + 1,) + rows[1:]) if rows else (1,))


@dataclass(frozen=True, order=True)
class Shape:
    """Label class under permuting same-degree cuspidals other than iota.

    parts lists the non-iota partitions as (degree, partition) with
    repetition, sorted by degree then partition order.
    """

    iota: tuple = ()
    parts: tuple = ()

    def norm(self) -> int:
        return sum(self.iota) + sum(d * sum(rows) for d, rows in self.parts)

    def sort_key(self):
        return (self.norm(), self.iota, self.parts)


def make_shape(iota=(), parts=()) -> Shape:
    iota = pt.as_partition(iota)
    parts = tuple(
        sorted(
            ((int(d), pt.as_partition(rows)) for d, rows in parts),
            key=lambda dr: (dr[0], pt.part_sort_key(dr[1])),
        )
    )
    if any(d < 1 or not rows for d, rows in parts):
        raise BadParameters("shape parts must be nonempty with degree >= 1")
    return Shape(iota, parts)


def shape_of(label: Label) -> Shape:
    """Forget cuspidal identities other than iota."""
    return make_shape(
        label.iota, [(key_degree(k), r) for k, r in label.entries if k != IOTA]
    )


def label_of_shape(shape: Shape) -> Label:
    """A canonical anonymous representative of the shape class."""
    items = {IOTA: shape.iota} if shape.iota else {}
    counters = {}
    for d, rows in shape.parts:
        slot = counters.get(d, 0)
        counters[d] = slot + 1
        items[anon_key(d, slot)] = rows
    return Label(items)


@lru_cache(maxsize=None)
def pool_size(d, q) -> int:
    """Cuspidals of degree d at field size q that a non-iota key may take."""
    from .degrees import cuspidal_count  # late import to avoid a cycle

    return cuspidal_count(d, q) - (d == 1)


def draws(parts, q, used=None) -> int:
    """Ways to give each (degree, tag) part its own cuspidal from the pool at q.

    used[d] degree-d cuspidals are already taken.  Distinct parts of one
    degree take distinct cuspidals, and equal parts are interchangeable: each
    degree contributes perm(avail, k), divided by the factorials of the part
    multiplicities.
    """
    total = 1
    for d, k in Counter(d for d, _tag in parts).items():
        avail = pool_size(d, q) - (used or {}).get(d, 0)
        if avail < 0:
            raise InvariantViolated(f"{-avail} more degree-{d} cuspidals in use than q={q} has")
        total *= perm(avail, k)
    if not total:
        return 0
    total, rem = divmod(total, prod(factorial(c) for c in Counter(parts).values()))
    if rem:
        raise InvariantViolated(f"draws of {parts} at q={q} are not integral")
    return total


def class_size(shape: Shape, q: int) -> int:
    """Number of concrete label functions with the given shape at field size q.

    Distinct anonymous cuspidals of each degree are drawn without repetition
    from the pool at q; iota is excluded from the degree-1 pool.
    """
    if q < 2:
        raise BadParameters("q must be >= 2")
    return draws(shape.parts, q)


def weighted_multisets(items, budget):
    """Multisets of items whose weights sum to budget.

    items is a sequence of (weight, item) pairs with positive weights; each
    multiset is yielded once, as a tuple listing its items in the order of
    items.
    """

    def rec(remaining, start):
        if remaining == 0:
            yield ()
            return
        for idx in range(start, len(items)):
            w, item = items[idx]
            if w <= remaining:
                for rest in rec(remaining - w, idx):
                    yield (item,) + rest

    return rec(budget, 0)


def _anon_part_multisets(budget):
    """Multisets of (degree, nonempty partition) with total weighted size = budget."""
    items = [
        (d * s, d, rows)
        for d in range(1, budget + 1)
        for s in range(1, budget // d + 1)
        for rows in pt.partitions_of(s)
    ]
    items.sort(key=lambda it: (it[0], it[1], pt.part_sort_key(it[2])), reverse=True)
    return weighted_multisets([(w, (d, rows)) for w, d, rows in items], budget)


def enumerate_shapes(n) -> list:
    """All shapes of norm n (q-independent census support)."""
    out = []
    for iota_size in range(n + 1):
        for iota in pt.partitions_of(iota_size):
            for parts in _anon_part_multisets(n - iota_size):
                out.append(make_shape(iota, parts))
    return sorted(out, key=Shape.sort_key)


def enumerate_labels(n, q) -> list:
    """All shapes of norm n with nonzero class size at q, with class sizes."""
    if n > 8:
        raise GuardExceeded("label census bound exceeded", n=n, bound=8)
    out = []
    for shape in enumerate_shapes(n):
        c = class_size(shape, q)
        if c > 0:
            out.append((shape, c))
    return out


def format_partition(rows) -> str:
    return "(" + ",".join(str(r) for r in rows) + ")"


def format_shape(shape: Shape) -> str:
    """Human syntax, e.g. 'i:(3,2); 2:(1)x1'."""
    pieces = [f"i:{format_partition(shape.iota)}"]
    for (d, rows), count in Counter(shape.parts).items():
        pieces.append(f"{d}:{format_partition(rows)}x{count}")
    return "; ".join(pieces)


def format_label(label: Label) -> str:
    pieces = []
    for key, rows in label.entries:
        kind, d, tag = key
        if key == IOTA:
            pieces.append(f"i:{format_partition(rows)}")
        elif kind == "named":
            pieces.append(f"{d}[{tag}]:{format_partition(rows)}")
        else:
            pieces.append(f"{d}:{format_partition(rows)}")
    return "; ".join(pieces)


def shape_to_json(shape: Shape) -> dict:
    others = [
        {"degree": d, "partition": list(rows), "count": count}
        for (d, rows), count in Counter(shape.parts).items()
    ]
    return {"iota": list(shape.iota), "others": others}


def shape_from_json(data) -> Shape:
    parts = []
    for item in data.get("others", []):
        parts.extend([(item["degree"], tuple(item["partition"]))] * item.get("count", 1))
    return make_shape(tuple(data.get("iota", ())), parts)


def parse_shape(text: str) -> Shape:
    """Parse human syntax: 'i:(3,2); 2:(1)x1' (iota also spelled 'iota').

    Iota appears at most once and takes no count; other parts need a degree
    and a count >= 1 and a nonempty partition.  A norm above
    partitions.ENUM_BOUND raises GuardExceeded before any part is repeated.
    """
    iota = None
    parts = []
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        head, _, rest = (s.strip() for s in piece.partition(":"))
        rows, x, mult = (s.strip() for s in rest.partition("x"))
        if not (rows.startswith("(") and rows.endswith(")")):
            raise BadParameters(f"bad partition syntax in {piece!r}")
        body = rows[1:-1].strip()
        rows = pt.as_partition(int(v) for v in body.split(",")) if body else ()
        count = int(mult) if x else 1
        if head in ("i", "iota", "ι"):
            if x or iota is not None:
                raise BadParameters(f"iota takes one partition and no count: {piece!r}")
            iota = rows
        elif count < 1 or int(head) < 1 or not rows:
            raise BadParameters(f"need degree >= 1, a nonempty partition, count >= 1 in {piece!r}")
        else:
            parts.append(((int(head), rows), count))
    norm = sum(iota or ()) + sum(d * sum(rows) * count for (d, rows), count in parts)
    if norm > pt.ENUM_BOUND:
        raise GuardExceeded("shape norm above the enumeration bound", norm=norm, bound=pt.ENUM_BOUND)
    return make_shape(iota or (), [part for part, count in parts for _ in range(count)])
