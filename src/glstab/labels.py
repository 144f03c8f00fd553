"""Finitely supported cuspidal-to-partition label functions and their shapes.

A label function assigns a partition to finitely many cuspidals.  Cuspidal
keys come in three kinds: the distinguished degree-1 trivial character
(IOTA), cuspidals pinned to a concrete identity (NAMED, used to fix the
support of zigzag endpoints), and interchangeable anonymous cuspidals
grouped by degree (ANON).  Entries never store the empty partition: the
support is literally the key set.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, perm, prod
from typing import NamedTuple

from . import partitions as pt
from .degrees import cuspidal_count, prime_power
from .errors import BadParameters, GuardExceeded, InvariantViolated, integer

IOTA = ("iota", 1, 0)

_KIND_RANK = {"iota": 0, "named": 1, "anon": 2}


def named_key(degree, token):
    return ("named", degree, token)


def anon_key(degree, slot):
    return ("anon", degree, integer("slot", slot))


def key_degree(key) -> int:
    return key[1]


def _entry_order(entry):  # Label's order of (key, rows) entries: kind, degree, then token
    kind, degree, tag = entry[0]
    return _KIND_RANK[kind], degree, tag


def _unordered(a, b) -> bool:
    try:
        sorted((a, b))
    except TypeError:
        return True
    return False


class Label:
    """Immutable finitely supported map from cuspidal keys to partitions."""

    __slots__ = ("entries", "_hash")

    def __init__(self, mapping=()):
        items = mapping.items() if hasattr(mapping, "items") else mapping
        cleaned = []
        for key, rows in items:
            try:
                kind, degree, _tag = key
            except (TypeError, ValueError):  # no (kind, degree, tag) triple
                kind = None
            if (kind not in _KIND_RANK or integer("degree", degree) < 1
                    or (kind == "iota" and key != IOTA)):
                raise BadParameters(f"bad cuspidal key {key!r}")
            rows = pt.as_partition(rows)
            if rows:
                cleaned.append((key, rows))
        try:
            cleaned.sort(key=_entry_order)
        except TypeError:  # tokens of one kind and degree that do not compare
            clash = ", ".join(sorted({repr(k) for k, _ in cleaned for j, _ in cleaned
                                      if k[:2] == j[:2] and _unordered(k[2], j[2])}))
            raise BadParameters(f"cuspidal keys with tokens that do not compare: {clash}") from None
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


def canonical(label: Label) -> tuple:
    """The zigzag DP's state of a label: its (key, rows) entries, sorted, where an
    anonymous key is ("anon", degree) without its slot.  Equal anonymous entries
    then repeat, so two labels that differ by a renumbering of anonymous slots
    within a degree have one state."""
    return tuple(sorted((k[:2] if k[0] == "anon" else k, rows) for k, rows in label.entries))


def trivial_label(n) -> Label:
    """The label of the trivial representation of G_n."""
    if integer("n", n) < 0:
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


class Shape(NamedTuple):
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


def part_order(part):
    """Shape order on (degree, partition) parts: by degree, then partition order."""
    return part[0], pt.part_sort_key(part[1])


def make_shape(iota=(), parts=()) -> Shape:
    iota = pt.as_partition(iota)
    parts = sorted(((integer("degree", d), pt.as_partition(rows)) for d, rows in parts), key=part_order)
    if any(d < 1 or not rows for d, rows in parts):
        raise BadParameters("shape parts must be nonempty with degree >= 1")
    return Shape(iota, tuple(parts))


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
    return cuspidal_count(d, q) - (d == 1)


def tally(items, counts=()) -> dict:
    """A copy of counts plus the number of times each item occurs, as a plain dict."""
    out = dict(counts)
    for item in items:
        out[item] = out.get(item, 0) + 1
    return out


def draws(parts, q, used=None) -> int:
    """Ways to give each (degree, tag) part its own cuspidal from the pool at q.

    used[d] degree-d cuspidals are already taken.  Distinct parts of one
    degree take distinct cuspidals, and equal parts are interchangeable: each
    degree contributes perm(avail, k), divided by the factorials of the part
    multiplicities.
    """
    total = 1
    for d, k in tally(d for d, _tag in parts).items():
        avail = pool_size(d, q) - (used or {}).get(d, 0)
        if avail < 0:
            raise InvariantViolated(f"{-avail} more degree-{d} cuspidals in use than q={q} has")
        total *= perm(avail, k)
    if not total:
        return 0
    total, rem = divmod(total, prod(factorial(c) for c in tally(parts).values()))
    if rem:
        raise InvariantViolated(f"draws of {parts} at q={q} are not integral")
    return total


_class_size = lru_cache(maxsize=None)(draws)  # (parts, q): later decompositions ask again


def class_size(shape: Shape, q: int) -> int:
    """Number of concrete label functions with the given shape at field size q.

    Distinct anonymous cuspidals of each degree are drawn without repetition
    from the pool at q; iota is excluded from the degree-1 pool.
    """
    prime_power(q)
    return _class_size(tuple(shape.parts), q)


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
    for (d, rows), count in tally(shape.parts).items():
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
        for (d, rows), count in tally(shape.parts).items()
    ]
    return {"iota": list(shape.iota), "others": others}


def _counted_shape(iota, parts) -> Shape:
    """The shape of the partition iota and the (where, degree, partition, count)
    parts, by the one rule of both readers: a count is an int >= 1, a degree is
    >= 1 and a partition nonempty, and a norm above partitions.ENUM_BOUND raises
    GuardExceeded before any part is repeated; `where` names a bad part."""
    norm = sum(iota)
    for where, d, rows, count in parts:
        if integer("count", count) < 1 or integer("degree", d) < 1 or not rows:
            raise BadParameters(f"need degree >= 1, a nonempty partition, count >= 1 in {where!r}")
        norm += d * sum(rows) * count
    if norm > pt.ENUM_BOUND:
        raise GuardExceeded("shape norm above the enumeration bound", norm=norm, bound=pt.ENUM_BOUND)
    repeated = [(d, rows) for _, d, rows, count in parts for _ in range(count)]
    return Shape(iota, tuple(sorted(repeated, key=part_order)))


def shape_from_json(data) -> Shape:
    """shape_to_json's inverse; a part without a count is counted once."""
    parts = [(item, item["degree"], pt.as_partition(item["partition"]), item.get("count", 1))
             for item in data.get("others", [])]
    return _counted_shape(pt.as_partition(data.get("iota", ())), parts)


def parse_shape(text: str) -> Shape:
    """Parse human syntax: 'i:(3,2); 2:(1)x1' (iota also spelled 'iota').

    Iota appears at most once and takes no count; the other parts follow
    _counted_shape's rule.
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
        if head in ("i", "iota", "ι"):
            if x or iota is not None:
                raise BadParameters(f"iota takes one partition and no count: {piece!r}")
            iota = rows
        else:
            parts.append((piece, int(head), rows, int(mult) if x else 1))
    return _counted_shape(iota or (), parts)
