"""Partitions and the row-wise add/remove-at-most-one-box relations.

Partitions are canonical tuples of positive integers in weakly decreasing
order; rows beyond the stored length read as 0.  down_set, up_set and hooks
are cached per partition; down_set and up_set return tuples of partitions,
sorted by part_sort_key.  Both move one run of equal rows at a time: rows of
different runs differ by at least one box, so a run never breaks its
neighbours' order, and within a run of c rows the last j (down) or the first
j (up) rows move, j = 0..c.  Each result is one choice of j per run.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby

from .errors import BadParameters, GuardExceeded, integer

ENUM_BOUND = 60


def as_partition(rows) -> tuple:
    """Canonicalize an iterable of int row lengths (errors.integer), dropping trailing zeros."""
    try:
        rows = tuple(rows)
    except TypeError:
        raise BadParameters(f"rows must be an iterable of row lengths, got {rows!r}") from None
    if not set(map(type, rows)) <= {int}:  # else errors.integer, row by row
        rows = tuple(integer("a row", r) for r in rows)
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    if rows and min(rows) < 1:
        raise BadParameters(f"negative or interior-zero row in {rows}")
    if any(map(int.__lt__, rows, rows[1:])):
        raise BadParameters(f"rows not weakly decreasing: {rows}")
    return rows


def size(lam) -> int:
    return sum(lam)


@lru_cache(maxsize=None)
def down_set(mu) -> tuple:
    """All lam obtained from mu by removing at most one box from each row.

    In each run of c rows of length v, the last j rows (j = 0..c) lose a box;
    rows of length 0 are dropped.
    """
    out = [()]
    for v, run in groupby(mu):
        c = len(tuple(run))
        out = [rows + (v,) * (c - j) + (v - 1,) * (j if v > 1 else 0)
               for rows in out for j in range(c + 1)]
    return tuple(sorted(out, key=part_sort_key))


@lru_cache(maxsize=None)
def up_set(lam, target_size) -> tuple:
    """All mu of the given size obtained from lam by adding at most one box to
    each row, counting the empty rows below lam.

    In each run of c rows of length v, the first j rows (j = 0..c) gain a
    box, within the boxes target_size - |lam| leaves; the boxes left over
    become new rows of length 1.  The size cap is mandatory: without it
    arbitrarily many new rows of length 1 could be appended.
    """
    partial = [((), target_size - size(lam))]  # (rows so far, boxes left)
    for v, run in groupby(lam):
        c = len(tuple(run))
        partial = [(rows + (v + 1,) * j + (v,) * (c - j), left - j)
                   for rows, left in partial for j in range(min(c, left) + 1)]
    return tuple(sorted((rows + (1,) * left for rows, left in partial if left >= 0),
                        key=part_sort_key))


def transpose(lam) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > j) for j in range(lam[0]))


@lru_cache(maxsize=None)
def hooks(lam) -> tuple:
    """Multiset of hook lengths, as a decreasing tuple of size |lam|."""
    conj = transpose(lam)
    out = []
    for i, li in enumerate(lam):
        for j in range(li):
            out.append(li - j + conj[j] - i - 1)
    return tuple(sorted(out, reverse=True))


def n_stat(lam) -> int:
    """The statistic sum (i-1)*lam_i (1-indexed rows)."""
    return sum(i * v for i, v in enumerate(lam))


@lru_cache(maxsize=None)
def _partitions(n, max_part):
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n) -> list:
    """All partitions of n, each once."""
    if n < 0:
        raise BadParameters("n must be non-negative")
    if n > ENUM_BOUND:
        raise GuardExceeded("partition enumeration bound exceeded", n=n, bound=ENUM_BOUND)
    return list(_partitions(n, n))


def part_sort_key(lam):
    """Total order on partitions: by size, then lexicographically on rows."""
    return (sum(lam), lam)
