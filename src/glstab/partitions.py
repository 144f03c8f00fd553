"""Partitions and the row-wise add/remove-at-most-one-box relations.

Partitions are canonical tuples of positive integers in weakly decreasing
order; rows beyond the stored length read as 0.  down_set and up_set are
cached: they take partitions as tuples and return tuples of partitions.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import BadParameters, GuardExceeded

ENUM_BOUND = 60


def as_partition(rows) -> tuple:
    """Canonicalize an iterable of row lengths, dropping trailing zeros."""
    rows = tuple(int(r) for r in rows)
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    if any(r < 1 for r in rows):
        raise BadParameters(f"negative or interior-zero row in {rows}")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise BadParameters(f"rows not weakly decreasing: {rows}")
    return rows


def size(lam) -> int:
    return sum(lam)


def row(lam, i) -> int:
    """Row i (0-indexed), reading 0 beyond the stored length."""
    return lam[i] if i < len(lam) else 0


def arrow_up(lam, mu) -> bool:
    """True iff mu adds at most one box to each row of lam."""
    for i in range(max(len(lam), len(mu))):
        li, mi = row(lam, i), row(mu, i)
        if not (li <= mi <= li + 1):
            return False
    return True


@lru_cache(maxsize=None)
def down_set(mu) -> tuple:
    """All lam with arrow_up(lam, mu), i.e. remove <=1 box per row of mu."""
    k = len(mu)
    out = set()
    for r in range(k + 1):
        for drop in combinations(range(k), r):
            rows = list(mu)
            for i in drop:
                rows[i] -= 1
            if all(rows[i] >= rows[i + 1] for i in range(k - 1)):
                out.add(tuple(v for v in rows if v > 0))
    return tuple(sorted(out, key=part_sort_key))


@lru_cache(maxsize=None)
def up_set(lam, target_size) -> tuple:
    """All mu of the given size with arrow_up(lam, mu).

    The size cap is mandatory: without it arbitrarily many new rows of
    length 1 could be appended.
    """
    b = target_size - size(lam)
    k = len(lam)
    out = set()
    for j in range(min(b, k) + 1):
        t = b - j  # new trailing rows of length 1
        for grow in combinations(range(k), j):
            rows = list(lam)
            for i in grow:
                rows[i] += 1
            if any(rows[i] < rows[i + 1] for i in range(k - 1)):
                continue
            out.add(tuple(rows) + (1,) * t)
    return tuple(sorted(out, key=part_sort_key))


def transpose(lam) -> tuple:
    if not lam:
        return ()
    return tuple(sum(1 for v in lam if v > j) for j in range(lam[0]))


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
