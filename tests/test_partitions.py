"""Partition primitives: arrow relations, down/up sets, hooks, transpose."""

from itertools import chain, combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from glstab import partitions as pt

partitions = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(pt.partitions_of(n) or ((),))
)


@st.composite
def run_partitions(draw):
    """Partitions of at most 12 rows made of a few long runs of equal rows."""
    rows = []
    for v in sorted(draw(st.lists(st.integers(1, 6), max_size=4, unique=True)), reverse=True):
        rows += [v] * draw(st.integers(1, 6))
    return tuple(rows[:12])


def subset_down_set(mu):
    """down_set by trying every subset of rows to lose a box and keeping the partitions."""
    k = len(mu)
    out = set()
    for r in range(k + 1):
        for drop in combinations(range(k), r):
            rows = list(mu)
            for i in drop:
                rows[i] -= 1
            if all(rows[i] >= rows[i + 1] for i in range(k - 1)):
                out.add(tuple(v for v in rows if v > 0))
    return tuple(sorted(out, key=pt.part_sort_key))


def subset_up_set(lam, target_size):
    """up_set by trying every subset of rows to gain a box, the rest as new rows of 1."""
    b = target_size - sum(lam)
    k = len(lam)
    out = set()
    for j in range(min(b, k) + 1):
        for grow in combinations(range(k), j):
            rows = list(lam)
            for i in grow:
                rows[i] += 1
            if all(rows[i] >= rows[i + 1] for i in range(k - 1)):
                out.add(tuple(rows) + (1,) * (b - j))
    return tuple(sorted(out, key=pt.part_sort_key))


def row(lam, i):
    """Row i (0-indexed), reading 0 beyond the stored length."""
    return lam[i] if i < len(lam) else 0


def arrow_up(lam, mu):
    """The reference relation of the zigzag moves: mu adds at most one box to
    each row of lam (equivalently, lam removes at most one from each row of mu)."""
    return all(0 <= row(mu, i) - row(lam, i) <= 1 for i in range(max(len(lam), len(mu))))


def all_partitions_up_to(n):
    return list(chain.from_iterable(pt.partitions_of(k) for k in range(n + 1)))


def test_as_partition_normalizes_and_validates():
    assert pt.as_partition([3, 1, 0, 0]) == (3, 1)
    assert pt.as_partition(()) == ()
    with pytest.raises(ValueError):
        pt.as_partition((1, 2))
    with pytest.raises(ValueError):
        pt.as_partition((2, -1))


def test_arrow_relations_match_brute_force():
    """Both moves are the one relation: lam is in down_set(mu) exactly when mu is in
    up_set(lam, |mu|), exactly when arrow_up(lam, mu)."""
    universe = all_partitions_up_to(8)
    for lam in universe:
        for mu in universe:
            assert arrow_up(lam, mu) == (lam in pt.down_set(mu)) == (mu in pt.up_set(lam, sum(mu)))


def test_down_set_is_exactly_the_arrow_predecessors():
    universe = all_partitions_up_to(7)
    for mu in universe:
        expected = {lam for lam in universe if arrow_up(lam, mu)}
        assert set(pt.down_set(mu)) == expected


def test_up_set_is_exactly_the_arrow_successors_of_given_size():
    universe = all_partitions_up_to(8)
    for lam in universe:
        for target in range(sum(lam) - 2, 9):
            expected = {
                mu for mu in universe if sum(mu) == target and arrow_up(lam, mu)
            }
            assert set(pt.up_set(lam, target)) == expected


@given(run_partitions(), st.integers(-3, 4))
@example((1,) * 12, 14)
@example((3,) * 12, 40)
@example((4, 4, 4, 2, 2, 2, 2, 1, 1, 1, 1, 1), 30)
@example((), -1)
def test_run_wise_moves_equal_the_subset_reference(lam, extra):
    """The run-wise moves return exactly the subset scan's sorted tuple, no partition
    twice, at target sizes below, at and above |lam|."""
    assert pt.down_set(lam) == subset_down_set(lam)
    assert pt.up_set(lam, sum(lam) + extra) == subset_up_set(lam, sum(lam) + extra)


@given(partitions)
def test_transpose_is_an_involution(lam):
    assert pt.transpose(pt.transpose(lam)) == lam


@given(partitions)
def test_hooks_count_matches_size(lam):
    assert len(pt.hooks(lam)) == sum(lam)
    assert pt.hooks(lam) == pt.hooks(pt.transpose(lam))


def test_hooks_known_values():
    assert sorted(pt.hooks((2, 1))) == [1, 1, 3]
    assert sorted(pt.hooks((3,))) == [1, 2, 3]
    assert sorted(pt.hooks((2, 2))) == [1, 2, 2, 3]


def test_n_stat_known_values():
    # sum over rows of (i - 1) * row_i
    assert pt.n_stat(()) == 0
    assert pt.n_stat((3,)) == 0
    assert pt.n_stat((2, 2)) == 2
    assert pt.n_stat((1, 1, 1)) == 3


def test_partition_counts():
    counts = [len(pt.partitions_of(n)) for n in range(11)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_partitions_of_guard():
    with pytest.raises(Exception):
        pt.partitions_of(500)


@given(partitions, st.integers(0, 3))
def test_up_then_down_returns_home(lam, extra):
    """Every upward move can be undone by a downward move."""
    for mu in pt.up_set(lam, sum(lam) + extra):
        assert lam in pt.down_set(mu)
