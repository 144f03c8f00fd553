"""Partition primitives: arrow relations, down/up sets, hooks, transpose."""

from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glstab import partitions as pt

partitions = st.integers(0, 7).flatmap(
    lambda n: st.sampled_from(pt.partitions_of(n) or ((),))
)


def brute_arrow_up(lam, mu):
    """mu is obtained from lam by adding at most one box per row."""
    rows = max(len(lam), len(mu))
    return all(0 <= pt.row(mu, i) - pt.row(lam, i) <= 1 for i in range(rows))


def brute_arrow_down(mu, lam):
    """lam is obtained from mu by removing at most one box per row."""
    rows = max(len(lam), len(mu))
    return all(0 <= pt.row(mu, i) - pt.row(lam, i) <= 1 for i in range(rows))


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
    universe = all_partitions_up_to(8)
    for lam in universe:
        for mu in universe:
            assert pt.arrow_up(lam, mu) == brute_arrow_up(lam, mu)
            assert pt.arrow_up(lam, mu) == brute_arrow_down(mu, lam)


def test_down_set_is_exactly_the_arrow_predecessors():
    universe = all_partitions_up_to(7)
    for mu in universe:
        expected = {lam for lam in universe if pt.arrow_up(lam, mu)}
        assert set(pt.down_set(mu)) == expected


def test_up_set_is_exactly_the_arrow_successors_of_given_size():
    universe = all_partitions_up_to(8)
    for lam in universe:
        for target in range(sum(lam), 9):
            expected = {
                mu for mu in universe if sum(mu) == target and pt.arrow_up(lam, mu)
            }
            assert set(pt.up_set(lam, target)) == expected


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
