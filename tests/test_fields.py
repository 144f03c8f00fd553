"""Exhaustive field-axiom checks for every supported table."""

import pytest

from glstab.errors import BadParameters
from glstab.oracle.counts import conjugacy_class_count, double_cosets_gl, weakstab_cosets
from glstab.oracle.fields import MAX_Q, field

SUPPORTED = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", SUPPORTED)
def test_field_axioms_exhaustive(q):
    F = field(q)
    els = range(q)
    for a in els:
        assert F.add[a][0] == a and F.mul[a][1] == a and F.mul[a][0] == 0
        assert F.add[a][F.neg[a]] == 0
        if a:
            assert F.mul[a][F.inv[a]] == 1
        for b in els:
            assert F.add[a][b] == F.add[b][a]
            assert F.mul[a][b] == F.mul[b][a]
            for c in els:
                assert F.add[F.add[a][b]][c] == F.add[a][F.add[b][c]]
                assert F.mul[F.mul[a][b]][c] == F.mul[a][F.mul[b][c]]
                assert F.mul[a][F.add[b][c]] == F.add[F.mul[a][b]][F.mul[a][c]]


def power(F, a, e):
    out = 1
    for _ in range(e):
        out = F.mul[out][a]
    return out


@pytest.mark.parametrize("q", SUPPORTED)
def test_frobenius_is_additive(q):
    F = field(q)
    for a in range(q):
        for b in range(q):
            frob_sum = power(F, F.add[a][b], F.p)
            assert frob_sum == F.add[power(F, a, F.p)][power(F, b, F.p)]


@pytest.mark.parametrize("q", SUPPORTED)
def test_multiplicative_group_is_cyclic(q):
    F = field(q)
    zeta = F.primitive_element()
    powers = {power(F, zeta, e) for e in range(q - 1)}
    assert powers == set(range(1, q))


def test_prime_subfield_embedding():
    """The first p elements are the prime field: tables reduce mod p there.
    For a prime q that is the whole table, which fixes the element encoding
    (a relabelled field would pass the axiom tests)."""
    for q in SUPPORTED:
        F = field(q)
        p = F.p
        for a in range(p):
            for b in range(p):
                assert F.add[a][b] == (a + b) % p
                assert F.mul[a][b] == (a * b) % p


def test_unsupported_sizes_rejected():
    for q in (1, 6, 16, 25):
        with pytest.raises(BadParameters):
            field.__wrapped__(q)
    assert MAX_Q == 9
    # the oracle's guards refuse a non-integer q before they read its bit length
    for call in (lambda: conjugacy_class_count(2, 2.0), lambda: double_cosets_gl(3, 1, 2.0),
                 lambda: weakstab_cosets(1, 1, 1, 2.0)):
        with pytest.raises(BadParameters, match="q must be an integer"):
            call()
