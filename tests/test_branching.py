"""Zigzag path counting, one-step restriction, and full decompositions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glstab
import glstab.branching as branching
from glstab.branching import (
    count_zigzag,
    decompose_perm_module,
    restrict_step,
    zigzag_distribution,
)
from glstab.degrees import gl_order
from glstab.errors import BadParameters
from glstab.labels import (
    IOTA,
    Label,
    anon_key,
    label_of_shape,
    make_shape,
    pad,
    shape_of,
    trivial_label,
)


def test_zigzag_zero_steps():
    nu = trivial_label(3)
    assert count_zigzag(nu, nu, 0, 2) == 1
    assert count_zigzag(nu, Label({IOTA: (2, 1)}), 0, 2) == 0


def test_zigzag_size_mismatch():
    with pytest.raises(BadParameters):
        count_zigzag(trivial_label(1), trivial_label(3), 1, 2)


def test_zigzag_single_step_examples():
    # one box moved below the first row: remove from row 1, add to row 2
    assert count_zigzag(Label({IOTA: (1,)}), Label({IOTA: (1, 1)}), 1, 2) == 2
    # trivial to trivial in one step: the intermediate must stay a single row
    for q in (2, 3, 4):
        assert count_zigzag(trivial_label(3), trivial_label(4), 1, q) == 1


def test_zigzag_steinberg_column_count_is_q():
    """Two steps from the empty label to the full column at size 2."""
    for q in (2, 3, 4, 5, 7):
        assert count_zigzag(trivial_label(0), Label({IOTA: (1, 1)}), 2, q) == q


def test_zigzag_trivial_target_multiplicity_one():
    for m in range(4):
        for q in (2, 3):
            assert count_zigzag(trivial_label(4 - m), trivial_label(4), m, q) == 1


def test_zigzag_anonymous_target_counts_one_class_member():
    # a fresh degree-2 cuspidal column: exactly one path per concrete cuspidal
    mu = Label({IOTA: (1,), anon_key(2, 0): (1,)})
    assert count_zigzag(trivial_label(2), mu, 1, 2) == 1
    assert count_zigzag(trivial_label(2), mu, 1, 3) == 1


def test_restrict_step_trivial():
    entries = restrict_step(trivial_label(3), 2)
    assert len(entries) == 1
    assert entries[0].label == trivial_label(2)
    assert entries[0].multiplicity == 1


def test_restrict_step_column():
    # restriction of the size-2 column: the size-1 column appears once,
    # and each of the other degree-1 characters appears via a fresh column
    entries = restrict_step(Label({IOTA: (1, 1)}), 3)
    by_label = {e.label: (e.multiplicity, e.class_count) for e in entries}
    assert by_label[Label({IOTA: (1,)})] == (2, 1)
    assert by_label[Label({anon_key(1, 0): (1,)})] == (1, 1)
    # the restriction of the q-dimensional Steinberg module to G_1
    assert sum(m * c for m, c in by_label.values()) == 3


def test_restriction_sums_to_dimension_ratio():
    """Degrees are preserved under restriction: sum over constituents."""
    from glstab.degrees import degree_poly

    for q in (2, 3):
        for mu_shape in [make_shape((2, 1)), make_shape((1,), [(2, (1,))])]:
            mu = label_of_shape(mu_shape)
            n = mu.norm()
            total = 0
            for e in restrict_step(mu, q):
                total += (
                    e.multiplicity
                    * e.class_count
                    * degree_poly(shape_of(e.label)).evaluate(q)
                )
            assert total == degree_poly(mu_shape).evaluate(q)


def test_decompose_known_n3_m1_q2():
    dec = decompose_perm_module(3, 1, 2)
    table = {e.shape: (e.multiplicity, e.class_size, e.degree) for e in dec.entries}
    assert table[make_shape()] == (1, 1, 1)
    assert table[make_shape((1,))] == (2, 1, 6)
    assert table[make_shape((1, 1))] == (1, 1, 8)
    assert table[make_shape((), [(2, (1,))])] == (1, 1, 7)
    assert dec.sum_squares() == 7
    assert dec.dimension() == 28


def test_decompose_dimension_identity():
    for n, m, q in [(2, 1, 2), (3, 1, 3), (4, 2, 2), (5, 1, 2), (4, 2, 3)]:
        dec = decompose_perm_module(n, m, q)
        assert dec.dimension() == gl_order(n, q) // gl_order(n - m, q)


def test_decompose_m0_is_trivial():
    dec = decompose_perm_module(5, 0, 3)
    assert len(dec.entries) == 1
    assert dec.entries[0].multiplicity == 1
    assert dec.entries[0].degree == 1


def test_decompose_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        decompose_perm_module(2, 3, 2)
    with pytest.raises(BadParameters):
        decompose_perm_module(3, 1, 6)


def test_labels_beyond_the_cuspidal_pool_are_rejected():
    """At q = 2 the only degree-1 cuspidal is iota, and one of degree 2 exists."""
    one = Label({anon_key(1, 0): (1,)})
    with pytest.raises(BadParameters):
        count_zigzag(one, Label({anon_key(1, 0): (2,)}), 1, 2)
    with pytest.raises(BadParameters):
        count_zigzag(trivial_label(0), one, 1, 2)
    with pytest.raises(BadParameters):
        restrict_step(one, 2)
    two = Label({anon_key(2, 0): (1,), anon_key(2, 1): (1,)})
    with pytest.raises(BadParameters):
        count_zigzag(trivial_label(0), two, 4, 2)
    with pytest.raises(BadParameters):
        restrict_step(two, 2)
    # the same labels exist at q = 3 (two degree-1 non-iota, three degree-2)
    assert count_zigzag(one, Label({anon_key(1, 0): (2,)}), 1, 3) == 1
    assert restrict_step(two, 3)


def test_decomposition_invariants_survive_optimize_flag():
    """The checks in decompose_perm_module are not asserts: they hold under -O."""
    script = (
        "import glstab.branching as b\n"
        "from glstab.errors import InvariantViolated\n"
        "assert False, 'python -O did not strip asserts'\n"
        "b.gl_order = lambda n, q: 1\n"
        "try:\n"
        "    b.decompose_perm_module(4, 2, 2)\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(glstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised dimension identity fails")


def test_zigzag_recursion_consistency():
    """Path counts factor through one restriction step."""
    q = 2
    for m in (1, 2):
        n = 4
        nu = trivial_label(n - m)
        dec = decompose_perm_module(n, m, q)
        for e in dec.entries:
            mu = pad(label_of_shape(e.shape), n)
            direct = count_zigzag(nu, mu, m, q)
            via_step = sum(
                step.multiplicity
                * step.class_count
                * count_zigzag(nu, step.label, m - 1, q)
                for step in restrict_step(mu, q)
            )
            assert direct == via_step


def test_distribution_total_weight_is_module_dimension_free_part():
    """Total path weight equals the number of standard-position paths."""
    dist = zigzag_distribution(trivial_label(2), 1, 2)
    assert sum(dist.values()) > 0
    assert all(w > 0 for w in dist.values())


def test_refused_support_is_refused_every_time():
    """A refused pinned support leaves no shared context behind to answer a retry."""
    nu, mu = Label({anon_key(1, 0): (1,)}), Label({anon_key(1, 0): (2,)})
    before = dict(branching._contexts)
    for _ in range(2):
        with pytest.raises(BadParameters):
            count_zigzag(nu, mu, 1, 2)
        with pytest.raises(BadParameters):
            restrict_step(mu, 2)
    assert branching._contexts == before


def _h_bijection_items():
    """Every pinned count of the h-bijection sweep at (m, q) = (2, 2), (2, 3)."""
    items = []
    for m, q in [(2, 2), (2, 3)]:
        for e in decompose_perm_module(3 * m, m, q).entries:
            for ell in (3 * m, 3 * m + 1):
                items.append((m, q, ell, e.shape))
    return items


def _count(item):
    m, q, ell, shape = item
    return count_zigzag(trivial_label(ell - m), pad(label_of_shape(shape), ell), m, q)


def test_shared_tables_are_history_independent():
    """Counts do not depend on what earlier calls left in the shared tables."""
    items = _h_bijection_items()
    cold = {}
    for item in items:
        branching._drop_tables()
        cold[item] = _count(item)
    for seed in (1, 2):
        order = list(items)
        random.Random(seed).shuffle(order)
        assert {item: _count(item) for item in order} == cold
    mixed = {}
    for i, item in enumerate(reversed(items)):
        _m, q, ell, shape = item
        restrict_step(pad(label_of_shape(shape), ell), q)
        decompose_perm_module(3 + i % 4, 2, 2 + i % 2)
        mixed[item] = _count(item)
    assert mixed == cold


def test_shared_tables_stay_within_their_cap(monkeypatch):
    """Dropping the tables mid-sweep changes no count, and the cap holds."""
    items = _h_bijection_items()
    branching._drop_tables()
    uncapped = {item: _count(item) for item in items}
    drops = []
    drop = branching._drop_tables

    def counted_drop():
        drops.append(True)
        drop()

    monkeypatch.setattr(branching, "_drop_tables", counted_drop)
    monkeypatch.setattr(branching, "_TABLE_CAP", 40)
    drop()
    for item in items:
        assert _count(item) == uncapped[item]
        assert len(branching._states) <= 40
    assert len(drops) >= 3
