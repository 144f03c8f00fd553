"""Zigzag path counting, restriction multiplicities read from it, and full decompositions."""

import gc
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product, zip_longest
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import glstab
import glstab.branching as branching
from glstab import partitions as pt
from glstab.branching import count_zigzag, decompose_perm_module, zigzag_distribution
from glstab.degrees import cuspidal_count, gl_order, vic_hom_count
from glstab.errors import BadParameters, InvariantViolated
from glstab.labels import (
    IOTA,
    Label,
    anon_key,
    canonical,
    draws,
    enumerate_shapes,
    key_degree,
    label_of_shape,
    make_shape,
    named_key,
    pad,
    pool_size,
    shape_of,
    trivial_label,
    weighted_multisets,
)
from glstab.oracle.counts import conjugacy_class_count, double_cosets_gl
from glstab.stability import empirical_stability_degree
from test_partitions import arrow_up, row


def _clear_tables():
    """Empty the shared tables of pinned walks: contexts, interned states, down-moves."""
    branching._new_context.cache_clear()
    branching._states.clear()
    branching._down.clear()


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


def _one_below(shape, mu):
    """The labels of the shape, one per class of concrete labels relative to mu: each
    anonymous part takes one of mu's anonymous keys of its degree (the same cuspidal)
    or the next slot past them (a fresh cuspidal); mu's slots count from 0."""
    mine = [k for k in mu.support() if k[0] == "anon"]
    out = set()
    options = [[k for k in mine if key_degree(k) == d] + [None] for d, _ in shape.parts]
    for keys in product(*options):
        taken = [k for k in keys if k]
        if len(set(taken)) < len(taken):
            continue
        slots, items = Counter(key_degree(k) for k in mine), [(IOTA, shape.iota)]
        for key, (d, rows) in zip(keys, shape.parts):
            if key is None:
                key, slots[d] = anon_key(d, slots[d]), slots[d] + 1
            items.append((key, rows))
        out.add(Label(items))
    return out


def _restriction(mu, q):
    """{nu: (multiplicity, class count)} for the classes of concrete labels one below
    mu that occur in its restriction.  The multiplicity of one member is the one-step
    count from nu to mu (a restriction path mu ⊇ x ⊆ nu read backwards); the class
    count draws nu's fresh cuspidals with mu's taken."""
    count_zigzag(mu, mu, 0, q)  # refuses a mu whose cuspidals q does not have
    used = Counter(key_degree(k) for k in mu.support() if k != IOTA)
    out = {}
    for shape in enumerate_shapes(mu.norm() - 1):
        for nu in _one_below(shape, mu):
            fresh = [(key_degree(k), r) for k, r in nu.entries if k != IOTA and not mu.get(k)]
            cnt = draws(fresh, q, used)
            mult = cnt and count_zigzag(nu, mu, 1, q)
            if mult:
                out[nu] = (mult, cnt)
    return out


def test_walk_pins_the_named_keys_of_both_ends():
    """The walk's pinned support is the named keys of start and target: a named
    key only the target carries is one pinned cuspidal, and a target whose named
    keys q does not have is refused."""
    target = canonical(Label({IOTA: (1,), named_key(2, "a"): (1,)}))
    assert zigzag_distribution(trivial_label(2), 1, 2, target) == {target: 1}
    # q = 3 has one degree-1 cuspidal besides iota
    two = canonical(Label({named_key(1, "b"): (1,), named_key(1, "c"): (1,)}))
    with pytest.raises(BadParameters):
        zigzag_distribution(trivial_label(1), 1, 3, two)


def test_restriction_of_the_trivial_label():
    assert _restriction(trivial_label(3), 2) == {trivial_label(2): (1, 1)}


def test_restriction_of_the_column():
    # restriction of the size-2 column: the size-1 column appears once,
    # and each of the other degree-1 characters appears via a fresh column
    by_label = _restriction(Label({IOTA: (1, 1)}), 3)
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
            for nu, (mult, cnt) in _restriction(mu, q).items():
                total += mult * cnt * degree_poly(shape_of(nu), q)
            assert total == degree_poly(mu_shape, q)


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
        _restriction(one, 2)
    two = Label({anon_key(2, 0): (1,), anon_key(2, 1): (1,)})
    with pytest.raises(BadParameters):
        count_zigzag(trivial_label(0), two, 4, 2)
    with pytest.raises(BadParameters):
        _restriction(two, 2)
    # the same labels exist at q = 3 (one degree-1 cuspidal besides iota, three of degree 2)
    assert count_zigzag(one, Label({anon_key(1, 0): (2,)}), 1, 3) == 1
    assert _restriction(two, 3)


def test_decomposition_invariants_survive_optimize_flag():
    """The checks in decompose_perm_module are not asserts: they hold under -O."""
    script = (
        "import glstab.branching as b\n"
        "from glstab.errors import InvariantViolated\n"
        "assert False, 'python -O did not strip asserts'\n"
        "b.vic_hom_count = lambda m, n, q: 1\n"
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


def test_dp_walks_leave_no_reference_cycles():
    """_Ctx.down and up are flat loops that build no self-referencing closure,
    so what a decomposition leaves behind goes by reference counting, not at a
    later cyclic GC."""
    gc.collect()
    gc.disable()
    try:
        decompose_perm_module(12, 4, 2)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable < 1000, unreachable


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
                mult * cnt * count_zigzag(nu, below, m - 1, q)
                for below, (mult, cnt) in _restriction(mu, q).items()
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
    before = branching._new_context.cache_info().currsize
    for _ in range(2):
        with pytest.raises(BadParameters):
            count_zigzag(nu, mu, 1, 2)
        with pytest.raises(BadParameters):
            _restriction(mu, 2)
    assert branching._new_context.cache_info().currsize == before


def test_down_moves_are_one_table_for_every_context():
    """A down-move reads neither q nor the pinned support, so every context
    answers a state from the one down table."""
    s = canonical(Label({IOTA: (2, 1), anon_key(2, 0): (1,)}))
    first = branching._new_context(3, ()).down(s)
    assert branching._new_context(3, (named_key(1, "pin0"),)).down(s) is first
    assert branching._new_context(2, ()).down(s) is first


def _partition_of_size(lo, hi):
    return st.integers(lo, hi).flatmap(lambda n: st.sampled_from(pt.partitions_of(n)))


def _label(state):
    """A Label of the state: its anonymous entries take slots 0, 1, ... per degree."""
    slots, items = Counter(), []
    for key, rows in state:
        if key[0] == "anon":
            key, slots[key[1]] = anon_key(key[1], slots[key[1]]), slots[key[1]] + 1
        items.append((key, rows))
    return Label(items)


small_states = st.builds(
    lambda iota, anon: Label([(IOTA, iota)] + [(anon_key(d, j), rows) for j, (d, rows) in enumerate(anon)]),
    _partition_of_size(0, 5),
    st.lists(st.tuples(st.integers(1, 3), _partition_of_size(1, 4)), max_size=2),
).filter(lambda lab: lab.norm() <= 7).map(canonical)


@given(small_states)
def test_down_move_matches_brute_force(state):
    """_Ctx.down counts, per canonical result, the choices of one lam per entry of
    a Label of the state with arrow_up(lam, rows), listed here from all partitions
    of nearby sizes."""
    label = _label(state)
    assert canonical(label) == state
    choices = [
        [
            (key, lam)
            for size in range(sum(rows) - len(rows), sum(rows) + 1)
            for lam in pt.partitions_of(size)
            if arrow_up(lam, rows)
        ]
        for key, rows in label.entries
    ]
    expected = Counter(canonical(Label(items)) for items in product(*choices))
    _clear_tables()
    assert dict(branching._new_context(2, ()).down(state)) == expected


small_labels = st.builds(
    lambda iota, named, anon: Label([(IOTA, iota), *named, *anon]),
    _partition_of_size(0, 4),
    st.lists(
        st.tuples(st.sampled_from([named_key(1, "a"), named_key(2, "b")]), _partition_of_size(1, 3)),
        max_size=2,
        unique_by=lambda item: item[0],
    ),
    st.lists(st.tuples(st.just(anon_key(1, 0)), _partition_of_size(1, 3)), max_size=1),
).filter(lambda s: s.norm() <= 7)


def can_reach_reference(state: tuple, goal: dict, r: int) -> bool:
    """Reference for the reach rule of _step's prune, one state at a time: with r up-moves
    and r - 1 down-moves left, the goal's row minus the state's lies in 1 - r .. r on
    every row of every key (a key outside a support is empty)."""
    left = dict(goal)
    return all(
        1 - r <= want - have <= r
        for key, rows in state
        for want, have in zip_longest(left.pop(key, ()), rows, fillvalue=0)
    ) and all(rows[0] <= r for rows in left.values())


def _after_down(ctx, states):
    """Weights after one down-move of states, each of weight 1."""
    after_down = Counter()
    for state in set(states):
        for succ, c in ctx.down(state):
            after_down[succ] += c
    return after_down


def _kept(ctx, states, goal, r):
    """The states that _reaching keeps of the down-moves of states."""
    return set(dict(branching._reaching(_after_down(ctx, states), goal, r, branching._can_reach)))


@given(small_labels, small_labels, st.integers(1, 4))
def test_reach_rule_after_the_down_move(label, target, r):
    """With one up-move left the rule is arrow_up on every key; and a state with a
    down-successor that passes it passes the rule for a whole down/up pair,
    |row difference| <= r on every row of every key.  Each label has at most one
    anonymous entry, so its state's keys name its entries.  A down-move may move
    no box, so a state is one of its own successors."""
    state, goal = canonical(label), dict(canonical(target))
    keys = set(label.support()) | set(target.support())
    ctx = branching._new_context(2, ())
    if r == 1:
        assert (state in _kept(ctx, [state], goal, 1)) == all(
            arrow_up(label.get(k), target.get(k)) for k in keys
        )
    if _kept(ctx, [state], goal, r):
        assert all(
            abs(row(label.get(k), i) - row(target.get(k), i)) <= r
            for k in keys
            for i in range(max(len(label.get(k)), len(target.get(k))))
        )


REACH_KEYS = [IOTA, named_key(1, "a"), named_key(2, "b")]

reach_states = st.builds(
    lambda fixed, anon: tuple(sorted(fixed + anon)),
    st.lists(
        st.tuples(st.sampled_from(REACH_KEYS), _partition_of_size(1, 4)), max_size=3, unique_by=lambda e: e[0]
    ),
    st.lists(st.tuples(st.sampled_from([("anon", 1), ("anon", 2)]), _partition_of_size(1, 3)), max_size=3),
)


@given(
    st.lists(reach_states, max_size=5),
    st.dictionaries(st.sampled_from(REACH_KEYS + [named_key(1, "c")]), _partition_of_size(1, 5)),
    st.integers(1, 4),
)
# each bound of the rule at its edge: a row r + 1 below the goal's, a row r - 1 above
# it, a lacking key whose first row is r or r + 1, and repeated anonymous entries
@example([((IOTA, (1,)),)], {IOTA: (3,)}, 1)
@example([((IOTA, (2,)),)], {IOTA: (1,)}, 2)
@example([((IOTA, (1,)),)], {IOTA: (1,), named_key(1, "c"): (1,)}, 1)
@example([((IOTA, (1,)),)], {IOTA: (1,), named_key(1, "c"): (2,)}, 1)
@example([((("anon", 1), (1,)), (("anon", 1), (1,)), (IOTA, (2,)))], {IOTA: (2, 1)}, 2)
def test_descend_keeps_what_the_reference_rule_keeps(states, goal, r):
    """_reaching under _can_reach, its per-row rule and its set of needed goal keys, keeps
    exactly the weighted down-successors that can_reach_reference keeps, with repeated
    anonymous entries and goal keys that a state lacks."""
    after_down = _after_down(branching._Ctx(2, ()), states)
    expected = {succ: w for succ, w in after_down.items() if can_reach_reference(succ, goal, r)}
    assert dict(branching._reaching(after_down, goal, r, branching._can_reach)) == expected


@given(
    st.lists(st.tuples(reach_states, st.integers(1, 5)), max_size=5),
    st.dictionaries(st.sampled_from(REACH_KEYS + [named_key(1, "c")]), _partition_of_size(1, 4)),
)
@example([(((IOTA, (2,)), (named_key(1, "a"), (1,))), 3)], {IOTA: (2,), named_key(1, "c"): (1,)})
@example([(((IOTA, (2,)),), 1)], {IOTA: (2,), named_key(1, "c"): (2,)})
@example([(((("anon", 1), (1,)), (("anon", 1), (1,)), (IOTA, (2,))), 2)], {IOTA: (2,)})
def test_last_pair_counts_what_the_reference_rule_keeps(weighted, goal):
    """The last pair's sum of _reaching's products of _ways_down over entries is the total
    weight of the down-successors that can_reach_reference keeps at r = 1, with repeated
    anonymous entries and goal keys that a state lacks."""
    states = dict(weighted)
    ctx = branching._Ctx(2, ())
    kept = 0
    for state, w in states.items():
        kept += sum(w * c for succ, c in ctx.down(state) if can_reach_reference(succ, goal, 1))
    assert sum(w for _, w in branching._reaching(states, goal, 1, branching._ways_down)) == kept


def test_reaching_stops_at_a_states_first_failing_entry():
    """_reaching reads a state's entries in order and no further than the first whose
    factor is 0; a state that passes every entry but lacks a needed target key is
    dropped too."""
    asked = []

    def ways(rows, goal_rows, r):
        asked.append(rows)
        return 0 if rows == (5,) else 2

    failing = ((IOTA, (5,)), (named_key(1, "a"), (1,)))
    lacking = ((IOTA, (1,)),)
    passing = ((IOTA, (1,)), (named_key(1, "a"), (1,)))
    goal = {IOTA: (1,), named_key(1, "a"): (3,)}
    states = {failing: 1, lacking: 1, passing: 3}
    assert list(branching._reaching(states, goal, 2, ways)) == [(passing, 12)]
    assert asked == [(5,), (1,), (1,), (1,)]


@pytest.mark.parametrize("k", [0, 1, 4])
def test_pinning_an_iota_only_label_returns_it(k):
    """A label of iota alone has no key to rename, so pinning returns the label itself;
    a label with another key is rebuilt with that key named."""
    label = trivial_label(k)
    assert branching._pin_anonymous(label) is label
    assert branching._pin_anonymous(Label({IOTA: (k + 1,), anon_key(1, 0): (1,)})).support() == (
        IOTA, named_key(1, (True, 0)))


def test_ends_with_tokens_that_do_not_compare_are_refused():
    """Named tokens of one degree from the two ends must compare, as within one Label;
    of different degrees they need not."""
    nu = Label({named_key(1, 1): (1,)})
    with pytest.raises(BadParameters, match="do not compare"):
        count_zigzag(nu, Label({IOTA: (1,), named_key(1, "a"): (1,)}), 1, 5)
    assert count_zigzag(nu, Label({named_key(1, 1): (1,), named_key(2, "a"): (1,)}), 2, 5) >= 0


def test_pins_never_meet_a_callers_name():
    """A pinned anonymous slot is a cuspidal apart from every named key, whatever
    token the caller gave that key."""
    for token in ("pin0", "a"):
        start = Label({named_key(1, token): (1,)})
        assert count_zigzag(start, Label({anon_key(1, 0): (1, 1)}), 1, 5) == 1
        target = Label({anon_key(1, 0): (1,), named_key(1, token): (1,)})
        assert count_zigzag(start, target, 1, 5) == 2
        assert count_zigzag(trivial_label(1), target, 1, 5) == 1


TOKENS = ["a", "b", "pin0", "pin1"]

end_labels = st.builds(
    lambda iota, named, anon: Label([(IOTA, iota), *named, *anon]),
    _partition_of_size(0, 3),
    st.lists(
        st.tuples(st.tuples(st.integers(1, 2), st.sampled_from(TOKENS)), _partition_of_size(1, 2)),
        max_size=2,
        unique_by=lambda item: item[0],
    ).map(lambda items: [(named_key(*dt), rows) for dt, rows in items]),
    st.lists(
        st.tuples(
            st.sampled_from([anon_key(1, 0), anon_key(1, 1), anon_key(2, 0)]), _partition_of_size(1, 2)
        ),
        max_size=2,
        unique_by=lambda item: item[0],
    ),
).filter(lambda s: s.norm() <= 6)


def _count_or_refusal(nu, mu, q):
    try:
        return count_zigzag(nu, mu, mu.norm() - nu.norm(), q)
    except BadParameters:
        return "refused"


@given(end_labels, end_labels, st.permutations(TOKENS + ["c", "pin2"]), st.sampled_from([2, 3, 4]))
def test_renaming_named_tokens_keeps_the_count(nu, mu, names, q):
    """count_zigzag depends on which named keys are the same cuspidal, not on their tokens."""
    assume(0 <= mu.norm() - nu.norm() <= 3)
    rename = dict(zip(TOKENS, names))

    def renamed(label):
        return Label(
            (named_key(k[1], rename[k[2]]) if k[0] == "named" else k, rows) for k, rows in label.entries
        )

    assert _count_or_refusal(renamed(nu), renamed(mu), q) == _count_or_refusal(nu, mu, q)


@pytest.mark.parametrize("q", [2, 3])
def test_last_pair_stops_after_the_down_move(q):
    """A cold pinned count memoises no up-move into its target's norm and no down-move of
    the last pair's states: the target is all named, so the last pair is counted by the
    reach rule at r = 1 entry by entry, never a list."""
    for m, iota in [(1, (1,)), (2, (3, 1)), (3, (6, 1))]:
        mu = Label({IOTA: iota, anon_key(2, 0): (1,)})
        n = mu.norm()
        _clear_tables()
        assert count_zigzag(trivial_label(n - m), mu, m, q) > 0
        assert branching._new_context.cache_info().currsize == 1
        ctx = _pinned_context(q, branching._pin_anonymous(mu))
        assert bool(ctx._up_memo) == bool(branching._down) == (m > 1)
        assert all(norm < n for _, norm in ctx._up_memo), m


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
        _clear_tables()
        cold[item] = _count(item)
    for seed in (1, 2):
        order = list(items)
        random.Random(seed).shuffle(order)
        assert {item: _count(item) for item in order} == cold
    mixed = {}
    for i, item in enumerate(reversed(items)):
        _m, q, ell, shape = item
        # a one-step restriction count in the context of the shape's pinned support
        count_zigzag(pad(label_of_shape(shape), ell), pad(label_of_shape(shape), ell + 1), 1, q)
        decompose_perm_module(3 + i % 4, 2, 2 + i % 2)
        mixed[item] = _count(item)
    assert mixed == cold


@pytest.mark.parametrize("n,m,q", [(9, 3, 3), (12, 4, 2)])
def test_decomposition_is_independent_of_the_caches(n, m, q):
    """The per-partition, per-part, per-class and per-pool caches only save work:
    emptying them between two decompositions changes nothing."""
    first = decompose_perm_module(n, m, q)
    for cached in (pt.down_set, pt.up_set, pt.hooks, branching._fresh_columns, pool_size,
                   glstab.labels._class_size, glstab.degrees._part_terms):
        cached.cache_clear()
    assert decompose_perm_module(n, m, q) == first


def fresh_columns_reference(q, used, budget):
    """Fresh columns before the exhausted pools were left out: every multiset of
    columns (degree d, k rows of length 1) filling budget, kept when draws weighs it
    nonzero."""
    cols = sorted(((d, k) for d in range(1, budget + 1) for k in range(1, budget // d + 1)),
                  reverse=True)
    return tuple(
        (tuple((("anon", d), (1,) * k) for d, k in multiset), w)
        for multiset in weighted_multisets([(d * k, (d, k)) for d, k in cols], budget)
        if (w := draws(multiset, q, dict(used)))
    )


@st.composite
def fresh_column_requests(draw):
    """(q, used, budget) as _Ctx.up asks: used lists (degree, cuspidals in use), each
    count from 1 up to the whole pool."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    degrees = draw(st.lists(st.integers(1, 8), unique=True, max_size=4))
    used = tuple(sorted((d, draw(st.integers(1, pool_size(d, q))))
                        for d in degrees if pool_size(d, q)))
    return q, used, draw(st.integers(0, 8))


@settings(max_examples=300)
@given(fresh_column_requests())
@example((2, (), 6))
@example((3, ((1, 1),), 5))
@example((4, ((1, 2), (2, 6)), 8))
@example((3, ((1, 1), (2, 3), (3, 8)), 8))
def test_fresh_columns_leave_out_only_what_draws_drops(asked):
    """Leaving out the degrees whose pools the used cuspidals exhaust keeps exactly the
    weighted columns of the full enumeration, as the same tuple in the same order."""
    assert branching._fresh_columns(*asked) == fresh_columns_reference(*asked)


@pytest.mark.parametrize("q,used,budget", [(2, ((1, 1),), 1), (3, ((1, 2), (2, 1)), 3),
                                           (4, ((2, 7),), 5)])
def test_fresh_columns_refuse_an_over_used_pool(q, used, budget):
    """A count above a pool still reaches draws, which raises."""
    with pytest.raises(InvariantViolated):
        branching._fresh_columns(q, used, budget)


@pytest.mark.parametrize("param,call", [
    ("n", lambda: trivial_label(2.5)),
    ("n", lambda: decompose_perm_module(3.5, 1, 2)),
    ("n", lambda: decompose_perm_module(3.0, 1, 2)),
    ("n", lambda: double_cosets_gl(3.0, 1, 2)),
    ("m", lambda: double_cosets_gl(3, 1.0, 2)),
    ("m", lambda: count_zigzag(trivial_label(2), trivial_label(3), 1.0, 2)),
    ("m", lambda: empirical_stability_degree(1.0, 2, 4)),
    ("degree", lambda: make_shape((), [(1.5, (1,))])),
    ("a row", lambda: make_shape((2.0,), ())),
    ("degree", lambda: Label({("named", 1.5, "a"): (1,)})),
    ("degree", lambda: Label({named_key(2.7, "a"): (1,)})),
    ("slot", lambda: anon_key(1, 0.5)),
    ("n", lambda: conjugacy_class_count(2.5, 2)),
    ("m", lambda: vic_hom_count(1.5, 3, 2)),
    ("n", lambda: gl_order(2.5, 2)),
    ("degree", lambda: cuspidal_count(2.5, 2)),
], ids=["trivial_label", "decompose-3.5", "decompose-3.0", "double_cosets-n", "double_cosets-m",
        "count_zigzag", "stability", "make_shape-degree", "make_shape-row", "Label-degree",
        "named_key", "anon_key-slot", "conjugacy_class_count", "vic_hom_count", "gl_order",
        "cuspidal_count"])
def test_non_integer_sizes_are_refused(param, call):
    """A size, step count, degree, slot or row that is not an int is refused by the rule
    that refuses such a q, not truncated and not answered, in a message that names the
    parameter of the function called."""
    with pytest.raises(BadParameters, match=f"^{param} must be an integer"):
        call()


def test_walk_without_target_keeps_no_shared_tables():
    """A decomposition memoises nothing, so it keeps no shared table; a pinned
    count, which sweeps repeat, still fills them."""
    _clear_tables()
    before = branching._new_context.cache_info().currsize
    decompose_perm_module(12, 4, 2)
    decompose_perm_module(9, 3, 3)
    assert not branching._states and not branching._down
    assert branching._new_context.cache_info().currsize == before
    mu = Label({IOTA: (9, 1), anon_key(2, 0): (1,)})
    assert count_zigzag(trivial_label(8), mu, 4, 2) > 0
    assert branching._states and branching._down
    assert branching._new_context.cache_info().currsize == before + 1


small_supported_labels = st.builds(
    lambda iota, named, anon: Label(
        [(IOTA, iota), *named, *((anon_key(d, j), rows) for j, (d, rows) in enumerate(anon))]
    ),
    _partition_of_size(0, 4),
    st.lists(
        st.tuples(st.sampled_from([named_key(1, "a"), named_key(2, "b")]), _partition_of_size(1, 3)),
        max_size=1,
    ),
    st.lists(st.tuples(st.integers(1, 2), _partition_of_size(1, 3)), max_size=2),
).filter(lambda lab: lab.norm() <= 7)


@given(small_supported_labels, st.sampled_from([2, 3, 4]))
def test_direct_context_agrees_with_the_shared_one(label, q):
    """A context built directly gives the shared context's moves, writes no shared
    table, and holds no table of its own."""
    per_degree = Counter(key_degree(k) for k in label.support() if k != IOTA)
    assume(all(used <= pool_size(d, q) for d, used in per_degree.items()))
    support = tuple(k for k in label.support() if k[0] == "named")
    state, norms = canonical(label), range(label.norm(), label.norm() + 3)
    _clear_tables()
    direct = branching._Ctx(q, support)
    moves = [direct.down(state)] + [direct.up(state, norm) for norm in norms]
    moves += [direct.up(succ, label.norm()) for succ, _ in moves[0]]
    assert not branching._states and not branching._down
    assert (direct._states, direct._down, direct._up_memo) == (None, None, None)
    shared = branching._new_context(q, support)

    def as_counter(pairs):
        return Counter(dict(pairs))

    assert as_counter(moves[0]) == as_counter(shared.down(state))
    for norm, pairs in zip(norms, moves[1:]):
        assert as_counter(pairs) == as_counter(shared.up(state, norm))


def _pinned_context(q, *ends):
    """The shared _Ctx of a walk between the ends: their named keys, sorted."""
    named = {k for end in ends for k in end.support() if k[0] == "named"}
    return branching._new_context(q, tuple(sorted(named)))


def _walk_states(ctx, start, m):
    """Every state that _Ctx.down/up return on the unpruned walk of m steps."""
    states, seen = {canonical(start)}, set()
    for s in range(1, m + 1):
        after_down = {succ for st in states for succ, _ in ctx.down(st)}
        states = {succ for st in after_down for succ, _ in ctx.up(st, start.norm() + s)}
        seen |= after_down | states
    return seen


def test_trusted_states_are_valid_canonical_and_interned():
    """States built without Label's checks are sorted tuples of entries whose
    anonymous keys carry no slot and whose rows are nonempty partitions, and
    each is the one interned object for its entries; unpinned and pinned."""
    # the unpinned walk at (3, 4) meets two degree-1 anonymous entries whose rows
    # change order on a down-move: (1,1) before (2,) becomes (1,1) after (1,)
    for m, q, pinned in [(2, 2, True), (3, 2, True), (2, 3, True), (2, 4, True), (3, 4, False)]:
        _clear_tables()
        n = 3 * m
        walks = [_walk_states(_pinned_context(q), trivial_label(n - m), m)]
        for e in decompose_perm_module(n, m, q).entries if pinned else ():
            if e.shape.parts:
                mu = branching._pin_anonymous(pad(label_of_shape(e.shape), n))
                walks.append(_walk_states(_pinned_context(q, mu), trivial_label(n - m), m))
        for states in walks:
            assert states
            for state in states:
                assert list(state) == sorted(state)
                assert all(len(k) == 2 for k, _ in state if k[0] == "anon")
                assert all(rows and pt.as_partition(rows) == rows for _, rows in state)
                assert branching._states[state] is state
                assert canonical(_label(state)) == state


@pytest.mark.parametrize("n,m,q", [(7, 5, 4), (6, 5, 5)])
def test_decomposition_shapes_are_in_shape_order(n, m, q):
    """Each entry's shape lists its parts as make_shape does, by degree and then
    partition order, also where that order is not the order of the rows alone:
    (2,) before (1,1,1) among degree-1 parts."""
    shapes = [e.shape for e in decompose_perm_module(n, m, q).entries]
    assert make_shape((), [(1, (1, 1, 1)), (1, (2,))]) in shapes
    assert all(shape == make_shape(shape.iota, shape.parts) for shape in shapes)


def test_dp_validates_a_bounded_number_of_labels(monkeypatch):
    """Decompositions validate a few Labels per output entry, not one per DP leaf."""
    built = []
    init = Label.__init__

    def counted_init(self, *args, **kwargs):
        built.append(True)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Label, "__init__", counted_init)
    entries = sum(len(decompose_perm_module(*args).entries) for args in [(12, 4, 2), (9, 3, 3)])
    assert len(built) <= 3 * entries


def test_decompose_validates_labels_independent_of_entry_count(monkeypatch):
    """Entry assembly derives both shapes from the trusted DP states, so the number
    of validated Labels does not grow with the number of entries."""
    built = []
    init = Label.__init__

    def counted_init(self, *args, **kwargs):
        built.append(True)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Label, "__init__", counted_init)
    seen = []
    for args in [(9, 3, 2), (12, 4, 2)]:
        built.clear()
        seen.append((len(decompose_perm_module(*args).entries), len(built)))
    (small_entries, small), (large_entries, large) = seen
    assert small_entries < large_entries
    assert small == large


def test_decompose_reads_the_trivial_constituent_without_stable_map(monkeypatch):
    calls = []
    stable_map = branching.Decomposition.stable_map

    def counted(self):
        calls.append(self)
        return stable_map(self)

    monkeypatch.setattr(branching.Decomposition, "stable_map", counted)
    decompose_perm_module(9, 3, 2)
    assert calls == []


def test_target_pruning_drops_no_path(monkeypatch):
    """count_zigzag equals the target's weight in the unpruned pinned walk on every
    pair of shape representatives with norms ell <= 2 and m <= 3, and it checks
    reachability only while up-moves are left."""
    reaching, ups_left = branching._reaching, []

    def recorded(states, goal, r, ways):
        ups_left.append(r)
        return reaching(states, goal, r, ways)

    monkeypatch.setattr(branching, "_reaching", recorded)
    pairs, bad = 0, []
    for q in (2, 3):
        for ell in range(3):
            for m in (1, 2, 3):
                for src in enumerate_shapes(ell):
                    for dst in enumerate_shapes(ell + m):
                        nu, mu = label_of_shape(src), label_of_shape(dst)
                        try:
                            pruned = count_zigzag(nu, mu, m, q)
                        except BadParameters:
                            continue  # more cuspidals than q has
                        nu_p, mu_p = branching._pin_anonymous(nu), branching._pin_anonymous(mu)
                        ctx, walk = _pinned_context(q, nu_p, mu_p), {canonical(nu_p): 1}
                        for s in range(1, m + 1):
                            walk = branching._step(ctx, walk, ell + s)
                        pairs += 1
                        if pruned != walk.get(canonical(mu_p), 0):
                            bad.append((q, src, dst, pruned))
    assert (pairs, bad) == (878, [])
    assert ups_left and min(ups_left) >= 1
