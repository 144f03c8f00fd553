"""Label functions, shapes, padding, and class sizes."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glstab import partitions as pt
from glstab.errors import BadParameters, GuardExceeded, InvariantViolated, integer
from glstab.labels import (
    IOTA,
    Label,
    anon_key,
    canonical,
    class_size,
    draws,
    enumerate_labels,
    enumerate_shapes,
    format_shape,
    label_of_shape,
    make_shape,
    named_key,
    pad,
    parse_shape,
    pool_size,
    shape_from_json,
    shape_of,
    shape_to_json,
    stabilize,
    tilde,
    trivial_label,
)
from test_partitions import arrow_up

partitions = st.integers(0, 5).flatmap(
    lambda n: st.sampled_from(pt.partitions_of(n) or ((),))
)

stable_labels = st.builds(
    lambda i, a, b: Label(
        {k: v for k, v in [(IOTA, i), (anon_key(1, 0), a), (anon_key(2, 0), b)] if v}
    ),
    partitions,
    partitions,
    partitions,
)

shapes = st.builds(
    make_shape,
    partitions,
    st.lists(st.tuples(st.integers(1, 3), partitions.filter(bool)), max_size=4),
)


def test_label_basics():
    lab = Label({IOTA: (2, 1), anon_key(2, 0): (1,)})
    assert lab.norm() == 5
    assert lab.get(IOTA) == (2, 1)
    assert lab.get(named_key(1, "x")) == ()
    assert Label({IOTA: ()}) == Label()  # empty partitions are dropped


def test_label_rejects_bad_keys():
    with pytest.raises(BadParameters):
        Label({("iota", 2, 0): (1,)})
    with pytest.raises(BadParameters):
        Label({("weird", 1, 0): (1,)})


@pytest.mark.parametrize("make", [
    lambda: Label({("anon", 1): (1,)}),  # a DP state's slot-free key
    lambda: Label({5: (1,)}),
    lambda: Label({"ab": (1,)}),
    lambda: Label([(("named", 1, 0, 0), (1,))]),
], ids=["slot-free", "int", "str", "four-tuple"])
def test_label_refuses_a_key_that_is_no_triple(make):
    with pytest.raises(BadParameters, match="^bad cuspidal key "):
        make()


@pytest.mark.parametrize("make", [lambda: Label({IOTA: 3}), lambda: pt.as_partition(3),
                                  lambda: make_shape(3)], ids=["Label", "as_partition", "make_shape"])
def test_rows_that_are_no_iterable_are_refused(make):
    with pytest.raises(BadParameters, match="^rows must be an iterable of row lengths, got 3$"):
        make()


def test_label_refuses_tokens_that_do_not_compare():
    """Two named tokens of one degree that cannot be ordered are a bad key pair,
    named in the refusal; tokens of other degrees may differ in type."""
    with pytest.raises(BadParameters, match=r"\('named', 1, 'a'\), \('named', 1, 0\)$"):
        Label({named_key(1, "a"): (1,), named_key(1, 0): (1,), named_key(2, 0): (1,)})
    with pytest.raises(BadParameters, match=r"\('named', 1, \(0, 'a'\)\), \('named', 1, \(0, 1\)\)$"):
        Label({named_key(1, (0, 1)): (1,), named_key(1, (0, "a")): (1,), named_key(1, (1, 1)): (1,)})
    assert Label({named_key(1, "a"): (1,), named_key(2, 0): (1,)}).norm() == 3


def test_trivial_label():
    assert trivial_label(0) == Label()
    assert trivial_label(4) == Label({IOTA: (4,)})


@given(stable_labels, st.integers(0, 14))
def test_pad_stabilize_round_trip(lam, n):
    first = lam.iota[0] if lam.iota else 0
    if n < lam.norm() + first:
        with pytest.raises(BadParameters):
            pad(lam, n)
        return
    padded = pad(lam, n)
    assert padded.norm() == n
    back, size = stabilize(padded)
    assert back == lam and size == n


def test_pad_stabilize_exhaustive_round_trip():
    for norm in range(5):
        for shape in enumerate_shapes(norm):
            lam = label_of_shape(shape)
            first = lam.iota[0] if lam.iota else 0
            for n in range(norm + first, norm + first + 5):
                assert stabilize(pad(lam, n)) == (lam, n)


def test_stabilize_known_values():
    assert stabilize(Label({IOTA: (3, 2, 1)})) == (Label({IOTA: (2, 1)}), 6)
    assert stabilize(trivial_label(4)) == (Label(), 4)


@given(stable_labels)
def test_tilde_raises_norm_by_one(lam):
    assert tilde(lam).norm() == lam.norm() + 1


def label_arrow_up(a, b):
    """Keywise add-at-most-one-box-per-row relation from a to b."""
    keys = set(a.support()) | set(b.support())
    return all(arrow_up(a.get(k), b.get(k)) for k in keys)


@given(stable_labels, st.integers(0, 3))
def test_padding_commutes_with_arrow(lam, slack):
    """pad(lam, n) -> pad(lam, n+1) is always a legal single-box move."""
    n = lam.norm() + (lam.iota[0] if lam.iota else 0) + slack
    assert label_arrow_up(pad(lam, n), pad(lam, n + 1))


def arrow_down(b, a):
    """Keywise remove-at-most-one-box-per-row relation from b to a."""
    return label_arrow_up(a, b)


def test_tilde_preserves_arrows():
    """Raising the first trivial-character row commutes with both arrows."""
    for k in range(4):
        assert tilde(trivial_label(k)) == trivial_label(k + 1)
        lower = [label_of_shape(s) for s in enumerate_shapes(k)]
        upper = [label_of_shape(s) for s in enumerate_shapes(k + 1)]
        for a in lower:
            for b in upper:
                if label_arrow_up(a, b):
                    assert label_arrow_up(tilde(a), tilde(b))
                if arrow_down(b, a):
                    assert arrow_down(tilde(b), tilde(a))


def test_canonical_renumbers_anonymous_slots():
    a = Label({anon_key(1, 5): (2,), anon_key(1, 2): (1, 1)})
    b = Label({anon_key(1, 0): (2,), anon_key(1, 1): (1, 1)})
    assert canonical(a) == canonical(b)


def _validated_canonical(label):
    """canonical as it was while states kept slots: sort anonymous entries by
    degree then partition order, renumber, and validate a new Label."""
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


def _state_shape(state):
    """The shape of a state, read from its entries alone."""
    return make_shape(dict(state).get(IOTA, ()), [(k[1], r) for k, r in state if k != IOTA])


# few small partitions, so that equal partitions under one degree are common
small_rows = st.sampled_from([(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)])
label_items = st.tuples(
    st.booleans(),
    small_rows,
    st.dictionaries(st.tuples(st.integers(1, 3), st.sampled_from("ab")), small_rows, max_size=3),
    st.lists(st.tuples(st.integers(1, 3), small_rows), max_size=6),
    st.randoms(use_true_random=False),
).map(
    lambda t: t[4].sample(
        [(IOTA, t[1])] * t[0]
        + [(named_key(d, tag), rows) for (d, tag), rows in t[2].items()]
        + [(anon_key(d, 7 * i + 3), rows) for i, (d, rows) in enumerate(t[3])],
        k=t[0] + len(t[2]) + len(t[3]),
    )
)


@st.composite
def related_items(draw):
    """Items of a drawn label and of a second one: the first's anonymous rows
    permuted within each degree, and maybe one entry's rows redrawn."""
    items, rnd = draw(label_items), draw(st.randoms(use_true_random=False))
    other = list(items)
    for d in {k[1] for k, _ in items if k[0] == "anon"}:
        places = [i for i, (k, _) in enumerate(items) if k[:2] == ("anon", d)]
        rows = [items[i][1] for i in places]
        rnd.shuffle(rows)
        for i, r in zip(places, rows):
            other[i] = (items[i][0], r)
    if items and draw(st.booleans()):
        i = draw(st.integers(0, len(items) - 1))
        other[i] = (other[i][0], draw(small_rows))
    return items, other


@settings(max_examples=300)
@given(label_items, st.randoms(use_true_random=False))
def test_canonical_ignores_renumbered_anonymous_slots(items, rnd):
    """Any injective renumbering of the anonymous slots within a degree gives the
    same state; the state is sorted and its anonymous keys carry no slot."""
    anon_degrees = [k[1] for k, _ in items if k[0] == "anon"]
    slots = {d: iter(rnd.sample(range(50), anon_degrees.count(d))) for d in set(anon_degrees)}
    renumbered = [(anon_key(k[1], next(slots[k[1]])) if k[0] == "anon" else k, r) for k, r in items]
    state = canonical(Label(items))
    assert canonical(Label(renumbered)) == state
    assert list(state) == sorted(state)
    assert all(len(k) == 2 for k, _ in state if k[0] == "anon")


@settings(max_examples=300)
@given(related_items())
# (2,) comes before (1,1,1) in partition order (by size), after it by rows alone
@example(([(anon_key(1, 0), (1, 1, 1)), (anon_key(1, 1), (2,)), (anon_key(2, 0), (1,))],
          [(anon_key(1, 0), (2,)), (anon_key(1, 1), (1, 1, 1)), (anon_key(2, 0), (1, 1))]))
def test_canonical_separates_labels_of_different_shapes(pair):
    """A state determines its label's shape, so labels whose shapes differ have
    different states."""
    a, b = (Label(items) for items in pair)
    assert _state_shape(canonical(a)) == shape_of(a)
    if shape_of(a) != shape_of(b):
        assert canonical(a) != canonical(b)


@settings(max_examples=300)
@given(related_items())
def test_canonical_agrees_with_the_validated_reference(pair):
    """Two labels have one state exactly when the reference gives them one
    renumbered Label, and the reference's Label has the same state."""
    a, b = (Label(items) for items in pair)
    assert canonical(_validated_canonical(a)) == canonical(a)
    assert (canonical(a) == canonical(b)) == (_validated_canonical(a) == _validated_canonical(b))


def test_shape_forgetting_and_representative():
    lab = Label({IOTA: (2,), named_key(2, "a"): (1,), anon_key(2, 1): (1,)})
    shape = shape_of(lab)
    assert shape.norm() == 6
    rep = label_of_shape(shape)
    assert shape_of(rep) == shape


def test_class_size_known_values():
    # q - 2 free degree-1 cuspidals besides iota; 1 at q = 3
    assert class_size(make_shape((), [(1, (1,))]), 3) == 1
    assert class_size(make_shape((), [(1, (1,))]), 5) == 3
    # two distinct degree-1 cuspidals with equal partitions: C(q-2, 2)
    assert class_size(make_shape((), [(1, (1,)), (1, (1,))]), 5) == 3
    # degree-2 pool at q = 2 has exactly one cuspidal
    assert class_size(make_shape((), [(2, (1,))]), 2) == 1
    assert class_size(make_shape((), [(2, (1,)), (2, (1,))]), 2) == 0


def test_class_size_takes_q_by_the_prime_power_rule():
    """class_size, and the census built on it, refuse a q that is no prime power with
    prime_power's reason: 6 is not counted, and 1 has the one message of every q."""
    for q in (6, 1):
        with pytest.raises(BadParameters, match=f"^{q} is not a prime power$"):
            class_size(make_shape((), [(1, (1,))]), q)
        with pytest.raises(BadParameters, match=f"^{q} is not a prime power$"):
            enumerate_labels(2, q)


def _brute_draws(parts, q, used):
    """Injective assignments of parts to cuspidals, up to permuting equal parts."""
    choices = [[(d, c) for c in range(pool_size(d, q) - used)] for d, _ in parts]
    seen = set()
    for pick in product(*choices):
        if len(set(pick)) == len(pick):
            seen.add(tuple(sorted(zip(parts, pick))))
    return len(seen)


def test_draws_matches_brute_force():
    part_types = [(d, tag) for d in (1, 2, 3) for tag in "ab"]
    for q in (2, 3, 4, 5):
        for size in range(4):
            for parts in combinations_with_replacement(part_types, size):
                for u in range(3):
                    used = {d: u for d in (1, 2, 3)}
                    if any(pool_size(d, q) < u for d, _ in parts):
                        with pytest.raises(InvariantViolated):
                            draws(parts, q, used)
                    else:
                        assert draws(parts, q, used) == _brute_draws(parts, q, u)


def test_enumerate_shapes_norm_2():
    shapes = enumerate_shapes(2)
    # iota (2), (1,1); iota (1) + one anon (1); anon (2), (1,1), (1)x2; one degree-2 (1)
    assert len(shapes) == 7
    assert len(shapes) == len(set(shapes))
    assert all(s.norm() == 2 for s in shapes)


def test_census_matches_conjugacy_classes():
    from glstab.oracle.counts import conjugacy_class_count

    for n, q in [(2, 2), (2, 3), (3, 2)]:
        total = sum(c for _, c in enumerate_labels(n, q))
        assert total == conjugacy_class_count(n, q)


def test_shape_json_round_trip():
    shape = make_shape((3, 1), [(2, (1,)), (1, (2,)), (1, (2,))])
    assert shape_from_json(shape_to_json(shape)) == shape
    # a part without a count is counted once
    assert shape_from_json({"others": [{"degree": 3, "partition": [2, 1]}]}) == make_shape((), [(3, (2, 1))])


@pytest.mark.parametrize("part,error", [
    ({"count": 0}, BadParameters), ({"count": -1}, BadParameters), ({"count": 1.0}, BadParameters),
    ({"count": "2"}, BadParameters), ({"degree": 0}, BadParameters), ({"partition": []}, BadParameters),
    ({"partition": 1}, BadParameters), ({"count": 10**9}, GuardExceeded),
    ({"degree": 0, "count": 10**9}, BadParameters),
], ids=["count-0", "count-negative", "count-float", "count-str", "degree-0", "partition-empty",
        "partition-int", "count-huge", "degree-0-count-huge"])
def test_shape_from_json_takes_counts_by_the_parse_rule(part, error):
    """A JSON part's count, degree and partition follow parse_shape's rule, and a
    huge count is refused by the norm bound before the part is repeated."""
    item = {"degree": 1, "partition": [1], "count": 1} | part
    with pytest.raises(error):
        shape_from_json({"iota": [1], "others": [item]})


def test_parse_format_round_trip():
    for text in ["i:(3,2); 2:(1)x1", "i:()", "i:(1); 1:(1)x2; 3:(2,1)x1"]:
        shape = parse_shape(text)
        assert parse_shape(format_shape(shape)) == shape


@given(shapes)
def test_parse_format_round_trip_generated(shape):
    if shape.norm() > pt.ENUM_BOUND:
        with pytest.raises(GuardExceeded):
            parse_shape(format_shape(shape))
    else:
        assert parse_shape(format_shape(shape)) == shape


@pytest.mark.parametrize("text", ["i:(1)x3", "2:(1)x0", "2:(1)x-2", "i:(2); i:(5)"])
def test_parse_shape_rejects_malformed_counts(text):
    with pytest.raises(BadParameters):
        parse_shape(text)


def test_parse_shape_bounds_the_norm_before_expanding_counts():
    assert len(parse_shape("1:(1)x60").parts) == 60
    for text in ["1:(1)x61", "i:(61)", "i:(30); 2:(1)x100000", "2:(1)x" + "9" * 4000]:
        with pytest.raises(GuardExceeded):
            parse_shape(text)
    # a part that adds nothing to the norm cannot carry a huge count either
    for text in ["0:(1)x100000000", "2:()x100000000", "-1:(1)x100000000"]:
        with pytest.raises(BadParameters):
            parse_shape(text)


def test_parse_shape_accepts_iota_spellings():
    assert parse_shape("iota:(2)") == parse_shape("i:(2)")


def as_partition_reference(rows):
    """partitions.as_partition with its checks written row by row: the integer rule on
    each row, trailing zeros dropped, then no row below 1, then no row above the one
    before it."""
    rows = tuple(integer("a row", r) for r in rows)
    while rows and rows[-1] == 0:
        rows = rows[:-1]
    if any(r < 1 for r in rows):
        raise BadParameters(f"negative or interior-zero row in {rows}")
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise BadParameters(f"rows not weakly decreasing: {rows}")
    return rows


def label_entries_reference(mapping):
    """Label(mapping).entries with its checks written out: keys checked, rows through
    as_partition_reference, entries sorted by (kind rank, degree, token), a clash of
    tokens that do not compare named, duplicate keys refused."""
    rank = {"iota": 0, "named": 1, "anon": 2}

    def unordered(a, b):
        try:
            sorted((a, b))
        except TypeError:
            return True
        return False

    cleaned = []
    for key, rows in mapping.items() if hasattr(mapping, "items") else mapping:
        kind, degree, _tag = key
        if kind not in rank or degree < 1 or (kind == "iota" and key != IOTA):
            raise BadParameters(f"bad cuspidal key {key!r}")
        rows = as_partition_reference(rows)
        if rows:
            cleaned.append((key, rows))
    try:
        cleaned.sort(key=lambda kv: (rank[kv[0][0]], kv[0][1], kv[0][2]))
    except TypeError:
        clash = ", ".join(sorted({repr(k) for k, _ in cleaned for j, _ in cleaned
                                  if k[:2] == j[:2] and unordered(k[2], j[2])}))
        raise BadParameters(f"cuspidal keys with tokens that do not compare: {clash}") from None
    keys = [k for k, _ in cleaned]
    if len(set(keys)) != len(keys):
        raise BadParameters("duplicate cuspidal key")
    return tuple(cleaned)


def _outcome(fn, make):
    """fn's value on a fresh make(), or the type and message of what it raised."""
    try:
        return "value", fn(make())
    except Exception as exc:  # noqa: BLE001 - the refusal itself is compared
        return type(exc), str(exc)


row_values = st.one_of(
    st.integers(-2, 6), st.just(0), st.booleans(), st.sampled_from([2.0, 1.5, -0.0, "2", "a", None]),
    st.floats(allow_nan=False),
)
# valid rows with trailing zeros, increasing pairs, and rows of every kind of value
row_lists = st.one_of(
    st.tuples(partitions, st.integers(0, 2)).map(lambda t: list(t[0]) + [0] * t[1]),
    st.tuples(st.integers(-1, 4), st.integers(1, 3)).map(lambda t: [t[0], t[0] + t[1]]),
    st.lists(row_values, max_size=5),
)
# how the rows are handed over: a fresh tuple, list or generator on each call
containers = st.sampled_from([tuple, list, lambda rows: (r for r in rows)])


@settings(max_examples=400)
@given(row_lists, containers)
@example([3, 1, 0, 0], tuple)
@example([True, True, 0], list)
@example([2, 0, 1], tuple)
@example([1, 2.0], list)
@example(["3"], lambda rows: (r for r in rows))
def test_as_partition_agrees_with_the_row_by_row_reference(rows, container):
    """The same partition, or the same exception type and message, as the row-by-row
    checks: ints, bools, floats, strings, negatives, zeros and increasing rows, from
    tuples, lists and generators."""
    def make():
        return container(rows)

    assert _outcome(pt.as_partition, make) == _outcome(as_partition_reference, make)


LABEL_KEYS = [IOTA, named_key(1, "a"), named_key(1, 0), named_key(2, "b"), anon_key(1, 0),
              anon_key(1, 1), anon_key(2, 0), ("iota", 1, 1), ("iota", 2, 0), ("weird", 1, 0),
              ("named", 0, "x")]


@settings(max_examples=400)
@given(st.lists(st.tuples(st.sampled_from(LABEL_KEYS), row_lists), max_size=4),
       st.sampled_from([list, dict, lambda items: iter(items)]), containers)
@example([(named_key(1, "a"), [1]), (named_key(1, 0), [1])], list, tuple)
@example([(anon_key(1, 0), [1]), (named_key(2, "b"), [1]), (IOTA, [1])], list, tuple)
@example([(anon_key(1, 0), [2]), (anon_key(1, 0), [1])], list, list)
@example([(anon_key(2, 0), [1]), (IOTA, [2, 1]), (named_key(1, "a"), [1, 0])], dict, tuple)
def test_label_agrees_with_the_written_out_reference(items, mapping, container):
    """Label(...).entries equals the written-out reference's, or both raise the same
    exception type and message, for mappings, lists and iterators of items."""
    def make():
        return mapping([(key, container(rows)) for key, rows in items])

    assert _outcome(lambda m: Label(m).entries, make) == _outcome(label_entries_reference, make)
