"""Label functions, shapes, padding, and class sizes."""

from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from glstab import partitions as pt
from glstab.errors import BadParameters, GuardExceeded, InvariantViolated
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
    label_arrow_up,
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
