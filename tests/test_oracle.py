"""Matrix groups, morphism spaces, and orbit counting cross-checks."""

import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import glstab
import glstab.oracle.counts as counts
from glstab.degrees import gl_order, vic_hom_count
from glstab.errors import BadParameters, GuardExceeded, InvariantViolated
from glstab.oracle.counts import (
    _from_below,
    _generators,
    _matvec_table,
    _orbit_data,
    _part_image,
    _rref_packed,
    _space,
    conjugacy_class_count,
    double_cosets_gl,
    weakstab_cosets,
    weakstab_map_surjective,
    weakstab_sequence,
)
from glstab.oracle.fields import MAX_Q, field
from glstab.oracle.orbits import NOT_A_POINT, orbit_partition
from glstab.verification import check_weak_stability
import vic_reference as ref
from vic_reference import VicMorphism, burnside_count, embed, vic_morphisms


def bfs_closure(F, gens, n):
    seen = {ref.identity(n)}
    frontier = [ref.identity(n)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = ref.mat_mul(F, g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def postcompose(F, h, v):
    """Action of an invertible matrix on a morphism by composition."""
    f = ref.mat_mul(F, h, v.f)
    if v.K:
        rows = tuple(zip(*ref.mat_mul(F, h, tuple(zip(*v.K)))))
        rows, _ = ref.rref(F, rows)
    else:
        rows = ()
    return VicMorphism(q=v.q, f=f, K=rows)


packed_vector = cache(lambda vec, q: sum(d * q**i for i, d in enumerate(vec)))


def pack_vic(v, S):
    """The packed key of a morphism: map columns, then complement rows, each
    vector as base-q digits in an S-bit field."""
    key = 0
    for vec in (*zip(*v.f), *v.K):
        key = (key << S) | packed_vector(vec, v.q)
    return key


def unpack(cols, q):
    """The reference matrix, a tuple of rows, whose columns are the packed `cols`."""
    return tuple(tuple(c // q**i % q for c in cols) for i in range(len(cols)))


def decode_space(m, n, q):
    """_space's points as packed keys: number a*w + b is complement b's rows under
    the map columns that a holds as base-q**n digits, column 0 highest."""
    numbers, complements = _space(m, n, q)
    S, w = (q**n - 1).bit_length(), len(complements)

    @cache
    def columns(a):  # each map part is shared by many numbers; decode it once
        return sum(a // q ** (n * (m - 1 - i)) % q**n << S * (n - 1 - i) for i in range(m))

    keys = [columns(x // w) | complements[x % w] for x in numbers]
    assert max(numbers) < q ** (n * m) * w
    return keys, S


def numbered_orbit_count(points, actions):
    """orbit_partition on a list of points numbered by their place in it, one part
    each; an image off the list gets the one number that is no point."""
    index = {p: i for i, p in enumerate(points)}
    perms = [([index.get(act(p), len(points)) for p in points], [0]) for act in actions]
    return len(orbit_partition(range(len(points)), len(points) + 1, perms)[0])


def test_gl_n_is_the_square_morphism_space():
    """At m = n the morphism space is GL_n: its points are the invertible
    matrices of the rank scan, one each."""
    for n, q in [(1, 2), (1, 5), (2, 2), (2, 3), (2, 4), (3, 2)]:
        points, S = decode_space(n, n, q)
        assert len(points) == gl_order(n, q)
        assert set(points) == {pack_vic(VicMorphism(q, g, ()), S) for g in ref.gl_matrices(n, q)}
    with pytest.raises(GuardExceeded):
        _space(4, 4, 5)


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (1, 5)])
def test_generators_generate_the_whole_group(n, q):
    """The packed generators of diag(1_ell, GL_{n-ell}) generate that block
    subgroup: GL_n itself at ell = 0, the identity alone at ell = n."""
    for ell in range(n + 1):
        closure = bfs_closure(field(q), [unpack(g, q) for g in _generators(n, q, ell)], n)
        assert len(closure) == gl_order(n - ell, q), ell
        one = ref.identity(n)  # each element fixes the first ell rows and columns
        assert all(x[i][j] == one[i][j] for x in closure for i in range(n) for j in range(n)
                   if min(i, j) < ell), ell


def test_vic_morphism_counts():
    assert [len(vic_morphisms(*mnq)) for mnq in ((1, 2, 2), (1, 3, 2), (2, 3, 2), (0, 4, 3))] == [6, 28, 168, 1]
    with pytest.raises(GuardExceeded):
        vic_morphisms(2, 7, 2)


def test_vic_morphisms_are_distinct_and_valid():
    for m, n, q in [(1, 3, 2), (2, 3, 3), (2, 4, 2)]:
        F = field(q)
        pts = vic_morphisms(m, n, q)
        assert len(set(pts)) == vic_hom_count(m, n, q)
        for v in random.Random(0).sample(pts, 20):
            assert ref.rank(F, v.f) == m
            assert ref.rank(F, v.K + tuple(zip(*v.f))) == n


def test_packed_space_agrees_with_object_enumeration():
    for m, n, q in [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 3), (2, 4, 3), (1, 3, 4)]:
        points, S = decode_space(m, n, q)
        assert len(points) == len(set(points)) == vic_hom_count(m, n, q)
        assert set(points) == {pack_vic(v, S) for v in vic_morphisms(m, n, q)}


@st.composite
def small_spaces(draw, bound=3000):
    """(m, n, q) with at most `bound` morphisms and q**n within the oracle's
    vector guard, q over the oracle's field sizes."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(0, 6))
    while q**n > counts.VECTOR_GUARD:
        n -= 1
    m = draw(st.integers(0, n))
    while vic_hom_count(m, n, q) > bound:  # the count grows with m; m = 0 has one
        m -= 1
    return m, n, q


@given(small_spaces())
@example((0, 0, 2))
@example((0, 4, 5))
@example((3, 3, 2))
@example((2, 2, 7))
@example((1, 2, 8))
@example((1, 2, 9))
@example((1, 3, 4))
def test_packed_space_is_the_object_space(mnq):
    """The echelon-cell space build and the span-then-reduce object enumeration
    give the same point set."""
    points, S = decode_space(*mnq)
    assert len(points) == vic_hom_count(*mnq)
    assert set(points) == {pack_vic(v, S) for v in vic_morphisms(*mnq)}


def test_space_build_does_no_row_reduction(monkeypatch):
    """_space lists complements in reduced echelon form; it never row-reduces."""
    cases = [(2, 4, 2), (1, 3, 3), (2, 3, 4), (0, 3, 5), (2, 2, 3), (1, 2, 9)]
    expected = {args: _space(*args) for args in cases}
    for m, n, q in cases:
        points, S = decode_space(m, n, q)
        assert sorted(points) == sorted(pack_vic(v, S) for v in vic_morphisms(m, n, q))

    def forbidden(*args):
        raise AssertionError("row reduction in the space build")

    monkeypatch.setattr(counts, "_rref_packed", forbidden)
    for args in cases:
        assert _space(*args) == expected[args], args


@st.composite
def packed_rows(draw):
    """(rows, n, q): up to five packed vectors of F_q^n, some repeated, some
    combinations of the others and some zero, q over the oracle's field sizes."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    n = draw(st.integers(0, 5))
    F = field(q)
    vec = st.integers(0, q**n - 1)
    rows = draw(st.lists(vec, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        c, i, j = draw(st.integers(0, q - 1)), draw(vec), draw(vec)
        if rows:
            i, j = rows[i % len(rows)], rows[j % len(rows)]
        rows.append(counts._axpy(i, c, j, q, F))
    return draw(st.permutations(rows + draw(st.lists(st.just(0), max_size=2)))), n, q


@given(packed_rows())
@example(([], 3, 2))
@example(([0, 0], 2, 3))
@example(([5, 5, 0], 3, 2))
@example(([1, 3, 4], 2, 4))
def test_rref_packed_is_the_digit_rref(rows_n_q):
    """_rref_packed on packed rows is the reference rref on their digits, packed again."""
    rows, n, q = rows_n_q
    F = field(q)
    digits = tuple(tuple(v // q**i % q for i in range(n)) for v in rows)
    red, _ = ref.rref(F, digits)
    assert _rref_packed(rows, q, F) == tuple(sum(d * q**i for i, d in enumerate(r)) for r in red)


def test_vector_guard_is_the_largest_table_a_map_space_needs():
    """VECTOR_GUARD is the largest q**n of any space from F_q^m with m >= 1 that
    VIC_SPACE_GUARD admits, for every q up to MAX_Q."""
    # a line alone has q**(n-1) * (q**n - 1) >= 2**(n-1) maps, past the guard from n = 24
    largest = max(
        q**n
        for q in range(2, MAX_Q + 1)
        for n in range(1, 24)
        for m in range(1, n + 1)
        if vic_hom_count(m, n, q) <= counts.VIC_SPACE_GUARD
    )
    assert largest == counts.VECTOR_GUARD


@pytest.mark.parametrize("call", [lambda: _space(0, 13, 2), lambda: double_cosets_gl(13, 0, 2)])
def test_m0_past_the_vector_guard_is_refused(call):
    """m = 0 has one point at every n, but its tables would have q**n entries."""
    with pytest.raises(GuardExceeded) as info:
        call()
    assert info.value.limits == {"n": 13, "q": 2}


ORBIT_CASES = [(1, 3, 2, 1), (2, 3, 2, 1), (2, 4, 2, 2), (1, 3, 3, 0), (2, 3, 3, 1), (1, 3, 4, 1), (1, 2, 4, 0)]


@pytest.mark.parametrize("m,n,q,ell", ORBIT_CASES)
def test_packed_action_equals_object_action(m, n, q, ell):
    """Every block generator moves every packed point, part by part, as composition
    moves the morphism: the map part's image and the complement's reduced image,
    reassembled, are the packed image."""
    F = field(q)
    S = (q**n - 1).bit_length()
    k_bits = S * (n - m)
    points = vic_morphisms(m, n, q)
    for cols in _generators(n, q, ell):
        table, h = _matvec_table(cols, n, q, F), unpack(cols, q)
        for v in points:
            key = pack_vic(v, S)
            high = sum(table[key >> S * i & (1 << S) - 1] << S * i for i in range(n - m, n))
            low = _part_image(table, key & (1 << k_bits) - 1, n - m, S, q, F)
            assert high | low == pack_vic(postcompose(F, h, v), S), (h, v)


def object_orbits(points, actions):
    """The orbits as sets, by plain closure under the actions.  An image joins
    its orbit as it is pushed, so each point is expanded once."""
    left, orbits = set(points), []
    while left:
        frontier = [left.pop()]
        orbit = set(frontier)
        while frontier:
            p = frontier.pop()
            for act in actions:
                if (img := act(p)) not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        left -= orbit
        orbits.append(frozenset(orbit))
    return set(orbits)


@pytest.mark.parametrize("m,n,q,ell", ORBIT_CASES)
def test_numbered_orbits_are_the_object_orbits(m, n, q, ell):
    """_orbit_data's labels, read at each point's number, partition the packed
    points as composition partitions the morphisms; every other number is no point."""
    F = field(q)
    points = vic_morphisms(m, n, q)
    gens = [unpack(cols, q) for cols in _generators(n, q, ell)]
    images = [{v: postcompose(F, h, v) for v in points} for h in gens]
    actions = [image.__getitem__ for image in images]
    reps, labels, complements = _orbit_data(m, n, q, ell)
    numbers, lows = _space(m, n, q)
    keys, S = decode_space(m, n, q)
    assert complements == lows
    assert sorted(x for x, label in enumerate(labels) if label != NOT_A_POINT) == sorted(numbers)
    numbered = {}
    for x, key in zip(numbers, keys):
        numbered.setdefault(labels[x], set()).add(key)
    expected = object_orbits(points, actions)
    assert {frozenset(o) for o in numbered.values()} == {
        frozenset(pack_vic(v, S) for v in orbit) for orbit in expected
    }
    assert sorted(numbered) == list(range(len(reps))) == [labels[r] for r in reps]
    assert len(reps) == numbered_orbit_count(points, actions) == len(expected)


def test_part_image_outside_the_parts_is_refused(monkeypatch):
    monkeypatch.setattr(counts, "_part_image", lambda *args: -1)
    with pytest.raises(InvariantViolated, match="part image -1 is not a part"):
        double_cosets_gl(3, 1, 2)


def test_known_parts_that_are_no_point_are_refused(monkeypatch):
    """A point left out of the space still has its map a and its complement b
    among the others', so its number a*w + b is in range; the search refuses to
    reach it."""
    space = counts._space

    def short(m, n, q):
        numbers, complements = space(m, n, q)
        w = len(complements)
        dropped, rest = numbers[0], numbers[1:]
        assert any(p // w == dropped // w for p in rest)
        assert any(p % w == dropped % w for p in rest)
        return rest, complements

    monkeypatch.setattr(counts, "_space", short)
    with pytest.raises(InvariantViolated, match="is not a point"):
        double_cosets_gl(3, 1, 2)


@pytest.mark.parametrize(
    "m,n,q",
    [(0, 2, 2), (1, 2, 2), (1, 3, 2), (2, 3, 2), (2, 4, 2),
     (1, 2, 3), (1, 3, 3), (2, 3, 3), (1, 2, 4), (1, 2, 9)],
)
def test_packed_embedding_equals_object_embedding(m, n, q):
    """At size n + 1, _from_below selects exactly the points vic.embed reaches
    from size n: labelled by their own numbers, it returns those points' numbers."""
    numbers, lows = _space(m, n + 1, q)
    keys, S = decode_space(m, n + 1, q)
    labels = [NOT_A_POINT] * (q ** ((n + 1) * m) * len(lows))
    for x in numbers:
        labels[x] = x
    key_of = dict(zip(numbers, keys))
    selected = sorted(key_of[x] for x in _from_below(labels, lows, m, n + 1, q))
    assert selected == sorted(pack_vic(embed(v), S) for v in vic_morphisms(m, n, q))


def test_embed_matches_standard_inclusion():
    """embed composes with the inclusion F^3 -> F^4, whose complement is the last axis."""
    incl = tuple(row[:3] for row in ref.identity(4))
    for q in (2, 3):
        F = field(q)
        for v in random.Random(1).sample(vic_morphisms(1, 3, q), 10):
            pushed = tuple(zip(*ref.mat_mul(F, incl, tuple(zip(*v.K)))))
            K, _ = ref.rref(F, pushed + ((0, 0, 0, 1),))
            assert embed(v) == VicMorphism(q=q, f=ref.mat_mul(F, incl, v.f), K=K), v


def test_orbit_count_trivial_group():
    assert numbered_orbit_count(list(range(10)), []) == 10


def test_orbit_count_transitive():
    """The full group on nonzero vectors of the plane: one orbit."""
    F = field(2)
    points = [(0, 1), (1, 0), (1, 1)]
    actions = [
        lambda v, g=unpack(cols, 2): tuple(r[0] for r in ref.mat_mul(F, g, tuple((x,) for x in v)))
        for cols in _generators(2, 2, 0)
    ]
    assert numbered_orbit_count(points, actions) == 1


def test_orbit_count_raises_when_not_closed():
    with pytest.raises(InvariantViolated, match="image 3 of a point is not a point"):
        numbered_orbit_count([1, 2, 3], [lambda x: x + 1])


def test_orbit_partition_labels_every_point_by_its_orbit():
    F = field(2)
    points = vic_morphisms(1, 3, 2)
    index = {v: i for i, v in enumerate(points)}
    a = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    b = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    # number i is points[i] and i + len(points) is no point; one part, so w = 1
    size = 2 * len(points)
    for gens in ([], [a], [a, b]):
        actions = [([index[postcompose(F, h, v)] for v in points], [0]) for h in gens]
        reps, labels = orbit_partition(range(len(points)), size, actions)
        assert [x for x in range(size) if labels[x] != NOT_A_POINT] == list(range(len(points)))
        assert sorted(set(labels[: len(points)])) == list(range(len(reps)))
        assert [labels[r] for r in reps] == list(range(len(reps)))
        assert all(labels[outer[p]] == labels[p] for outer, _ in actions for p in range(len(points)))
    assert len(reps) == 7


def test_space_point_count_check_survives_optimize_flag():
    """The point-count check in _space is not an assert: it holds under -O."""
    script = (
        "import glstab.oracle.counts as c\n"
        "from glstab.errors import InvariantViolated\n"
        "assert False, 'python -O did not strip asserts'\n"
        "c.vic_hom_count = lambda m, n, q: 1\n"
        "try:\n"
        "    c._space(1, 2, 2)\n"
        "except InvariantViolated as exc:\n"
        "    print('raised', exc)\n"
    )
    src = str(Path(glstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised built 6 points of (1,2,2); expected 1")


def test_bfs_equals_burnside_on_coset_space():
    """Both orbit counters on the block subgroup acting on morphisms."""
    for m, n, q in [(1, 2, 2), (1, 3, 2), (1, 3, 3), (2, 3, 2)]:
        F = field(q)
        points = vic_morphisms(m, n, q)
        r = n - m
        subgroup = []
        for g in ref.gl_matrices(r, q):
            rows = tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in range(m)
            ) + tuple((0,) * m + g[i] for i in range(r))
            subgroup.append(rows)
        bfs = numbered_orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in subgroup])
        burnside = burnside_count(points, [lambda v, h=h: postcompose(F, h, v) for h in subgroup])
        assert bfs == burnside == double_cosets_gl(n, m, q)


def test_orbit_count_independent_of_generating_set():
    F = field(2)
    points = vic_morphisms(1, 3, 2)
    # generators of the lower 2x2 block subgroup, embedded two different ways
    a = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    b = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    gens1 = [a, b]
    gens2 = [ref.mat_mul(F, a, b), b]  # different set, same group
    count1 = numbered_orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in gens1])
    count2 = numbered_orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in gens2])
    assert count1 == count2 == 7


def test_double_cosets_landmarks():
    assert double_cosets_gl(4, 0, 3) == 1
    assert double_cosets_gl(2, 1, 2) == 6
    assert double_cosets_gl(3, 1, 2) == 7
    assert double_cosets_gl(3, 1, 3) == 15
    assert double_cosets_gl(2, 2, 2) == 6  # trivial subgroup: every point alone


def test_weakstab_stabilization():
    assert weakstab_cosets(0, 0, 3, 2) == 1
    assert weakstab_cosets(1, 1, 2, 2) == weakstab_cosets(1, 1, 3, 2) == 7
    assert weakstab_cosets(2, 1, 2, 2) == weakstab_cosets(2, 1, 3, 2)


def test_weakstab_surjectivity_threshold():
    assert weakstab_map_surjective(1, 1, 2, 2)
    assert weakstab_map_surjective(1, 1, 3, 2)
    # below the threshold s = 2 the answer is computed all the same
    assert weakstab_map_surjective(1, 1, 1, 2) is False


@pytest.mark.parametrize("call", [weakstab_map_surjective, lambda *args: next(weakstab_sequence(*args))],
                         ids=["weakstab_map_surjective", "weakstab_sequence"])
@pytest.mark.parametrize("ell,m,r", [(-1, 1, 2), (3, 1, -1), (1, 2, 0)])
def test_weakstab_parameters_are_refused_by_one_check(call, ell, m, r):
    """Every weakstab entry refuses a negative ell or r, or m above ell + r, with
    weakstab_cosets' reason, before any space is built."""
    with pytest.raises(BadParameters, match=rf"^bad parameters ell={ell}, m={m}, r={r}$"):
        call(ell, m, r, 2)


@pytest.mark.parametrize(
    "ell,m,r,q,onto",
    [(1, 1, 1, 2, False), (1, 1, 2, 2, True), (2, 1, 1, 2, False), (1, 1, 1, 3, False),
     (0, 2, 2, 2, True), (2, 2, 1, 2, False)],
)
def test_onto_flag_is_the_object_flag(ell, m, r, q, onto):
    """The onto flag, at both values, is the object one: whether the embedded
    morphisms of size n meet every orbit at size n + 1 of diag(1_ell, GL_{r+1}),
    each orbit found by applying every element of the block subgroup."""
    n, F = ell + r, field(q)
    one = ref.identity(ell)
    block = [tuple(row + (0,) * (r + 1) for row in one) + tuple((0,) * ell + row for row in g)
             for g in ref.gl_matrices(r + 1, q)]
    orbit = cache(lambda v: frozenset(postcompose(F, h, v) for h in block))
    orbits = {orbit(v) for v in vic_morphisms(m, n + 1, q)}
    reached = {orbit(embed(v)) for v in vic_morphisms(m, n, q)}
    assert (len(reached) == len(orbits)) is onto
    assert weakstab_map_surjective(ell, m, r, q) is onto


def test_oracle_keeps_no_table_between_calls():
    """Once the field tables exist, two oracle computations leave traced memory
    where it was: no points or orbit table outlives its call."""
    double_cosets_gl(2, 1, 2)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        double_cosets_gl(5, 2, 2)
        weakstab_map_surjective(2, 1, 4, 2)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown


def test_weak_stability_builds_each_orbit_table_once(monkeypatch):
    """Criterion 10 reads its counts and its maps from one walk over the sizes."""
    built = Counter()
    orbit_data = counts._orbit_data

    def counted(*args):
        built[args] += 1
        return orbit_data(*args)

    monkeypatch.setattr(counts, "_orbit_data", counted)
    assert [r.status for r in check_weak_stability(quick=True)] == ["PASS", "PASS"]
    assert built and max(built.values()) == 1, built


def test_conjugacy_class_counts():
    """GL_n(q) has q - 1, q**2 - 1, q**3 - q and q**4 - q classes for n = 1 .. 4
    (Macdonald), at every (n, q) the class guard admits but (3, 4)."""
    cases = [(n, q) for n in (1, 2) for q in (2, 3, 4, 5, 7, 8, 9)] + [(3, 2), (3, 3), (4, 2)]
    for n, q in cases:
        assert conjugacy_class_count(n, q) == [q - 1, q**2 - 1, q**3 - q, q**4 - q][n - 1], (n, q)
    with pytest.raises(GuardExceeded):
        conjugacy_class_count(4, 4)
