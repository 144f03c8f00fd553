"""Matrix groups, morphism spaces, and orbit counting cross-checks."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import glstab
from glstab.degrees import gl_order, vic_hom_count
from glstab.errors import BadParameters, GuardExceeded, InvariantViolated
from glstab.oracle import matrices as mx
from glstab.oracle.counts import (
    _block_subgroup_generators,
    _make_action,
    _matvec_table,
    _space,
    conjugacy_class_count,
    double_cosets_gl,
    enumerate_group,
    group_generators,
    weakstab_cosets,
    weakstab_map_surjective,
)
from glstab.oracle.fields import field
from glstab.oracle.orbits import burnside_count, orbit_count, orbit_partition
from glstab.oracle.vic import (
    VicMorphism,
    compose,
    embed,
    make_vic,
    standard_morphism,
    vic_morphisms,
)


def bfs_closure(F, gens, n):
    seen = {mx.identity(n)}
    frontier = [mx.identity(n)]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mx.mat_mul(F, g, x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def postcompose(F, h, v):
    """Action of an invertible matrix on a morphism by composition."""
    f = mx.mat_mul(F, h, v.f) if v.m else v.f
    if v.K:
        rows = tuple(zip(*mx.mat_mul(F, h, tuple(zip(*v.K)))))
        rows, _ = mx.rref(F, rows)
    else:
        rows = ()
    return VicMorphism(q=v.q, f=f, K=rows)


def pack_vic(v, S):
    """The packed key of a morphism: map columns, then complement rows, each
    vector as base-q digits in an S-bit field."""
    key = 0
    for vec in (*zip(*v.f), *v.K):
        key = (key << S) | sum(d * v.q**i for i, d in enumerate(vec))
    return key


def test_enumerate_group_counts():
    assert sum(1 for _ in enumerate_group(1, 2)) == 1
    assert sum(1 for _ in enumerate_group(2, 2)) == 6
    assert sum(1 for _ in enumerate_group(2, 3)) == 48
    assert sum(1 for _ in enumerate_group(3, 2)) == 168
    with pytest.raises(GuardExceeded):
        list(enumerate_group(4, 5))


@pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 4), (1, 5)])
def test_generators_generate_the_whole_group(n, q):
    closure = bfs_closure(field(q), group_generators(n, q), n)
    assert len(closure) == gl_order(n, q)


def test_vic_morphism_counts():
    assert len(vic_morphisms(1, 2, 2)) == 6
    assert len(vic_morphisms(1, 3, 2)) == 28
    assert len(vic_morphisms(2, 3, 2)) == 168
    assert len(vic_morphisms(0, 4, 3)) == 1
    with pytest.raises(GuardExceeded):
        vic_morphisms(2, 7, 2)


def test_vic_morphisms_are_distinct_and_valid():
    for m, n, q in [(1, 3, 2), (2, 3, 3), (2, 4, 2)]:
        F = field(q)
        pts = vic_morphisms(m, n, q)
        assert len(set(pts)) == vic_hom_count(m, n, q)
        for v in random.Random(0).sample(pts, 20):
            assert mx.rank(F, v.f) == m
            assert mx.rank(F, v.K + tuple(zip(*v.f))) == n


def test_packed_space_agrees_with_object_enumeration():
    for m, n, q in [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 2, 3), (2, 4, 3), (1, 3, 4)]:
        points, S = _space(m, n, q)
        assert len(points) == len(set(points)) == vic_hom_count(m, n, q)
        assert set(points) == {pack_vic(v, S) for v in vic_morphisms(m, n, q)}


@pytest.mark.parametrize(
    "m,n,q,ell",
    [(1, 3, 2, 1), (2, 3, 2, 1), (2, 4, 2, 2), (1, 3, 3, 0), (2, 3, 3, 1), (1, 3, 4, 1), (1, 2, 4, 0)],
)
def test_packed_action_equals_object_action(m, n, q, ell):
    """Every block generator moves every packed point as composition moves the morphism."""
    F = field(q)
    S = (q**n - 1).bit_length()
    points = vic_morphisms(m, n, q)
    for h in _block_subgroup_generators(ell, q, n):
        act = _make_action(_matvec_table(h, n, q, F), m, n, q, S)
        for v in points:
            assert act(pack_vic(v, S)) == pack_vic(postcompose(F, h, v), S), (h, v)


def test_compose_identity_and_chain():
    f = standard_morphism(1, 2, 2)
    assert compose(standard_morphism(2, 2, 2), f) == f
    chained = compose(standard_morphism(2, 3, 2), f)
    assert chained == standard_morphism(1, 3, 2)
    with pytest.raises(BadParameters):
        compose(f, standard_morphism(2, 3, 2))


def test_compose_associativity_randomized():
    rng = random.Random(7)
    for q in (2, 3):
        small = vic_morphisms(1, 2, q)
        mid = vic_morphisms(2, 3, q)
        big = [embed(v) for v in rng.sample(vic_morphisms(3, 3, q), 30)]
        for _ in range(25):
            f, g, h = rng.choice(small), rng.choice(mid), rng.choice(big)
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_embed_matches_standard_inclusion():
    for q in (2, 3):
        incl = standard_morphism(3, 4, q)
        for v in random.Random(1).sample(vic_morphisms(1, 3, q), 10):
            assert embed(v) == compose(incl, v)


def test_orbit_count_trivial_group():
    assert orbit_count(list(range(10)), []) == 10


def test_orbit_count_transitive():
    """The full group on nonzero vectors of the plane: one orbit."""
    F = field(2)
    points = [(0, 1), (1, 0), (1, 1)]
    actions = [
        lambda v, g=g: tuple(r[0] for r in mx.mat_mul(F, g, tuple((x,) for x in v)))
        for g in group_generators(2, 2)
    ]
    assert orbit_count(points, actions) == 1


def test_orbit_count_raises_when_not_closed():
    with pytest.raises(InvariantViolated):
        orbit_count([1, 2, 3], [lambda x: x + 1])


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
        for g in enumerate_group(r, q) if r else [()]:
            rows = tuple(
                tuple(1 if j == i else 0 for j in range(n)) for i in range(m)
            ) + tuple((0,) * m + g[i] for i in range(r))
            subgroup.append(rows)
        bfs = orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in subgroup])
        burnside = burnside_count(points, [lambda v, h=h: postcompose(F, h, v) for h in subgroup])
        assert bfs == burnside == double_cosets_gl(n, m, q)


def test_orbit_count_independent_of_generating_set():
    F = field(2)
    points = vic_morphisms(1, 3, 2)
    # generators of the lower 2x2 block subgroup, embedded two different ways
    a = ((1, 0, 0), (0, 0, 1), (0, 1, 0))
    b = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
    gens1 = [a, b]
    gens2 = [mx.mat_mul(F, a, b), b]  # different set, same group
    count1 = orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in gens1])
    count2 = orbit_count(points, [lambda v, h=h: postcompose(F, h, v) for h in gens2])
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
    assert isinstance(weakstab_map_surjective(1, 1, 1, 2), bool)


def test_conjugacy_class_counts():
    assert conjugacy_class_count(2, 2) == 3
    assert conjugacy_class_count(2, 3) == 8
    assert conjugacy_class_count(3, 2) == 6
    with pytest.raises(GuardExceeded):
        conjugacy_class_count(4, 4)


def test_make_vic_validation():
    with pytest.raises(Exception):
        make_vic(2, ((1,), (1,)), ((1, 1),))  # complement meets the image
    v = make_vic(2, ((1,), (1,)), ((0, 1),))
    assert v.K == ((0, 1),)
