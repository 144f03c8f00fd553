"""Stability reports, the consecutive-size path-count equality, support bounds."""

import pytest

from glstab.branching import (
    Decomposition,
    DecompositionEntry,
    _can_reach,
    _new_context,
    _pin_anonymous,
    _reaching,
    decompose_perm_module,
)
from glstab.errors import BadParameters
from glstab.labels import IOTA, Label, canonical, label_of_shape, make_shape, pad, trivial_label
from glstab.stability import (
    StabilityReport,
    check_h_bijection,
    empirical_stability_degree,
    stable_decomposition,
    support_bounds_check,
)


def test_stable_decomposition_m0():
    dec = stable_decomposition(0, 3)
    assert len(dec.entries) == 1
    assert dec.entries[0].multiplicity == 1


def test_stable_decomposition_m1_q2():
    dec = stable_decomposition(1, 2)
    assert len(dec.entries) == 4
    assert dec.sum_squares() == 7


def test_stable_decomposition_m1_q3():
    dec = stable_decomposition(1, 3)
    assert len(dec.entries) == 7
    assert dec.sum_squares() == 15  # oracle-confirmed double coset count


def test_report_m0():
    report = empirical_stability_degree(0, 2, 3)
    assert report.observed_stability_degree == 0
    assert report.bound_satisfied


def test_report_states_its_onset_and_bound():
    """A report built without its observed onset and bound verdict is refused, so none
    claims the 3m bound by default."""
    with pytest.raises(TypeError):
        StabilityReport(m=1, q=2, n_max=3, decompositions={})


def test_report_m1():
    report = empirical_stability_degree(1, 2, 6)
    assert report.observed_stability_degree <= 3
    assert report.bound_satisfied
    maps = [report.decompositions[n].stable_map() for n in range(3, 7)]
    assert all(mp == maps[0] for mp in maps)


def test_report_m2():
    report = empirical_stability_degree(2, 2, 8)
    assert report.observed_stability_degree <= 6
    assert report.bound_satisfied


def test_report_requires_window_past_bound():
    with pytest.raises(BadParameters):
        empirical_stability_degree(2, 2, 5)


def test_h_bijection_landmarks():
    assert check_h_bijection(1, 3, 2, Label({IOTA: (1,)}))
    assert check_h_bijection(1, 5, 3, Label())
    assert check_h_bijection(2, 6, 2, label_of_shape(make_shape((), [(2, (1,))])))


def test_h_bijection_strictness():
    lam = Label({IOTA: (1,)})
    with pytest.raises(BadParameters):
        check_h_bijection(1, 2, 2, lam)


def test_h_bijection_everywhere_in_stable_support():
    for m, q in [(1, 2), (1, 3), (2, 2)]:
        dec = stable_decomposition(m, q)
        for e in dec.entries:
            for ell in (3 * m, 3 * m + 1):
                assert check_h_bijection(m, ell, q, label_of_shape(e.shape))


def test_support_bounds_hold_on_computed_decompositions():
    for n, m, q in [(3, 1, 2), (4, 1, 3), (6, 2, 2), (7, 2, 2), (9, 3, 2)]:
        assert support_bounds_check(decompose_perm_module(n, m, q))


def test_support_bounds_adversarial_entry():
    """A fabricated shape just past either bound must be rejected."""
    base = stable_decomposition(1, 2)
    too_big = DecompositionEntry(
        shape=make_shape((1,), [(1, (1, 1))]), multiplicity=1, class_size=1, degree=1
    )
    fat_row = DecompositionEntry(
        shape=make_shape((2,), ()), multiplicity=1, class_size=1, degree=1
    )
    for bad in (too_big, fat_row):
        dec = Decomposition(n=3, m=1, q=2, entries=base.entries + (bad,))
        assert not support_bounds_check(dec)


def margin_walk(m, q, tail, n):
    """Walk the DP states from trivial_label(n - m) towards pad(tail, n), as
    count_zigzag does (pinned support, target pruning after each down-move).

    Returns (states read, whether every one has an iota partition whose first
    row is longer than its second): the margin that keeps tilde well defined
    along the paths.  The walk reads every down-successor (the reach rule
    does), every up-successor it steps on before the last pair, and at the end
    only the target, which the last down-move's survivors reach in one way each.
    """
    nu = _pin_anonymous(trivial_label(n - m))
    target = canonical(_pin_anonymous(pad(label_of_shape(make_shape(tail, ())), n)))
    ctx = _new_context(q, tuple(sorted(k for k, _ in target if k[0] == "named")))
    goal = dict(target)
    states, visited, holds = {canonical(nu)}, 0, True
    for s in range(1, m + 1):
        after_down = {succ for st in states for succ, _ in ctx.down(st)}
        kept = [st for st, _ in _reaching(dict.fromkeys(after_down, 1), goal, m - s + 1, _can_reach)]
        if s < m:
            states = {succ for st in kept for succ, _ in ctx.up(st, nu.norm() + s)}
        else:
            states = {target} if kept else set()
        for state in after_down | states:
            rows = dict(state).get(IOTA, ()) + (0, 0)
            visited += 1
            holds = holds and rows[0] > rows[1]
    return visited, holds


def test_first_row_margin_in_stable_range():
    for m, q, tail in [(1, 2, (1,)), (2, 2, (2,)), (2, 3, (1, 1))]:
        visited, holds = margin_walk(m, q, tail, 3 * m)
        assert visited > 0 and holds, (m, q, tail)
        # one below the threshold the margin fails somewhere on the walk
        visited, holds = margin_walk(m, q, tail, 3 * m - 1)
        assert visited > 0 and not holds, (m, q, tail)
