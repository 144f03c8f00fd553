"""Plain concrete enumeration against the symmetry-reduced DP, from every start."""

import pytest

from glstab.branching import count_zigzag
from glstab.concrete import count_zigzag_concrete
from glstab.errors import BadParameters
from glstab.labels import enumerate_shapes, label_of_shape, make_shape


def test_concrete_equals_dp_on_all_small_shape_pairs():
    """Every pair of shape representatives with norms ell <= 2 and ell + m <= 4;
    criterion 8 only starts from trivial labels."""
    pairs, nonzero, bad = 0, 0, []
    for q in (2, 3, 4):
        for ell in range(3):
            for m in (1, 2):
                if ell + m > 4:
                    continue
                for src in enumerate_shapes(ell):
                    for dst in enumerate_shapes(ell + m):
                        nu, mu = label_of_shape(src), label_of_shape(dst)
                        try:
                            fast = count_zigzag(nu, mu, m, q)
                        except BadParameters:
                            continue  # more cuspidals than q has
                        slow = count_zigzag_concrete(nu, mu, m, q)
                        pairs += 1
                        nonzero += fast != 0
                        if fast != slow:
                            bad.append((q, src, dst, fast, slow))
    assert bad == []
    assert (pairs, nonzero) == (831, 695)


def test_concrete_refuses_labels_beyond_the_pool():
    # q = 2 has one degree-1 cuspidal, iota; the DP refuses the same pair
    nu = label_of_shape(make_shape((), [(1, (1,))]))
    mu = label_of_shape(make_shape((), [(1, (2,))]))
    with pytest.raises(BadParameters):
        count_zigzag_concrete(nu, mu, 1, 2)
    with pytest.raises(BadParameters):
        count_zigzag(nu, mu, 1, 2)
    assert count_zigzag_concrete(nu, mu, 1, 3) == count_zigzag(nu, mu, 1, 3) == 1
