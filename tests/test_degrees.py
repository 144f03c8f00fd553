"""Group orders, cuspidal counts, Green degrees, the point-count polynomial."""

from fractions import Fraction
from math import prod

import pytest

from glstab import degrees
from glstab import partitions as pt
from glstab.branching import count_zigzag
from glstab.degrees import (
    cuspidal_count,
    degree_poly,
    gl_order,
    p_polynomial,
    poly_value,
    prime_power,
    vic_hom_count,
)
from glstab.errors import BadParameters, GuardExceeded, InvariantViolated
from glstab.labels import enumerate_shapes, make_shape, trivial_label
from glstab.verification import sum_degree_squares_check

def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert prime_power((2**31 - 1) ** 2) == (2**31 - 1, 2)
    assert prime_power(3**40) == (3, 40)
    # a semiprime of two 31-bit primes, the least strong pseudoprime to the
    # prime bases up to 23, values outside 2..2**64 - 1, and non-integers
    for bad in (0, 1, 6, 12, 100, (2**31 - 1) * 2147483629, 3825123056546413051, 2**64, 2.0, "2"):
        with pytest.raises(BadParameters):
            prime_power(bad)


def test_cached_prime_power_still_refuses_what_is_no_integer():
    """A cached answer for 4 is never served to 4.0 or True, nor to a q that cannot be
    a cache key: each is refused by the integer rule or as no prime power, as before
    the cache."""
    assert prime_power(4) == (2, 2)
    for bad, message in [(4.0, "q must be an integer, got 4.0"), (True, "True is not a prime power"),
                         ([4], "q must be an integer, got [4]")]:
        with pytest.raises(BadParameters) as refused:
            prime_power(bad)
        assert str(refused.value) == message
    with pytest.raises(BadParameters, match="q must be an integer, got 4.0"):
        count_zigzag(trivial_label(1), trivial_label(2), 1, 4.0)


def test_prime_power_matches_trial_division():
    def by_trial_division(q):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        k = 0
        while q % p == 0:
            q, k = q // p, k + 1
        return (p, k) if q == 1 else None

    for q in range(2, 5000):
        expected = by_trial_division(q)
        if expected is None:
            with pytest.raises(BadParameters):
                prime_power(q)
        else:
            assert prime_power(q) == expected


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    """Long division of integer coefficient lists (constant term first) by a
    divisor with leading coefficient 1."""
    assert den[-1] == 1
    rem, quot = list(num), [0] * max(len(num) - len(den) + 1, 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = rem[shift + len(den) - 1]
        quot[shift] = c
        for j, y in enumerate(den):
            rem[shift + j] -= c * y
    return quot, rem


def _q_minus_one(e):
    """Coefficients of q^e - 1."""
    return [-1] + [0] * (e - 1) + [1]


def _green_quotient(shape):
    """Green's degree polynomial of a full label, by long division."""
    parts = ([(1, shape.iota)] if shape.iota else []) + list(shape.parts)
    num = [0] * sum(d * pt.n_stat(rows) for d, rows in parts) + [1]
    for i in range(1, shape.norm() + 1):
        num = _poly_mul(num, _q_minus_one(i))
    den = [1]
    for d, rows in parts:
        for h in pt.hooks(rows):
            den = _poly_mul(den, _q_minus_one(d * h))
    quot, rem = _poly_divmod(num, den)
    assert not any(rem), shape
    return quot


def test_integer_degree_equals_polynomial_quotient():
    for n in range(7):
        for shape in enumerate_shapes(n):
            quot = _green_quotient(shape)
            for q in (2, 3, 4, 5, 7, 8, 9):
                deg = degree_poly(shape, q)
                assert deg == sum(c * q**e for e, c in enumerate(quot)), (shape, q)
                assert gl_order(n, q) % deg == 0, (shape, q)


def test_inexact_degree_quotient_raises(monkeypatch):
    # a hook of length 2 on a one-box label: (q - 1) / (q^2 - 1) is not an integer.
    # The per-part cache is emptied around the patch: before it, so the patched hooks
    # are read, and after it, so no term of the patch outlives the test.
    degrees._part_terms.cache_clear()
    monkeypatch.setattr(pt, "hooks", lambda rows: (2,))
    try:
        with pytest.raises(InvariantViolated):
            degree_poly(make_shape((1,), ()), 2)
    finally:
        degrees._part_terms.cache_clear()


def test_gl_orders():
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(3, 2) == 168
    assert gl_order(2, 3) == 48
    assert gl_order(0, 5) == 1
    # the other factorisation of the order: q^(n(n-1)/2) * prod_{i=1..n} (q^i - 1)
    for n, q in [(1, 2), (2, 2), (3, 2), (2, 3), (4, 3), (5, 4)]:
        assert gl_order(n, q) == q ** (n * (n - 1) // 2) * prod(q**i - 1 for i in range(1, n + 1))


def test_gl_order_matches_enumeration():
    from vic_reference import gl_matrices

    for n, q in [(1, 2), (1, 3), (1, 4), (1, 5), (2, 2), (2, 3), (3, 2)]:
        assert len(gl_matrices(n, q)) == gl_order(n, q)


def test_cuspidal_counts():
    # degree 1: the q - 1 characters of the multiplicative group
    assert [cuspidal_count(1, q) for q in (2, 3, 4, 5)] == [1, 2, 3, 4]
    # degree 2: q(q-1)/2
    assert [cuspidal_count(2, q) for q in (2, 3, 4, 5)] == [1, 3, 6, 10]
    assert cuspidal_count(3, 2) == 2
    assert cuspidal_count(4, 2) == 3
    assert cuspidal_count(6, 2) == 9


def test_degree_formula_landmarks():
    # trivial representation
    assert degree_poly(make_shape((3,), ()), 2) == 1
    # Steinberg: column iota partition, degree q^{n(n-1)/2}
    for n, q in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        st_deg = degree_poly(make_shape((1,) * n, ()), q)
        assert st_deg == q ** (n * (n - 1) // 2)
    # the 6-dimensional and 8-dimensional irreducibles of the 168-element group
    assert degree_poly(make_shape((2, 1), ()), 2) == 6
    assert degree_poly(make_shape((), [(1, (2, 1))]), 2) == 6
    # mixed iota + degree-2 cuspidal, and the two cuspidal irreducibles of degree 3
    assert degree_poly(make_shape((1,), [(2, (1,))]), 2) == 7
    assert degree_poly(make_shape((), [(3, (1,))]), 2) == 3


def test_large_norm_degree_cancels_before_multiplying():
    # (n-1, 1) has degree q (q^(n-1) - 1) / (q - 1); its hook exponents are
    # 1..n without n - 1, plus a second 1
    n = 20000
    assert degree_poly(make_shape((n - 1, 1), ()), 2) == 2 * (2 ** (n - 1) - 1)
    assert degree_poly(make_shape((n,), ()), 3) == 1


def test_degree_census_guard():
    assert sum_degree_squares_check(3, 2)
    with pytest.raises(GuardExceeded):
        sum_degree_squares_check(6, 2)


def test_point_count_polynomial():
    for m in range(4):
        for q in (2, 3, 4):
            poly = p_polynomial(m, q)
            for n in range(m, m + 5):
                assert poly_value(poly, q**n) == vic_hom_count(m, n, q)
    # x (x - 1) / 2 and x^2 (x - 1) (x - 2) / 16
    assert p_polynomial(1, 2) == {1: Fraction(-1, 2), 2: Fraction(1, 2)}
    assert p_polynomial(2, 2) == {2: Fraction(1, 8), 3: Fraction(-3, 16), 4: Fraction(1, 16)}
    assert vic_hom_count(1, 2, 2) == 6
    assert vic_hom_count(2, 3, 2) == 168


def test_vic_hom_count_is_order_quotient():
    for m in range(4):
        for n in range(m, m + 4):
            for q in (2, 3, 5):
                assert vic_hom_count(m, n, q) == gl_order(n, q) // gl_order(n - m, q)
    with pytest.raises(BadParameters):
        vic_hom_count(3, 2, 2)
