"""Group orders, cuspidal counts, Green degrees and the dimension polynomial
of the free module on m generators.

Everything is exact integer arithmetic.  One q-falling factorial,
vic_hom_count(m, n, q) = |G_n| / |G_{n-m}|, also gives the group order.
degree_poly(shape, q) is the integer Green degree at q, one exact
division after equal factors q^e - 1 cancel; degree values overflow 64
bits quickly, so they are Python ints.  The one rational polynomial is the
point-count polynomial that `glstab dims` prints, an {exponent: Fraction}
dict.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod

from . import partitions as pt
from .errors import BadParameters, GuardExceeded, InvariantViolated, integer


# Miller-Rabin bases: the least strong pseudoprime to all twelve is about
# 3.2e23, so the test is exact for every n below 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n) -> bool:
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q):
    """Return (p, k) with q = p**k, or raise BadParameters; q must be below 2**64."""
    return _prime_power(integer("q", q))


@lru_cache(maxsize=None)  # only ints reach it: 4.0 is refused before, never served 4's entry
def _prime_power(q):
    if q >= 2**64:
        raise BadParameters("q must be below 2**64")
    for k in range(1, max(q, 1).bit_length()):
        # below 2**64 the rounded float root is exact whenever q is a k-th power
        p = q if k == 1 else round(q ** (1 / k))
        if p**k == q and _is_prime(p):
            return p, k
    raise BadParameters(f"{q} is not a prime power")


def gl_order(n, q) -> int:
    return vic_hom_count(integer("n", n), n, q)


def _mobius(n) -> int:
    if n == 1:
        return 1
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        else:
            p += 1
    return -out if n > 1 else out


def cuspidal_count(d, q) -> int:
    """Number of cuspidals of degree d at field size q (Moebius inversion)."""
    if integer("degree", d) < 1:
        raise BadParameters("degree must be positive")
    total = sum(_mobius(d // e) * (q**e - 1) for e in range(1, d + 1) if d % e == 0)
    count, rem = divmod(total, d)
    if rem:
        raise InvariantViolated(f"cuspidal count of degree {d} at q={q} is not integral")
    return count


@lru_cache(maxsize=None)
def _part_terms(rows, d):
    """A degree-d part's d * n(rows), d * |rows| and hook exponents d * h (hooks' own at d = 1)."""
    hooks = pt.hooks(rows)
    return d * pt.n_stat(rows), d * sum(rows), hooks if d == 1 else tuple(d * h for h in hooks)


def degree_poly(shape, q) -> int:
    """Green degree at q of the irreducible whose full label has this `Shape` (Green,
    Trans. AMS 1955; Macdonald, Symmetric Functions and Hall Polynomials, Ch. IV):

        q^shift * prod_{i=1..norm} (q^i - 1) / prod_{e in hook_exps} (q^e - 1),

    with shift = sum d * n(rows) and hook_exps the d * h over the hooks h of
    each part of degree d.  The shape here describes a full label at its own
    norm (the iota entry is the padded partition, not a stable tail).
    """
    terms = [_part_terms(rows, d) for d, rows in ((1, shape.iota), *shape.parts) if rows]
    shift, norm = sum(t[0] for t in terms), sum(t[1] for t in terms)
    hook_exps = tuple(e for t in terms for e in t[2])
    # equal factors q^e - 1 cancel first; the reduced quotient is integral iff the original is
    ups, downs = set(range(1, norm + 1)), []
    for e in hook_exps:
        if e in ups:
            ups.remove(e)
        else:
            downs.append(e)
    deg, rem = divmod(q**shift * prod(q**i - 1 for i in ups), prod(q**e - 1 for e in downs))
    if rem:
        raise InvariantViolated(
            f"inexact Green degree quotient at q={q}: shift={shift},"
            f" norm={norm}, hook exponents={hook_exps}"
        )
    return deg


def vic_hom_count(m, n, q) -> int:
    """Number of (injection, complement) pairs from dimension m into n."""
    if not 0 <= integer("m", m) <= integer("n", n):
        raise BadParameters(f"need 0 <= m <= n, got m={m}, n={n}")
    return q ** (m * (n - m)) * prod(q**n - q**i for i in range(m))


def p_polynomial(m, q) -> dict:
    """P with P(q^n) = vic_hom_count(m, n, q) for n >= m, as {exponent: Fraction}.

    P(x) = x^m * prod_{i<m} (x - q^i) / q^(m^2); the variable x stands for q^n.
    """
    if m < 0:
        raise BadParameters("m must be non-negative")
    coeffs = [1]  # prod_{i<m} (x - q^i), constant term first
    for i in range(m):
        coeffs = [a - q**i * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return {m + e: Fraction(c, q ** (m * m)) for e, c in enumerate(coeffs)}


def poly_value(poly, x):
    """Exact value of an {exponent: coefficient} polynomial at x."""
    return sum(c * x**e for e, c in poly.items())
