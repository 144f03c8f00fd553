"""Dense arithmetic tables for the finite fields of order at most 9.

Elements are encoded as integers 0..q-1; for q = p^k the integer's base-p
digits are the coefficients of a polynomial in x, and the tables add and
multiply these polynomials modulo a fixed monic irreducible of degree k:

    q = 2, 3, 5, 7:  x  (so the tables are the integers mod p)
    q = 4:           x^2 + x + 1
    q = 8:           x^3 + x + 1
    q = 9:           x^2 + 1

Table lookup keeps inner enumeration loops branch-free and exact.
"""

from __future__ import annotations

from functools import lru_cache

from ..degrees import prime_power
from ..errors import BadParameters

# the modulus for each q = p^k: coefficients low-to-high, monic of degree k
_MODULUS = {2: (0, 1), 3: (0, 1), 4: (1, 1, 1), 5: (0, 1), 7: (0, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}

MAX_Q = 9


def _digits(e, p, k):
    out = []
    for _ in range(k):
        out.append(e % p)
        e //= p
    return out


def _undigits(ds, p):
    out = 0
    for d in reversed(ds):
        out = out * p + d
    return out


def _poly_mul_mod(a, b, p, irr):
    k = len(irr) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for j in range(k + 1):
                prod[top - k + j] = (prod[top - k + j] - c * irr[j]) % p
    return prod[:k]


class Field:
    """Arithmetic tables for F_q; elements are the integers 0..q-1."""

    __slots__ = ("q", "p", "add", "mul", "neg", "inv")

    def __init__(self, q):
        p, k = prime_power(q)
        if q > MAX_Q:
            raise BadParameters(f"field tables only built for q <= {MAX_Q}")
        self.q, self.p = q, p
        irr = _MODULUS[q]
        digits = [_digits(a, p, k) for a in range(q)]
        self.add = tuple(
            tuple(_undigits([(x + y) % p for x, y in zip(da, db)], p) for db in digits)
            for da in digits
        )
        self.mul = tuple(
            tuple(_undigits(_poly_mul_mod(da, db, p, irr), p) for db in digits) for da in digits
        )
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        self.inv = (None,) + tuple(
            next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)
        )

    def primitive_element(self):
        for a in range(2, self.q):
            x, order = a, 1
            while x != 1:
                x, order = self.mul[x][a], order + 1
            if order == self.q - 1:
                return a
        return 1  # q = 2

    def __repr__(self):
        return f"Field({self.q})"


@lru_cache(maxsize=None)
def field(q) -> Field:
    return Field(q)
