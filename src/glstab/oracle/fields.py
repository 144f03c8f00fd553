"""Dense arithmetic tables for the finite fields of order at most 9.

Elements are encoded as integers 0..q-1; for q = p^k the integer's base-p
digits are the coefficients of a polynomial in the generator x, reduced
modulo a fixed irreducible polynomial:

    q = 4:  x^2 + x + 1
    q = 8:  x^3 + x + 1
    q = 9:  x^2 + 1

Table lookup keeps inner enumeration loops branch-free and exact.
"""

from __future__ import annotations

from functools import lru_cache

from ..degrees import prime_power
from ..errors import BadParameters

# coefficients low-to-high, monic of degree k
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (3, 2): (1, 0, 1),
}

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

    __slots__ = ("q", "p", "k", "add", "mul", "neg", "inv")

    def __init__(self, q):
        p, k = prime_power(q)
        if q > MAX_Q:
            raise BadParameters(f"field tables only built for q <= {MAX_Q}")
        self.q, self.p, self.k = q, p, k
        if k == 1:
            self.add = tuple(tuple((a + b) % p for b in range(q)) for a in range(q))
            self.mul = tuple(tuple((a * b) % p for b in range(q)) for a in range(q))
        else:
            irr = _IRREDUCIBLE[(p, k)]
            self.add = tuple(
                tuple(
                    _undigits(
                        [(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))],
                        p,
                    )
                    for b in range(q)
                )
                for a in range(q)
            )
            self.mul = tuple(
                tuple(
                    _undigits(_poly_mul_mod(_digits(a, p, k), _digits(b, p, k), p, irr), p)
                    for b in range(q)
                )
                for a in range(q)
            )
        self.neg = tuple(next(b for b in range(q) if self.add[a][b] == 0) for a in range(q))
        self.inv = (None,) + tuple(
            next(b for b in range(1, q) if self.mul[a][b] == 1) for a in range(1, q)
        )

    def sub(self, a, b):
        return self.add[a][self.neg[b]]

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
