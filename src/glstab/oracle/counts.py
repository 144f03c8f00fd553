"""Group enumeration, double cosets, and the stabilization checks.

Orbit spaces are the morphism sets from vic.py, but the hot loops run on a
packed encoding: a vector in F_q^n is the integer with its coordinates as
base-q digits (a plain bitmask when q = 2), a point is the fixed-width
concatenation of the m map columns and the n-m reduced-echelon complement
rows, and each group generator acts through a precomputed full
matrix-times-vector table.

Row reduction stays out of the per-point loops.  The space build lists the
complements of each column span once and shares that list among the
injections with that span.  Each generator's action keeps its own table
from complement to reduced image (and from map part to image), so it
reduces each complement subspace at most once.  The span lists live only
inside one `_space` call and the action tables inside one `_orbit_data`
call, so no table carries over from one computation to the next.
"""

from __future__ import annotations

from functools import lru_cache

from ..degrees import gl_order, vic_hom_count
from ..errors import BadParameters, GuardExceeded, InvariantViolated
from . import matrices as mx
from .fields import field
from .orbits import orbit_partition
from .vic import VIC_SPACE_GUARD

GROUP_SCAN_GUARD = 2**24
CLASS_GUARD = 2**21


def enumerate_group(n, q):
    """Every invertible n x n matrix over F_q (full scan, guarded)."""
    if q ** (n * n) > GROUP_SCAN_GUARD:
        raise GuardExceeded("group scan guard exceeded", n=n, q=q)
    F = field(q)
    for mat in mx.all_matrices(n, n, q):
        if mx.rank(F, mat) == n:
            yield mat


def group_generators(n, q):
    """Standard generating set: diag(zeta, 1, ...), one transvection, one cycle."""
    if n < 1:
        raise BadParameters("n must be >= 1")
    F = field(q)
    zeta = F.primitive_element()
    gens = []
    if zeta != 1:
        gens.append(
            tuple(
                tuple((zeta if i == 0 else 1) if i == j else 0 for j in range(n))
                for i in range(n)
            )
        )
    if n >= 2:
        gens.append(
            tuple(
                tuple(1 if i == j or (i, j) == (0, 1) else 0 for j in range(n))
                for i in range(n)
            )
        )
        gens.append(
            tuple(tuple(1 if j == (i - 1) % n else 0 for j in range(n)) for i in range(n))
        )
    return gens


# ---------------------------------------------------------------------------
# packed-vector plumbing


def _vadd(a, b, n, q, F):
    if q == 2:
        return a ^ b
    out, mul = 0, 1
    for _ in range(n):
        out += F.add[a % q][b % q] * mul
        a //= q
        b //= q
        mul *= q
    return out


def _vscale(c, v, n, q, F):
    if q == 2:
        return v if c else 0
    out, mul = 0, 1
    for _ in range(n):
        out += F.mul[c][v % q] * mul
        v //= q
        mul *= q
    return out


def _pivot(v, q):
    """Index of the lowest nonzero base-q digit."""
    i = 0
    while v % q == 0:
        v //= q
        i += 1
    return i


def _rref_bits(rows):
    piv = {}
    for r in rows:
        for p, b in piv.items():
            if r & p:
                r ^= b
        if r:
            p = r & -r
            for pp in piv:
                if piv[pp] & p:
                    piv[pp] ^= r
            piv[p] = r
    return tuple(piv[p] for p in sorted(piv))


def _rref_packed(rows, n, q, F):
    """Reduced echelon form of packed row vectors, sorted by pivot column."""
    if q == 2:
        return _rref_bits(rows)
    digit_rows = []
    for v in rows:
        ds = []
        for _ in range(n):
            ds.append(v % q)
            v //= q
        digit_rows.append(tuple(ds))
    red, _ = mx.rref(F, tuple(digit_rows))
    out = []
    for row in red:
        v, mul = 0, 1
        for d in row:
            v += d * mul
            mul *= q
        out.append(v)
    return tuple(out)


def _matvec_table(h_rows, n, q, F):
    """Image of every packed vector under the matrix, as a flat list."""
    cols = list(zip(*h_rows))
    packed_cols = []
    for col in cols:
        v, mul = 0, 1
        for d in col:
            v += d * mul
            mul *= q
        packed_cols.append(v)
    table = [0] * (q**n)
    stride = 1
    for i in range(n):
        for d in range(1, q):
            base = _vscale(d, packed_cols[i], n, q, F)
            for rest in range(stride):
                table[d * stride + rest] = _vadd(base, table[rest], n, q, F)
        stride *= q
    return table


@lru_cache(maxsize=4)
def _space(m, n, q):
    """All packed points of the morphism space, plus the field width in bits."""
    total = vic_hom_count(m, n, q)
    if total > VIC_SPACE_GUARD:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=total)
    F = field(q)
    B = q**n
    S = (B - 1).bit_length()
    k_bits = S * (n - m)
    points = []
    by_span = {}  # column span -> packed complement keys, shared by its injections

    def pack(vals):
        key = 0
        for v in vals:
            key = (key << S) | v
        return key

    def complements(cols, span):
        basis = _rref_packed(cols, n, q, F)
        pivots = {_pivot(v, q) for v in basis}
        nonpiv = [j for j in range(n) if j not in pivots]
        col_space = sorted(span)
        out = []
        stack = [(0, ())]
        while stack:
            idx, rows = stack.pop()
            if idx == len(nonpiv):
                out.append(pack(_rref_packed(rows, n, q, F)))
                continue
            ej = q ** nonpiv[idx]
            for u in col_space:
                stack.append((idx + 1, rows + (_vadd(ej, u, n, q, F),)))
        return out

    def rec(cols, span):
        if len(cols) == m:
            comps = by_span.get(span)
            if comps is None:
                comps = by_span[span] = complements(cols, span)
            high = pack(cols) << k_bits
            points.extend(high | k for k in comps)
            return
        for v in range(1, B):
            if v not in span:
                bigger = set(span)
                for s in span:
                    for c in range(1, q):
                        bigger.add(_vadd(s, _vscale(c, v, n, q, F), n, q, F))
                rec(cols + (v,), frozenset(bigger))

    rec((), frozenset((0,)))
    if len(points) != total:
        raise InvariantViolated(f"built {len(points)} points of ({m},{n},{q}); expected {total}")
    return tuple(points), S


def _block_subgroup_generators(ell, q, n):
    """Generators of the subgroup fixing the first ell coordinates: diag(1, g)."""
    gens = []
    for g in group_generators(n - ell, q) if n > ell else []:
        rows = []
        for i in range(n):
            if i < ell:
                rows.append(tuple(1 if j == i else 0 for j in range(n)))
            else:
                rows.append((0,) * ell + g[i - ell])
        gens.append(tuple(rows))
    return gens


def _make_action(table, m, n, q, S):
    """The generator's action on packed points.

    A point splits into its map part (the high bits) and its complement (the
    low S*(n-m) bits), and each part's image is kept in a table local to this
    generator: map columns go through the matvec table, and a complement's
    rows go through it and are row-reduced, once per distinct part.
    """
    F = field(q)
    mask = (1 << S) - 1
    r = n - m
    k_bits = S * r
    k_mask = (1 << k_bits) - 1
    m_image = {}  # map part -> its image, already shifted above the complement
    k_image = {}  # complement -> its image in reduced echelon form

    def act(key):
        low = key & k_mask
        img = k_image.get(low)
        if img is None:
            rows, k = [], low
            for _ in range(r):
                rows.append(table[k & mask])
                k >>= S
            img = 0
            for v in _rref_packed(rows, n, q, F):
                img = (img << S) | v
            k_image[low] = img
        high = key >> k_bits
        out = m_image.get(high)
        if out is None:
            out, k, shift = 0, high, k_bits
            for _ in range(m):
                out |= table[k & mask] << shift
                k >>= S
                shift += S
            m_image[high] = out
        return out | img

    return act


@lru_cache(maxsize=8)
def _orbit_data(m, n, q, ell):
    """Orbits of the block subgroup diag(1_ell, GL_{n-ell}) on the morphism space."""
    points, S = _space(m, n, q)
    actions = [
        _make_action(_matvec_table(h, n, q, field(q)), m, n, q, S)
        for h in _block_subgroup_generators(ell, q, n)
    ]
    reps, labels = orbit_partition(points, actions)
    return tuple(reps), labels, S


def double_cosets_gl(n, m, q) -> int:
    """Orbits of the block copy of G_{n-m} on the morphism space from F_q^m.

    Equals the double coset count |G_{n-m} \\ G_n / G_{n-m}| and hence the
    sum of squared multiplicities weighted by class size.
    """
    if not 0 <= m <= n:
        raise BadParameters(f"need 0 <= m <= n, got n={n}, m={m}")
    return len(_orbit_data(m, n, q, m)[0])


def weakstab_cosets(ell, m, r, q) -> int:
    """Orbits of diag(1_ell, G_r) on the morphisms from F_q^m to F_q^{ell+r}."""
    n = ell + r
    if not (0 <= m <= n and ell >= 0 and r >= 0):
        raise BadParameters(f"bad parameters ell={ell}, m={m}, r={r}")
    return len(_orbit_data(m, n, q, ell)[0])


def _embed_point(key, m, n, q, S_old, S_new):
    """Push a packed point forward along F_q^n -> F_q^{n+1}."""
    mask = (1 << S_old) - 1
    vals = []
    k = key
    for _ in range(n):  # m columns + (n - m) rows
        vals.append(k & mask)
        k >>= S_old
    vals.reverse()
    vals.append(q**n)  # new complement row e_{n+1}, pivot after all others
    out = 0
    for v in vals:
        out = (out << S_new) | v
    return out


def weakstab_map_surjective(ell, m, r, q) -> bool:
    """Does every double-coset class at size n+1 come from one at size n?

    Classes at size n = ell + r are embedded via g -> diag(g, 1) and located
    among the classes at n + 1 under the one-larger block subgroup.  The map
    is onto once r >= m + min(m, ell); a smaller r is computed all the same.
    """
    n = ell + r
    reps, _, S_old = _orbit_data(m, n, q, ell)
    reps1, labels1, S_new = _orbit_data(m, n + 1, q, ell)
    hit = {labels1[_embed_point(p, m, n, q, S_old, S_new)] for p in reps}
    return len(hit) == len(reps1)


def conjugacy_class_count(n, q) -> int:
    """Number of conjugation orbits, by BFS over generator conjugations."""
    # |GL_n(q)| >= q**(n*(n-1)) >= 2**bits (q**i - 1 >= q**(i-1)); past 2**16 bits no
    # order prints in decimal, so refuse on the bound, not an n*n*log2(q)-bit product
    bits = n * (n - 1) * (q.bit_length() - 1)
    if bits > 2**16:
        raise GuardExceeded("conjugacy class guard exceeded", n=n, q=q, order=f">= 2**{bits}")
    order = gl_order(n, q)
    if order > CLASS_GUARD:
        raise GuardExceeded("conjugacy class guard exceeded", n=n, q=q, order=order)
    F = field(q)
    elements = list(enumerate_group(n, q))
    actions = []
    for g in group_generators(n, q):
        ginv = mx.inverse(F, g)
        actions.append(lambda x, g=g, ginv=ginv: mx.mat_mul(F, mx.mat_mul(F, g, x), ginv))
    return len(orbit_partition(elements, actions)[0])
