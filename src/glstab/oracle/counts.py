"""Morphism spaces, double cosets, conjugacy classes and the stabilization checks.

The orbit spaces are the morphism spaces: pairs of an injection F_q^m -> F_q^n
and a complement of its image, the points of k[G_n/G_{n-m}].  `_space` is their
one enumeration.  A vector in F_q^n is packed, the integer with its coordinates
as base-q digits; a complement is the key of its n-m reduced-echelon rows in
fixed-width slots; a point is a number.  Each group generator is its n packed
columns and acts through a precomputed full matrix-times-vector table.  Every
q takes the same path: packed vectors are added, scaled and reduced through the
field tables.

The space build does no row reduction: it lists each complement once,
directly in reduced echelon form (one Schubert cell per pivot set), and
pairs it with the injections whose image it complements, as cosets of the
complement, and numbers each point a*w + b as it lists it: b is the index of
its complement among the w complements, a its m map columns as base-q**n
digits.  A generator is the matvec table folded over the m columns and the rank
of each complement's reduced image.  No table outlives its call.
`weakstab_sequence` reads each size on its own: the classes met from one size
down are the labels of the points whose columns have no top digit and whose
complement's last row is the top axis.

At m = n the space is GL_n itself, with one (empty) complement, so a number is
a matrix's n columns as base-q**n digits; `conjugacy_class_count` conjugates
those columns through each generator's matvec table and its inverse.
"""

from __future__ import annotations

from itertools import combinations, count, product

from ..degrees import gl_order, prime_power, vic_hom_count
from ..errors import BadParameters, GuardExceeded, InvariantViolated, integer
from .fields import field
from .orbits import NOT_A_POINT, orbit_partition

VIC_SPACE_GUARD = 2**22
# q**n, the size of each generator's matvec table.  A space from F_q^m, m >= 1, has
# at least a line's (q**n - 1) * q**(n - 1) points, so within VIC_SPACE_GUARD (2**22)
# its q**n is at most 2**12 (4**6 and 8**4); only m = 0, one point, reaches past it.
VECTOR_GUARD = 2**12
CLASS_GUARD = 2**18


def space_size(m, n, q) -> int:
    """vic_hom_count(m, n, q), refused past VIC_SPACE_GUARD.  The count is at least
    q**(m*(2n-m-1)) >= 2**bits (q**n - q**i >= q**(n-1)); past 2**16 bits no count
    prints in decimal, so refuse on that bound, not an m*n*log2(q)-bit product."""
    prime_power(q)  # refuses a q that is no prime power before q.bit_length() is read
    integer("m", m), integer("n", n)
    bits = m * (2 * n - m - 1) * (q.bit_length() - 1)
    if bits > 2**16:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=f">= 2**{bits}")
    total = vic_hom_count(m, n, q)
    if total > VIC_SPACE_GUARD:
        raise GuardExceeded("morphism space exceeds guard", m=m, n=n, q=q, count=total)
    return total


# ---------------------------------------------------------------------------
# packed-vector plumbing


def _axpy(a, c, b, q, F):
    """a + c*b for packed vectors over F_q, digit by digit through the field tables."""
    add, mul = F.add, F.mul[c]
    out, unit = 0, 1
    while a or b:
        out += add[a % q][mul[b % q]] * unit
        a //= q
        b //= q
        unit *= q
    return out


def _rref_packed(rows, q, F):
    """Reduced echelon form of packed row vectors, sorted by pivot column: a row's
    pivot is its lowest nonzero digit, scaled to 1 and cleared from the other rows."""
    piv = {}  # q**(pivot column) -> its row
    for r in rows:
        for p, b in piv.items():
            if d := r // p % q:
                r = _axpy(r, F.neg[d], b, q, F)
        if r:
            p = 1
            while not r // p % q:
                p *= q
            r = _axpy(0, F.inv[r // p % q], r, q, F)
            for pp, b in piv.items():
                if d := b // p % q:
                    piv[pp] = _axpy(b, F.neg[d], r, q, F)
            piv[p] = r
    return tuple(piv[p] for p in sorted(piv))


def _generators(n, q, ell):
    """Generators of diag(1_ell, GL_{n-ell}), each as its n packed columns:
    diag(zeta, 1, ...), one transvection and one cycle on the last n - ell
    coordinates; none when ell = n."""
    k = n - ell
    if k < 1:
        return []
    zeta = field(q).primitive_element()
    gens = [[zeta] + [q**j for j in range(1, k)]] if zeta != 1 else []
    if k >= 2:
        gens.append([1, q + 1] + [q**j for j in range(2, k)])
        gens.append([q ** ((j + 1) % k) for j in range(k)])
    return [[q**i for i in range(ell)] + [c * q**ell for c in g] for g in gens]


def _matvec_table(cols, n, q, F):
    """Image of every packed vector under the matrix of packed columns `cols`."""
    table = [0] * (q**n)
    stride = 1
    for col in cols:
        for d in range(1, q):
            for rest in range(stride):
                table[d * stride + rest] = _axpy(table[rest], d, col, q, F)
        stride *= q
    return table


def _space(m, n, q):
    """Every point of the morphism space as its number a*w + b, plus the w
    complements as packed rows.

    For each pivot set, every complement C with those pivots is listed in
    reduced echelon form: row i is q**p_i plus free digits at the non-pivot
    coordinates above p_i; b is C's index in that listing.  The coordinate
    subspace E on the other m coordinates is a complement of C, so the
    injections whose image meets C only in 0 are the column tuples a_i + c_i
    with (a_i) an ordered basis of E and each c_i in C; a reads those m
    columns as base-q**n digits, column 0 highest.  E's ordered bases are
    listed once per call, and each coset a + C once per C.
    """
    total = space_size(m, n, q)  # refuses a space past the guard
    # the complement's span and each generator's table have q**n entries, even at m = 0
    if n * (q.bit_length() - 1) > VECTOR_GUARD.bit_length() - 1 or q**n > VECTOR_GUARD:
        raise GuardExceeded("vector space exceeds guard", n=n, q=q)
    F = field(q)
    S = (q**n - 1).bit_length()
    # each complement pairs with the |GL_m| * q**(m*(n-m)) injections whose image complements it
    w = total // (vic_hom_count(m, m, q) * q ** (m * (n - m)))
    size = q**m  # E, in local coordinates: the packed vectors of F_q^m
    add = [[_axpy(x, 1, y, q, F) for y in range(size)] for x in range(size)]
    scale = [[_axpy(0, c, x, q, F) for x in range(size)] for c in range(q)]
    digits = [q ** (n * (m - 1 - i)) * w for i in range(m)]  # column i's weight in a*w + b
    # E's ordered bases as a tree: choices[i] lists, for each partial basis of i
    # vectors in order, the vectors off its span
    choices, spans = [], [{0}]
    for i in range(m):
        choices.append([[a for a in range(1, size) if a not in span] for span in spans])
        if i < m - 1:  # the spans of whole bases, all of E, are never read
            spans = [span | {add[s][scale[c][a]] for s in span for c in range(1, q)}
                     for span, after in zip(spans, choices[i]) for a in after]
    points, complements = [], []
    for piv in combinations(range(n), n - m):
        others = [j for j in range(n) if j not in piv]
        to_packed = [sum(a // q**t % q * q**j for t, j in enumerate(others)) for a in range(size)]
        # row i's free part: a local vector with no digit below p_i, that is a
        # multiple of q**(the number of non-pivot coordinates below p_i)
        free = [range(0, size, q ** sum(j < p for j in others)) for p in piv]
        for fs in product(*free):
            key = 0
            for p, f in zip(piv, fs):
                key = (key << S) | (q**p + to_packed[f])
            # C as (pivot digits, local part) pairs; the two parts share no digit
            span = [(0, 0)]
            for p, f in zip(piv, fs):
                span += [(x + t * q**p, add[e][scale[t][f]]) for t in range(1, q) for x, e in span]
            cosets = [None] + [
                [[(x + to_packed[add[a][e]]) * d for x, e in span] for d in digits]
                for a in range(1, size)
            ]
            parts = [[len(complements)]]  # the points begun by each partial basis, in order
            complements.append(key)
            for i, avail in enumerate(choices):
                parts = [[p + v for p in part for v in cosets[a][i]]
                         for part, after in zip(parts, avail) for a in after]
            for part in parts:
                points += part
    if len(points) != total or len(complements) != w:
        raise InvariantViolated(f"built {len(points)} points of ({m},{n},{q}); expected {total}")
    return points, complements


def _part_image(table, part, rows, S, q, F):
    """A complement's image: its `rows` S-bit rows, highest first, each sent
    through the matvec table, row-reduced and packed again."""
    mask = (1 << S) - 1
    out = 0
    for v in _rref_packed([table[part >> S * i & mask] for i in range(rows - 1, -1, -1)], q, F):
        out = (out << S) | v
    return out


def _orbit_data(m, n, q, ell):
    """Orbits of the block subgroup diag(1_ell, GL_{n-ell}) on the morphism space:
    the representatives as numbers, the orbit label of every number below
    q**(n*m) * w (NOT_A_POINT where no point is), and the w complements."""
    numbers, lows = _space(m, n, q)
    F = field(q)
    Q, w, S = q**n, len(lows), (q**n - 1).bit_length()
    low_rank = {x: i for i, x in enumerate(lows)}
    actions = []
    for cols in _generators(n, q, ell):
        table = _matvec_table(cols, n, q, F)
        outer = [0]  # a map's image, its columns as base-Q digits
        for _ in range(m):
            outer = [x * Q + t for x in outer for t in table]
        try:
            inner = [low_rank[_part_image(table, x, n - m, S, q, F)] for x in lows]
        except KeyError as exc:
            raise InvariantViolated(f"part image {exc.args[0]} is not a part of a point") from None
        actions.append(([x * w for x in outer], inner))
    numbers = iter(numbers)  # the list goes once the search has marked the points
    reps, labels = orbit_partition(numbers, Q**m * w, actions)
    return reps, labels, lows


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
    return next(weakstab_sequence(ell, m, r, q))[0]


def _from_below(labels, lows, m, n, q):
    """The classes, under labels of size n, of the points from size n - 1 pushed
    along g -> diag(g, 1): those whose m columns have no e_(n-1) digit and whose
    complement holds e_(n-1), that is, whose key's last row is e_(n-1)."""
    Q, top, w, S = q**n, q ** (n - 1), len(lows), (q**n - 1).bit_length()
    grown = [b for b, key in enumerate(lows) if key & (1 << S) - 1 == top]
    outer = [0]  # every a whose m columns lie in F_q^(n-1), ready to take b
    for _ in range(m):
        outer = [x * Q + c for x in outer for c in range(top)]
    return {labels[a * w + b] for a in outer for b in grown} - {NOT_A_POINT}


def weakstab_sequence(ell, m, r, q):
    """Yield (classes, onto) at r, r + 1, ...: the orbits of diag(1_ell, G_r) on the
    morphisms from F_q^m to F_q^{ell+r}, and whether the classes one size down,
    embedded via g -> diag(g, 1), reach every class here (None at the first r).
    Each size is read on its own table, which goes before the next is built."""
    if not (0 <= m <= ell + r and ell >= 0 and r >= 0):
        raise BadParameters(f"bad parameters ell={ell}, m={m}, r={r}")
    for n in count(ell + r):
        reps, labels, lows = _orbit_data(m, n, q, ell)
        onto = None if n == ell + r else len(_from_below(labels, lows, m, n, q)) == len(reps)
        labels = None  # drop the orbit table
        yield len(reps), onto


def weakstab_map_surjective(ell, m, r, q) -> bool:
    """Does every double-coset class at size n+1 come from one at size n?

    Classes at size n = ell + r are embedded via g -> diag(g, 1) and located
    among the classes at n + 1 under the one-larger block subgroup.  The map
    is onto once r >= m + min(m, ell); a smaller r is computed all the same.
    """
    steps = weakstab_sequence(ell, m, r, q)
    next(steps)
    return next(steps)[1]


def conjugacy_class_count(n, q) -> int:
    """Number of conjugation orbits on GL_n(F_q), the morphism space at m = n,
    by BFS over generator conjugations."""
    if integer("n", n) < 1:
        raise BadParameters("n must be >= 1")
    prime_power(q)  # refuses a q that is no prime power before q.bit_length() is read
    # |GL_n(q)| >= q**(n*(n-1)) >= 2**bits (q**i - 1 >= q**(i-1)); past 2**16 bits no
    # order prints in decimal, so refuse on the bound, not an n*n*log2(q)-bit product
    bits = n * (n - 1) * (q.bit_length() - 1)
    if bits > 2**16:
        raise GuardExceeded("conjugacy class guard exceeded", n=n, q=q, order=f">= 2**{bits}")
    order = gl_order(n, q)
    if order > CLASS_GUARD:
        raise GuardExceeded("conjugacy class guard exceeded", n=n, q=q, order=order)
    F = field(q)  # refuses a q with no tables before _space's vector guard can
    Q = q**n
    # one complement (w = 1): each number is the n columns as base-Q digits, column 0 highest
    elements = _space(n, n, q)[0]
    actions = []
    for g in _generators(n, q, 0):
        table = _matvec_table(g, n, q, F)
        preimages = [table.index(q**j) for j in range(n)]  # g^-1 e_j: g permutes F_q^n
        # each as its nonzero (coordinate, digit) pairs
        back = [[(i, d) for i in range(n) if (d := u // q**i % q)] for u in preimages]
        conj = [0] * Q**n
        for x in elements:
            cols = [x // Q ** (n - 1 - i) % Q for i in range(n)]
            y = 0
            for u in back:  # column j of g x g^-1 is g(x(g^-1 e_j))
                xu = 0
                for i, d in u:
                    xu = _axpy(xu, d, cols[i], q, F)
                y = y * Q + table[xu]
            conj[x] = y
        actions.append((conj, [0]))
    return len(orbit_partition(elements, Q**n, actions)[0])
