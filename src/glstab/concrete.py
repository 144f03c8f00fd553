"""Plain zigzag enumeration over fully materialized cuspidal pools.

Used to cross-check the symmetry-reduced dynamic program: every cuspidal of
every degree is given a concrete identity, states are plain label functions
on those identities, and paths are counted by memoized forward enumeration
with no class weighting.  Only feasible for small q and small norms.

The pool holds cuspidal_count(d, q) cuspidals of each degree d <= n, iota
included.  A step removes at most one box per row of every cuspidal's
partition, then adds at most one box per row of every cuspidal's partition;
an inactive cuspidal carries the empty partition, so a fresh column is just
an up-move of ().
"""

from __future__ import annotations

from collections import defaultdict

from . import partitions as pt
from .degrees import cuspidal_count, prime_power
from .errors import BadParameters
from .labels import IOTA, Label, key_degree

# concrete cuspidal = (degree, index); (1, 0) is iota


def _to_concrete(label: Label, assignment):
    """Map a Label onto concrete cuspidals; assignment maps non-iota keys."""
    items = {}
    for key, rows in label.entries:
        items[(1, 0) if key == IOTA else assignment[key]] = rows
    return tuple(sorted(items.items()))


def assign_endpoints(nu: Label, mu: Label):
    """Pin the non-iota support of both endpoints to distinct concrete ids.

    Degree-1 index 0 is iota, so pinned degree-1 ids start at 1.
    """
    assignment = {}
    counters = defaultdict(int)
    for label in (nu, mu):
        for key, _rows in label.entries:
            if key == IOTA or key in assignment:
                continue
            d = key_degree(key)
            assignment[key] = (d, counters[d] + (1 if d == 1 else 0))
            counters[d] += 1
    return assignment


def count_zigzag_concrete(nu: Label, mu: Label, m: int, q: int) -> int:
    """Exact zigzag path count by brute enumeration over concrete pools."""
    prime_power(q)
    if mu.norm() - nu.norm() != m or m < 0:
        raise BadParameters("norm difference does not match step count")
    # listed by degree, so the up-step stops at the first degree over budget
    pool = [(d, i) for d in range(1, mu.norm() + 1) for i in range(cuspidal_count(d, q))]
    assignment = assign_endpoints(nu, mu)
    if not set(assignment.values()) <= set(pool):
        raise BadParameters(f"labels need more cuspidals than q={q} has")
    start = _to_concrete(nu, assignment)
    goal = _to_concrete(mu, assignment)

    def down(state, w, out, j=0, acc=()):
        """Remove at most one box per row of each entry of the sorted state."""
        if j == len(state):
            out[acc] += w
            return
        cusp, rows = state[j]
        for lam in pt.down_set(rows):
            down(state, w, out, j + 1, acc + ((cusp, lam),) if lam else acc)

    def up(state, w, out, budget, p=0, j=0, acc=()):
        """Add at most one box per row of each pool cuspidal; cost is d per box."""
        if p == len(pool) or pool[p][0] > budget:
            if budget == 0:
                out[acc + state[j:]] += w
            return
        cusp, rows = pool[p], ()
        if j < len(state) and state[j][0] == cusp:
            rows, j = state[j][1], j + 1
        d = cusp[0]
        for b in range(budget // d + 1):
            for lam in pt.up_set(rows, sum(rows) + b):
                up(state, w, out, budget - d * b, p + 1, j, acc + ((cusp, lam),) if lam else acc)

    states = {start: 1}
    for norm in range(nu.norm() + 1, mu.norm() + 1):
        after_down = defaultdict(int)
        for st, w in states.items():
            down(st, w, after_down)
        states = defaultdict(int)
        for st, w in after_down.items():
            up(st, w, states, norm - sum(d * sum(rows) for (d, _i), rows in st))
    return states.get(goal, 0)
