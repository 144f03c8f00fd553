"""Plain zigzag enumeration over fully materialized cuspidal pools.

Used to cross-check the symmetry-reduced dynamic program: every cuspidal of
every degree is given a concrete identity, states are plain label functions
on those identities, and paths are counted by memoized forward enumeration
with no class weighting.  Only feasible for small q and small norms.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations, permutations

from . import partitions as pt
from .degrees import cuspidal_count, prime_power
from .errors import BadParameters
from .labels import IOTA, Label, key_degree

# concrete cuspidal = (degree, index); (1, 0) is iota


def pool_sizes(q, max_degree):
    return {d: cuspidal_count(d, q) for d in range(1, max_degree + 1)}


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
    n = mu.norm()
    pools = pool_sizes(q, max(n, 1))
    assignment = assign_endpoints(nu, mu)
    start = _to_concrete(nu, assignment)
    goal = _to_concrete(mu, assignment)
    if m == 0:
        return 1 if start == goal else 0

    down_set = lru_cache(maxsize=None)(lambda rows: tuple(pt.down_set(rows)))
    up_set = lru_cache(maxsize=None)(lambda rows, s: tuple(pt.up_set(rows, s)))

    def down_successors(state):
        out = defaultdict(int)
        keys = [k for k, _ in state]

        def rec(idx, acc):
            if idx == len(keys):
                out[tuple(sorted(acc.items()))] += 1
                return
            key = keys[idx]
            for rows in down_set(dict(state)[key]):
                if rows:
                    acc[key] = rows
                rec(idx + 1, acc)
                acc.pop(key, None)

        rec(0, {})
        return out

    def fresh_choices(inactive, budget):
        """Sets of (cuspidal, column height) over inactive ids, cost = budget."""
        if budget == 0:
            return [()]
        by_degree = defaultdict(list)
        for d, i in inactive:
            if d <= budget:
                by_degree[d].append((d, i))
        degrees = sorted(by_degree)

        def degree_options(d, ids, max_cost):
            opts = [()]
            for h_total in range(1, max_cost // d + 1):
                for heights in pt.partitions_of(h_total):
                    if len(heights) > len(ids):
                        continue
                    for combo in combinations(ids, len(heights)):
                        for assign in set(permutations(heights)):
                            opts.append(tuple(zip(combo, assign)))
            return opts

        results = []

        def rec(di, remaining, acc):
            if di == len(degrees):
                if remaining == 0:
                    results.append(tuple(acc))
                return
            d = degrees[di]
            for opt in degree_options(d, by_degree[d], remaining):
                cost = d * sum(k for _, k in opt)
                if cost <= remaining:
                    rec(di + 1, remaining - cost, acc + list(opt))

        rec(0, budget, [])
        return results

    def up_successors(state, target_norm):
        budget = target_norm - sum(d * sum(r) for (d, _i), r in state)
        out = defaultdict(int)
        if budget < 0:
            return out
        entries = list(state)
        active = {c for c, _ in entries}
        if (1, 0) not in active:
            entries.append(((1, 0), ()))
        inactive = sorted(
            (d, i)
            for d in pools
            for i in range(pools[d])
            if (d, i) not in active and (d, i) != (1, 0)
        )

        def rec(idx, remaining, acc):
            if idx == len(entries):
                for picks in fresh_choices(inactive, remaining):
                    items = dict(acc)
                    for cusp, k in picks:
                        items[cusp] = (1,) * k
                    out[tuple(sorted(items.items()))] += 1
                return
            cusp, rows = entries[idx]
            d = cusp[0]
            for b in range(remaining // d + 1):
                for new_rows in up_set(rows, sum(rows) + b):
                    if new_rows:
                        acc[cusp] = new_rows
                    rec(idx + 1, remaining - d * b, acc)
                    acc.pop(cusp, None)

        rec(0, budget, {})
        return out

    states = {start: 1}
    n0 = nu.norm()
    for s in range(1, m + 1):
        after_down = defaultdict(int)
        for st, w in states.items():
            for succ, c in down_successors(st).items():
                after_down[succ] += w * c
        states = defaultdict(int)
        for st, w in after_down.items():
            for succ, c in up_successors(st, n0 + s).items():
                states[succ] += w * c
    return states.get(goal, 0)
