"""Zigzag-path counting and decomposition of the permutation modules.

The multiplicity of an irreducible in k[G_n/G_{n-m}] equals the number of
alternating remove/add walks of label functions from the trivial label of
G_{n-m} up to the target label.  Counting is done by a forward dynamic
program over canonical states: anonymous same-degree cuspidals are kept as
an unordered multiset, and a transition that activates fresh anonymous
cuspidals is weighted by the number of ways to draw distinct concrete
cuspidals from the pool at field size q.  count_zigzag and
decompose_perm_module are the two ways into the walk: a pinned count gives
the anonymous keys of both ends named identities, and the walk's pinned
support is the named keys of its start and target.  A restriction path
mu ⊇ x ⊆ nu read backwards is a one-step path from nu to mu, so the
multiplicity of nu in the restriction of mu is count_zigzag(nu, mu, 1, q).

Both moves are flat: a down-move is one product over the entries' down_sets;
an up-move folds the keys that may grow into (items, budget left) pairs, and
each takes fresh anonymous columns from one cache keyed by (q, cuspidals used
per degree, budget), which leaves out the degrees whose pools are spent.  _step
is one down/up pair.

A state is labels.canonical's form: a tuple of (key, rows) entries, sorted,
whose anonymous keys ("anon", degree) carry no slot, so equal anonymous entries
repeat and a move's result is canonical once its entries are sorted.  No Label is
built inside a walk: Label's checks run only on what callers pass in, and slots
exist only at that edge.

A walk never meets a state twice (the norm grows by one per step), so tables
outlive a walk only where they pay.  A walk with a target is a pinned count,
which sweeps repeat by the hundred: its context, one per (q, sorted pinned
support) from _new_context, memoises up-moves as (state, weight) pairs, the
one _down table holds each state's down-moves, which read neither, and _states
interns each state once.  A walk without a target builds its own context, which
holds no table: a move returns its dict's items, _step's dicts keep one object per
state, and all the walk holds goes when it returns.  Walk n + 1 of a stability
sweep takes walk n's moves a step later, but a memo across the sweep saved no
time: the GC's scans of it cost what it saved.  A pinned walk has one prune,
_reaching, which reads a state's entries against the target's rows, a key the state
lacks being empty, and stops at the first that fails.  _step applies it after each
down-move with _can_reach: with r up-moves left, each row's gap to the target's lies
in 1 - r .. r.  The rule is exact at r = 1 and the target is all named, so one
up-move takes a state that passes it to the target in one way: the last pair builds
no successor, and sums _reaching's weights at r = 1 under _ways_down.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import product, zip_longest
from typing import NamedTuple

from . import partitions as pt
from .degrees import degree_poly, prime_power, vic_hom_count
from .errors import BadParameters, InvariantViolated, integer
from .labels import (
    IOTA,
    Label,
    Shape,
    canonical,
    class_size,
    draws,
    key_degree,
    named_key,
    part_order,
    pool_size,
    shape_to_json,
    tally,
    trivial_label,
    weighted_multisets,
)


@lru_cache(maxsize=None)
def _fresh_columns(q, used, budget):
    """(columns, draw weight) pairs, weight nonzero, of fresh anonymous columns filling
    budget; used lists (degree, cuspidals in use).  Each columns tuple holds
    (("anon", degree), rows) items.  A pool that used exhausts is left out (draws weighs
    it 0); an over-used one reaches draws, which raises."""
    used = dict(used)
    cols = sorted(
        ((d, k) for d in range(1, budget + 1) if pool_size(d, q) != used.get(d, 0)
         for k in range(1, budget // d + 1)),
        reverse=True,
    )
    return tuple(
        (tuple((("anon", d), (1,) * k) for d, k in multiset), w)
        for multiset in weighted_multisets([(d * k, (d, k)) for d, k in cols], budget)
        if (w := draws(multiset, q, used))
    )


_states = {}  # state -> the one equal tuple the shared memos hold
_down = {}  # state -> its down-moves, for every shared context


class _Ctx:
    """Transitions for one (q, sorted pinned support) over its tables (interned states,
    down memo, up memo): _new_context passes the shared ones; a context built directly
    holds no table, and its moves are fresh dict items.  A refused support raises, so
    the cache does not keep it."""

    def __init__(self, q, named_context, tables=None):
        self.q = q
        self.named_context = named_context
        self.named_by_degree = tally(map(key_degree, self.named_context))
        for d, used in self.named_by_degree.items():
            if used > pool_size(d, q):
                raise BadParameters(
                    f"labels need {used} distinct degree-{d} cuspidals; q={q} has {pool_size(d, q)}"
                )
        self._states, self._down, self._up_memo = tables or (None, None, None)

    def _keep(self, memo, key, out):
        """out (state -> weight)'s items; with a memo, memo[key] keeps them as
        (state, weight) pairs over interned states."""
        if memo is None:
            return out.items()
        intern = self._states.setdefault
        memo[key] = pairs = tuple((intern(s, s), w) for s, w in out.items())
        return pairs

    def down(self, state: tuple):
        """Canonical successors of one remove-at-most-one-box-per-row step."""
        if self._down is not None and (hit := self._down.get(state)) is not None:
            return hit
        out = defaultdict(int)
        for choice in product(*(pt.down_set(rows) for _, rows in state)):
            out[tuple(sorted([(k, r) for (k, _), r in zip(state, choice) if r]))] += 1
        return self._keep(self._down, state, out)

    def up(self, state: tuple, target_norm: int):
        """Canonical successors of one add-at-most-one-box-per-row step.

        Weights count concrete successors of one concrete representative:
        the fresh anonymous columns draw distinct cuspidals from what the
        pinned and active keys leave of the pool.
        """
        memo_key = (state, target_norm)
        if self._up_memo is not None and (hit := self._up_memo.get(memo_key)) is not None:
            return hit
        rows_of = dict(state)  # for iota and named keys: anonymous keys repeat
        active = [(k, rows) for k, rows in state if k[0] == "anon"]
        used = tuple(sorted(tally((key_degree(k) for k, _ in active), self.named_by_degree).items()))
        # (items so far, budget left), folded over the entries that may grow
        partial = [((), target_norm - sum(key_degree(k) * sum(rows) for k, rows in state))]
        for key, rows in [(k, rows_of.get(k, ())) for k in (IOTA, *self.named_context)] + active:
            d, base = key_degree(key), sum(rows)
            partial = [
                (items + ((key, new_rows),) if new_rows else items, left - d * b)
                for items, left in partial
                for b in range(left // d + 1)
                for new_rows in pt.up_set(rows, base + b)
            ]
        out = defaultdict(int)
        for items, left in partial:
            for columns, w in _fresh_columns(self.q, used, left):
                out[tuple(sorted(items + columns))] += w
        return self._keep(self._up_memo, memo_key, out)


# (q, sorted pinned support) -> the one shared, memoising _Ctx
_new_context = lru_cache(maxsize=None)(lambda q, support: _Ctx(q, support, (_states, _down, {})))


@lru_cache(maxsize=None)
def _can_reach(rows, goal_rows, r):
    """Whether rows can still become goal_rows with r up-moves and r - 1 down-moves left:
    each move shifts a row by at most one, so goal row minus row lies in 1 - r .. r, and
    at r = 1 the rule is exact.  Cached: a pinned sweep asks it of the same rows again."""
    return all(1 - r <= want - have <= r for want, have in zip_longest(goal_rows, rows, fillvalue=0))


def _pin_anonymous(label: Label) -> Label:
    """The label with its non-iota keys named apart, to fix an endpoint: slot i becomes
    token (True, i) and a caller's token t becomes (False, t), so slot i is one cuspidal at
    both ends of a walk and never one a caller named.  Iota alone is returned as it is."""
    if label.support() in ((), (IOTA,)):
        return label
    return Label(
        (k if k == IOTA else named_key(k[1], (k[0] == "anon", k[2])), rows)
        for k, rows in label.entries
    )


def _reaching(states, target, r, ways):
    """The pinned walk's one prune: (state, weight times ways(rows, target rows, r) over its
    entries) for the states with no factor 0 that lack no target key whose first row is
    above r, each read up to its first factor 0.  With _can_reach it keeps the states that
    can reach target in r up-moves; with _ways_down at r = 1 a weight is a path count."""
    needed, want = {k for k, rows in target.items() if rows[0] > r}, target.get
    for st, w in states.items():
        missing = len(needed)
        for k, rows in st:
            w, missing = w * ways(rows, want(k, ()), r), missing - (k in needed)
            if not w:
                break
        if w and not missing:
            yield st, w


@lru_cache(maxsize=None)
def _ways_down(rows, goal_rows, r):
    """The down-moves of rows after which _can_reach(x, goal_rows, r) holds."""
    return sum(_can_reach(x, goal_rows, r) for x in pt.down_set(rows))


def _step(ctx, states, norm, target=None, r=0):
    """Weights after one down/up pair that ends at the given norm; with a target (key ->
    rows), only the down-successors that _reaching keeps at r take the up-move."""
    after_down, after_up = defaultdict(int), defaultdict(int)
    for st, w in states.items():
        for succ, c in ctx.down(st):
            after_down[succ] += w * c
    for st, w in after_down.items() if target is None else _reaching(after_down, target, r, _can_reach):
        for succ, c in ctx.up(st, norm):
            after_up[succ] += w * c
    return dict(after_up)


def zigzag_distribution(start: Label, m: int, q: int, target=None):
    """Path-count weights over canonical states after m down/up pairs.

    The named keys of start and target are the pinned support: the walk keeps
    their cuspidals apart from the fresh ones it draws.  A target is a state
    (canonical of an all-named label) of norm start.norm() + m."""
    ends = (canonical(start),) if target is None else (canonical(start), target)
    named = {k for e in ends for k, _ in e if k[0] == "named"}
    try:
        support = tuple(sorted(named))
    except TypeError:  # tokens of one degree, from the two ends, that do not compare
        raise BadParameters(f"tokens that do not compare: {sorted(map(repr, named))}") from None
    ctx = _Ctx(q, support) if target is None else _new_context(q, support)
    states = {ends[0]: 1}
    n0 = start.norm()
    goal = None if target is None else dict(target)
    for s in range(1, m + 1 if target is None else m):
        states = _step(ctx, states, n0 + s, goal, m - s + 1)
    if target is None:
        return states
    paths = sum(w for _, w in _reaching(states, goal, 1, _ways_down)) if m else states.get(target, 0)
    return {target: paths} if paths else {}


def count_zigzag(nu: Label, mu: Label, m: int, q: int) -> int:
    """Number of zigzag paths from nu up to mu in m steps over the pool at q.

    Equals the multiplicity of the irreducible labelled nu in the
    restriction of the one labelled mu.
    """
    prime_power(q)
    if integer("m", m) < 0:
        raise BadParameters(f"step count must be non-negative, got {m}")
    if mu.norm() - nu.norm() != m:
        raise BadParameters(f"norm difference {mu.norm() - nu.norm()} != step count {m}")
    target = canonical(_pin_anonymous(mu))
    return zigzag_distribution(_pin_anonymous(nu), m, q, target).get(target, 0)


class DecompositionEntry(NamedTuple):
    shape: Shape  # stable shape: iota holds the tail below the padded row
    multiplicity: int
    class_size: int
    degree: int  # dimension of one irreducible in the class, at this (n, q)


class Decomposition(NamedTuple):
    n: int
    m: int
    q: int
    entries: tuple

    def sum_squares(self) -> int:
        return sum(e.multiplicity**2 * e.class_size for e in self.entries)

    def dimension(self) -> int:
        return sum(e.multiplicity * e.degree * e.class_size for e in self.entries)

    def stable_map(self) -> dict:
        """Shape -> (multiplicity, class size); the stable-coordinate view."""
        return {e.shape: (e.multiplicity, e.class_size) for e in self.entries}

    def to_json(self) -> dict:
        entries = [{"shape": shape_to_json(e.shape), "mult": e.multiplicity,
                    "class_size": e.class_size, "degree": str(e.degree)} for e in self.entries]
        return {"n": self.n, "m": self.m, "q": self.q, "entries": entries,
                "checks": {"sum_sq": self.sum_squares(), "dim": str(self.dimension())}}


def decompose_perm_module(n: int, m: int, q: int) -> Decomposition:
    """Irreducible decomposition of k[G_n/G_{n-m}], in stable coordinates."""
    prime_power(q)
    if not 0 <= integer("m", m) <= integer("n", n):
        raise BadParameters(f"need 0 <= m <= n, got n={n}, m={m}")
    dist = zigzag_distribution(trivial_label(n - m), m, q)
    entries = []
    for state, weight in dist.items():
        # shapes straight from the state, its parts sorted into Shape order: the degree
        # shape keeps the first iota row, the stable shape drops it, which (as in
        # stabilize) needs that row to be the longest
        iota = dict(state).get(IOTA, ())
        if iota[1:2] > iota[:1]:
            raise InvariantViolated(f"{state} is not of padded form")
        parts = tuple(sorted(((k[1], rows) for k, rows in state if k != IOTA), key=part_order))
        stable_shape = Shape(iota[1:], parts)
        cls = class_size(stable_shape, q)
        if cls <= 0 or weight % cls:
            raise InvariantViolated(
                f"path weight {weight} of {state} is not a multiple of class size {cls}"
            )
        degree = degree_poly(Shape(iota, parts), q)
        entries.append(DecompositionEntry(stable_shape, weight // cls, cls, degree))
    entries.sort(key=lambda e: e.shape.sort_key())
    dec = Decomposition(n=n, m=m, q=q, entries=tuple(entries))
    # the empty stable shape has norm 0, so it sorts first if present
    if [(e.shape, e.multiplicity) for e in entries[:1]] != [(Shape(), 1)]:
        raise InvariantViolated(f"trivial constituent not exactly once in ({n},{m},{q})")
    if dec.dimension() != vic_hom_count(m, n, q):
        raise InvariantViolated(f"dimension identity fails for ({n},{m},{q})")
    return dec
