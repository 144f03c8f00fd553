"""Zigzag-path counting and decomposition of the permutation modules.

The multiplicity of an irreducible in k[G_n/G_{n-m}] equals the number of
alternating remove/add walks of label functions from the trivial label of
G_{n-m} up to the target label.  Counting is done by a forward dynamic
program over canonical states: anonymous same-degree cuspidals are kept as
an unordered multiset, and a transition that activates fresh anonymous
cuspidals is weighted by the number of ways to draw distinct concrete
cuspidals from the pool at field size q.

Transition tables are shared by every call in the process: one context per
(q, sorted pinned support) memoises results as (state, weight) pairs whose
states are interned in one table, so each distinct canonical state is one
Label object.  States carry their pinned keys, so the intern table grows
with the contexts and memos; at _TABLE_CAP states every table is dropped.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache

from . import partitions as pt
from .degrees import degree_poly, gl_order, prime_power
from .errors import BadParameters, InvariantViolated
from .labels import (
    IOTA,
    Label,
    Shape,
    anon_key,
    canonical,
    class_size,
    draws,
    key_degree,
    named_key,
    pool_size,
    shape_of,
    shape_to_json,
    stabilize,
    trivial_label,
    weighted_multisets,
)


@lru_cache(maxsize=None)
def _dset(rows):
    return tuple(pt.down_set(rows))


@lru_cache(maxsize=None)
def _uset(rows, target_size):
    return tuple(pt.up_set(rows, target_size))


@lru_cache(maxsize=None)
def _column_multisets(budget):
    """Multisets of (degree, height) with sum degree*height = budget, height >= 1."""
    cols = sorted(
        ((d, k) for d in range(1, budget + 1) for k in range(1, budget // d + 1)),
        reverse=True,
    )
    return tuple(weighted_multisets([(d * k, (d, k)) for d, k in cols], budget))


# Interned states at which every shared table is dropped: a memory bound,
# not a setting (m = 7 at q = 2 interns about 10,000 states in one call).
_TABLE_CAP = 20_000
_contexts = {}  # (q, sorted pinned support) -> _Ctx
_states = {}  # canonical state -> the one Label object the memos hold for it


def _drop_tables():
    _contexts.clear()
    _states.clear()


def _context(q, named_context=()):
    """The shared _Ctx for (q, pinned support); a refused support is not kept."""
    key = (q, tuple(sorted(named_context)))
    ctx = _contexts.get(key)
    if ctx is None:
        ctx = _contexts[key] = _Ctx(*key)
    return ctx


def _keep(memo, key, out):
    """Memoise out as (state, weight) pairs over interned states."""
    pairs = []
    for state, w in out.items():
        if len(_states) >= _TABLE_CAP:
            _drop_tables()
        pairs.append((_states.setdefault(state, state), w))
    memo[key] = pairs = tuple(pairs)
    return pairs


class _Ctx:
    """Shared transition tables for one (q, pinned support), got from _context."""

    def __init__(self, q, named_context=()):
        self.q = q
        self.named_context = tuple(sorted(named_context))
        self.named_by_degree = Counter(key_degree(k) for k in self.named_context)
        for d, used in self.named_by_degree.items():
            if used > pool_size(d, q):
                raise BadParameters(
                    f"labels need {used} distinct degree-{d} cuspidals; q={q} has {pool_size(d, q)}"
                )
        self._down_memo = {}
        self._up_memo = {}
        self._fresh_memo = {}

    def down(self, state: Label):
        """Canonical successors of one remove-at-most-one-box-per-row step."""
        hit = self._down_memo.get(state)
        if hit is not None:
            return hit
        keys = [k for k, _ in state.entries]
        out = defaultdict(int)

        def rec(idx, acc):
            if idx == len(keys):
                out[canonical(Label(list(acc.items())))] += 1
                return
            key = keys[idx]
            for rows in _dset(state.get(key)):
                if rows:
                    acc[key] = rows
                    rec(idx + 1, acc)
                    del acc[key]
                else:
                    rec(idx + 1, acc)

        rec(0, {})
        return _keep(self._down_memo, state, out)

    def up(self, state: Label, target_norm: int):
        """Canonical successors of one add-at-most-one-box-per-row step.

        Weights count concrete successors of one concrete representative:
        the fresh anonymous columns draw distinct cuspidals from what the
        pinned and active keys leave of the pool.
        """
        memo_key = (state, target_norm)
        hit = self._up_memo.get(memo_key)
        if hit is not None:
            return hit
        budget = target_norm - state.norm()
        out = defaultdict(int)
        if budget < 0:
            return _keep(self._up_memo, memo_key, out)
        keys = [IOTA, *self.named_context]
        keys += [k for k, _ in state.entries if k[0] == "anon"]
        active_anon = Counter(
            key_degree(k) for k, _ in state.entries if k[0] == "anon"
        )
        used = self.named_by_degree + active_anon
        next_slot = sum(active_anon.values())
        # remaining budget -> fresh column multisets with nonzero weight; the
        # weights depend only on the budget and the cuspidals used per degree
        fresh = self._fresh_memo.setdefault(tuple(sorted(used.items())), {})

        def rec(idx, remaining, acc):
            if idx == len(keys):
                if remaining not in fresh:
                    fresh[remaining] = [
                        (cols, w)
                        for cols in _column_multisets(remaining)
                        if (w := draws(cols, self.q, used))
                    ]
                for cols, w in fresh[remaining]:
                    items = dict(acc)
                    for j, (d, k) in enumerate(cols):
                        items[anon_key(d, next_slot + j)] = (1,) * k
                    out[canonical(Label(items))] += w
                return
            key = keys[idx]
            d = key_degree(key)
            rows = state.get(key)
            base = sum(rows)
            for b in range(remaining // d + 1):
                for new_rows in _uset(rows, base + b):
                    if new_rows:
                        acc[key] = new_rows
                        rec(idx + 1, remaining - d * b, acc)
                        del acc[key]
                    else:
                        rec(idx + 1, remaining - d * b, acc)

        rec(0, budget, {})
        return _keep(self._up_memo, memo_key, out)


def _rows_close(a, b, r):
    return all(
        abs(pt.row(a, i) - pt.row(b, i)) <= r for i in range(max(len(a), len(b)))
    )


def _can_reach(state: Label, target: Label, r: int) -> bool:
    """Cheap necessary condition for reaching target in r down/up pairs."""
    keys = set(state.support()) | set(target.support()) | {IOTA}
    for key in keys:
        srows, trows = state.get(key), target.get(key)
        if key[0] == "anon":
            # anonymous parts must shrink to nothing: row 1 loses <=1 per pair
            if pt.row(srows, 0) > r:
                return False
        elif not _rows_close(srows, trows, r):
            return False
    return True


def _pin_anonymous(label: Label) -> Label:
    """Give anonymous keys a concrete named identity (to fix an endpoint)."""
    items = []
    for key, rows in label.entries:
        if key[0] == "anon":
            items.append((named_key(key[1], f"pin{key[2]}"), rows))
        else:
            items.append((key, rows))
    return Label(items)


def _pinned(*labels):
    """The labels with anonymous keys pinned, and their named support (the _Ctx key)."""
    pinned = [_pin_anonymous(lab) for lab in labels]
    return pinned, tuple({k for lab in pinned for k in lab.support() if k[0] == "named"})


def zigzag_distribution(start: Label, m: int, q: int, named_context=(), target=None):
    """Path-count weights over canonical states after m down/up pairs."""
    ctx = _context(q, named_context)
    states = {canonical(start): 1}
    n0 = start.norm()
    for s in range(1, m + 1):
        after_down = defaultdict(int)
        for st, w in states.items():
            for succ, c in ctx.down(st):
                after_down[succ] += w * c
        new_states = defaultdict(int)
        for st, w in after_down.items():
            for succ, c in ctx.up(st, n0 + s):
                new_states[succ] += w * c
        if target is not None:
            r = m - s
            new_states = {
                st: w for st, w in new_states.items() if _can_reach(st, target, r)
            }
        states = dict(new_states)
    return states


def count_zigzag(nu: Label, mu: Label, m: int, q: int) -> int:
    """Number of zigzag paths from nu up to mu in m steps over the pool at q.

    Equals the multiplicity of the irreducible labelled nu in the
    restriction of the one labelled mu.
    """
    prime_power(q)
    if m < 0:
        raise BadParameters(f"step count must be non-negative, got {m}")
    if mu.norm() - nu.norm() != m:
        raise BadParameters(
            f"norm difference {mu.norm() - nu.norm()} != step count {m}"
        )
    (nu_p, mu_p), context = _pinned(nu, mu)
    target = canonical(mu_p)
    dist = zigzag_distribution(nu_p, m, q, context, target=target)
    return dist.get(target, 0)


@dataclass(frozen=True)
class DecompositionEntry:
    shape: Shape  # stable shape: iota holds the tail below the padded row
    multiplicity: int
    class_size: int
    degree: int  # dimension of one irreducible in the class, at this (n, q)


@dataclass(frozen=True)
class Decomposition:
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
        return {
            "n": self.n,
            "m": self.m,
            "q": self.q,
            "entries": [
                {
                    "shape": shape_to_json(e.shape),
                    "mult": e.multiplicity,
                    "class_size": e.class_size,
                    "degree": str(e.degree),
                }
                for e in self.entries
            ],
            "checks": {
                "sum_sq": self.sum_squares(),
                "dim": str(self.dimension()),
            },
        }


def decompose_perm_module(n: int, m: int, q: int) -> Decomposition:
    """Irreducible decomposition of k[G_n/G_{n-m}], in stable coordinates."""
    prime_power(q)
    if not 0 <= m <= n:
        raise BadParameters(f"need 0 <= m <= n, got n={n}, m={m}")
    dist = zigzag_distribution(trivial_label(n - m), m, q)
    entries = []
    for state, weight in dist.items():
        stable, _ = stabilize(state)
        stable_shape = shape_of(stable)
        cls = class_size(stable_shape, q)
        if cls <= 0 or weight % cls:
            raise InvariantViolated(
                f"path weight {weight} of {state} is not a multiple of class size {cls}"
            )
        entries.append(
            DecompositionEntry(
                shape=stable_shape,
                multiplicity=weight // cls,
                class_size=cls,
                degree=degree_poly(shape_of(state)).evaluate(q),
            )
        )
    entries.sort(key=lambda e: e.shape.sort_key())
    dec = Decomposition(n=n, m=m, q=q, entries=tuple(entries))
    if dec.stable_map().get(Shape(), (0,))[0] != 1:
        raise InvariantViolated(f"trivial constituent not exactly once in ({n},{m},{q})")
    if dec.dimension() != gl_order(n, q) // gl_order(n - m, q):
        raise InvariantViolated(f"dimension identity fails for ({n},{m},{q})")
    return dec


@dataclass(frozen=True)
class RestrictEntry:
    label: Label  # canonical class representative at norm ||mu|| - 1
    multiplicity: int  # of one concrete member, in the restriction
    class_count: int  # concrete members of the class, given mu's support


def restrict_step(mu: Label, q: int) -> list:
    """One-step restriction multiplicities, grouped into classes.

    Classes are taken relative to the support of mu: cuspidals appearing in
    mu stay pinned, anonymous entries in the result range over the unused
    part of the pool (a fresh column is legal because the intermediate label
    must vanish there).
    """
    prime_power(q)
    if mu.norm() < 1:
        raise BadParameters("norm of mu must be >= 1")
    (mu_p,), context = _pinned(mu)
    mu_p = canonical(mu_p)
    ctx = _context(q, context)
    weights = defaultdict(int)
    for lam, c_down in ctx.down(mu_p):
        for nu_state, c_up in ctx.up(lam, mu_p.norm() - 1):
            weights[nu_state] += c_down * c_up
    out = []
    for nu_state, w in sorted(weights.items(), key=lambda kv: kv[0].entries):
        anon = [(key_degree(k), r) for k, r in nu_state.entries if k[0] == "anon"]
        cnt = draws(anon, q, ctx.named_by_degree)
        if cnt <= 0 or w % cnt:
            raise InvariantViolated(
                f"restriction weight {w} of {nu_state} is not a multiple of class count {cnt}"
            )
        out.append(RestrictEntry(label=nu_state, multiplicity=w // cnt, class_count=cnt))
    return out
