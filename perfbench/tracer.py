"""Per-layer tracing from outside the library.

The tracer replaces selected glstab functions and methods with wrappers that
keep a stack of open spans, so each layer's self time is its spans' duration
minus the time covered by the spans they caused.  A module-level function
is replaced at every name it is bound to in a loaded glstab module (for
example ``orbit_partition`` lives in ``oracle.orbits`` and is imported into
``oracle.counts`` and ``oracle``), so no call path escapes the wrapper.

A target that no longer exists (a later refactor removed or renamed it) is
recorded as absent, and every metric computed from it is left out of the
result instead of reading as zero.
"""

from __future__ import annotations

import sys
import time
import weakref
from collections import defaultdict

# (module, qualified name, self-time bucket).  Buckets are dotted; a layer's
# self time is the sum over the buckets under its prefix.
TARGETS = (
    ("glstab.partitions", "down_set", "partitions"),
    ("glstab.partitions", "up_set", "partitions"),
    ("glstab.labels", "Label.__init__", "labels"),
    ("glstab.labels", "canonical", "labels"),
    ("glstab.labels", "shape_of", "labels"),
    ("glstab.labels", "stabilize", "labels"),
    ("glstab.labels", "class_size", "labels"),
    ("glstab.branching", "_Ctx.down", "branching.transitions"),
    ("glstab.branching", "_Ctx.up", "branching.transitions"),
    ("glstab.branching", "_can_reach", "branching.zigzag"),
    ("glstab.branching", "zigzag_distribution", "branching.zigzag"),
    ("glstab.branching", "count_zigzag", "branching.zigzag"),
    ("glstab.branching", "decompose_perm_module", "branching.decompose"),
    ("glstab.degrees", "degree_poly", "degrees"),
    ("glstab.degrees", "gl_order", "degrees"),
    ("glstab.oracle.counts", "_space", "oracle.space"),
    ("glstab.oracle.counts", "_matvec_table", "oracle.matvec"),
    ("glstab.oracle.orbits", "orbit_partition", "oracle.orbits"),
    ("glstab.oracle.counts", "_orbit_data", "oracle.counts"),
    ("glstab.oracle.counts", "double_cosets_gl", "oracle.counts"),
    ("glstab.oracle.counts", "weakstab_map_surjective", "oracle.counts"),
)

LAYERS = ("partitions", "labels", "branching", "degrees", "oracle")


def _resolve(module_name, qualname):
    """(owner, attribute, original) for a target, or None when it is gone."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if orig is None:
        return None
    return owner, attr, orig


def _bindings(orig):
    """Every (glstab module, attribute) that refers to orig."""
    out = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "glstab" or name.startswith("glstab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                out.append((module, attr))
    return out


class Tracer:
    """Spans, self time and counts for the TARGETS, installed by patching."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []  # dotted names of targets that no longer exist
        self._gone = set()  # their qualified names
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        # transition requests: per-_Ctx keys, and every key seen this run
        self._ctx_keys = weakref.WeakKeyDictionary()
        self._run_keys = set()
        self._hook_table = self._hooks()

    # -- installation -------------------------------------------------------

    def install(self):
        for module_name, qualname, bucket in self.targets:
            found = _resolve(module_name, qualname)
            if found is None:
                self.absent.append(f"{module_name}.{qualname}")
                self._gone.add(qualname)
                continue
            owner, attr, orig = found
            wrapper = self._wrap(orig, qualname, bucket)
            places = [(owner, attr)] if isinstance(owner, type) else _bindings(orig)
            for place, name in places:
                setattr(place, name, wrapper)
                self._patched.append((place, name, orig))
        return self

    def uninstall(self):
        for place, name, orig in reversed(self._patched):
            setattr(place, name, orig)
        self._patched.clear()

    def patched_names(self):
        return [(getattr(place, "__name__", place), name) for place, name, _ in self._patched]

    def _wrap(self, fn, qualname, bucket):
        stack, clock = self._stack, time.perf_counter
        self_s, calls = self.self_s, self.calls
        hook = self._hook_table.get(qualname)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[bucket] += dt - child
                if stack:
                    stack[-1] += dt
                calls[qualname] += 1
            if hook is not None:
                # charge the hook to the caller as a child span, so its cost
                # shows as unattributed time rather than in a layer
                t1 = clock()
                hook(args, result)
                if stack:
                    stack[-1] += clock() - t1
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__qualname__ = getattr(fn, "__qualname__", qualname)
        return wrapper

    # -- counters at the layer boundaries ------------------------------------

    def _hooks(self):
        counts = self.counts

        def transition(kind):
            def hook(args, result):
                ctx, key = args[0], (kind, *args[1:])
                seen = self._ctx_keys.get(ctx)
                if seen is None:
                    seen = self._ctx_keys[ctx] = set()
                run_key = (getattr(ctx, "q", None), getattr(ctx, "named_context", None), key)
                if key in seen:
                    counts["transitions.memo_hits"] += 1
                elif run_key in self._run_keys:
                    counts["transitions.cross_call"] += 1
                seen.add(key)
                self._run_keys.add(run_key)
                if kind == "down":
                    counts["states"] += 1

            return hook

        def can_reach(args, result):
            if not result:
                counts["pruned"] += 1

        def distribution(args, result):
            counts["states"] += len(result)

        def space(args, result):
            counts["space.points"] += len(result[0])

        def orbits(args, result):
            counts["orbits"] += len(result[0])

        return {
            "_Ctx.down": transition("down"),
            "_Ctx.up": transition("up"),
            "_can_reach": can_reach,
            "zigzag_distribution": distribution,
            "_space": space,
            "orbit_partition": orbits,
        }

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for bucket, seconds in self.self_s.items():
            out[bucket.split(".")[0]] += seconds
        return out

    def metrics(self) -> dict:
        """Per-layer metrics; those built from an absent target are omitted."""
        c, calls, s = self.counts, self.calls, self.self_s
        layer = self.layer_self_s()
        requests = calls["_Ctx.down"] + calls["_Ctx.up"]

        def ratio(num, den):
            return num / den if den else 0.0

        table = [
            ("degrees.degree_poly.calls", ("degree_poly",), calls["degree_poly"], "count"),
            ("degrees.self_s", ("degree_poly", "gl_order"), layer["degrees"], "s"),
            ("branching.zigzag.calls", ("zigzag_distribution",), calls["zigzag_distribution"], "count"),
            ("branching.zigzag.self_s", ("zigzag_distribution", "count_zigzag", "_can_reach"),
             s["branching.zigzag"], "s"),
            ("branching.states", ("_Ctx.down", "zigzag_distribution"), c["states"], "count"),
            ("branching.decompose.self_s", ("decompose_perm_module",), s["branching.decompose"], "s"),
            ("branching.transitions.calls", ("_Ctx.down", "_Ctx.up"), requests, "count"),
            ("branching.transitions.self_s", ("_Ctx.down", "_Ctx.up"), s["branching.transitions"], "s"),
            ("branching.transitions.memo_hit_ratio", ("_Ctx.down", "_Ctx.up"),
             ratio(c["transitions.memo_hits"], requests), "ratio"),
            ("branching.transitions.cross_call_reuse_ratio", ("_Ctx.down", "_Ctx.up"),
             ratio(c["transitions.cross_call"], requests), "ratio"),
            ("branching.prune_ratio", ("_can_reach",), ratio(c["pruned"], calls["_can_reach"]), "ratio"),
            ("labels.label_new.calls", ("Label.__init__",), calls["Label.__init__"], "count"),
            ("labels.canonical.calls", ("canonical",), calls["canonical"], "count"),
            ("labels.self_s", ("Label.__init__", "canonical"), layer["labels"], "s"),
            ("partitions.calls", ("down_set", "up_set"), calls["down_set"] + calls["up_set"], "count"),
            ("partitions.self_s", ("down_set", "up_set"), layer["partitions"], "s"),
            ("oracle.space.points", ("_space",), c["space.points"], "count"),
            ("oracle.space.self_s", ("_space",), s["oracle.space"], "s"),
            ("oracle.matvec.self_s", ("_matvec_table",), s["oracle.matvec"], "s"),
            ("oracle.orbits.self_s", ("orbit_partition",), s["oracle.orbits"], "s"),
            ("oracle.orbits.count", ("orbit_partition",), c["orbits"], "count"),
        ]
        return {
            name: {"value": value, "unit": unit}
            for name, needs, value, unit in table
            if not self._gone.intersection(needs)
        }
