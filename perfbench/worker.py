"""One pass of one workload in a fresh interpreter.

run.py starts this script once per pass, with PYTHONPATH pointing at the
checkout's src/, so every pass imports glstab from scratch and starts with
empty library caches.  It prints one JSON object on stdout:

    {"setup_s": ..., "setup_ref_s": ..., "wall_s": ..., "probe_s": [...],
     "ops": [[id, seconds, status, reference seconds], ...],
     "maxrss_mb": ..., "trace": {...}}

status is "ok", "wrong" (output differs from the frozen reference) or
"raised <type>: <message>".  "trace" is present only with --trace.

Reference seconds.  The host lends its cores to other tenants, and the speed
of a pure-Python loop on it drifts by tens of percent within seconds.  So a
pass samples the machine's speed while it runs: a SIGALRM timer runs a short
speed probe (a fixed interpreter loop) every PROBE_EVERY_S, inside operations
as well as between them, and one probe runs before the first operation and
one after the last.  An operation's measured time excludes the probes that
ran inside it.  Its time in reference seconds is its measured time times
REF_PROBE_S over the mean time of the probes during it and within
PROBE_NEAR_S of it (and at least the probe before and the probe after it):
the time it would take on a machine whose probe takes REF_PROBE_S.  Set-up is
scaled the same way by probes just before and after it.  A traced pass runs
no timer, so that no probe lands in a traced span.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"

# Probe time, in seconds, of the 2-vCPU Xeon (Python 3.11) the benchmark was
# written on; it only sets the scale of reference seconds.
REF_PROBE_S = 0.0017
PROBE_EVERY_S = 0.05
PROBE_NEAR_S = 0.25
SETUP_PROBES = 4  # on each side of set-up


def probe():
    """Run the fixed loop once; returns (start, end).  It allocates no
    container per step, so the collector's state neither changes its cost
    nor is changed by it."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(4000):
        key = (i % 17) * 169 + (i % 13) * 11 + i % 11
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 97
    return t0, time.perf_counter()


class Prober:
    """Probes once on entry and once on exit, and, when ticking, every
    PROBE_EVERY_S in between from a SIGALRM handler.  The handler re-arms the
    timer only after its probe, so probes never nest, and does nothing once
    the block has ended (signal.signal runs a pending handler before it
    restores the old one)."""

    def __init__(self, ticking=True):
        self.ticking = ticking
        self.running = False
        self.probes = []

    def _tick(self, _signum, _frame):
        if self.running:
            self.probes.append(probe())
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self):
        self.probes.append(probe())
        if self.ticking:
            self.running = True
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.ticking:
            self.running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.probes.append(probe())

    def probe_s(self):
        return [end - start for start, end in self.probes]


def reference_seconds(spans, probes):
    """Each (start, end) span, less the probes inside it, in measured and in
    reference seconds.  probes are (start, end) in time order, at least one
    before the first span and one after the last; a probe lies wholly inside
    a span or wholly outside it."""
    starts = [start for start, _ in probes]
    out = []
    for start, end in spans:
        first = bisect.bisect_left(starts, start)
        after = bisect.bisect_left(starts, end)
        inside = sum(e - s for s, e in probes[first:after])
        lo = min(first - 1, bisect.bisect_left(starts, start - PROBE_NEAR_S))
        hi = max(after + 1, bisect.bisect_right(starts, end + PROBE_NEAR_S))
        speed = statistics.fmean(e - s for s, e in probes[lo:hi])
        net = end - start - inside
        out.append((net, net * REF_PROBE_S / speed))
    return out


def _setup(reference):
    """Import glstab and build every input; returns (ops, seconds,
    reference seconds)."""
    probes = [probe() for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    import glstab

    ops = wl.build_ops(reference)
    t1 = time.perf_counter()
    probes += [probe() for _ in range(SETUP_PROBES)]
    origin = Path(glstab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"glstab imported from {origin}, not from {SRC}")
    return (ops, *reference_seconds([(t0, t1)], probes)[0])


def run_pass(ops, seed, pass_index, tracer=None):
    """Run the ops in (seed, pass) order while probing the machine's speed;
    check each output against its reference.  Returns (per-op rows, timed
    seconds, oracle points by q, probe seconds)."""
    rows, spans = [], []
    points = {}
    with Prober(ticking=tracer is None) as prober:
        for op in wl.pass_order(ops, seed, pass_index):
            before = tracer.counts["space.points"] if tracer else 0
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a raised operation is a failed one
                t1 = time.perf_counter()
                status = f"raised {type(exc).__name__}: {exc}"
            else:
                t1 = time.perf_counter()
                status = "ok" if op.render(out) == op.expect else "wrong"
            rows.append([op.id, None, status, None])
            spans.append((t0, t1))
            if tracer:
                n, secs = points.get(op.q, (0, 0.0))
                points[op.q] = (n + tracer.counts["space.points"] - before, secs + t1 - t0)
    for row, times in zip(rows, reference_seconds(spans, prober.probes)):
        row[1], row[3] = times
    return rows, sum(row[1] for row in rows), points, prober.probe_s()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if not __debug__:
        raise SystemExit("the library's invariants are asserts: run without -O")

    reference = wl.load_reference(wl.reference_path(args.workload))
    ops, setup_s, setup_ref_s = _setup(reference)
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer().install()
        rows, wall, points, probe_s = run_pass(ops, args.seed, args.pass_index, tracer)
        result.update(wall_s=wall, ops=rows, probe_s=probe_s)
        if tracer:
            tracer.uninstall()
            result["trace"] = {
                "metrics": tracer.metrics(),
                "layer_self_s": tracer.layer_self_s(),
                "absent": tracer.absent,
                "points_by_q": {str(q): list(v) for q, v in points.items()},
            }
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
