"""glstab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Each pass of a workload runs in a fresh interpreter (worker.py, assertions
on), so library caches start empty and no operation in a pass repeats an
earlier instance.  Passes run one after another until the next one would
end past --seconds; there is always at least one.  Every output is checked
against the frozen reference in perfbench/reference/.

With --trace 0 the run reports the end-to-end metrics, medians over the
passes.  Times are in reference seconds (see worker.py): measured seconds
scaled by speed probes run during and between the operations, so that the
host's drifting speed cancels; the context line gives the measured medians
as well.  With --trace 1 it runs one untraced and one traced pass and
reports the per-layer metrics of the traced one.  Human-readable lines
(machine context, every metric with its unit, the error rate) come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

# Set-up-only interpreters before each pass: the machine's speed drifts, so
# set-up is sampled across the run, as the passes are.
SETUP_RUNS = 2
# A run's passes stop starting at --seconds; the last one may overrun by up to
# a pass and its set-up runs (about 11 s on oracle-orbits).  Past --seconds plus
# this allowance a worker is taken as hung.
PASS_ALLOWANCE_S = 120


class BenchError(RuntimeError):
    pass


def machine_context() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
    }


def loadavg() -> list:
    try:
        with open("/proc/loadavg") as fh:
            return [float(v) for v in fh.read().split()[:3]]
    except OSError:
        return []


class Runner:
    """Starts worker interpreters one at a time and waits for each."""

    def __init__(self, workload, seed, limit_s):
        self.workload = workload
        self.seed = seed
        self.limit_s = limit_s  # no child may still be running after this
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed % 2**32))
        self.env.pop("PYTHONOPTIMIZE", None)
        # cache bytecode as an installed package would, so set-up is a warm
        # import whatever the caller's setting; only a fresh checkout's first
        # probe compiles
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def child(self, *extra) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        left = self.limit_s - (time.monotonic() - self.started)
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(left, 1))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker still running after the {self.limit_s} s limit") from None
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(passes):
    rows = [row for p in passes for row in p["ops"]]
    failed = [row for row in rows if row[2] != "ok"]
    return len(rows), failed


def _op_medians(passes, column):
    """Each operation's median over the passes of one row column."""
    per_op = {}
    for row in (row for p in passes for row in p["ops"]):
        per_op.setdefault(row[0], []).append(row[column])
    return {op_id: statistics.median(v) for op_id, v in per_op.items()}


def timed_run(runner, seconds, largest):
    setup_runs, passes = [], []
    start = time.monotonic()
    while True:
        setup_runs += [runner.child("--setup-only") for _ in range(SETUP_RUNS)]
        t0 = time.monotonic()
        passes.append(runner.child("--pass-index", str(len(passes))))
        now = time.monotonic()
        if now - start + (now - t0) > seconds:
            break
    per_op = _op_medians(passes, 3)
    op_s = sorted(per_op.values())
    setups = setup_runs + passes
    metrics = {
        "wall_s": (sum(op_s), "s"),
        "op_p50_s": (statistics.median(op_s), "s"),
        "op_p90_s": (statistics.quantiles(op_s, n=10, method="inclusive")[-1]
                     if len(op_s) > 1 else op_s[0], "s"),
        "largest_op_s": (sum(per_op[i] for i in largest), "s"),
        "setup_s": (statistics.median(p["setup_ref_s"] for p in setups), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_mb"] for p in passes), "MB"),
    }
    info = {
        "measured_wall_s": sum(_op_medians(passes, 1).values()),
        "measured_setup_s": statistics.median(p["setup_s"] for p in setups),
        "probe_median_s": statistics.median(s for p in passes for s in p["probe_s"]),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
    }
    return passes, metrics, info


def traced_run(runner):
    plain = runner.child("--pass-index", "0")
    traced = runner.child("--pass-index", "1", "--trace")
    trace = traced["trace"]
    metrics = {k: (v["value"], v["unit"]) for k, v in trace["metrics"].items()}
    if "oracle.space.points" in metrics:
        by_q = {int(q): v for q, v in trace["points_by_q"].items()}
        for name, qs in (("q2", [2]), ("qgt2", [q for q in by_q if q > 2])):
            points = sum(by_q[q][0] for q in qs if q in by_q)
            secs = sum(by_q[q][1] for q in qs if q in by_q)
            metrics[f"oracle.points_per_s.{name}"] = (points / secs if secs else 0.0, "1/s")
    attributed = sum(trace["layer_self_s"].values())
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    metrics["trace.unattributed_ratio"] = ((traced["wall_s"] - attributed) / traced["wall_s"], "ratio")
    info = {
        "layer_share": {k: v / traced["wall_s"] for k, v in trace["layer_self_s"].items()},
        "absent": trace["absent"],
    }
    return [plain, traced], metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="glstab benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "glstab" / "__init__.py").is_file():
        print(f"no glstab sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    context = machine_context()
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, loadavg_start=loadavg())
    largest = wl.load_reference(wl.reference_path(args.workload))["largest"]
    runner = Runner(args.workload, args.seed, args.seconds + PASS_ALLOWANCE_S)
    try:
        if args.trace:
            passes, metrics, info = traced_run(runner)
        else:
            passes, metrics, info = timed_run(runner, args.seconds, largest)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = _tally(passes)
    context.update(passes=len(passes), loadavg_end=loadavg(),
                   run_s=round(time.monotonic() - runner.started, 3), **info)

    print("context " + json.dumps(context))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric error_rate = {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} of {attempted} operations wrong or raised)")
    for op_id, _secs, status, _ref_s in failed[:20]:
        print(f"failed {op_id}: {status}")
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
