"""Self-tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import run
import worker
import workloads as wl
from tracer import TARGETS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


# One traced pass over the named operations, in a fresh interpreter so that
# the library's caches start empty: python -c _TRACED_PASS WORKLOAD ID...
_TRACED_PASS = """
import json, sys
import worker, workloads as wl
from tracer import Tracer
ids = set(sys.argv[2:])
ops = [op for op in wl.build_ops(wl.load_reference(wl.reference_path(sys.argv[1])))
       if op.id in ids]
tracer = Tracer().install()
rows, _wall, _points, _probes = worker.run_pass(ops, 7, 0, tracer)
tracer.uninstall()
print(json.dumps({"ops": rows, "metrics": tracer.metrics()}))
"""


def _reference(workload):
    return wl.load_reference(wl.reference_path(workload))


# -- correctness checks ---------------------------------------------------------


def test_tampered_reference_gives_nonzero_error_rate():
    ref = _reference("stable-decompose")
    target, other = "decompose_perm_module(6,2,4)", "decompose_perm_module(6,2,5)"
    op = next(op for op in ref["ops"] if op["id"] == target)
    op["expect"][-1]["degree"] = str(int(op["expect"][-1]["degree"]) + 1)

    ops = [op for op in wl.build_ops(ref) if op.id in (target, other)]
    rows, _wall, _points, _probes = worker.run_pass(ops, seed=7, pass_index=0)
    status = {op_id: s for op_id, _secs, s, _ref_s in rows}
    assert status == {target: "wrong", other: "ok"}
    attempted, failed = run._tally([{"ops": rows}])
    assert len(failed) / attempted > 0


def test_raised_operation_counts_as_failed():
    def boom():
        raise ArithmeticError("boom")

    op = wl.Op("boom", None, "unused", (), 0, lambda out: out, 2)
    op.call = boom
    rows, _wall, _points, _probes = worker.run_pass([op], seed=1, pass_index=0)
    assert rows[0][2] == "raised ArithmeticError: boom"
    assert run._tally([{"ops": rows}])[1] == rows


def test_reference_seconds_scale_by_the_probes_around_each_operation():
    r = worker.REF_PROBE_S
    probes = [(5.0, 5.0 + 5 * r), (9.0, 9.0 + r), (11.0, 11.0 + 3 * r),
              (19.9, 19.9 + r), (20.5, 20.5 + r), (21.1, 21.1 + 3 * r),
              (21.2, 21.2 + r), (22.0, 22.0 + 7 * r)]
    # a short operation with no probe near it takes the one before and after;
    # a long one every probe inside it and within PROBE_NEAR_S of it, and the
    # probe inside it is not counted as its time
    short, long = worker.reference_seconds([(10.0, 10.1), (20.0, 21.0)], probes)
    assert short == pytest.approx((0.1, 0.1 / 2))
    assert long == pytest.approx((1.0 - r, (1.0 - r) / 1.5))


def test_probes_run_inside_an_operation_and_are_not_its_time():
    def spin(seconds=0.3):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    op = wl.Op("spin", None, "unused", (), None, lambda out: out, 2)
    op.call = spin
    rows, wall, _points, probe_s = worker.run_pass([op], seed=1, pass_index=0)
    inside = probe_s[1:-1]  # all but the probes on entry and exit
    assert rows[0][2] == "ok"
    assert len(inside) >= 3
    assert wall == pytest.approx(0.3 - sum(inside), abs=0.01)


# -- cold-cache rule -------------------------------------------------------------


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_no_operation_repeats_an_instance(workload):
    ops = _reference(workload)["ops"]
    ids = [op["id"] for op in ops]
    instances = [json.dumps([op["kind"], op["args"]], sort_keys=True) for op in ops]
    assert len(set(ids)) == len(ids)
    assert len(set(instances)) == len(instances)


def test_oracle_memos_never_answer_an_operation():
    """Each _orbit_data (m, n, q, ell) and _space (m, n, q) key is used once."""
    orbit_keys, space_keys = [], []
    for op in _reference("oracle-orbits")["ops"]:
        if op["kind"] == "double_cosets_gl":
            n, m, q = op["args"]
            orbit_keys.append((m, n, q, m))
        else:
            ell, m, r, q = op["args"]
            orbit_keys += [(m, ell + r, q, ell), (m, ell + r + 1, q, ell)]
    space_keys = [k[:3] for k in orbit_keys]
    assert max(Counter(orbit_keys).values()) == 1
    assert max(Counter(space_keys).values()) == 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_permutes_a_fixed_operation_set(workload):
    ops = wl.build_ops(_reference(workload))
    orders = {seed: [op.id for op in wl.pass_order(ops, seed, 0)] for seed in (1, 2, 3)}
    assert orders[1] == [op.id for op in wl.pass_order(ops, 1, 0)]
    for seed in (2, 3):
        assert sorted(orders[seed]) == sorted(orders[1])
        assert orders[seed] != orders[1]


# -- tracer ---------------------------------------------------------------------


def _original(module_name, qualname):
    owner = importlib.import_module(module_name)
    for part in qualname.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_patches_every_binding():
    import glstab.branching
    import glstab.oracle
    import glstab.oracle.counts
    import glstab.verification  # binds degree_poly a third time

    originals = {(mod, qual): _original(mod, qual) for mod, qual, _ in TARGETS}
    tracer = Tracer().install()
    try:
        assert tracer.absent == []
        for (mod, qual), orig in originals.items():
            for name, module in list(sys.modules.items()):
                if name.startswith("glstab"):
                    assert all(v is not orig for v in vars(module).values()), (name, qual)
        places = set(tracer.patched_names())
        assert {("glstab.degrees", "degree_poly"), ("glstab.branching", "degree_poly"),
                ("glstab.verification", "degree_poly")} <= places
        assert {("glstab.oracle.orbits", "orbit_partition"),
                ("glstab.oracle.counts", "orbit_partition"),
                ("glstab.oracle", "orbit_partition")} <= places
        assert glstab.branching._Ctx.down.__wrapped__ is originals[("glstab.branching", "_Ctx.down")]
    finally:
        tracer.uninstall()
    assert glstab.branching.degree_poly is originals[("glstab.degrees", "degree_poly")]
    assert glstab.oracle.counts.orbit_partition is originals[("glstab.oracle.orbits", "orbit_partition")]


def test_absent_target_is_reported_not_zero():
    import glstab  # noqa: F401

    targets = tuple(("glstab.degrees_gone", qual, bucket) if qual == "degree_poly"
                    else (mod, qual, bucket) for mod, qual, bucket in TARGETS)
    tracer = Tracer(targets=targets).install()
    tracer.uninstall()
    assert tracer.absent == ["glstab.degrees_gone.degree_poly"]
    metrics = tracer.metrics()
    assert "degrees.degree_poly.calls" not in metrics
    assert "degrees.self_s" not in metrics
    assert "labels.label_new.calls" in metrics


LAYER_WORKLOADS = {
    "stable-decompose": (["decompose_perm_module(6,2,4)"],
                         ["degrees.degree_poly.calls", "degrees.self_s"]),
    "pinned-paths": (None, ["branching.zigzag.calls", "branching.transitions.calls",
                            "branching.states", "labels.label_new.calls",
                            "labels.canonical.calls", "partitions.calls"]),
    "oracle-orbits": (["weakstab_map_surjective(2,1,4,2)"],
                      ["oracle.space.points", "oracle.orbits.count", "oracle.space.self_s",
                       "oracle.matvec.self_s", "oracle.orbits.self_s"]),
}


@pytest.mark.parametrize("workload", sorted(LAYER_WORKLOADS))
def test_each_layer_records_calls_on_its_workload(workload):
    only, names = LAYER_WORKLOADS[workload]
    if only is None:  # the first dozen pinned counts at (m, q) = (2, 3)
        only = [op["id"] for op in _reference(workload)["ops"] if "m=2,q=3," in op["id"]][:12]
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": f"{SRC}:{wl.HERE}"}
    proc = subprocess.run([sys.executable, "-c", _TRACED_PASS, workload, *only],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert len(result["ops"]) == len(only)
    assert all(status == "ok" for _id, _s, status, _ref_s in result["ops"])
    metrics = result["metrics"]
    for name in names:
        assert metrics[name]["value"] > 0, name


# -- run.py outside a checkout -------------------------------------------------


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copytree(wl.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pinned-paths", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
