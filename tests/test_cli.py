"""End-to-end command-line behavior: output formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import glstab
import glstab.branching
import glstab.cli
from glstab.cli import main


def run_module(argv, timeout=10):
    """Run the CLI in a fresh interpreter, killed after `timeout` seconds."""
    src = str(Path(glstab.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "glstab.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_decompose_table():
    code, out = run_cli(["decompose", "--m", "1", "--q", "2"])
    assert code == 0
    assert "sum_sq=7" in out and "dim=28" in out
    assert out.count("\n") >= 6  # header + rule + 4 entries


def test_decompose_json_checks():
    code, out = run_cli(["decompose", "--m", "1", "--q", "3", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["checks"]["sum_sq"] == 15
    assert payload["checks"]["dim"] == "234"
    assert payload["checks"]["dimension_ok"] and payload["checks"]["sum_sq_ok"]


def test_decompose_m0():
    code, out = run_cli(["decompose", "--m", "0", "--q", "3", "--n", "5", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["entries"]) == 1


def test_decompose_csv_is_rfc4180():
    code, out = run_cli(["decompose", "--m", "1", "--q", "2", "--format", "csv"])
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "shape,multiplicity,class_size,degree"


def test_stability_exit_and_degree():
    code, out = run_cli(["stability", "--m", "1", "--q", "2", "--n-max", "6"])
    assert code == 0
    assert "observed stability degree 3" in out


def test_stability_table_builds_each_stable_map_once(monkeypatch):
    calls = []
    stable_map = glstab.branching.Decomposition.stable_map

    def counted(self):
        calls.append(self.n)
        return stable_map(self)

    monkeypatch.setattr(glstab.branching.Decomposition, "stable_map", counted)
    code, _out = run_cli(["stability", "--m", "1", "--q", "2", "--n-max", "6"])
    sizes = 6 - 1 + 1
    assert code == 0
    assert len(calls) <= 2 * sizes + 1, f"{len(calls)} stable_map calls for {sizes} sizes"


def test_zigzag_examples():
    assert run_cli(["zigzag", "--from", "i:(1)", "--to", "i:(1,1)", "--q", "2"]) == (0, "2\n")
    assert run_cli(["zigzag", "--from", "", "--to", "i:(1,1)", "--q", "5"]) == (0, "5\n")
    assert run_cli(["zigzag", "--from", "i:(3)", "--to", "i:(4)", "--q", "2"]) == (0, "1\n")


def test_dims_table():
    code, out = run_cli(["dims", "--m", "1", "--q", "2", "--n-max", "3"])
    assert code == 0
    assert "28" in out


def test_dims_oracle_column_is_vic_count():
    """Each dims oracle cell is `oracle vic-count`'s output, SKIPPED exactly where
    the count exceeds 2**16 or vic-count refuses the space (q past the oracle's
    fields, or m = 0 past its vector guard)."""
    for q, n_max in ((2, 14), (3, 8), (4, 7), (11, 3)):
        for m in range(3):
            mq = ["--m", str(m), "--q", str(q)]
            code, out = run_cli(["dims", *mq, "--n-max", str(n_max), "--format", "json"])
            assert code == 0
            for row in json.loads(out)["rows"]:
                code, count = 2, ""
                if int(row["count"]) <= 2**16:
                    with redirect_stderr(io.StringIO()):
                        code, count = run_cli(["oracle", "vic-count", *mq, "--n", str(row["n"])])
                assert row["oracle"] == ("SKIPPED" if code == 2 else count.strip()), (m, q, row)
    out = run_cli(["dims", "--m", "0", "--q", "2", "--n-max", "14"])[1]
    assert [line.split()[-1] for line in out.splitlines()[-3:]] == ["1", "SKIPPED", "SKIPPED"]


def test_oracle_subcommands():
    assert run_cli(["oracle", "double-cosets", "--n", "3", "--m", "1", "--q", "2"]) == (0, "7\n")
    assert run_cli(["oracle", "classes", "--n", "2", "--q", "3"]) == (0, "8\n")
    code, out = run_cli(["oracle", "vic-count", "--m", "1", "--n", "3", "--q", "2", "--format", "json"])
    assert code == 0 and json.loads(out) == {"value": "28"}


def test_verify_suite_emits_json_lines():
    code, out = run_cli(["verify", "--suite", "census"])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert all(r["status"] in ("PASS", "SKIP") for r in records)


def test_usage_errors_exit_2():
    code, _ = run_cli(["decompose", "--m", "3", "--n", "2", "--q", "2"])
    assert code == 2
    code, _ = run_cli(["decompose", "--m", "1", "--q", "6"])
    assert code == 2
    code, _ = run_cli(["zigzag", "--from", "i:(2,1)", "--to", "i:(1,1)", "--q", "2"])
    assert code == 2
    code, _ = run_cli(["nonsense"])
    assert code == 2


def test_dims_n_max_below_m_exits_2():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["dims", "--m", "3", "--n-max", "2", "--q", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err.getvalue())["error"] == "bad_parameters"


def test_negative_m_exits_2_with_one_reason():
    """dims, stability and decompose refuse m < 0 by one rule, naming m and no n."""
    for argv in (["dims", "--m", "-1", "--q", "2", "--n-max", "3"],
                 ["stability", "--m", "-1", "--q", "2", "--n-max", "3"],
                 ["decompose", "--m", "-1", "--q", "2"]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(argv)
        assert (code, out) == (2, ""), argv
        payload = json.loads(err.getvalue())
        assert payload == {"error": "bad_parameters", "reason": "m must be non-negative, got m=-1"}, argv


def test_weakstab_r_max_below_m_exits_2():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["oracle", "weakstab", "--l", "1", "--m", "2", "--r-max", "0", "--q", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err.getvalue())["error"] == "bad_parameters"


def test_classes_n_below_1_exits_2_naming_n():
    for n in ("0", "-1"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli(["oracle", "classes", "--n", n, "--q", "2"])
        assert (code, out) == (2, ""), n
        payload = json.loads(err.getvalue())
        assert payload["error"] == "bad_parameters", n
        assert payload["reason"] == "n must be >= 1", n


def test_impossible_zigzag_endpoint_exits_2():
    # at q = 2 the only degree-1 cuspidal is iota
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["zigzag", "--from", "1:(1)", "--to", "1:(2)", "--q", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err.getvalue())["error"] == "bad_parameters"
    assert run_cli(["zigzag", "--from", "1:(1)", "--to", "1:(2)", "--q", "3"]) == (0, "1\n")


def test_malformed_shape_exits_2():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["zigzag", "--from", "i:(1)x3", "--to", "i:(2)", "--q", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err.getvalue())["error"] == "bad_parameters"


def test_invariant_violation_exits_1(monkeypatch):
    monkeypatch.setattr(glstab.branching, "vic_hom_count", lambda m, n, q: 1)
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(["decompose", "--m", "1", "--q", "2"])
    assert code == 1
    assert json.loads(err.getvalue())["error"] == "invariant_violated"


def test_decompose_oracle_mismatch_exits_1(monkeypatch):
    """An oracle sum of squares that differs from the DP's is reported in every format,
    with exit 1: FAILED in the table's last line, false and the oracle's value in JSON."""
    dp = glstab.branching.decompose_perm_module(3, 1, 2).sum_squares()
    monkeypatch.setattr(glstab.cli, "double_cosets_gl", lambda n, m, q: dp + 1)
    argv = ["decompose", "--m", "1", "--q", "2", "--format"]
    code, out = run_cli([*argv, "table"])
    assert code == 1
    assert out.splitlines()[-1] == "checks: dimension ok, oracle sum-of-squares FAILED"
    code, out = run_cli([*argv, "json"])
    assert code == 1
    checks = json.loads(out)["checks"]
    assert (checks["sum_sq_ok"], checks["oracle_sum_sq"]) == (False, str(dp + 1))
    code, out = run_cli([*argv, "csv"])
    assert code == 1
    assert out.startswith("shape,multiplicity,class_size,degree\r\n")


def test_large_prime_q_is_bounded():
    # 2**64 - 59 is the largest prime below 2**64, the one bound on q
    for q in (2**61 - 1, 2**64 - 59):
        proc = run_module(["decompose", "--m", "1", "--q", str(q)])
        assert proc.returncode == 0, proc.stderr
        assert "checks: dimension ok" in proc.stdout
    with redirect_stderr(io.StringIO()):
        assert run_cli(["decompose", "--m", "1", "--q", str(2**64)])[0] == 2
        assert run_cli(["decompose", "--m", "1", "--q", str(2**64 + 1)])[0] == 2


def test_decompose_and_stability_sizes_are_bounded():
    """decompose and stability share the dims output rule, checked before any work."""
    # (2 * 6644 - 1) * log10(2) = 3999.8 digits at most; one more size passes 4000
    proc = run_module(["decompose", "--m", "1", "--n", "6644", "--q", "2"])
    assert proc.returncode == 0, proc.stderr
    dim = proc.stdout.splitlines()[-2].split("dim=")[1]
    assert len(dim) == 4000
    proc = run_module(["decompose", "--m", "1", "--n", "6645", "--q", "2"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["limits"]["n_max"] == 6645
    # stability prints n_max - m + 1 sizes, at most 256
    proc = run_module(["stability", "--m", "1", "--q", "2", "--n-max", "256"])
    assert proc.returncode == 0, proc.stderr
    proc = run_module(["stability", "--m", "1", "--q", "2", "--n-max", "257"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "guard_exceeded"


def test_m0_decompose_has_the_m1_size_bound():
    """At m = 0 every printed number is 1, but the trivial degree takes n hook lengths,
    so n has m = 1's bound, refused before any work: 10**9 exits 2 at once."""
    for n in ("6643", "6644"):
        assert run_cli(["decompose", "--m", "0", "--n", n, "--q", "2"])[0] == 0, n
    for n in ("6645", "1000000000"):
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err):
            assert run_cli(["decompose", "--m", "0", "--n", n, "--q", "2"]) == (2, ""), n
        assert time.perf_counter() - start < 1, n
        payload = json.loads(err.getvalue())
        assert (payload["error"], payload["limits"]["n_max"]) == ("guard_exceeded", int(n))


def test_weakstab_guard_refuses_before_smaller_r():
    proc = run_module(["oracle", "weakstab", "--l", "1", "--m", "1", "--r-max", "100", "--q", "2"])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "guard_exceeded"


def test_dims_table_is_bounded():
    """Huge tables are refused up front, in bounded time, with the limits."""
    for m in ("0", "1"):
        proc = run_module(["dims", "--m", m, "--q", "2", "--n-max", "100000000"])
        assert (proc.returncode, proc.stdout) == (2, "")
        err = json.loads(proc.stderr)
        assert err["error"] == "guard_exceeded"
        assert err["limits"]["n_max"] == 100000000


def test_largest_dims_values_print():
    # 25 * (2 * 278 - 25) * log10(2) = 3996 digits at most, under the 4000 bound
    code, out = run_cli(["dims", "--m", "25", "--q", "2", "--n-max", "278", "--format", "csv"])
    assert code == 0
    assert len(out.split("\r\n")[-2].split(",")[1]) > 3990
    with redirect_stderr(io.StringIO()):
        assert run_cli(["dims", "--m", "25", "--q", "2", "--n-max", "279"])[0] == 2
        assert run_cli(["dims", "--m", "0", "--q", "2", "--n-max", "256"])[0] == 2
    assert run_cli(["dims", "--m", "0", "--q", "2", "--n-max", "255"])[0] == 0


def test_shape_count_is_bounded_before_expansion():
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["zigzag", "--from", "i:()", "--to", "2:(1)x100000", "--q", "2"])
    assert (code, out) == (2, "")
    payload = json.loads(err.getvalue())
    assert payload["error"] == "guard_exceeded"
    assert payload["limits"] == {"norm": 200000, "bound": 60}


def test_action_leaving_the_space_exits_1(monkeypatch):
    import glstab.oracle.counts as counts

    monkeypatch.setattr(counts, "_part_image", lambda *args: -1)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["oracle", "double-cosets", "--n", "3", "--m", "1", "--q", "2"])
    assert (code, out) == (1, "")
    assert json.loads(err.getvalue())["error"] == "invariant_violated"


def test_bad_embedding_exits_1(monkeypatch):
    """A weak-stabilization size whose action sends a complement to a key that is
    no complement is an invariant violation, reported as JSON, not a KeyError
    traceback."""
    import glstab.oracle.counts as counts

    # a key shifted up one slot ends in an empty row, which no complement's key does
    monkeypatch.setattr(counts, "_part_image", lambda table, part, rows, S, q, F: part << S)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(["verify", "--suite", "weakstab"])
    assert (code, out) == (1, "")
    assert json.loads(err.getvalue())["error"] == "invariant_violated"


def test_guard_limits_too_long_to_print_exit_2():
    """A guard whose limit has more digits than Python prints still exits 2 with
    JSON, the limit as a power-of-two lower bound; printable limits stay exact."""
    cases = [
        (["classes", "--n", "1000", "--q", "2"], "order", ">= 2**999000"),
        (["classes", "--n", "200", "--q", "2"], "order", ">= 2**39998"),
        (["vic-count", "--m", "1", "--n", "100000", "--q", "2"], "count", ">= 2**199998"),
        (["classes", "--n", "6", "--q", "2"], "order", 20158709760),
        (["vic-count", "--m", "2", "--n", "7", "--q", "2"], "count", 16386048),
    ]
    for argv, key, limit in cases:
        proc = run_module(["oracle", *argv])
        assert (proc.returncode, proc.stdout) == (2, ""), argv
        err = json.loads(proc.stderr)
        assert err["error"] == "guard_exceeded"
        assert err["limits"][key] == limit, argv


def test_class_guard_refuses_before_multiplying_the_order():
    """An order of millions of digits is bounded, not multiplied out."""
    for q, bound in [(2, ">= 2**8997000"), (9, ">= 2**26991000")]:
        proc = run_module(["oracle", "classes", "--n", "3000", "--q", str(q)])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr)["limits"] == {"n": 3000, "q": q, "order": bound}


def test_space_guard_refuses_before_multiplying_the_count():
    """A morphism count of millions of digits is bounded, not multiplied out."""
    for cmd in ("vic-count", "double-cosets"):
        proc = run_module(["oracle", cmd, "--m", "3000", "--n", "3000", "--q", "2"])
        assert (proc.returncode, proc.stdout) == (2, ""), cmd
        err = json.loads(proc.stderr)
        assert err["error"] == "guard_exceeded"
        assert err["limits"] == {"m": 3000, "n": 3000, "q": 2, "count": ">= 2**8997000"}


def test_m0_oracle_work_is_bounded():
    """At m = 0 the space has one point at every n, but the oracle's complement span
    and generator tables have q**n entries: past the guard, decompose skips its
    oracle check and the oracle exits 2, at once even for a huge n."""
    for n, q in [("40", "2"), ("11", "4")]:
        code, out = run_cli(["decompose", "--m", "0", "--n", n, "--q", q])
        assert code == 0
        assert out.endswith("checks: dimension ok, oracle sum-of-squares SKIPPED\n")
    cases = [
        (["double-cosets", "--n", "100", "--m", "0", "--q", "2"], {"n": 100, "q": 2}),
        (["double-cosets", "--n", "10000000", "--m", "0", "--q", "3"], {"n": 10000000, "q": 3}),
        (["weakstab", "--l", "0", "--m", "0", "--r-max", "20000", "--q", "2"], {"n": 20000, "q": 2}),
    ]
    for argv, limits in cases:
        err = io.StringIO()
        with redirect_stderr(err):
            assert run_cli(["oracle", *argv]) == (2, ""), argv
        assert json.loads(err.getvalue())["limits"] == limits


def test_vic_count_counts_the_packed_space():
    """vic-count builds the packed points, not one object per morphism: the largest
    m = 1 space the guard admits is counted in seconds, and m = 0 past the vector
    guard exits 2 at once."""
    proc = run_module(["oracle", "vic-count", "--m", "1", "--n", "11", "--q", "2"], timeout=20)
    assert (proc.returncode, proc.stdout) == (0, "2096128\n"), proc.stderr
    proc = run_module(["oracle", "vic-count", "--m", "0", "--n", "100000", "--q", "2"], timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    err = json.loads(proc.stderr)
    assert (err["error"], err["limits"]) == ("guard_exceeded", {"n": 100000, "q": 2})


def test_guard_violation_exits_2_with_reason():
    code, _ = run_cli(["oracle", "vic-count", "--m", "2", "--n", "7", "--q", "2"])
    assert code == 2


def test_output_is_deterministic():
    for argv in (
        ["decompose", "--m", "2", "--q", "2", "--format", "json"],
        ["stability", "--m", "1", "--q", "3", "--n-max", "4", "--format", "csv"],
    ):
        assert run_cli(argv) == run_cli(argv)
