"""End-to-end command-line behavior: output formats, determinism, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import glstab
import glstab.branching
from glstab.cli import main


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


def test_zigzag_examples():
    assert run_cli(["zigzag", "--from", "i:(1)", "--to", "i:(1,1)", "--q", "2"]) == (0, "2\n")
    assert run_cli(["zigzag", "--from", "", "--to", "i:(1,1)", "--q", "5"]) == (0, "5\n")
    assert run_cli(["zigzag", "--from", "i:(3)", "--to", "i:(4)", "--q", "2"]) == (0, "1\n")


def test_dims_table():
    code, out = run_cli(["dims", "--m", "1", "--q", "2", "--n-max", "3"])
    assert code == 0
    assert "28" in out


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
    monkeypatch.setattr(glstab.branching, "gl_order", lambda n, q: 1)
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli(["decompose", "--m", "1", "--q", "2"])
    assert code == 1
    assert json.loads(err.getvalue())["error"] == "invariant_violated"


def test_large_prime_q_is_bounded():
    src = str(Path(glstab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "glstab.cli", "decompose", "--m", "1", "--q", str(2**61 - 1)],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert "checks: dimension ok" in proc.stdout
    with redirect_stderr(io.StringIO()):
        code, _ = run_cli(["decompose", "--m", "1", "--q", str(2**64 + 1)])
    assert code == 2


def test_dims_table_is_bounded():
    """Huge tables are refused up front, in bounded time, with the limits."""
    src = str(Path(glstab.__file__).resolve().parents[1])
    for m in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "glstab.cli", "dims", "--m", m, "--q", "2",
             "--n-max", "100000000"],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=10,
        )
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

    monkeypatch.setattr(counts, "_make_action", lambda *args: (lambda key: -1))
    counts._orbit_data.cache_clear()
    err = io.StringIO()
    try:
        with redirect_stderr(err):
            code, out = run_cli(["oracle", "double-cosets", "--n", "3", "--m", "1", "--q", "2"])
    finally:
        counts._orbit_data.cache_clear()
    assert (code, out) == (1, "")
    assert json.loads(err.getvalue())["error"] == "invariant_violated"


def test_guard_violation_exits_2_with_reason():
    code, _ = run_cli(["oracle", "vic-count", "--m", "2", "--n", "7", "--q", "2"])
    assert code == 2


def test_output_is_deterministic():
    for argv in (
        ["decompose", "--m", "2", "--q", "2", "--format", "json"],
        ["stability", "--m", "1", "--q", "3", "--n-max", "4", "--format", "csv"],
    ):
        assert run_cli(argv) == run_cli(argv)
