"""Exact command-line output, pinned byte for byte against tests/golden/.

Each case runs `glstab.cli.main` in-process and compares stdout and the
exit code with the stored file.  After an intended output change, rewrite
the files with `PYTHONPATH=src python tests/test_cli_golden.py` and review
the diff.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from glstab.cli import main

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "decompose_m1_q2": ["decompose", "--m", "1", "--q", "2"],
    "decompose_m2_q3_n7_json": ["decompose", "--m", "2", "--q", "3", "--n", "7", "--format", "json"],
    "decompose_m3_q2_csv": ["decompose", "--m", "3", "--q", "2", "--format", "csv"],
    "stability_m2_q2": ["stability", "--m", "2", "--q", "2", "--n-max", "8"],
    "stability_m1_q3_json": ["stability", "--m", "1", "--q", "3", "--n-max", "5", "--format", "json"],
    "stability_m2_q2_csv": ["stability", "--m", "2", "--q", "2", "--n-max", "7", "--format", "csv"],
    "zigzag": ["zigzag", "--from", "i:(1)", "--to", "i:(1,1)", "--q", "2"],
    "zigzag_json": ["zigzag", "--from", "i:(1); 2:(1)", "--to", "i:(2); 2:(1)", "--q", "3", "--format", "json"],
    "dims": ["dims", "--m", "1", "--q", "2", "--n-max", "5"],
    "dims_json": ["dims", "--m", "2", "--q", "3", "--n-max", "4", "--format", "json"],
    "dims_csv": ["dims", "--m", "1", "--q", "2", "--n-max", "5", "--format", "csv"],
    "oracle_double_cosets": ["oracle", "double-cosets", "--n", "4", "--m", "2", "--q", "2"],
    "oracle_weakstab": ["oracle", "weakstab", "--l", "1", "--m", "1", "--r-max", "4", "--q", "2"],
    "oracle_classes": ["oracle", "classes", "--n", "3", "--q", "2", "--format", "json"],
    "oracle_vic_count": ["oracle", "vic-count", "--m", "1", "--n", "3", "--q", "2"],
    "verify_quick": ["verify", "--quick"],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def render(argv):
    code, out, _ = run(argv)
    return f"exit {code}\n{out}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")
    assert render(CASES[name]) == expected


def test_oversubscribed_pool_error():
    # at q = 2 the degree-1 pool holds only iota, so no other degree-1 label exists
    code, out, err = run(["zigzag", "--from", "1:(1)", "--to", "1:(2)", "--q", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "bad_parameters",
        "reason": "labels need 1 distinct degree-1 cuspidals; q=2 has 0",
    }


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_bytes(render(argv).encode("utf-8"))
        print(f"wrote {name}", file=sys.stderr)
