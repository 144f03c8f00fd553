"""Smoke runs of the scripts under scripts/, which no other test starts."""

import os
import subprocess
import sys
from pathlib import Path

import glstab

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(glstab.__file__).resolve().parents[1])


def _run(script, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_stability_scan_runs():
    lines = _run("stability_scan.py", "--m-max", "1", "--q", "2")
    assert lines[0].split() == ["m", "q", "onset", "bound", "shapes", "seconds"]
    assert len(lines) == 3  # m = 0 and m = 1
    assert not any("BOUND VIOLATED" in line for line in lines)


def test_cross_validate_runs():
    lines = _run("cross_validate.py", "--n-max", "3", "--m-max", "1", "--q", "2")
    assert len(lines) == 3  # n = 1, 2, 3
    assert all(" ok [" in line for line in lines), lines
