"""Lint: importing the package loads no heavy numeric library.

Every command and every benchmark operation pays the package's import time
and memory (numpy alone adds about 0.16 s and 14 MB), so glstab, its oracle
and its CLI stay on the standard library.
"""

import os
import subprocess
import sys
from pathlib import Path

import glstab

HEAVY = ("numpy", "scipy")


def test_package_import_loads_no_numpy_or_scipy():
    script = (
        "import sys\n"
        "import glstab, glstab.oracle, glstab.cli\n"
        f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    src = str(Path(glstab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
