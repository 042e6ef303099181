"""Guards the CLI's start-up cost: importing ``ufitree.cli`` must not load
scipy, whose ``scipy.stats`` import alone costs about a second per process.
scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import ufitree

SRC = str(Path(ufitree.__file__).resolve().parent.parent)


def test_cli_import_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ufitree.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
