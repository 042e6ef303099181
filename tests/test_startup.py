"""Guards the CLI's start-up cost: importing ``ufitree.cli`` must load
neither scipy, whose ``scipy.stats`` import alone costs about a second per
process, nor ``multiprocessing``, which only a fit with more than one
worker needs. scipy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import ufitree

SRC = str(Path(ufitree.__file__).resolve().parent.parent)


def _loaded_by_cli_import(package: str) -> str:
    """The modules of ``package`` that a fresh ``import ufitree.cli`` loads."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, ufitree.cli\n"
            f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))")
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _loaded_by_cli_import("scipy") == "[]"


def test_cli_import_loads_no_multiprocessing():
    assert _loaded_by_cli_import("multiprocessing") == "[]"
