"""Tripwire: a run a spec describes never imports numpy.

numpy is optional (the ``[perf]`` extra) and only the vector engine and one
unused batch draw use it, each importing it on first use.  Loading it costs
every process about 12 MiB and 50 ms, so the runner's import path, and a
run, must stay numpy-free.  Checked in a fresh interpreter, since this test
process may have loaded numpy for other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROGRAM = """
import sys
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
assert execute_spec(RunSpec(protocol="current", relay_count=30, authority_count=9)).success
print("numpy" in sys.modules)
"""


def test_a_run_does_not_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    completed = subprocess.run(
        [sys.executable, "-c", _PROGRAM], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr[-4000:]
    assert completed.stdout.split() == ["False"]
