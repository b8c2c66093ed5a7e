"""perfbench's traced run (``perfbench/run.py --trace 1``) wraps about
30 library functions and methods, looked up by name in their owners'
``__dict__`` (``perfbench/tracing.py``, ``install``).  Renaming or
deleting one of them under ``src/`` breaks only the next traced run,
so this test installs the tracer the way that run does."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_installs_over_the_library():
    # A fresh interpreter: install() rewraps library classes for the
    # rest of the process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-B", "-c",
         "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT / "perfbench", env=env, capture_output=True, text=True,
        timeout=120)
    assert result.returncode == 0, result.stderr
