"""Importing the package stays cheap: scipy loads only when calibrating."""

import os
import subprocess
import sys
from pathlib import Path

import oclbudget


def _run(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(oclbudget.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_leaves_scipy_unloaded():
    assert _run("import sys, oclbudget; print('scipy' in sys.modules)") == "False"

