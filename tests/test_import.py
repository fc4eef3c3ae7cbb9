"""The package never loads scipy: not on import, and not when calibrating."""

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



# `oclbudget calibrate` on the bundled targets, as printed before the fit
# stopped using scipy.
BUNDLED_CALIBRATE_STDOUT = """\
latency fit max relative residual: 0.000%
memory fit max relative residual: 0.000%
stability fit max relative residual: 0.000%
compute cost per sample: 0.001 s
batch knee:              192
activation per sample:   8.4 MB
base memory:             4200 MB
optimizer multiplier:    2.94457
optimizer memory delta:  107 MB
stability gain max:      0.95
stability buffer scale:  699.998"""


def test_calibrate_runs_without_scipy():
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from oclbudget.cli import main\n"
        "raise SystemExit(main(['calibrate']))"
    )
    assert _run(code) == BUNDLED_CALIBRATE_STDOUT
