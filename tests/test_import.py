"""The package never loads scipy or numpy: not on import, not when running
policies or training a noisy environment, and not when calibrating.

Each check runs in a fresh interpreter. Where a module is blocked with
``sys.modules[name] = None``, any attempt to import it raises ImportError.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import oclbudget
from oclbudget import bundled_scenario_path, emit_report, load_bundled_scenario, run_suite

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None\n"


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


def test_import_leaves_numpy_unloaded():
    assert _run("import sys, oclbudget; print('numpy' in sys.modules)") == "False"


def test_import_with_numpy_blocked():
    assert _run(BLOCK_NUMPY + "import oclbudget; print(oclbudget.__name__)") == "oclbudget"


def test_run_with_numpy_blocked_matches_in_process_report():
    path = bundled_scenario_path("xavier-gss")
    code = BLOCK_NUMPY + (
        "from oclbudget.cli import main\n"
        f"raise SystemExit(main(['run', '--scenario', {str(path)!r},"
        " '--policy', 'controller', '--policy', 'oracle']))"
    )
    report = run_suite(load_bundled_scenario("xavier-gss"), ["controller", "oracle"])
    assert _run(code) == emit_report(report, "csv").decode("utf-8").strip()


NOISY_TRAINING = """\
import dataclasses
from oclbudget import Knobs, OptimizerMode, build_environment, load_bundled_scenario

scenario = load_bundled_scenario("xavier-gss")
scenario = dataclasses.replace(
    scenario, response=dataclasses.replace(scenario.response, noise_fraction=0.1)
)
env = build_environment(scenario)
for e in range(1, 6):
    result = env.train_experience(e, Knobs(64, 500, OptimizerMode.DEFAULT))
    print(repr(result.latency_s), repr(env.accuracy.row))
"""


def test_noisy_training_with_numpy_blocked_matches_in_process():
    in_process = io.StringIO()
    with contextlib.redirect_stdout(in_process):
        exec(NOISY_TRAINING, {})
    assert _run(BLOCK_NUMPY + NOISY_TRAINING) == in_process.getvalue().strip()


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

CALIBRATE = "from oclbudget.cli import main\nraise SystemExit(main(['calibrate']))"


def test_calibrate_runs_without_scipy():
    assert _run("import sys; sys.modules['scipy'] = None\n" + CALIBRATE) == BUNDLED_CALIBRATE_STDOUT


def test_calibrate_with_numpy_blocked():
    assert _run(BLOCK_NUMPY + CALIBRATE) == BUNDLED_CALIBRATE_STDOUT
