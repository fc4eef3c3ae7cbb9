"""What importing the package loads.

It never loads scipy or numpy: not on import, not when running policies or
training a noisy environment, and not when calibrating. Its own modules load
on first use, so loading a scenario leaves the harness and the baselines
unloaded, while every public name still imports as before.

Each check runs in a fresh interpreter. Where a module is blocked with
``sys.modules[name] = None``, any attempt to import it raises ImportError.
"""

import contextlib
import io
import json
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
for _ in range(5):
    result = env.train_experience(Knobs(64, 500, OptimizerMode.DEFAULT))
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


# The public names, by the module that defines each.
EXPORTS = {
    "baselines": [
        "ORACLE_BATCH_GRID", "ORACLE_BUFFER_GRID", "BaselinePolicy", "OracleResult",
        "PolicyKind", "run_baseline", "run_oracle",
    ],
    "controller": [
        "BudgetState", "ControllerConfig", "Knobs", "MemoryModel", "OptimizerMode", "Outcome",
        "RunTrace", "TraceRecord", "derive_knobs", "run_control_loop", "threshold_at",
        "update_budgets",
    ],
    "errors": [
        "CalibrationError", "IncompleteMatrixError", "InfeasibleBudgetError",
        "InvalidPreferenceError", "OclBudgetError", "SchemaError",
        "SimulationStateError",
    ],
    "harness": [
        "Report", "ablate_prefetch", "emit_report", "measure_overhead", "parse_report_csv",
        "run_suite",
    ],
    "metrics": [
        "AccuracyMatrix", "MetricSnapshot", "RunningAccuracy", "Thresholds", "plasticity",
        "running_snapshot", "snapshot", "stability",
    ],
    "scenario": [
        "PREFERENCE_PRESETS", "ScenarioConfig", "build_environment", "bundled_scenario_names",
        "bundled_scenario_path", "load_bundled_scenario", "load_scenario",
    ],
    "simulator": [
        "CalibrationResult", "CalibrationTargets", "PlatformPreset", "ResponseModel",
        "SimulatedEnvironment", "TrainResult", "calibrate_profile", "load_calibration_targets",
        "load_profile_library",
    ],
    "urge": ["UrgeScore", "Weights", "compute_urge", "weights_from_preference"],
}
ALL_NAMES = sorted(name for names in EXPORTS.values() for name in names)
SUBMODULES = sorted(EXPORTS) + ["cli", "record", "yamlcfg"]


def test_export_list_has_every_public_name():
    assert len(ALL_NAMES) == 60
    assert sorted(oclbudget.__all__) == ALL_NAMES


def test_import_loads_no_submodule():
    code = "import sys, oclbudget\nprint([m for m in sys.modules if m.startswith('oclbudget.')])"
    assert _run(code) == "[]"
    assert _run("import sys, oclbudget\nprint(vars(oclbudget)['__version__'])") == "0.1.0"


def test_loading_a_scenario_leaves_harness_baselines_and_pickle_unloaded():
    code = (
        "import sys, oclbudget\n"
        "oclbudget.load_bundled_scenario('xavier-gss')\n"
        "print([m for m in ('oclbudget.harness', 'oclbudget.baselines', 'pickle', 'json')"
        " if m in sys.modules])"
    )
    assert _run(code) == "[]"


EVERY_NAME_IMPORTS = """\
import importlib, json, oclbudget
bad = []
for module, names in EXPORTS.items():
    for name in names:
        if name not in dir(oclbudget) or name not in oclbudget.__all__:
            bad.append(name)
        scope = {}
        exec(f"from oclbudget import {name}", scope)
        if scope[name] is not getattr(importlib.import_module(f"oclbudget.{module}"), name):
            bad.append(name)
print(json.dumps(bad))
"""


def test_every_public_name_imports_from_its_module():
    assert json.loads(_run(f"EXPORTS = {EXPORTS!r}\n" + EVERY_NAME_IMPORTS)) == []


def test_star_import_binds_every_public_name():
    code = (
        "import json\n"
        "from oclbudget import *\n"
        "names = [n for n in dir() if not n.startswith('_') and n != 'json']\n"
        "print(json.dumps(sorted(names)))"
    )
    assert json.loads(_run(code)) == ALL_NAMES


def test_submodule_resolves_after_bare_import():
    code = (
        "import json, types, oclbudget\n"
        f"print(json.dumps([n for n in {SUBMODULES!r}"
        " if not isinstance(getattr(oclbudget, n), types.ModuleType)]))"
    )
    assert json.loads(_run(code)) == []


def test_unknown_name_raises():
    code = (
        "import oclbudget\n"
        "try:\n"
        "    oclbudget.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
        "try:\n"
        "    from oclbudget import no_such_name\n"
        "except ImportError:\n"
        "    print('ImportError')"
    )
    assert _run(code) == "module 'oclbudget' has no attribute 'no_such_name'\nImportError"
