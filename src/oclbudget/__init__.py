"""oclbudget: self-adaptive memory budgeting for on-device online continual
learning, paired with a deterministic workload simulator and benchmark
harness.

The controller watches four metrics after every training experience --
plasticity, stability, latency, and memory -- folds them into a single
URGE health score (a product of four weighted logistic factors, one per
metric; whether the scarcest factor dominates is open, ROADMAP item 7),
and reallocates memory among batch processing, the replay buffer, and
optimizer plugins against a time-decaying threshold.

Importing the package loads none of its modules. Each public name below
loads its module on first use (PEP 562), so a program that only loads
scenarios never imports the harness or the baselines. ``oclbudget.<module>``
also resolves after a bare ``import oclbudget``.
"""

import importlib

__version__ = "0.1.0"

# Every public name, listed under the module that defines it.
_EXPORTS = {
    "baselines": """ORACLE_BATCH_GRID ORACLE_BUFFER_GRID BaselinePolicy OracleResult
        PolicyKind run_baseline run_oracle""",
    "controller": """BudgetState ControllerConfig Knobs MemoryModel OptimizerMode Outcome
        RunTrace TraceRecord derive_knobs run_control_loop threshold_at update_budgets""",
    "errors": """CalibrationError IncompleteMatrixError InfeasibleBudgetError
        InvalidPreferenceError NumericDomainError OclBudgetError SchemaError
        SimulationStateError""",
    "harness": """Report ablate_prefetch emit_report measure_overhead parse_report_csv
        run_suite""",
    "metrics": """AccuracyMatrix MetricSnapshot RunningAccuracy Thresholds plasticity
        running_snapshot snapshot stability""",
    "scenario": """PREFERENCE_PRESETS ScenarioConfig build_environment
        bundled_scenario_names bundled_scenario_path load_bundled_scenario load_scenario""",
    "simulator": """CalibrationResult CalibrationTargets PlatformPreset ResponseModel
        SimulatedEnvironment TrainResult calibrate_profile load_calibration_targets
        load_profile_library""",
    "urge": "UrgeScore Weights compute_urge weights_from_preference",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = _EXPORTS.keys() | {"cli", "record", "yamlcfg"}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | set(__all__))
