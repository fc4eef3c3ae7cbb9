"""oclbudget: self-adaptive memory budgeting for on-device online continual
learning, paired with a deterministic workload simulator and benchmark
harness.

The controller watches four metrics after every training experience --
plasticity, stability, latency, and memory -- folds them into a single
URGE health score (a product of four weighted logistic factors, one per
metric; whether the scarcest factor dominates is open, ROADMAP item 7),
and reallocates memory among batch processing, the replay buffer, and
optimizer plugins against a time-decaying threshold.
"""

from .baselines import (
    ORACLE_BATCH_GRID,
    ORACLE_BUFFER_GRID,
    BaselinePolicy,
    OracleResult,
    PolicyKind,
    run_baseline,
    run_oracle,
)
from .controller import (
    BudgetState,
    ControllerConfig,
    Knobs,
    MemoryModel,
    OptimizerMode,
    Outcome,
    RunTrace,
    TraceRecord,
    derive_knobs,
    run_control_loop,
    threshold_at,
    update_budgets,
)
from .errors import (
    CalibrationError,
    IncompleteMatrixError,
    InfeasibleBudgetError,
    InvalidPreferenceError,
    NumericDomainError,
    OclBudgetError,
    SchemaError,
    SimulationStateError,
)
from .harness import (
    Report,
    ablate_prefetch,
    emit_report,
    measure_overhead,
    parse_report_csv,
    run_suite,
)
from .metrics import (
    AccuracyMatrix,
    MetricSnapshot,
    RunningAccuracy,
    Thresholds,
    plasticity,
    running_snapshot,
    snapshot,
    stability,
)
from .scenario import (
    PREFERENCE_PRESETS,
    ScenarioConfig,
    build_environment,
    bundled_scenario_names,
    bundled_scenario_path,
    load_bundled_scenario,
    load_scenario,
)
from .simulator import (
    CalibrationResult,
    CalibrationTargets,
    PlatformPreset,
    ResponseModel,
    SimulatedEnvironment,
    TrainResult,
    calibrate_profile,
    load_calibration_targets,
    load_profile_library,
)
from .urge import UrgeScore, Weights, compute_urge, weights_from_preference

__version__ = "0.1.0"
