"""Comparison policies: MAX-A, MAX-P, a fixed-config proxy, and the oracle.

All baselines run the controller's per-experience loop, _run_policy, but
never adapt: knobs and the budget state stay fixed for the whole run, and
every experience trains with the same Knobs object. The health score and
threshold are still computed and recorded as diagnostics, so a fixed policy
whose knobs equal the controller's initial knobs produces a trace identical
to a neutral controller (zero sensitivities and a threshold no score
reaches, so it never leaves its initial budgets or the default optimizer).

The "fixed" policy is a plain fixed-configuration proxy baseline. It stands
in for latent-replay-style systems in comparisons without claiming to model
their internals. The suite runs each baseline at constant knobs, the same
for every scenario: MAX-A at batch 32, buffer 1000 with the advanced
optimizer; MAX-P at batch 1024, buffer 10; the fixed proxy at batch 64,
buffer 2000.

The oracle is a brute-force offline sweep over a 7 x 6 batch/buffer grid
(42 runs). Its best configuration maximizes the mean of final plasticity and
final stability over non-OOM runs, with ties broken by lower total latency,
then by the grid coordinates so the result never depends on enumeration
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .controller import (
    BudgetState,
    Knobs,
    OptimizerMode,
    Outcome,
    RunTrace,
    _run_policy,
    derive_knobs,
)
from .errors import SchemaError, reject
from .metrics import running_snapshot as build_snapshot  # noqa: F401, patched by perfbench
from .scenario import ScenarioConfig, build_environment
from .simulator import SimulatedEnvironment
from .urge import compute_urge  # noqa: F401, patched by perfbench

ORACLE_BATCH_GRID = (16, 32, 64, 128, 256, 512, 1024)
ORACLE_BUFFER_GRID = (10, 100, 1000, 10000, 100000, 1000000)


class PolicyKind(str, Enum):
    MAX_A = "max_a"
    MAX_P = "max_p"
    FIXED = "fixed"


@dataclass(frozen=True)
class BaselinePolicy:
    """A non-adaptive policy: fixed knobs for the whole run.

    batch/buffer of None means "use the scenario's initial budgets", which is
    what makes the fixed policy exactly equivalent to a neutral controller.
    The two are set together or not at all; the initial budgets use the
    default optimizer, so another optimizer_mode needs explicit knobs. Knobs
    checks the rest, and its SchemaError is re-raised naming this field.
    """

    batch: Optional[int] = None
    buffer: Optional[int] = None
    optimizer_mode: OptimizerMode = OptimizerMode.DEFAULT

    def __post_init__(self):
        batch, buffer, mode = self.batch, self.buffer, self.optimizer_mode
        if (batch is None) is not (buffer is None):
            reject(self, "buffer" if buffer is None else "batch", "must be set with the other knob")
        try:
            # Without knobs the mode is still checked, at the smallest valid ones.
            knobs = Knobs(1, 0, mode) if batch is None else Knobs(batch, buffer, mode)
        except SchemaError as exc:  # Knobs.batch_size is the policy's batch
            reject(self, exc.field.removesuffix("_size"), exc.rule)
        mode = knobs.optimizer_mode
        if batch is None and mode is not OptimizerMode.DEFAULT:
            reject(self, "optimizer_mode", f"needs explicit knobs, got {mode.value!r}")
        object.__setattr__(self, "optimizer_mode", mode)

    @classmethod
    def max_a(cls) -> "BaselinePolicy":
        """Framework defaults: batch 32, buffer 1000, advanced optimizer."""
        return cls(32, 1000, OptimizerMode.ADVANCED)

    @classmethod
    def max_p(cls) -> "BaselinePolicy":
        """Throughput first: batch 1024, buffer 10, default optimizer."""
        return cls(1024, 10, OptimizerMode.DEFAULT)

    @classmethod
    def fixed(
        cls,
        batch: Optional[int] = None,
        buffer: Optional[int] = None,
        optimizer_mode: OptimizerMode = OptimizerMode.DEFAULT,
    ) -> "BaselinePolicy":
        return cls(batch, buffer, optimizer_mode)

    @classmethod
    def from_scenario(cls, kind: PolicyKind, scenario: ScenarioConfig) -> "BaselinePolicy":
        """The suite's policy of this kind, at its constant knobs.

        scenario is no longer read: the presets do not vary per scenario.
        The argument stays so existing callers keep working.
        """
        if kind is PolicyKind.MAX_A:
            return cls.max_a()
        if kind is PolicyKind.MAX_P:
            return cls.max_p()
        return cls.fixed(64, 2000)


def run_baseline(
    policy: BaselinePolicy,
    scenario: ScenarioConfig,
    env: SimulatedEnvironment | None = None,
) -> RunTrace:
    """Run the full experience sequence with fixed knobs; no adaptation.

    The budget state is the one the fixed knobs occupy, and each update
    returns it unchanged. OOM is recorded the same way as in the controller
    loop and is a valid outcome for a baseline, not an exception.
    """
    if env is None:
        env = build_environment(scenario)
    config = scenario.controller
    if policy.batch is None or policy.buffer is None:
        state = scenario.initial_budget_state()
        knobs = derive_knobs(state, config)
    else:
        # Explicit knobs pass through as given: deriving them back from the
        # budgets could floor one off (floor(15 * 0.045 / 0.045) == 14).
        knobs = Knobs(policy.batch, policy.buffer, policy.optimizer_mode)
        state = BudgetState(
            policy.batch * config.memory.sample_mb,
            policy.buffer * config.memory.frame_mb,
            (
                config.optimizer_advanced_mb
                if policy.optimizer_mode is OptimizerMode.ADVANCED
                else config.optimizer_default_mb
            ),
            policy.optimizer_mode,
        )
    return _run_policy(
        scenario,
        env,
        state,
        lambda _state: knobs,
        lambda s, _score, _theta: s,
    )


@dataclass(frozen=True)
class OracleResult:
    """All grid traces plus the winning configuration (None if all OOM)."""

    best_config: Optional[tuple[int, int]]
    traces: tuple[tuple[tuple[int, int], RunTrace], ...]

    @property
    def run_count(self) -> int:
        return len(self.traces)

    def oom_count(self) -> int:
        return sum(1 for _, trace in self.traces if trace.outcome is Outcome.OOM_FAILED)


def run_oracle(
    scenario: ScenarioConfig,
    batch_grid: Sequence[int] = ORACLE_BATCH_GRID,
    buffer_grid: Sequence[int] = ORACLE_BUFFER_GRID,
) -> OracleResult:
    """Brute-force sweep of every (batch, buffer) grid point, one run each."""
    traces: list[tuple[tuple[int, int], RunTrace]] = []
    for batch in batch_grid:
        for buffer in buffer_grid:
            policy = BaselinePolicy.fixed(batch=batch, buffer=buffer)
            trace = run_baseline(policy, scenario)
            traces.append(((batch, buffer), trace))

    def quality(item):
        (batch, buffer), trace = item
        score = (trace.final_plasticity() + trace.final_stability()) / 2.0
        # Maximize score, then minimize latency, then smallest grid point.
        return (-score, trace.total_latency_s(), batch, buffer)

    completed = [item for item in traces if item[1].outcome is Outcome.COMPLETED]
    best_config = min(completed, key=quality)[0] if completed else None
    return OracleResult(best_config=best_config, traces=tuple(traces))
