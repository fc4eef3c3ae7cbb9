"""Comparison policies: MAX-A, MAX-P, a fixed-config proxy, and the oracle.

A baseline policy is its Knobs. All baselines run the controller's
per-experience loop, _run_policy, but never adapt: knobs and the budget
state stay fixed for the whole run, and every experience trains with the
same Knobs object. The health score and threshold are still computed and
recorded as diagnostics, so a policy without knobs, which trains at the
knobs of the scenario's initial budgets, produces a trace identical to a
neutral controller (zero sensitivities and a threshold no score reaches, so
it never leaves its initial budgets or the default optimizer).

SUITE_BASELINES is the one list of the suite's constant baselines: MAX-A
(framework defaults, the advanced optimizer on), MAX-P (throughput first)
and the fixed proxy, each with its report label and its knobs, the same for
every scenario. The fixed proxy is a plain fixed-configuration baseline. It
stands in for latent-replay-style systems in comparisons without claiming
to model their internals.

The oracle is a brute-force offline sweep over a 7 x 6 batch/buffer grid
(42 runs). Its best configuration maximizes the mean of final plasticity and
final stability over non-OOM runs, with ties broken by lower total latency,
then by the grid coordinates so the result never depends on enumeration
order.
"""

from __future__ import annotations

import math
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
from .errors import reject
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


# Each constant baseline of the suite: its report label and its knobs.
SUITE_BASELINES: dict[PolicyKind, tuple[str, Knobs]] = {
    PolicyKind.MAX_A: ("max-a", Knobs(32, 1000, OptimizerMode.ADVANCED)),  # framework defaults
    PolicyKind.MAX_P: ("max-p", Knobs(1024, 10, OptimizerMode.DEFAULT)),  # throughput first
    PolicyKind.FIXED: ("fixed-proxy", Knobs(64, 2000, OptimizerMode.DEFAULT)),
}


@dataclass(frozen=True)
class BaselinePolicy:
    """A non-adaptive policy: one Knobs for the whole run.

    knobs of None means the knobs of the scenario's initial budgets, which
    is what makes the policy exactly equivalent to a neutral controller.
    Knobs checks its own fields; the policy checks only that it holds one.
    """

    knobs: Optional[Knobs] = None

    def __post_init__(self):
        if self.knobs is not None and not isinstance(self.knobs, Knobs):
            reject(self, "knobs", f"must be a Knobs or None, got {self.knobs!r}")

    @classmethod
    def from_scenario(cls, kind: PolicyKind, scenario: ScenarioConfig) -> "BaselinePolicy":
        """The suite's policy of this kind, at its SUITE_BASELINES knobs.

        scenario is not read: the knobs do not vary per scenario. The
        signature stays because the benchmark (perfbench) calls it.
        """
        return cls(SUITE_BASELINES[kind][1])


def run_baseline(
    policy: BaselinePolicy,
    scenario: ScenarioConfig,
    env: SimulatedEnvironment | None = None,
) -> RunTrace:
    """Run the full experience sequence with fixed knobs; no adaptation.

    The budget state is the one the fixed knobs occupy, and each update
    returns it unchanged. OOM is recorded the same way as in the controller
    loop and is a valid outcome for a baseline, not an exception. Knobs whose
    batch or replay budget (size times per-item cost) overflows a float have
    no budget state: a SchemaError names BaselinePolicy.knobs. A given env
    must not have trained yet (else SimulationStateError).
    """
    if env is None:
        env = build_environment(scenario)
    config = scenario.controller
    knobs = policy.knobs
    if knobs is None:
        state = scenario.initial_budget_state()
        knobs = derive_knobs(state, config)
    else:
        # Explicit knobs pass through as given: deriving them back from the
        # budgets could floor one off (floor(15 * 0.045 / 0.045) == 14).
        mode = knobs.optimizer_mode
        batch_mb = knobs.batch_size * config.memory.sample_mb
        replay_mb = knobs.buffer_size * config.memory.frame_mb
        if not (batch_mb < math.inf and replay_mb < math.inf):
            rule = f"budgets must be finite on {scenario.name!r}, got {batch_mb} and {replay_mb} MB"
            reject(policy, "knobs", rule)
        state = BudgetState(
            batch_mb,
            replay_mb,
            (
                config.optimizer_advanced_mb
                if mode is OptimizerMode.ADVANCED
                else config.optimizer_default_mb
            ),
            mode,
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
            policy = BaselinePolicy(Knobs(batch, buffer, OptimizerMode.DEFAULT))
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
