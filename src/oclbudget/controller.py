"""Budget controller: decaying threshold, multiplicative updates, control loop.

Per experience the loop derives knobs from the current budgets, trains, scores
the resulting metrics, compares the score against a time-decaying threshold,
and scales the batch and replay budgets multiplicatively up or down. The
optimizer budget toggles between a default and an advanced level. A hard
proportional projection keeps the budget total under a capacity cap with a
safety margin, because going over capacity is an unrecoverable failure.

That loop, _run_policy, is the only one: the controller and every baseline
run through it and differ only in how they pick knobs and update the state.
It builds the run's URGE scorer once, takes the threshold of experience e at
index e - 1, and reads the clock only when the caller passes an
OverheadRecorder. A BudgetState holds budgets only; the experience a state
belongs to is the loop's, and each TraceRecord carries it. The loop does not
stage data: the environment counts every experience after the first as
staged while the previous one trains.

The objects built per experience, Knobs, BudgetState, simulator.TrainResult,
metrics.MetricSnapshot and urge.UrgeScore, are validated immutable tuples
(record.Record), not dataclasses: each construction runs its checks, and a
record equals a plain tuple of the same values. A RunTrace does not hold
them: it keeps one flat plain tuple of ints, floats, strings and None per
experience (a row), which costs less memory than the five nested records
and which the garbage collector stops tracking after one collection.
trace.records builds and validates a TraceRecord per row on every read and
caches nothing, so a caller that reads the records repeatedly should hold
the tuple it gets; the summaries, the emitters and the oracle read rows.

A controller step reads what its config fixes directly: the memory model
once per call, the cap as capacity_mb * (1 - safety_margin), and each
experience's threshold by threshold_at's expression inside the timed region.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from .errors import InfeasibleBudgetError, SimulationStateError
from .errors import check_ints, check_ranges, ranges, reject
from .metrics import MetricSnapshot, running_snapshot as build_snapshot
from .record import Record
from .urge import UrgeScore, urge_scorer, weights_from_preference
from .urge import compute_urge  # noqa: F401, patched by perfbench

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .scenario import ScenarioConfig
    from .simulator import SimulatedEnvironment


class OptimizerMode(str, Enum):
    DEFAULT = "default"
    ADVANCED = "advanced"


class Outcome(str, Enum):
    COMPLETED = "completed"
    OOM_FAILED = "oom_failed"
    INFEASIBLE = "infeasible"


# Module globals: on CPython 3.11 an Enum member lookup costs about 14 times
# a global read, and the step and the memory model test the mode every call.
_ADVANCED = OptimizerMode.ADVANCED
_DEFAULT = OptimizerMode.DEFAULT
_INF = math.inf  # likewise a global read, where math.inf is two lookups
# The largest knob size: the memory and latency models turn sizes into floats.
_MAX_SIZE = int(sys.float_info.max)


class Knobs(Record):
    """Actionable training configuration derived from a budget state: an int
    batch_size >= 1, an int buffer_size >= 0, neither above the largest
    float (the cost models turn them into floats), and an OptimizerMode,
    which "default" or "advanced" becomes; else a SchemaError names the field.
    An immutable tuple (record.Record), so knobs equal a plain
    (batch_size, buffer_size, optimizer_mode) tuple.
    """

    __slots__ = ()
    batch_size: int
    buffer_size: int
    optimizer_mode: OptimizerMode

    def __new__(cls, batch_size, buffer_size, optimizer_mode):
        knobs = tuple.__new__(cls, (batch_size, buffer_size, optimizer_mode))
        # A valid triple passes one test with no call; the rest is checked below.
        if not (
            batch_size.__class__ is int and 1 <= batch_size <= _MAX_SIZE
            and buffer_size.__class__ is int and 0 <= buffer_size <= _MAX_SIZE
            and optimizer_mode.__class__ is OptimizerMode
        ):
            check_ints(knobs, "batch_size buffer_size")
            if batch_size < 1:
                reject(knobs, "batch_size", f"must be >= 1, got {batch_size!r}")
            if buffer_size < 0:
                reject(knobs, "buffer_size", f"must be >= 0, got {buffer_size!r}")
            for field, size in (("batch_size", batch_size), ("buffer_size", buffer_size)):
                if size > _MAX_SIZE:  # its repr could be too long to write
                    rule = f"must be <= the largest float, got an int of {size.bit_length()} bits"
                    reject(knobs, field, rule)
            if optimizer_mode not in ("default", "advanced"):  # a member equals its value
                rule = f"must be 'default' or 'advanced', got {optimizer_mode!r}"
                reject(knobs, "optimizer_mode", rule)
            knobs = tuple.__new__(cls, (batch_size, buffer_size, OptimizerMode(optimizer_mode)))
        return knobs


@dataclass(frozen=True)
class MemoryModel:
    """Peak device memory of one experience as a function of its knobs:

        base + B * sample + R * frame + optimizer_delta (advanced only)
             + spike_coeff * max(0, R - spike_threshold)^2

    The last term is the residency blow-up of large replay buffers. The
    simulator's out-of-memory check and the controller's budget arithmetic
    read the same instance, so the two cannot disagree on a cost.
    """

    base_mb: float  # model + framework
    optimizer_delta_mb: float  # advanced optimizer plugin
    sample_mb: float  # per batch sample
    frame_mb: float  # per replay frame
    spike_threshold: int  # residency term activates above this buffer size
    spike_coeff: float  # MB per (frame above threshold)^2

    _RANGES = ranges({
        "[0, inf)": "base_mb optimizer_delta_mb spike_threshold spike_coeff",
        "[1e-9, inf)": "sample_mb frame_mb",
    })

    def __post_init__(self):
        check_ints(self, "spike_threshold")
        check_ranges(self, self._RANGES)

    def memory_mb(self, knobs: Knobs) -> float:
        plugin = self.optimizer_delta_mb if knobs.optimizer_mode is _ADVANCED else 0.0
        overhang = max(0, knobs.buffer_size - self.spike_threshold)
        residency = self.spike_coeff * overhang * overhang
        return (
            self.base_mb
            + knobs.batch_size * self.sample_mb
            + knobs.buffer_size * self.frame_mb
            + plugin
            + residency
        )


@dataclass(frozen=True)
class ControllerConfig:
    """Static controller parameters for one run.

    memory is the simulator's own memory model. Its per-item costs turn
    budgets into knobs, with at least one sample and one frame. Its base
    memory, everything that is neither batch nor replay memory, is the
    default optimizer budget; the advanced budget adds the optimizer delta.
    """

    initial_threshold: float
    threshold_decay: float  # per experience
    batch_sensitivity: float  # alpha
    replay_sensitivity: float  # beta
    memory: MemoryModel
    capacity_mb: float
    safety_margin: float = 0.05

    _RANGES = ranges({
        "[1e-12, 1)": "initial_threshold",
        "[0, inf)": "threshold_decay batch_sensitivity replay_sensitivity",
        "[0, 0.99]": "safety_margin",
    })

    def __post_init__(self):
        check_ranges(self, self._RANGES)
        if not self.optimizer_default_mb < self.capacity_mb < _INF:
            rule = f"must be finite and above the {self.optimizer_default_mb} MB base memory"
            reject(self, "capacity_mb", f"{rule}, got {self.capacity_mb!r}")

    @property
    def optimizer_default_mb(self) -> float:
        return self.memory.base_mb

    @property
    def optimizer_advanced_mb(self) -> float:
        return self.memory.base_mb + self.memory.optimizer_delta_mb

    @property
    def budget_cap_mb(self) -> float:
        return self.capacity_mb * (1.0 - self.safety_margin)


class BudgetState(Record):
    """Memory budgets (MB) for batch processing, replay, and the optimizer.

    optimizer_mode is the optimizer level the update chose; optimizer_mb is
    that level's budget. The mode is kept, not read back from the budget,
    because the two levels can have equal budgets. A validated immutable
    tuple (record.Record): every construction checks the two budgets, and a
    state equals a plain tuple of its four values.
    """

    __slots__ = ()
    batch_mb: float
    replay_mb: float
    optimizer_mb: float
    optimizer_mode: OptimizerMode

    def __new__(cls, batch_mb, replay_mb, optimizer_mb, optimizer_mode=_DEFAULT):
        # NaN fails every comparison, so this rejects NaN as well as inf.
        if not (0.0 <= batch_mb < _INF and 0.0 <= replay_mb < _INF):
            if batch_mb < 0 or replay_mb < 0:
                raise ValueError("budgets must be >= 0")
            raise ValueError(f"budgets must be finite, got {batch_mb} and {replay_mb}")
        return tuple.__new__(cls, (batch_mb, replay_mb, optimizer_mb, optimizer_mode))

    @property
    def total_mb(self) -> float:
        return self.batch_mb + self.replay_mb + self.optimizer_mb


def threshold_at(config: ControllerConfig, t: int) -> float:
    """Exponentially decaying control setpoint at experience index t (0-based)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return config.initial_threshold * math.exp(-config.threshold_decay * t)


def update_budgets(
    prev: BudgetState, score: float, threshold: float, config: ControllerConfig
) -> BudgetState:
    """One budget update step.

    score >= threshold takes the aggressive branch: both budgets scale by
    1 + sensitivity * (score - threshold) and the optimizer moves to the
    advanced level when it fits, else stays at the default level with the
    same grown budgets. Below threshold both budgets shrink by the mirrored
    factor and the optimizer drops to default.

    If the new total would exceed capacity * (1 - safety_margin), the batch
    and replay budgets are scaled proportionally so the total meets the cap
    exactly; the optimizer budget is never scaled, only toggled. A level
    fits when that projection leaves room for one batch sample and one
    replay frame. Raises InfeasibleBudgetError when the default level does
    not fit or a budget goes negative or overflows to infinity.
    """
    memory = config.memory
    if score >= threshold:
        gain = score - threshold
        batch_mb = prev.batch_mb * (1.0 + config.batch_sensitivity * gain)
        replay_mb = prev.replay_mb * (1.0 + config.replay_sensitivity * gain)
        levels = (
            (_ADVANCED, memory.base_mb + memory.optimizer_delta_mb),
            (_DEFAULT, memory.base_mb),
        )
    else:
        drop = threshold - score
        batch_mb = prev.batch_mb * (1.0 - config.batch_sensitivity * drop)
        replay_mb = prev.replay_mb * (1.0 - config.replay_sensitivity * drop)
        levels = ((_DEFAULT, memory.base_mb),)

    if not (0.0 <= batch_mb < _INF and 0.0 <= replay_mb < _INF):
        kind = "negative" if batch_mb < 0 or replay_mb < 0 else "non-finite"
        raise InfeasibleBudgetError(
            f"sensitivity large enough to drive a budget {kind}; "
            f"got batch={batch_mb:.3f} replay={replay_mb:.3f}"
        )

    cap = config.capacity_mb * (1.0 - config.safety_margin)  # budget_cap_mb
    for mode, optimizer_mb in levels:
        batch_fit, replay_fit = batch_mb, replay_mb
        if batch_fit + replay_fit + optimizer_mb > cap:
            available = cap - optimizer_mb
            scalable = batch_fit + replay_fit
            if available <= 0 or scalable <= 0:
                continue
            scale = available / scalable
            batch_fit *= scale
            replay_fit *= scale
            # Rounding can leave the total a few ulps above the cap; nudge down.
            while batch_fit + replay_fit + optimizer_mb > cap:
                batch_fit = math.nextafter(batch_fit, 0.0)
                replay_fit = math.nextafter(replay_fit, 0.0)
            if batch_fit < memory.sample_mb or replay_fit < memory.frame_mb:
                continue
        return BudgetState(batch_fit, replay_fit, optimizer_mb, mode)
    # No level fits. The loop's variables hold the last level's values, and
    # the message words why that level failed; a level that fits never
    # formats one.
    if available <= 0 or scalable <= 0:
        raise InfeasibleBudgetError(
            f"optimizer budget {optimizer_mb:.1f} MB leaves no room under the {cap:.1f} MB cap"
        )
    raise InfeasibleBudgetError(
        "projection pushed a budget below its minimum knob requirement "
        f"(batch {batch_fit:.3f} MB, replay {replay_fit:.3f} MB)"
    )


def derive_knobs(state: BudgetState, config: ControllerConfig) -> Knobs:
    """Floor-divide budgets by per-item costs, with at least one of each."""
    memory = config.memory
    batch = max(1, math.floor(state.batch_mb / memory.sample_mb))
    buffer = max(1, math.floor(state.replay_mb / memory.frame_mb))
    return Knobs(batch, buffer, state.optimizer_mode)


class TraceRecord(Record):
    """Everything observed and decided at one experience boundary.

    budgets is the post-update state (the allocation that will drive the next
    experience). A scored record has a score, threshold and snapshot; an OOM
    record (oom reads snapshot is None) has none, but memory_peak_mb is still
    what the attempt needed. An immutable tuple (record.Record), so a record
    equals a plain tuple of its seven values. A RunTrace holds a row per
    record, not the record: RunTrace.records builds new records on each read.
    """

    __slots__ = ()
    experience: int
    knobs: Knobs
    score: Optional[UrgeScore]
    threshold: Optional[float]
    snapshot: Optional[MetricSnapshot]
    budgets: BudgetState
    memory_peak_mb: float

    def __new__(cls, experience, knobs, score, threshold, snapshot, budgets, memory_peak_mb):
        if not (score is None) is (threshold is None) is (snapshot is None):
            raise ValueError("score, threshold and snapshot must be all set or all None")
        values = (experience, knobs, score, threshold, snapshot, budgets, memory_peak_mb)
        return tuple.__new__(cls, values)

    @property
    def oom(self) -> bool:
        return self.snapshot is None


# A RunTrace row is one plain tuple per experience, in this order:
#   0 experience, 1 batch_size, 2 buffer_size, 3 the knobs' optimizer mode,
#   4 score value, 5-8 plasticity, stability, latency and memory factors,
#   9 threshold, 10 plasticity, 11 stability, 12 latency_s, 13 the
#   snapshot's memory_peak_mb, 14 batch_mb, 15 replay_mb, 16 optimizer_mb,
#   17 the budgets' optimizer mode, 18 the record's memory_peak_mb.
# Each value is the very object the record held, but an optimizer mode is
# held as its value: a member has an instance dictionary, which would keep
# the row tracked by the garbage collector. An OOM row holds None in slots
# 4-13. In the loop's rows slots 13 and 18 hold one float object.
_PLASTICITY, _STABILITY, _LATENCY = 10, 11, 12
_NO_SCORE = (None,) * 10  # slots 4-13 of an OOM row
# A member equals its value, so a mode given as "default" finds its entry too.
_MODE_VALUE = {mode: mode.value for mode in OptimizerMode}
_MODE = {mode.value: mode for mode in OptimizerMode}


def _row(experience, knobs, score, threshold, snapshot, budgets, memory_peak_mb) -> tuple:
    """The row of the TraceRecord these values make (see the layout above)."""
    batch_size, buffer_size, mode = knobs
    batch_mb, replay_mb, optimizer_mb, budget_mode = budgets
    if snapshot is None:
        scored = _NO_SCORE
    else:
        scored = (*score, threshold, *snapshot)
    return (
        experience, batch_size, buffer_size, _MODE_VALUE[mode], *scored,
        batch_mb, replay_mb, optimizer_mb, _MODE_VALUE[budget_mode], memory_peak_mb,
    )


def _record(row: tuple) -> TraceRecord:
    """The validated TraceRecord of a row; the inverse of _row."""
    (
        experience, batch_size, buffer_size, mode, value, f_p, f_s, f_l, f_m, threshold,
        plasticity, stability, latency_s, snapshot_mb, batch_mb, replay_mb, optimizer_mb,
        budget_mode, memory_peak_mb,
    ) = row
    knobs = Knobs(batch_size, buffer_size, _MODE[mode])
    budgets = BudgetState(batch_mb, replay_mb, optimizer_mb, _MODE[budget_mode])
    if value is None:
        return TraceRecord(experience, knobs, None, None, None, budgets, memory_peak_mb)
    score = UrgeScore(value, f_p, f_s, f_l, f_m)
    snapshot = MetricSnapshot(plasticity, stability, latency_s, snapshot_mb)
    return TraceRecord(experience, knobs, score, threshold, snapshot, budgets, memory_peak_mb)


@dataclass(frozen=True, init=False, repr=False)
class RunTrace:
    """One run's experiences, held as rows, and how the run ended.

    RunTrace(records, outcome) flattens each TraceRecord into a row (see
    _row): a plain tuple of the record's values, so a held trace costs about
    30% less memory than its records would and the garbage collector stops
    walking it after one collection. rows is that tuple of rows.

    records builds a new tuple of validated TraceRecords from the rows on
    each read and caches nothing, since a cache would hold the records'
    memory for any caller that reads them once; a caller that reads them
    repeatedly should hold the tuple. The summaries read the rows and build
    no record. Two traces are equal when their rows and outcomes are, which
    is when their records are; the repr writes the records.
    """

    rows: tuple[tuple, ...]
    outcome: Outcome

    def __init__(self, records: Iterable[TraceRecord], outcome: Outcome):
        object.__setattr__(self, "rows", tuple(_row(*record) for record in records))
        object.__setattr__(self, "outcome", outcome)

    @classmethod
    def _of_rows(cls, rows: tuple[tuple, ...], outcome: Outcome) -> "RunTrace":
        """The trace holding these rows, which _run_policy builds with _row."""
        trace = cls.__new__(cls)
        object.__setattr__(trace, "rows", rows)
        object.__setattr__(trace, "outcome", outcome)
        return trace

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """A new tuple of the validated TraceRecords of the rows, on each read."""
        return tuple(map(_record, self.rows))

    def __repr__(self) -> str:
        return f"RunTrace(records={self.records!r}, outcome={self.outcome!r})"

    def total_latency_s(self) -> float:
        return sum(row[_LATENCY] for row in self.rows if row[_LATENCY] is not None)

    def final_plasticity(self) -> Optional[float]:
        for row in reversed(self.rows):
            if row[_PLASTICITY] is not None:
                return row[_PLASTICITY]
        return None

    def final_stability(self) -> Optional[float]:
        for row in reversed(self.rows):
            if row[_STABILITY] is not None:
                return row[_STABILITY]
        return None

    def peak_memory_mb(self) -> float:
        return max((row[-1] for row in self.rows), default=0.0)

    def final_budgets(self) -> Optional[BudgetState]:
        """The last record's budgets, or None for a trace with no records."""
        if not self.rows:
            return None
        *_, batch_mb, replay_mb, optimizer_mb, mode, _ = self.rows[-1]
        return BudgetState(batch_mb, replay_mb, optimizer_mb, _MODE[mode])

    @property
    def completed(self) -> bool:
        return self.outcome is Outcome.COMPLETED


class OverheadRecorder:
    """Accumulates the controller's own wall time, kept out of the trace.

    _run_policy appends one time.perf_counter interval to controller_seconds
    per timed region.
    """

    def __init__(self):
        self.controller_seconds: list[float] = []

    @property
    def total_seconds(self) -> float:
        return sum(self.controller_seconds)


def _run_policy(
    scenario: "ScenarioConfig",
    env: "SimulatedEnvironment",
    state: BudgetState,
    knobs_for: Callable[[BudgetState], Knobs],
    update: Callable[[BudgetState, float, float], BudgetState],
    *,
    overhead: OverheadRecorder | None = None,
) -> RunTrace:
    """The per-experience loop every policy runs, on a fresh environment.

    For each experience e: take the knobs for the current state, train, score
    the metrics and let update move the state against the threshold decayed to
    index e - 1. The environment numbers and stages the experience: each one
    after the first counts as staged while the previous one trained. An
    environment that has trained already would number its experiences past the
    loop's, so it raises SimulationStateError before the first one. The URGE
    scorer and its weights are built once per run. A result with no latency is
    an OOM: the loop ends with an OOM record, the trace failed. Each
    experience's Knobs, MetricSnapshot, UrgeScore and BudgetState are built
    and checked as records, and the trace keeps their values as one row
    (_row); no TraceRecord is built. An InfeasibleBudgetError from update
    propagates with the partial trace attached. Only when an overhead recorder
    is given is the clock read: it times knob derivation, and the snapshot,
    score, threshold and update of each experience, the failing update's
    included. The metric sums are the environment's: its training step
    advances the running accuracy and both sums, so the timed snapshot only
    divides, clamps and builds the MetricSnapshot. The loop reads env.accuracy
    once, since the environment keeps one RunningAccuracy for its whole run;
    in the chain form of a fixed-knob run that object holds O(1) floats, so an
    experience costs the same at K = 1000 as at K = 10. The threshold is
    threshold_at's expression, computed here without its index check.
    """
    config = scenario.controller
    initial_threshold, threshold_decay = config.initial_threshold, config.threshold_decay
    score_of = urge_scorer(scenario.thresholds, weights_from_preference(scenario.preference))
    seconds = overhead.controller_seconds if overhead is not None else None
    clock = time.perf_counter
    accuracy = env.accuracy
    if len(accuracy):
        raise SimulationStateError(f"environment has trained {len(accuracy)} experiences already")
    rows: list[tuple] = []

    for experience in range(1, scenario.num_experiences + 1):
        if seconds is not None:
            start = clock()
        knobs = knobs_for(state)
        if seconds is not None:
            seconds.append(clock() - start)

        latency, memory = env.train_experience(knobs)
        if latency is None:
            rows.append(_row(experience, knobs, None, None, None, state, memory))
            return RunTrace._of_rows(tuple(rows), Outcome.OOM_FAILED)

        if seconds is not None:
            start = clock()
        snap = build_snapshot(accuracy, latency, memory)
        score = score_of(snap)
        theta = initial_threshold * math.exp(-threshold_decay * (experience - 1))
        try:
            state = update(state, score.value, theta)
        except InfeasibleBudgetError as exc:
            if seconds is not None:
                seconds.append(clock() - start)
            exc.partial_trace = RunTrace._of_rows(tuple(rows), Outcome.INFEASIBLE)
            raise
        if seconds is not None:
            seconds.append(clock() - start)

        rows.append(_row(experience, knobs, score, theta, snap, state, memory))

    return RunTrace._of_rows(tuple(rows), Outcome.COMPLETED)


def run_control_loop(
    scenario: "ScenarioConfig",
    env: "SimulatedEnvironment",
    *,
    overhead: OverheadRecorder | None = None,
) -> RunTrace:
    """Run the adaptive controller over every experience of one environment.

    Knobs are derived from the current budgets and the budgets are updated
    after each experience. An infeasible update propagates with the partial
    trace attached.
    """
    config = scenario.controller
    return _run_policy(
        scenario,
        env,
        scenario.initial_budget_state(),
        lambda state: derive_knobs(state, config),
        lambda state, score, theta: update_budgets(state, score, theta, config),
        overhead=overhead,
    )
