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
record equals a plain tuple of the same values. The step, the loop and
trace.records build each one through the record's own __new__, bound once
below (_new_knobs(Knobs, ...) and so on), which runs those same checks
without the class call's dispatch, and read fields by unpacking the tuple.
A RunTrace does not hold them: the loop packs each experience's values as
it goes, the ten floats of its score, threshold and snapshot into an
array('d'), and its knobs, budgets and memory peak once per stretch of
experiences whose packed values are the same, as a fixed-knob run's are from
start to end, with no object for the garbage collector to walk.
Every value is stored as a double: a float keeps its exact bits and an int
in a float field reads back as the nearest float. The records reject such
an int beyond the largest float, and a knob size no double holds exactly,
so a size reads back as the int it was.
trace.records builds and validates a TraceRecord per experience on every
read and caches nothing, so a caller that reads the records repeatedly
should hold the tuple it gets; the summaries, the emitters and the oracle
read the packed values.

A controller step reads what its config fixes directly: the memory model
once per call, the cap as capacity_mb * (1 - safety_margin), and each
experience's threshold by threshold_at's expression inside the timed region.
"""

from __future__ import annotations

import math
import struct
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .errors import InfeasibleBudgetError, SimulationStateError
from .errors import MAX_FLOAT, check_ints, check_number, check_ranges, ranges, reject
from .metrics import MetricSnapshot, running_snapshot as build_snapshot
from .record import Record
from .urge import UrgeScore, urge_scorer
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
# Every int up to 2**53 is a double; a larger knob size must equal its float.
_EXACT_INTS = 2**53


class Knobs(Record):
    """Actionable training configuration derived from a budget state: an int
    batch_size >= 1, an int buffer_size >= 0, each one a double holds
    exactly (any int up to 2**53, or a larger one equal to its float), and
    an OptimizerMode, which "default" or "advanced" becomes; else a
    SchemaError names the field. An immutable tuple (record.Record), so
    knobs equal a plain (batch_size, buffer_size, optimizer_mode) tuple.
    """

    __slots__ = ()
    batch_size: int
    buffer_size: int
    optimizer_mode: OptimizerMode

    def __new__(cls, batch_size, buffer_size, optimizer_mode):
        knobs = tuple.__new__(cls, (batch_size, buffer_size, optimizer_mode))
        # A valid triple passes one test with no call; the rest is checked below.
        if not (
            batch_size.__class__ is int and 1 <= batch_size <= _EXACT_INTS
            and buffer_size.__class__ is int and 0 <= buffer_size <= _EXACT_INTS
            and optimizer_mode.__class__ is OptimizerMode
        ):
            check_ints(knobs, "batch_size buffer_size")
            if batch_size < 1:
                reject(knobs, "batch_size", f"must be >= 1, got {batch_size!r}")
            if buffer_size < 0:
                reject(knobs, "buffer_size", f"must be >= 0, got {buffer_size!r}")
            for field, size in (("batch_size", batch_size), ("buffer_size", buffer_size)):
                # Its repr could be too long to write, and float() could overflow.
                if size > MAX_FLOAT or float(size) != size:
                    rule = "must be an int a double holds exactly"
                    reject(knobs, field, f"{rule}, got an int of {size.bit_length()} bits")
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
        batch_size, buffer_size, optimizer_mode = knobs
        plugin = self.optimizer_delta_mb if optimizer_mode is _ADVANCED else 0.0
        overhang = buffer_size - self.spike_threshold
        overhang = overhang if overhang > 0 else 0
        residency = self.spike_coeff * overhang * overhang
        return (
            self.base_mb
            + batch_size * self.sample_mb
            + buffer_size * self.frame_mb
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
    capacity_mb is above the base memory and holds no more samples or
    frames than a float can count, as derive_knobs floors budgets up to it.
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
        "[0, inf)": "threshold_decay batch_sensitivity replay_sensitivity capacity_mb",
        "[0, 0.99]": "safety_margin",
    })

    def __post_init__(self):
        check_ranges(self, self._RANGES)
        memory, capacity = self.memory, self.capacity_mb
        if not memory.base_mb < capacity:
            rule = f"must be finite and above the {memory.base_mb} MB base memory"
            reject(self, "capacity_mb", f"{rule}, got {capacity!r}")
        # derive_knobs floors a budget, at most the capacity, over its per-item
        # cost: a quotient past the float range has no int to floor to.
        free = capacity - memory.base_mb
        for items, item_mb, budget in (
            ("replay frames", memory.frame_mb, free - memory.sample_mb),
            ("batch samples", memory.sample_mb, free),
        ):
            if not budget / item_mb < _INF:
                rule = f"holds more {items} of {item_mb} MB than a float can count"
                reject(self, "capacity_mb", f"its {capacity} MB capacity {rule}")

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
    because the two levels can have equal budgets; as in Knobs, "default"
    or "advanced" becomes its member. A validated immutable tuple
    (record.Record): every construction checks the two budgets against
    _RANGES (numbers, finite and >= 0), that the optimizer budget is a
    number a float can hold and that the mode is one; else a SchemaError
    names the field. A state equals a plain tuple of its four values.
    """

    __slots__ = ()
    batch_mb: float
    replay_mb: float
    optimizer_mb: float
    optimizer_mode: OptimizerMode

    _RANGES = ranges({"[0, inf)": "batch_mb replay_mb"})

    def __new__(cls, batch_mb, replay_mb, optimizer_mb, optimizer_mode=_DEFAULT):
        state = tuple.__new__(cls, (batch_mb, replay_mb, optimizer_mb, optimizer_mode))
        # NaN fails every comparison, so this rejects NaN as well as inf; the
        # largest float bounds the ints a float can hold.
        try:
            valid = (
                0.0 <= batch_mb <= MAX_FLOAT
                and 0.0 <= replay_mb <= MAX_FLOAT
                and optimizer_mb.__class__ is float
                and optimizer_mode.__class__ is OptimizerMode
            )
        except TypeError:  # a budget no float compares with; check_ranges names it
            valid = False
        if not valid:
            check_ranges(state, cls._RANGES)
            check_number(state, "optimizer_mb", optimizer_mb)
            if optimizer_mode not in ("default", "advanced"):  # a member equals its value
                rule = f"must be 'default' or 'advanced', got {optimizer_mode!r}"
                reject(state, "optimizer_mode", rule)
            mode = OptimizerMode(optimizer_mode)
            state = tuple.__new__(cls, (batch_mb, replay_mb, optimizer_mb, mode))
        return state

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
    prev_batch_mb, prev_replay_mb, _, _ = prev
    if score >= threshold:
        gain = score - threshold
        batch_mb = prev_batch_mb * (1.0 + config.batch_sensitivity * gain)
        replay_mb = prev_replay_mb * (1.0 + config.replay_sensitivity * gain)
        levels = (
            (_ADVANCED, memory.base_mb + memory.optimizer_delta_mb),
            (_DEFAULT, memory.base_mb),
        )
    else:
        drop = threshold - score
        batch_mb = prev_batch_mb * (1.0 - config.batch_sensitivity * drop)
        replay_mb = prev_replay_mb * (1.0 - config.replay_sensitivity * drop)
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
        return _new_budgets(BudgetState, batch_fit, replay_fit, optimizer_mb, mode)
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
    batch_mb, replay_mb, _, mode = state
    batch = math.floor(batch_mb / memory.sample_mb)
    buffer = math.floor(replay_mb / memory.frame_mb)
    return _new_knobs(Knobs, batch if batch > 1 else 1, buffer if buffer > 1 else 1, mode)


class TraceRecord(Record):
    """Everything observed and decided at one experience boundary.

    budgets is the post-update state (the allocation that will drive the next
    experience). A scored record has a score, threshold and snapshot; an OOM
    record (oom reads snapshot is None) has none, but memory_peak_mb is still
    what the attempt needed. experience is an int, and threshold and
    memory_peak_mb are numbers a float can hold (errors.check_number); else
    a SchemaError names the field. An immutable tuple (record.Record), so a
    record equals a plain tuple of its seven values. A RunTrace packs a
    record's values, not the record: RunTrace.records builds new records on
    each read.
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
        record = tuple.__new__(cls, values)
        if not (
            experience.__class__ is int
            and memory_peak_mb.__class__ is float
            and (threshold is None or threshold.__class__ is float)
        ):
            check_ints(record, "experience")
            if threshold is not None:
                check_number(record, "threshold", threshold)
            check_number(record, "memory_peak_mb", memory_peak_mb)
        return record

    @property
    def oom(self) -> bool:
        return self.snapshot is None


# Each record's own __new__, bound once: _new_knobs(Knobs, ...) runs the same
# checks and returns the same object as Knobs(...), without the dispatch
# through type.__call__ that a class call pays on every experience.
_new_knobs = Knobs.__new__
_new_budgets = BudgetState.__new__
_new_snapshot = MetricSnapshot.__new__
_new_score = UrgeScore.__new__
_new_record = TraceRecord.__new__


# How a RunTrace packs its experiences, oldest first, in two tables:
#   floats, an array('d'), holds _WIDTH doubles per experience (its row):
#     0 score value, 1-4 plasticity, stability, latency and memory factors,
#     5 threshold, 6 plasticity, 7 stability, 8 latency_s and 9 the
#     snapshot's memory_peak_mb; an OOM experience holds 0.0 in each.
#   the stretch table, an array('B'), holds a 57-byte entry (_STRETCH) per
#     stretch of rows whose entry values pack to the same bytes: the
#     stretch's first row, then the doubles batch_mb, replay_mb,
#     optimizer_mb, the record's memory_peak_mb, batch_size and buffer_size,
#     and a flag byte. The flag sets _KNOBS_ADVANCED or _BUDGETS_ADVANCED
#     when the knobs' or the budgets' optimizer mode is ADVANCED, and _OOM
#     when the record has no snapshot.
# A double slot holds float(value), so a float keeps its bits (-0.0 and NaN
# included) and a knob size, an exact double, its value. A stretch starts
# exactly where the packed values change, so equal records pack to equal
# bytes. An experience's number is its row plus one. A fixed-knob run is one
# stretch; a controller run, whose budgets change every experience, adds an
# entry to every row. README gives the bytes a held trace takes.
_WIDTH = 10
_SCORE, _THRESHOLD, _PLASTICITY, _STABILITY, _LATENCY = 0, 5, 6, 7, 8
_KNOBS_ADVANCED, _BUDGETS_ADVANCED, _OOM = 1, 2, 4
_PACK_ROW = struct.Struct(f"{_WIDTH}d").pack
_NO_SCORE = bytes(8 * _WIDTH)  # the row of an OOM experience, ten 0.0
_STRETCH = struct.Struct("=q6dB")
# An entry packs in two parts: its values, which _append compares with the
# last stretch's, and, for a new stretch, the start row before them.
_PACK_START = struct.Struct("=q").pack
_PACK_VALUES = struct.Struct("=6dB").pack
_MODES = (_DEFAULT, _ADVANCED)


def _slot_reader(*slots: int) -> Callable[[array], Iterator[tuple]]:
    """A reader of RunTrace.floats: it gives the floats in these slots of
    each row, in slot order, as one tuple, and builds no float for the other
    slots (a struct layout that skips them)."""
    layout = "".join("d" if slot in slots else "8x" for slot in range(_WIDTH))
    return struct.Struct(layout).iter_unpack


_EVERY_SLOT = _slot_reader(*range(_WIDTH))


class RunTrace:
    """One run's experiences, packed, and how the run ended.

    RunTrace(records, outcome) packs each TraceRecord's values (see the
    layout above), as _run_policy does while it runs: a row of ten floats
    per experience and one entry per stretch of experiences whose knobs,
    budgets and memory peak pack to the same bytes, so no object per
    experience for the garbage collector to walk. The records must be
    numbered 1..n in order, else ValueError, and their knobs and budgets
    are checked as Knobs and BudgetState are. floats is the rows' storage,
    stretches() reads the stretch table and outcome is how the run ended;
    treat them as read-only. Every float field reads back as a float, so an
    int given there reads back as float(int).

    records builds a new tuple of validated TraceRecords on each read and
    caches nothing, since a cache would hold the records' memory for any
    caller that reads them once; a caller that reads them repeatedly should
    hold the tuple. The summaries, the emitters and the oracle read the
    storage and build no record. len() is the number of experiences. Equal
    records pack to the same bytes, whatever objects they hold, so two
    traces are equal when their outcomes are and their two tables are, byte
    for byte: a trace holding a NaN equals its copy, and a -0.0 where the
    other holds 0.0 makes another trace. The repr writes the records.
    """

    __slots__ = ("_floats", "_stretches", "_outcome", "_knobs", "_budgets", "_memory", "_values")

    floats = property(attrgetter("_floats"), doc="The array('d'), _WIDTH floats per experience.")
    outcome = property(attrgetter("_outcome"), doc="How the run ended.")

    def __init__(self, records: Iterable[TraceRecord], outcome: Outcome):
        self._floats = array("d")
        self._stretches = array("B")
        # The last row's objects and its stretch's packed values, which the
        # next row's are compared with.
        self._knobs = self._budgets = self._memory = self._values = None
        append = self._append
        for row, (experience, knobs, *values, budgets, memory) in enumerate(records, 1):
            if experience.__class__ is not int or experience != row:
                raise ValueError(f"record {row} must be experience {row}, got {experience!r}")
            # A plain tuple of knobs or budgets is checked, its mode made a member.
            append(_new_knobs(Knobs, *knobs), *values, _new_budgets(BudgetState, *budgets), memory)
        self._end(outcome)

    def _end(self, outcome: Outcome) -> None:
        """Set how the run ended, and let go of the last row's objects, which
        only _append reads."""
        self._outcome = outcome
        self._knobs = self._budgets = self._memory = None

    def _append(self, knobs, score, threshold, snapshot, budgets, memory_peak_mb):
        """Pack the values of the next TraceRecord(experience, knobs, ...);
        a value that cannot be packed raises before anything is added.
        _run_policy appends while it runs and ends the trace (_end)."""
        if snapshot is None:
            flag = _OOM
            row = _NO_SCORE
        else:
            row = _PACK_ROW(*(score + (threshold,) + snapshot))
            # The same objects as a scored last row pack to the same values.
            if knobs is self._knobs and budgets is self._budgets and memory_peak_mb is self._memory:
                self._floats.frombytes(row)
                return
            flag = 0
        # Knobs and BudgetState hold a member, so identity tests the mode.
        flag |= (knobs[2] is _ADVANCED) | (budgets[3] is _ADVANCED) << 1
        values = _PACK_VALUES(
            budgets[0], budgets[1], budgets[2], memory_peak_mb, knobs[0], knobs[1], flag
        )
        floats = self._floats
        if values != self._values:
            self._stretches.frombytes(_PACK_START(len(floats) // _WIDTH) + values)
            self._values = values
        floats.frombytes(row)
        # An OOM row's objects are not kept: a scored row holding them packs
        # another flag.
        self._knobs = None if flag & _OOM else knobs
        self._budgets, self._memory = budgets, memory_peak_mb

    def _entries(self) -> list[tuple]:
        """The stretch table's entries as tuples, oldest first."""
        return list(_STRETCH.iter_unpack(self._stretches))

    def stretches(self) -> Iterator[tuple]:
        """(stop, entry) per stretch, oldest first: the entry is (start,
        batch_mb, replay_mb, optimizer_mb, memory_peak_mb, batch_size,
        buffer_size, flag), every value but start and flag a float, and
        the stretch holds rows start to stop - 1, the experiences start + 1
        to stop."""
        entries = self._entries()
        stops = [entry[0] for entry in entries[1:]]
        stops.append(len(self._floats) // _WIDTH)
        return zip(stops, entries)

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """A new tuple of the validated TraceRecords of the rows, on each read."""
        records = []
        add = records.append
        rows = _EVERY_SLOT(self._floats)
        for stop, (start, batch_mb, replay_mb, optimizer_mb, memory, batch, buffer, flag) in (
            self.stretches()
        ):
            knobs = _new_knobs(Knobs, int(batch), int(buffer), _MODES[flag & _KNOBS_ADVANCED])
            mode = _MODES[flag & _BUDGETS_ADVANCED != 0]
            budgets = _new_budgets(BudgetState, batch_mb, replay_mb, optimizer_mb, mode)
            experiences = zip(range(start + 1, stop + 1), rows)
            if flag & _OOM:
                for e, _ in experiences:
                    add(_new_record(TraceRecord, e, knobs, None, None, None, budgets, memory))
                continue
            for e, (value, f_p, f_s, f_l, f_m, threshold, *metrics) in experiences:
                score = _new_score(UrgeScore, value, f_p, f_s, f_l, f_m)
                snapshot = _new_snapshot(MetricSnapshot, *metrics)
                add(_new_record(TraceRecord, e, knobs, score, threshold, snapshot, budgets, memory))
        return tuple(records)

    def __len__(self) -> int:
        return len(self._floats) // _WIDTH

    def __eq__(self, other):
        if other.__class__ is not RunTrace:
            return NotImplemented
        return (
            self._outcome == other._outcome
            and self._floats.tobytes() == other._floats.tobytes()
            and self._stretches.tobytes() == other._stretches.tobytes()
        )

    def __hash__(self):
        return hash((self._outcome, self._floats.tobytes(), self._stretches.tobytes()))

    def __repr__(self) -> str:
        return f"RunTrace(records={self.records!r}, outcome={self._outcome!r})"

    def _last_scored(self, slot: int) -> Optional[float]:
        """The float in slot of the last scored experience, or None."""
        stop = len(self._floats) // _WIDTH
        for start, *_, flag in reversed(self._entries()):
            if not flag & _OOM:
                return self._floats[(stop - 1) * _WIDTH + slot]
            stop = start
        return None

    def total_latency_s(self) -> float:
        # An OOM experience holds 0.0 here, and adding 0.0 leaves a sum() of
        # floats as it is, bit for bit: it changes no float but -0.0, which
        # such a sum, started from 0, never holds.
        return sum(self._floats[_LATENCY::_WIDTH])

    def final_plasticity(self) -> Optional[float]:
        return self._last_scored(_PLASTICITY)

    def final_stability(self) -> Optional[float]:
        return self._last_scored(_STABILITY)

    def peak_memory_mb(self) -> float:
        # A stretch repeats one value, which cannot change what max() picks.
        return max([entry[4] for entry in self._entries()], default=0.0)

    def final_budgets(self) -> Optional[BudgetState]:
        """The last record's budgets, or None for a trace with no records."""
        entries = self._entries()
        if not entries:
            return None
        _, batch_mb, replay_mb, optimizer_mb, _, _, _, flag = entries[-1]
        mode = _MODES[flag & _BUDGETS_ADVANCED != 0]
        return BudgetState(batch_mb, replay_mb, optimizer_mb, mode)

    @property
    def completed(self) -> bool:
        return self._outcome is Outcome.COMPLETED


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
    and checked as records, and the trace packs their values
    (RunTrace._append); no TraceRecord is built. An InfeasibleBudgetError
    from update propagates with the partial trace attached. Only when an overhead recorder
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
    score_of = urge_scorer(scenario.thresholds, scenario.weights)
    seconds = overhead.controller_seconds if overhead is not None else None
    clock = time.perf_counter
    accuracy = env.accuracy
    if len(accuracy):
        raise SimulationStateError(f"environment has trained {len(accuracy)} experiences already")
    trace = RunTrace((), Outcome.COMPLETED)
    add = trace._append

    for experience in range(1, scenario.num_experiences + 1):
        if seconds is not None:
            start = clock()
        knobs = knobs_for(state)
        if seconds is not None:
            seconds.append(clock() - start)

        latency, memory = env.train_experience(knobs)
        if latency is None:
            add(knobs, None, None, None, state, memory)
            trace._end(Outcome.OOM_FAILED)
            return trace

        if seconds is not None:
            start = clock()
        snap = build_snapshot(accuracy, latency, memory)
        score = score_of(snap)
        theta = initial_threshold * math.exp(-threshold_decay * (experience - 1))
        try:
            state = update(state, score[0], theta)
        except InfeasibleBudgetError as exc:
            if seconds is not None:
                seconds.append(clock() - start)
            trace._end(Outcome.INFEASIBLE)
            exc.partial_trace = trace
            raise
        if seconds is not None:
            seconds.append(clock() - start)

        add(knobs, score, theta, snap, state, memory)

    trace._end(Outcome.COMPLETED)
    return trace


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
