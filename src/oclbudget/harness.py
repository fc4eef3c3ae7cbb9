"""Suite runner and reporting: traces in, machine-readable reports out.

The CSV schema is fixed:

    scenario,policy,experience,batch,buffer,opt_mode,score,threshold,
    latency_s,mem_peak_mb,plasticity,stability,outcome

one row per experience record, header always present, floats rendered with
6 significant digits. Cells that do not exist for a record (score, latency,
and metrics on an OOM row) are left empty.

The structured-log format (JSONL) emits one JSON object per record line,
with 16 keys in sorted order:

    batch, budget_batch_mb, budget_optimizer_mb, budget_replay_mb, buffer,
    experience, latency_s, mem_peak_mb, opt_mode, outcome, plasticity,
    policy, scenario, score, stability, threshold

Keys and values are separated by ": " and pairs by ", ". Strings are JSON
strings with non-ASCII characters escaped; integers are written as their
repr, finite floats as their shortest repr, non-finite floats as NaN,
Infinity and -Infinity, and cells that do not exist for a record (score,
threshold, latency and metrics on an OOM record) as null.
These are the bytes json.dumps(..., sort_keys=True) gives for the same
values; each line ends with a newline.

Both emitters spell each repeated value once. The knob, budget and memory
cells are spelled once per stretch of records that hold the same Knobs,
BudgetState and memory objects, so a fixed-knob run, which holds one of
each, spells them once. A nonzero float threshold is spelled once per
report. A CSV row with metrics is a single % format. The bytes are the ones
each value spelled on its own would give.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from .baselines import BaselinePolicy, PolicyKind, run_baseline, run_oracle
from .controller import OverheadRecorder, RunTrace, run_control_loop
from .scenario import ScenarioConfig, build_environment
from .urge import weights_from_preference

CSV_COLUMNS = (
    "scenario",
    "policy",
    "experience",
    "batch",
    "buffer",
    "opt_mode",
    "score",
    "threshold",
    "latency_s",
    "mem_peak_mb",
    "plasticity",
    "stability",
    "outcome",
)

KNOWN_POLICIES = ("controller", "max_a", "max_p", "fixed", "oracle")


@dataclass(frozen=True)
class OverheadSummary:
    """Controller-attributable costs measured against simulated training time.

    controller wall time is real seconds spent in score computation, budget
    update, and knob derivation; simulated training seconds come from the
    workload model. state_bytes is the pickled size of the controller's
    persistent state (budgets, config, weights, thresholds) -- the accuracy
    bookkeeping lives with the evaluation side and is not counted here.
    """

    controller_seconds_total: float
    per_experience_seconds: float
    state_bytes: int
    simulated_training_seconds: float
    overhead_ratio: float


@dataclass(frozen=True)
class Report:
    """One scenario's runs as (policy label, trace) pairs, sorted by label.

    Per-run totals (latency, final plasticity and stability, peak memory,
    outcome) are computed from each RunTrace on demand.
    """

    scenario_name: str
    traces: tuple[tuple[str, RunTrace], ...]
    oracle_best: Optional[tuple[int, int]] = None
    overhead: Optional[OverheadSummary] = None


def _canonical_policy(name: str) -> str:
    canon = name.strip().lower().replace("-", "_")
    if canon not in KNOWN_POLICIES:
        raise ValueError(f"unknown policy {name!r}; known: {list(KNOWN_POLICIES)}")
    return canon


def _policy_label(kind: PolicyKind) -> str:
    return {"max_a": "max-a", "max_p": "max-p", "fixed": "fixed-proxy"}[kind.value]


def _oracle_label(batch: int, buffer: int) -> str:
    return f"oracle[b{batch:04d}-r{buffer:07d}]"


def run_suite(
    scenario: ScenarioConfig,
    policies: Sequence[str],
    *,
    include_overhead: bool = False,
) -> Report:
    """Run each requested policy against a fresh environment.

    The oracle contributes its full grid of runs. Traces are sorted by
    policy label so the report (and its CSV) is deterministic. With
    include_overhead the report also carries the controller's measured
    overhead accounting, timed in the report's own controller run (or in an
    extra controller run when the controller is not requested); wall times
    never enter the CSV, so determinism is unaffected.
    """
    if not policies:
        raise ValueError("policy list must not be empty")
    requested = [_canonical_policy(p) for p in policies]

    traces: list[tuple[str, RunTrace]] = []
    oracle_best: Optional[tuple[int, int]] = None
    overhead: Optional[OverheadSummary] = None
    for policy in requested:
        if policy == "controller":
            recorder = OverheadRecorder() if include_overhead else None
            trace = run_control_loop(scenario, build_environment(scenario), overhead=recorder)
            traces.append(("controller", trace))
            if recorder is not None:
                overhead = _overhead_summary(scenario, trace, recorder)
        elif policy == "oracle":
            result = run_oracle(scenario)
            oracle_best = result.best_config
            for (batch, buffer), trace in result.traces:
                traces.append((_oracle_label(batch, buffer), trace))
        else:
            kind = PolicyKind(policy)
            baseline = BaselinePolicy.from_scenario(kind, scenario)
            trace = run_baseline(baseline, scenario)
            traces.append((_policy_label(kind), trace))

    traces.sort(key=lambda item: item[0])
    if include_overhead and overhead is None:
        overhead = measure_overhead(scenario)
    return Report(
        scenario_name=scenario.name,
        traces=tuple(traces),
        oracle_best=oracle_best,
        overhead=overhead,
    )


def _csv_number(value: Optional[float]) -> str:
    """A CSV cell: 6 significant digits, or empty for an absent value."""
    return "" if value is None else f"{value:.6g}"


def _json_number(value: Optional[float]) -> str:
    """value as json.dumps writes it: null, its repr, NaN, Infinity or -Infinity."""
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


def _spell_once(spell: Callable[[Optional[float]], str]) -> Callable[[Optional[float]], str]:
    """spell, remembering its text for each distinct nonzero float.

    A dict finds a key by equality, and values that are equal can be spelled
    differently: 0.0 and -0.0 everywhere, 1 and 1.0 in JSON. So only nonzero
    floats are remembered; zeros, ints and None are spelled on every call.
    """
    texts: dict[float, str] = {}

    def spelled(value: Optional[float]) -> str:
        if value.__class__ is float and value:
            text = texts.get(value)
            if text is None:
                text = texts[value] = spell(value)
            return text
        return spell(value)

    return spelled


# A CSV row whose score and snapshot exist, as one format: the "scenario,
# policy," prefix, experience, the "batch,buffer,opt_mode" cells, score,
# threshold, latency, memory, plasticity, stability and outcome. %.6g spells
# a number as f"{value:.6g}" does. A row without metrics spells every cell,
# leaving the absent ones empty.
_CSV_ROW = "%s%s,%s,%.6g,%s,%.6g,%s,%.6g,%.6g,%s\n"
_CSV_SPARSE_ROW = "%s%s,%s,%s,%s,%s,%s,%s,%s,%s\n"


def _csv_rows(report: Report) -> list[str]:
    rows = [",".join(CSV_COLUMNS) + "\n"]
    cell = _csv_number
    threshold_cell = _spell_once(cell)
    knobs = memory = object()  # held by no record, so the first one misses
    for policy, trace in report.traces:
        prefix = f"{report.scenario_name},{policy},"
        for experience, record_knobs, score, threshold, snap, _, record_memory, oom in (
            trace.records
        ):
            if record_knobs is not knobs or record_memory is not memory:
                knobs, memory = record_knobs, record_memory
                knob_cells = f"{knobs.batch_size},{knobs.buffer_size},{knobs.optimizer_mode.value}"
                memory_cell = cell(memory)
            if score is not None and snap is not None:
                row = _CSV_ROW % (
                    prefix,
                    experience,
                    knob_cells,
                    score.value,
                    threshold_cell(threshold),
                    snap.latency_s,
                    memory_cell,
                    snap.plasticity,
                    snap.stability,
                    "oom" if oom else "ok",
                )
            else:
                row = _CSV_SPARSE_ROW % (
                    prefix,
                    experience,
                    knob_cells,
                    "" if score is None else cell(score.value),
                    threshold_cell(threshold),
                    "" if snap is None else cell(snap.latency_s),
                    memory_cell,
                    "" if snap is None else cell(snap.plasticity),
                    "" if snap is None else cell(snap.stability),
                    "oom" if oom else "ok",
                )
            rows.append(row)
    return rows


# One JSONL line, keys in sorted order, in three parts. The head (knobs and
# budgets) and the middle (memory and optimizer mode) are spelled once per
# stretch of records that hold the same knobs, budgets and memory objects;
# the line adds the rest. Each %s slot takes a value already spelled as JSON
# (an int's str is its repr); the policy and scenario pair, which sorts
# between plasticity and score, is one slot encoded once per trace. When the
# four metric values are finite floats, the line spells them with %r.
_JSONL_HEAD = (
    '{"batch": %s, "budget_batch_mb": %s, "budget_optimizer_mb": %s, '
    '"budget_replay_mb": %s, "buffer": %s'
)
_JSONL_MIDDLE = ', "mem_peak_mb": %s, "opt_mode": "%s"'
_JSONL_LINE = (
    '%s, "experience": %s, "latency_s": %s%s, "outcome": "%s", "plasticity": %s, '
    '%s, "score": %s, "stability": %s, "threshold": %s}\n'
)
_JSONL_FINITE_LINE = (
    '%s, "experience": %s, "latency_s": %r%s, "outcome": "%s", "plasticity": %r, '
    '%s, "score": %r, "stability": %r, "threshold": %s}\n'
)


def _jsonl_lines(report: Report) -> list[str]:
    number = _json_number
    threshold_text = _spell_once(number)
    scenario = json.dumps(report.scenario_name)
    knobs = budgets = memory = object()  # held by no record, so the first one misses
    lines = []
    for policy, trace in report.traces:
        names = f'"policy": {json.dumps(policy)}, "scenario": {scenario}'
        for experience, record_knobs, score, threshold, snap, record_budgets, record_memory, oom in (
            trace.records
        ):
            if (
                record_knobs is not knobs
                or record_budgets is not budgets
                or record_memory is not memory
            ):
                knobs, budgets, memory = record_knobs, record_budgets, record_memory
                head = _JSONL_HEAD % (
                    knobs.batch_size,
                    number(budgets.batch_mb),
                    number(budgets.optimizer_mb),
                    number(budgets.replay_mb),
                    knobs.buffer_size,
                )
                middle = _JSONL_MIDDLE % (number(memory), knobs.optimizer_mode.value)
            if snap is None or score is None:
                latency = plasticity = stability = value = None
            else:
                plasticity, stability, latency, _ = snap
                value = score.value
            # %r spells an exact finite float as number does, and exact floats
            # with a finite sum are all finite.
            if latency.__class__ is plasticity.__class__ is stability.__class__ is (
                value.__class__
            ) is float and (total := latency + plasticity + stability + value) - total == 0.0:
                line = _JSONL_FINITE_LINE % (
                    head,
                    experience,
                    latency,
                    middle,
                    "oom" if oom else "ok",
                    plasticity,
                    names,
                    value,
                    stability,
                    threshold_text(threshold),
                )
            else:
                line = _JSONL_LINE % (
                    head,
                    experience,
                    number(latency),
                    middle,
                    "oom" if oom else "ok",
                    number(plasticity),
                    names,
                    number(value),
                    number(stability),
                    threshold_text(threshold),
                )
            lines.append(line)
    return lines


def emit_report(report: Report, format: str = "csv") -> bytes:
    """Render the report as CSV or a line-oriented structured log (JSONL).

    A pure function of the report: identical reports yield identical bytes.
    """
    if format == "csv":
        return "".join(_csv_rows(report)).encode("utf-8")
    if format in ("log", "jsonl"):
        return "".join(_jsonl_lines(report)).encode("utf-8")
    raise ValueError(f"unknown report format {format!r}; use 'csv' or 'log'")


def parse_report_csv(data: bytes) -> list[dict[str, Union[str, float, int, None]]]:
    """Parse emit_report CSV output back into typed row dicts (round-trip aid)."""
    text = data.decode("utf-8").splitlines()
    if not text or text[0] != ",".join(CSV_COLUMNS):
        raise ValueError("not a report CSV: header mismatch")
    rows = []
    for line in text[1:]:
        cells = line.split(",")
        row: dict[str, Union[str, float, int, None]] = dict(zip(CSV_COLUMNS, cells))
        for key in ("experience", "batch", "buffer"):
            row[key] = int(row[key])
        for key in ("score", "threshold", "latency_s", "mem_peak_mb", "plasticity", "stability"):
            row[key] = float(row[key]) if row[key] != "" else None
        rows.append(row)
    return rows


def measure_overhead(scenario: ScenarioConfig) -> OverheadSummary:
    """Run the controller once and report its own costs next to simulated time."""
    recorder = OverheadRecorder()
    trace = run_control_loop(scenario, build_environment(scenario), overhead=recorder)
    return _overhead_summary(scenario, trace, recorder)


def _overhead_summary(
    scenario: ScenarioConfig, trace: RunTrace, recorder: OverheadRecorder
) -> OverheadSummary:
    """The overhead accounting of one controller run timed by recorder."""
    simulated = trace.total_latency_s()
    experiences = max(1, len(trace.records))
    final_budgets = trace.records[-1].budgets if trace.records else scenario.initial_budget_state()
    state_bytes = len(
        pickle.dumps(
            (
                final_budgets,
                scenario.controller,
                weights_from_preference(scenario.preference),
                scenario.thresholds,
            ),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    )
    total = recorder.total_seconds
    return OverheadSummary(
        controller_seconds_total=total,
        per_experience_seconds=total / experiences,
        state_bytes=state_bytes,
        simulated_training_seconds=simulated,
        overhead_ratio=total / simulated if simulated > 0 else 0.0,
    )


@dataclass(frozen=True)
class PrefetchAblation:
    scenario: str
    latency_prefetch_on_s: float
    latency_prefetch_off_s: float

    @property
    def reduction(self) -> float:
        return 1.0 - self.latency_prefetch_on_s / self.latency_prefetch_off_s


def ablate_prefetch(scenario: ScenarioConfig) -> PrefetchAblation:
    """End-to-end latency with the prefetch pipeline on vs off.

    Measured with a fixed policy at the scenario's initial knobs so the
    comparison isolates the pipeline effect: prefetch changes neither
    training parameters nor accuracy, only how much loading hides behind
    compute. Raises ValueError when no experience completes at those knobs,
    since there is then no latency to compare.
    """
    policy = BaselinePolicy.fixed()  # scenario initial knobs
    on = run_baseline(policy, scenario.with_prefetch_enabled(True))
    off = run_baseline(policy, scenario.with_prefetch_enabled(False))
    latency_off = off.total_latency_s()
    if latency_off == 0:
        raise ValueError(
            f"scenario {scenario.name!r}: no experience completes at the initial "
            "knobs, so there is no latency to compare"
        )
    return PrefetchAblation(
        scenario=scenario.name,
        latency_prefetch_on_s=on.total_latency_s(),
        latency_prefetch_off_s=latency_off,
    )
