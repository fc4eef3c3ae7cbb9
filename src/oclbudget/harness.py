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
"""

from __future__ import annotations

import io
import json
import pickle
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .baselines import BaselinePolicy, PolicyKind, run_baseline, run_oracle
from .controller import (
    OverheadRecorder,
    RunTrace,
    TraceRecord,
    run_control_loop,
)
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


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return f"{value:.6g}"


def _record_cells(scenario_name: str, policy: str, record: TraceRecord) -> list[str]:
    snap = record.snapshot
    return [
        scenario_name,
        policy,
        str(record.experience),
        str(record.knobs.batch_size),
        str(record.knobs.buffer_size),
        record.knobs.optimizer_mode.value,
        _fmt(record.score.value if record.score else None),
        _fmt(record.threshold),
        _fmt(snap.latency_s if snap else None),
        _fmt(record.memory_peak_mb),
        _fmt(snap.plasticity if snap else None),
        _fmt(snap.stability if snap else None),
        "oom" if record.oom else "ok",
    ]


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


# One JSONL line, keys in sorted order. Each slot takes a value already
# spelled as JSON (an int's str is its repr); the policy and scenario pair,
# which sorts between plasticity and score, is one slot encoded once per trace.
_JSONL_LINE = (
    '{"batch": %s, "budget_batch_mb": %s, "budget_optimizer_mb": %s, '
    '"budget_replay_mb": %s, "buffer": %s, "experience": %s, "latency_s": %s, '
    '"mem_peak_mb": %s, "opt_mode": "%s", "outcome": "%s", "plasticity": %s, '
    '%s, "score": %s, "stability": %s, "threshold": %s}'
)


def _jsonl_lines(scenario_name: str, policy: str, trace: RunTrace) -> list[str]:
    names = f'"policy": {json.dumps(policy)}, "scenario": {json.dumps(scenario_name)}'
    number = _json_number
    lines = []
    for record in trace.records:
        snap = record.snapshot
        knobs = record.knobs
        budgets = record.budgets
        score = record.score
        lines.append(
            _JSONL_LINE
            % (
                knobs.batch_size,
                number(budgets.batch_mb),
                number(budgets.optimizer_mb),
                number(budgets.replay_mb),
                knobs.buffer_size,
                record.experience,
                number(snap.latency_s) if snap else "null",
                number(record.memory_peak_mb),
                knobs.optimizer_mode.value,
                "oom" if record.oom else "ok",
                number(snap.plasticity) if snap else "null",
                names,
                number(score.value) if score else "null",
                number(snap.stability) if snap else "null",
                number(record.threshold),
            )
        )
    return lines


def emit_report(report: Report, format: str = "csv") -> bytes:
    """Render the report as CSV or a line-oriented structured log (JSONL).

    A pure function of the report: identical reports yield identical bytes.
    """
    if format == "csv":
        out = io.StringIO()
        out.write(",".join(CSV_COLUMNS) + "\n")
        for policy, trace in report.traces:
            for record in trace.records:
                out.write(",".join(_record_cells(report.scenario_name, policy, record)) + "\n")
        return out.getvalue().encode("utf-8")
    if format in ("log", "jsonl"):
        lines: list[str] = []
        for policy, trace in report.traces:
            lines += _jsonl_lines(report.scenario_name, policy, trace)
        return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
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
