"""Suite runner and reporting: traces in, machine-readable reports out.

The CSV schema is fixed:

    scenario,policy,experience,batch,buffer,opt_mode,score,threshold,
    latency_s,mem_peak_mb,plasticity,stability,outcome

one row per experience record, header always present, floats rendered with
6 significant digits. Cells that do not exist for a record (score, latency,
and metrics on an OOM row) are left empty. The structured-log format emits
one JSON object per record line instead.
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
    Outcome,
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
class SummaryRow:
    scenario: str
    policy: str
    total_latency_s: float
    final_plasticity: Optional[float]
    final_stability: Optional[float]
    peak_memory_mb: float
    outcome: Outcome


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
    scenario_name: str
    rows: tuple[SummaryRow, ...]
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
    """Run each requested policy against a fresh environment and summarize.

    The oracle contributes its full grid of runs. Rows are sorted by policy
    label so the report (and its CSV) is deterministic. With
    include_overhead the report also carries the controller's measured
    overhead accounting (an extra instrumented controller run; wall times
    never enter the CSV, so determinism is unaffected).
    """
    if not policies:
        raise ValueError("policy list must not be empty")
    requested = [_canonical_policy(p) for p in policies]

    traces: list[tuple[str, RunTrace]] = []
    oracle_best: Optional[tuple[int, int]] = None
    for policy in requested:
        if policy == "controller":
            trace = run_control_loop(scenario, build_environment(scenario))
            traces.append(("controller", trace))
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
    rows = tuple(
        SummaryRow(
            scenario=scenario.name,
            policy=label,
            total_latency_s=trace.total_latency_s(),
            final_plasticity=trace.final_plasticity(),
            final_stability=trace.final_stability(),
            peak_memory_mb=trace.peak_memory_mb(),
            outcome=trace.outcome,
        )
        for label, trace in traces
    )
    return Report(
        scenario_name=scenario.name,
        rows=rows,
        traces=tuple(traces),
        oracle_best=oracle_best,
        overhead=measure_overhead(scenario) if include_overhead else None,
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


def _record_json(scenario_name: str, policy: str, record: TraceRecord) -> dict:
    snap = record.snapshot
    return {
        "scenario": scenario_name,
        "policy": policy,
        "experience": record.experience,
        "batch": record.knobs.batch_size,
        "buffer": record.knobs.buffer_size,
        "opt_mode": record.knobs.optimizer_mode.value,
        "score": record.score.value if record.score else None,
        "threshold": record.threshold,
        "latency_s": snap.latency_s if snap else None,
        "mem_peak_mb": record.memory_peak_mb,
        "plasticity": snap.plasticity if snap else None,
        "stability": snap.stability if snap else None,
        "budget_batch_mb": record.budgets.batch_mb,
        "budget_replay_mb": record.budgets.replay_mb,
        "budget_optimizer_mb": record.budgets.optimizer_mb,
        "outcome": "oom" if record.oom else "ok",
    }


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
        lines = [
            json.dumps(_record_json(report.scenario_name, policy, record), sort_keys=True)
            for policy, trace in report.traces
            for record in trace.records
        ]
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
    compute.
    """
    policy = BaselinePolicy.fixed()  # scenario initial knobs
    on = run_baseline(policy, scenario.with_prefetch_enabled(True))
    off = run_baseline(policy, scenario.with_prefetch_enabled(False))
    return PrefetchAblation(
        scenario=scenario.name,
        latency_prefetch_on_s=on.total_latency_s(),
        latency_prefetch_off_s=off.total_latency_s(),
    )
