"""Suite runner and reporting: traces in, machine-readable reports out.

The CSV schema is fixed:

    scenario,policy,experience,batch,buffer,opt_mode,score,threshold,
    latency_s,mem_peak_mb,plasticity,stability,outcome

one row per experience record, header always present, floats rendered with
6 significant digits. A scored row (outcome ok) sets every cell; an OOM row
(outcome oom) leaves score, threshold, latency_s, plasticity and stability
empty, as in xavier-gss,max-a,1,32,1000,advanced,,,,8283,,,oom.

The structured-log format (JSONL) emits one JSON object per record line,
with 16 keys in sorted order:

    batch, budget_batch_mb, budget_optimizer_mb, budget_replay_mb, buffer,
    experience, latency_s, mem_peak_mb, opt_mode, outcome, plasticity,
    policy, scenario, score, stability, threshold

Keys and values are separated by ": " and pairs by ", ". Strings are JSON
strings with non-ASCII characters escaped; integers are written as their
repr, finite floats as their shortest repr, and non-finite floats as NaN,
Infinity and -Infinity. A scored line has outcome "ok" and every value set;
an OOM line has outcome "oom" and null for score, threshold, latency_s,
plasticity and stability.
These are the bytes json.dumps(..., sort_keys=True) gives for the same
values; each line ends with a newline.

Both emitters read each trace's packed values (controller.RunTrace.floats
and RunTrace.stretches, in the layout controller documents above
RunTrace), not its records, and spell each repeated value once. Every float
field of a trace is a float, so an int given there is written as its float
(4370.0, never 4370); a knob size, an exact double, is written with :.0f
(64, never 64.0). The knob, budget and memory cells are spelled once per
stretch of the trace, so a fixed-knob run spells them once.
Each nonzero threshold (CSV and JSONL) is spelled once per report, keyed by
value; zeros are spelled anew each time. Each CSV row shape is a single %
format and each JSONL line one f-string. The bytes are the ones each value
spelled on its own would give.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string  # json.dumps of a str
from typing import Callable, Optional, Sequence, Union

from .baselines import SUITE_BASELINES, BaselinePolicy, PolicyKind, run_baseline, run_oracle
from .controller import (
    _KNOBS_ADVANCED,
    _LATENCY,
    _MODES,
    _OOM,
    _PLASTICITY,
    _SCORE,
    _STABILITY,
    _THRESHOLD,
    OverheadRecorder,
    RunTrace,
    _slot_reader,
    run_control_loop,
)
from .scenario import ScenarioConfig, build_environment

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

KNOWN_POLICIES = ("controller", *(kind.value for kind in SUITE_BASELINES), "oracle")


@dataclass(frozen=True)
class OverheadSummary:
    """Controller-attributable costs measured against simulated training time.

    controller wall time is real seconds spent in knob derivation and, per
    scored experience, in the metric snapshot, score, decayed threshold and
    budget update; simulated training seconds come from the workload model.
    state_bytes is the pickled size of the controller's persistent state
    (budgets, config, weights, thresholds) -- the accuracy bookkeeping lives
    with the evaluation side and is not counted here.
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
    canon = name.strip().lower().replace("-", "_") if isinstance(name, str) else None
    if canon not in KNOWN_POLICIES:
        raise ValueError(f"unknown policy {name!r}; known: {list(KNOWN_POLICIES)}")
    return canon


def _oracle_label(batch: int, buffer: int) -> str:
    return f"oracle[b{batch:04d}-r{buffer:07d}]"


def run_suite(
    scenario: ScenarioConfig,
    policies: Sequence[str],
    *,
    include_overhead: bool = False,
) -> Report:
    """Run each requested policy against a fresh environment.

    policies is a list or tuple of names. Any other value (one str, a set,
    an iterator), an empty list, an unknown or non-str name, and a policy
    named twice in any spelling (both runs would share one label) raise
    ValueError. The oracle contributes its full grid of runs. Traces are sorted by policy label so the report (and its CSV)
    is deterministic. With include_overhead the report also carries the
    controller's measured overhead accounting, timed in the report's own
    controller run (or in an extra controller run when the controller is
    not requested); wall times never enter the CSV, so determinism is
    unaffected.
    """
    if not isinstance(policies, (list, tuple)):  # a str's characters are no policy names
        kind = type(policies).__name__
        raise ValueError(f"policies must be a list of names, not the {kind} {policies!r}")
    if not policies:
        raise ValueError("policy list must not be empty")
    requested = [_canonical_policy(p) for p in policies]
    for i, policy in enumerate(requested):
        if policy in requested[:i]:
            raise ValueError(f"policy {policy!r} is requested more than once")

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
            label, knobs = SUITE_BASELINES[PolicyKind(policy)]
            traces.append((label, run_baseline(BaselinePolicy(knobs), scenario)))

    traces.sort(key=lambda item: item[0])
    if include_overhead and overhead is None:
        overhead = measure_overhead(scenario)
    return Report(
        scenario_name=scenario.name,
        traces=tuple(traces),
        oracle_best=oracle_best,
        overhead=overhead,
    )


def _json_number(value: float) -> str:
    """value as json.dumps writes a float: its repr, NaN, Infinity or -Infinity."""
    if value - value == 0.0:  # finite
        return float.__repr__(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0 else "-Infinity"


class _SpelledOnce(dict):
    """self[value] is spell(value), remembered for each distinct nonzero float.

    A hit is a plain dict lookup. A dict finds a key by equality, and 0.0 and
    -0.0 are equal but spelled differently, so zeros are never stored and are
    spelled on every lookup.
    """

    __slots__ = ("spell",)

    def __init__(self, spell: Callable[[float], str]):
        super().__init__()
        self.spell = spell

    def __missing__(self, value: float) -> str:
        text = self.spell(value)
        if value:
            self[value] = text
        return text


_MODE_NAMES = tuple(mode.value for mode in _MODES)

# The two CSV row shapes. A scored row is the "scenario,policy," prefix,
# experience, the "batch,buffer,opt_mode" cells, score, threshold (spelled
# once per report), latency, memory, plasticity and stability; %.6g spells a
# number as f"{value:.6g}" does. An OOM row keeps the prefix, experience,
# knob and memory cells and leaves the score, threshold, latency, plasticity
# and stability cells empty.
_CSV_ROW = "%s%s,%s,%.6g,%s,%.6g,%s,%.6g,%.6g,ok\n"
_CSV_OOM_ROW = "%s%s,%s,,,,%s,,,oom\n"


# The five row slots both emitters read: score, threshold, plasticity,
# stability and latency, in that order.
_SCORED_SLOTS = _slot_reader(_SCORE, _THRESHOLD, _PLASTICITY, _STABILITY, _LATENCY)


def _csv_rows(report: Report) -> list[str]:
    rows = [",".join(CSV_COLUMNS) + "\n"]
    add = rows.append
    thresholds = _SpelledOnce("%.6g".__mod__)
    for policy, trace in report.traces:
        prefix = f"{report.scenario_name},{policy},"
        scored = _SCORED_SLOTS(trace.floats)
        for stop, (start, _, _, _, memory, batch, buffer, flag) in trace.stretches():
            knob_cells = f"{batch:.0f},{buffer:.0f},{_MODE_NAMES[flag & _KNOBS_ADVANCED]}"
            memory_cell = f"{memory:.6g}"
            experiences = zip(range(start + 1, stop + 1), scored)
            if flag & _OOM:
                for experience, _ in experiences:
                    add(_CSV_OOM_ROW % (prefix, experience, knob_cells, memory_cell))
                continue
            for experience, (value, threshold, plasticity, stability, latency) in experiences:
                add(
                    _CSV_ROW
                    % (
                        prefix,
                        experience,
                        knob_cells,
                        value,
                        thresholds[threshold],
                        latency,
                        memory_cell,
                        plasticity,
                        stability,
                    )
                )
    return rows


# One JSONL line, keys in sorted order, is one f-string in three parts. The
# head (knobs and budgets) and the middle (memory and optimizer mode) are
# spelled once per stretch of the trace; the line adds the rest. An
# experience is written as its str, and a size as its double with :.0f,
# both an int's repr. The policy and scenario pair, which
# sorts between plasticity and score, is encoded once per trace. An OOM line
# writes null for the score, threshold, latency and metrics. A scored line
# spells its latency, metrics and score with !r: a snapshot and a score hold
# finite floats only, which repr spells as JSON does.


def _jsonl_lines(report: Report) -> list[str]:
    number = _json_number
    thresholds = _SpelledOnce(number)
    scenario = _json_string(report.scenario_name)
    lines = []
    add = lines.append
    for policy, trace in report.traces:
        names = f'"policy": {_json_string(policy)}, "scenario": {scenario}'
        scored = _SCORED_SLOTS(trace.floats)
        for stop, entry in trace.stretches():
            start, batch_mb, replay_mb, optimizer_mb, memory, batch, buffer, flag = entry
            head = (
                f'{{"batch": {batch:.0f}, "budget_batch_mb": {number(batch_mb)}, '
                f'"budget_optimizer_mb": {number(optimizer_mb)}, '
                f'"budget_replay_mb": {number(replay_mb)}, "buffer": {buffer:.0f}'
            )
            middle = (
                f', "mem_peak_mb": {number(memory)}, '
                f'"opt_mode": "{_MODE_NAMES[flag & _KNOBS_ADVANCED]}"'
            )
            experiences = zip(range(start + 1, stop + 1), scored)
            if flag & _OOM:
                for experience, _ in experiences:
                    add(
                        f'{head}, "experience": {experience}, "latency_s": null{middle}, '
                        f'"outcome": "oom", "plasticity": null, {names}, "score": null, '
                        '"stability": null, "threshold": null}\n'
                    )
                continue
            for experience, (value, threshold, plasticity, stability, latency) in experiences:
                add(
                    f'{head}, "experience": {experience}, "latency_s": {latency!r}'
                    f'{middle}, "outcome": "ok", "plasticity": {plasticity!r}, {names}, '
                    f'"score": {value!r}, "stability": {stability!r}, '
                    f'"threshold": {thresholds[threshold]}}}\n'
                )
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
    """Parse emit_report CSV output back into typed row dicts (round-trip aid).
    A row of other than one cell per column raises ValueError naming its line."""
    text = data.decode("utf-8").splitlines()
    if not text or text[0] != ",".join(CSV_COLUMNS):
        raise ValueError("not a report CSV: header mismatch")
    rows = []
    for number, line in enumerate(text[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"line {number} has {len(cells)} cells, not {len(CSV_COLUMNS)}")
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
    import pickle  # only here: a program that never measures overhead skips it

    simulated = trace.total_latency_s()
    experiences = max(1, len(trace))
    final_budgets = trace.final_budgets()
    if final_budgets is None:
        final_budgets = scenario.initial_budget_state()
    state_bytes = len(
        pickle.dumps(
            (
                final_budgets,
                scenario.controller,
                scenario.weights,
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
    policy = BaselinePolicy()  # scenario initial knobs
    on = run_baseline(policy, scenario)
    off = run_baseline(policy, scenario, build_environment(scenario, prefetch=False))
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
