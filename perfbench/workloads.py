"""The four benchmark workloads, driven through oclbudget's public API and CLI.

Each workload builds its inputs from the seed, then runs passes. A pass is a
fixed amount of work that is repeated for timing and checked every time:

* bundled-suite: the 12 bundled scenarios x all five policies through
  ``run_suite(..., include_overhead=True)`` plus CSV and JSONL emission.
* long-horizon: the fixed-proxy policy on server-er at K=500 and K=2000.
* controller-stress: the controller at K=200 on seeded parameter draws
  around every bundled scenario (see ``draw_variants``).
* cli: ``oclbudget run`` then ``oclbudget calibrate``, each in a fresh
  interpreter, one after the other.

The policy under test (the controller, or the fixed proxy on long-horizon)
gives the simulated metrics. A controller run that ends in OOM or an
infeasible budget is a measured outcome reported in ``completed_share``; an
operation fails only when an output check fails or an undocumented
exception escapes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oclbudget.baselines as baselines
import oclbudget.controller as controller
import oclbudget.harness as harness
import oclbudget.metrics as metrics
import oclbudget.scenario as scenario
from oclbudget.errors import InfeasibleBudgetError

HERE = Path(__file__).resolve().parent


@dataclass
class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def op(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        self.check(ok, reason)

    def check(self, ok: bool, reason: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


def _reference_work() -> float:
    """Fixed pure-Python work that uses nothing from oclbudget.

    Float math, tuple building, dict updates and calls, like the simulator's
    inner loops. Its wall time is the unit host times are reported in.
    """
    total = 0.0
    buckets: dict[int, float] = {}
    row: list[tuple[float, int]] = []
    for i in range(1, 400):
        x = math.exp(-i / 150.0) * (1.0 + 1.0 / i)
        row.append((x, i))
        buckets[i % 31] = buckets.get(i % 31, 0.0) + x
        total += max(0.0, min(1.0, x))
    return total + sum(tuple(v * 0.99 for v, _ in row)) + len(buckets)


def reference_seconds() -> float:
    """Median wall time of three runs of the reference work."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Reference:
    """The reference unit, measured close in time to each timed step.

    A measurement less than REUSE_S old is reused, so short steps share one
    and the reference costs little. A step longer than BRACKET_S gets a
    second measurement after it, and the two are averaged, because the
    machine's speed can change during the step.
    """

    REUSE_S = 0.1
    BRACKET_S = 0.02

    def __init__(self, measure=reference_seconds):
        self.measure = measure
        self._last = (float("-inf"), 0.0)

    def now(self) -> float:
        taken, value = self._last
        return value if time.perf_counter() - taken < self.REUSE_S else self.fresh()

    def fresh(self) -> float:
        value = self.measure()
        self._last = (time.perf_counter(), value)
        return value


@dataclass
class Op:
    """One timed operation: host seconds, and the same in reference units.

    A step's seconds divided by the reference time measured around it is
    its time in reference units. The machine's speed drifts on a shared
    host, and the ratio cancels the drift that the step and the reference
    share.
    """

    seconds: float = 0.0
    ref_units: float = 0.0
    experiences: int = 0  # simulated experiences attempted (OOM ones included)
    refs: list[float] = field(default_factory=list)  # reference seconds, one per step

    def step(self, reference: Reference, fn, *args, **kwargs):
        ref = reference.now()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        if elapsed > reference.BRACKET_S:
            ref = (ref + reference.fresh()) / 2.0
        self.refs.append(ref)
        self.seconds += elapsed
        self.ref_units += elapsed / ref
        return result


@dataclass
class PassStats:
    ops: list[Op] = field(default_factory=list)
    overhead_ratios: list[float] = field(default_factory=list)  # controller s / simulated s
    overhead_refs: list[float] = field(default_factory=list)  # the same in reference units

    def op(self) -> Op:
        self.ops.append(Op())
        return self.ops[-1]

    def overhead(self, controller_s: float, simulated_s: float, ref_s: float) -> None:
        self.overhead_ratios.append(controller_s / simulated_s)
        self.overhead_refs.append(controller_s / ref_s / simulated_s)

    def median_reference_s(self) -> float:
        return statistics.median(ref for op in self.ops for ref in op.refs)


@dataclass
class Quality:
    """Simulated results of the policy under test; exact for a given seed."""

    completed_share: float
    sim_latency_s: float
    sim_plasticity: float
    sim_stability: float


def completed_experiences(traces) -> int:
    """Experiences whose training and metrics completed (OOM records excluded)."""
    return sum(1 for t in traces for r in t.records if r.snapshot is not None)


def _quality(traces: list[controller.RunTrace], horizons: list[int]) -> Quality:
    """completed_share is completed experiences over the experiences requested.
    Over the runs that recorded at least one experience's metrics: the
    geometric mean of each run's mean latency per experience (latencies span
    orders of magnitude across platforms and run lengths, so an arithmetic
    mean follows the slowest few runs) and the mean final plasticity and
    stability."""
    scored = [t for t in traces if t.final_plasticity() is not None]
    per_exp = [
        t.total_latency_s() / sum(1 for r in t.records if r.snapshot is not None)
        for t in scored
    ]
    return Quality(
        completed_share=completed_experiences(traces) / sum(horizons),
        sim_latency_s=statistics.geometric_mean(per_exp),
        sim_plasticity=statistics.fmean(t.final_plasticity() for t in scored),
        sim_stability=statistics.fmean(t.final_stability() for t in scored),
    )


def _memory_consistent(trace: controller.RunTrace, capacity_mb: float) -> bool:
    """Every ok record fits in capacity and every OOM record exceeds it."""
    return all(
        (r.memory_peak_mb > capacity_mb) if r.oom else (r.memory_peak_mb <= capacity_mb)
        for r in trace.records
    )


class Workload:
    name = ""
    probe_scenarios: tuple[str, ...] = ()
    in_process = True  # False: the work runs in child processes

    def __init__(self, seed: int, tally: Tally, workdir: Path, child_env: dict, tracer=None):
        self.seed = seed
        self.tally = tally
        self.workdir = workdir
        self.child_env = child_env
        self.tracer = tracer
        self.quality: Quality | None = None
        self.reference = Reference()

    def new_op(self) -> None:
        if self.tracer is not None:
            self.tracer.new_run()

    def run_pass(self) -> PassStats:
        raise NotImplementedError

    def info(self) -> dict:
        return {}


class BundledSuite(Workload):
    name = "bundled-suite"
    policies = ("controller", "max_a", "max_p", "fixed", "oracle")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        names = scenario.bundled_scenario_names()
        self.probe_scenarios = tuple(names)
        self.scenarios = [
            scenario.load_bundled_scenario(n).with_seed(self.seed + i)
            for i, n in enumerate(names)
        ]
        self.digests: dict[str, tuple[str, str]] = {}

    def run_pass(self) -> PassStats:
        stats = PassStats()
        controller_s = simulated_s = 0.0
        controller_traces = []
        for sc in self.scenarios:
            self.new_op()
            op = stats.op()
            report, csv, jsonl = op.step(self.reference, self._suite, sc)
            op.experiences = sum(len(t.records) for _, t in report.traces)
            controller_s += report.overhead.controller_seconds_total
            simulated_s += report.overhead.simulated_training_seconds
            ctrl = self._check(sc, report, csv, jsonl)
            if ctrl is not None:
                controller_traces.append(ctrl)
        stats.overhead(controller_s, simulated_s, stats.median_reference_s())
        if self.quality is None:
            self.quality = _quality(controller_traces, [sc.num_experiences for sc in self.scenarios])
        return stats

    def _suite(self, sc):
        report = harness.run_suite(sc, self.policies, include_overhead=True)
        return report, harness.emit_report(report, "csv"), harness.emit_report(report, "jsonl")

    def _check(self, sc, report, csv: bytes, jsonl: bytes) -> controller.RunTrace:
        capacity = sc.platform.capacity_mb
        ctrl = None
        oracle_runs = 0
        for label, trace in report.traces:
            ok = _memory_consistent(trace, capacity)
            if label == "controller":
                ctrl = trace
                ok = ok and trace.completed
            oracle_runs += label.startswith("oracle[")
            self.tally.op(ok, f"{sc.name}/{label}: memory or outcome check failed")
        self.tally.check(ctrl is not None, f"{sc.name}: no controller trace")
        self.tally.check(oracle_runs == 42, f"{sc.name}: {oracle_runs} oracle traces, not 42")
        digest = (hashlib.sha256(csv).hexdigest(), hashlib.sha256(jsonl).hexdigest())
        if sc.name not in self.digests:
            self.digests[sc.name] = digest
            records = sum(len(t.records) for _, t in report.traces)
            self.tally.check(
                _csv_round_trips(csv), f"{sc.name}: CSV does not round-trip"
            )
            lines = jsonl.decode("utf-8").splitlines()
            self.tally.check(
                len(lines) == records and all(json.loads(x)["scenario"] == sc.name for x in lines),
                f"{sc.name}: JSONL does not hold one record per line",
            )
        self.tally.check(
            self.digests[sc.name] == digest, f"{sc.name}: report bytes changed between passes"
        )
        return ctrl

    def info(self) -> dict:
        csv = hashlib.sha256("".join(d[0] for _, d in sorted(self.digests.items())).encode())
        jsonl = hashlib.sha256("".join(d[1] for _, d in sorted(self.digests.items())).encode())
        return {"report_sha256": {"csv": csv.hexdigest(), "jsonl": jsonl.hexdigest()}}


def _csv_round_trips(data: bytes) -> bool:
    """parse_report_csv, rendered back with the report's formatting, gives the same bytes."""

    def cell(value):
        if value is None:
            return ""
        return f"{value:.6g}" if isinstance(value, float) else str(value)

    rows = harness.parse_report_csv(data)
    lines = [",".join(harness.CSV_COLUMNS)]
    lines += [",".join(cell(row[k]) for k in harness.CSV_COLUMNS) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8") == data


class LongHorizon(Workload):
    name = "long-horizon"
    probe_scenarios = ("server-er",)
    horizons = (500, 1000)
    overhead_horizon = 200  # the controller completes server-er at K=200, but not at K=500
    overhead_repeats = 3

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        base = scenario.load_bundled_scenario("server-er").with_seed(self.seed)
        self.policy = baselines.BaselinePolicy.from_scenario(baselines.PolicyKind.FIXED, base)
        self.runs = [dataclasses.replace(base, num_experiences=k) for k in self.horizons]
        self.overhead_scenario = dataclasses.replace(base, num_experiences=self.overhead_horizon)

    def _run(self, sc):
        env = scenario.build_environment(sc)
        return env, baselines.run_baseline(self.policy, sc, env)

    def run_pass(self) -> PassStats:
        stats = PassStats()
        op = stats.op()  # both horizons form one operation
        traces = []
        for sc in self.runs:
            self.new_op()
            env, trace = op.step(self.reference, self._run, sc)
            op.experiences += len(trace.records)
            k = sc.num_experiences
            matrix = env.accuracy_matrix
            self.tally.op(
                trace.completed
                and len(trace.records) == k
                and trace.final_plasticity() == metrics.plasticity(matrix, k)
                and trace.final_stability() == metrics.stability(matrix, k),
                f"K={k}: record count or final metrics differ from the accuracy matrix",
            )
            traces.append(trace)
        for _ in range(self.overhead_repeats):
            self.new_op()
            ref = self.reference.now()
            summary = harness.measure_overhead(self.overhead_scenario)
            stats.overhead(summary.controller_seconds_total, summary.simulated_training_seconds, ref)
        if self.quality is None:
            self.quality = _quality(traces, list(self.horizons))
        return stats


# Controller-stress draws. Each continuous parameter is the bundled value
# times a factor from U(0.5, 1.5), except the safety margin, drawn from
# U(0.025, 0.075) around the schema default 0.05. The preference is one of
# the three presets. Draws are Latin-hypercube stratified per scenario, so
# every run covers each parameter's range evenly.
STRESS_HORIZON = 200
STRESS_VARIANTS = 48  # per bundled scenario
STRESS_FACTORS = ("batch_sensitivity", "replay_sensitivity", "initial_threshold", "threshold_decay")
STRESS_FACTOR_RANGE = (0.5, 1.5)
STRESS_MARGIN_RANGE = (0.025, 0.075)


def _strata(rng: random.Random, n: int) -> list[float]:
    order = list(range(n))
    rng.shuffle(order)
    return [(slot + rng.random()) / n for slot in order]


def draw_variants(base: scenario.ScenarioConfig, rng: random.Random, n: int):
    """n controller-parameter variants of one scenario at the stress horizon."""
    lo, hi = STRESS_FACTOR_RANGE
    factors = {p: [lo + (hi - lo) * u for u in _strata(rng, n)] for p in STRESS_FACTORS}
    m_lo, m_hi = STRESS_MARGIN_RANGE
    margins = [m_lo + (m_hi - m_lo) * u for u in _strata(rng, n)]
    presets = sorted(scenario.PREFERENCE_PRESETS)
    prefs = [presets[int(u * len(presets))] for u in _strata(rng, n)]
    variants = []
    for j in range(n):
        changes = {p: getattr(base.controller, p) * factors[p][j] for p in STRESS_FACTORS}
        # ControllerConfig validates the draw; a ValueError here is a bug in
        # these ranges, not a failed operation.
        config = dataclasses.replace(base.controller, safety_margin=margins[j], **changes)
        initial = base.initial_batch_mb + base.initial_replay_mb + config.optimizer_default_mb
        if initial > config.budget_cap_mb:
            raise ValueError(f"{base.name}: draw {j} puts the initial budgets above the cap")
        variant = dataclasses.replace(base, controller=config, num_experiences=STRESS_HORIZON)
        variants.append(variant.with_preference(prefs[j]).with_seed(rng.randrange(2**31)))
    return variants


class ControllerStress(Workload):
    name = "controller-stress"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        names = scenario.bundled_scenario_names()
        self.probe_scenarios = tuple(names)
        rng = random.Random(self.seed)
        self.variants = [
            v for n in names
            for v in draw_variants(scenario.load_bundled_scenario(n), rng, STRESS_VARIANTS)
        ]
        self.outcomes: dict[str, int] = {}

    def run_pass(self) -> PassStats:
        stats = PassStats()
        ratios, ref_ratios = [], []
        traces = []
        first = self.quality is None
        horizons = []
        # The whole pass is one operation: single runs differ by orders of
        # magnitude in length, and which runs a seed draws would set the median.
        op = stats.op()
        for sc in self.variants:
            self.new_op()
            recorder = controller.OverheadRecorder()
            if self.tracer is not None:
                self.tracer.recorders.append(recorder)
            env = scenario.build_environment(sc)
            try:
                trace = op.step(self.reference, self._run, sc, env, recorder)
            except Exception as exc:  # any other exception is a failed operation
                self.tally.op(False, f"{sc.name}: {type(exc).__name__}: {exc}")
                continue
            op.experiences += env.next_experience - 1 + env.failed
            self.tally.op(*self._check(sc, trace))
            if trace is None:
                continue
            traces.append(trace)
            horizons.append(sc.num_experiences)
            if first:
                self.outcomes[trace.outcome.value] = self.outcomes.get(trace.outcome.value, 0) + 1
            simulated = trace.total_latency_s()
            if simulated > 0 and recorder.total_seconds > 0:
                ratios.append(recorder.total_seconds / simulated)
                ref_ratios.append(recorder.total_seconds / op.refs[-1] / simulated)
        # Per-run ratios, geometric mean: a run's simulated seconds grow
        # geometrically with its length, so summed seconds follow a few runs.
        stats.overhead_ratios.append(statistics.geometric_mean(ratios))
        stats.overhead_refs.append(statistics.geometric_mean(ref_ratios))
        if first:
            self.quality = _quality(traces, horizons)
        return stats

    @staticmethod
    def _run(sc, env, recorder):
        try:
            return controller.run_control_loop(sc, env, overhead=recorder)
        except InfeasibleBudgetError as exc:
            return exc.partial_trace

    @staticmethod
    def _check(sc, trace) -> tuple[bool, str]:
        capacity = sc.platform.capacity_mb
        if trace is None:
            return False, f"{sc.name}: InfeasibleBudgetError without a partial trace"
        outcome = trace.outcome
        if outcome is controller.Outcome.COMPLETED:
            ok = len(trace.records) == sc.num_experiences and trace.peak_memory_mb() <= capacity
            return ok, f"{sc.name}: completed run exceeds capacity or misses records"
        if outcome is controller.Outcome.OOM_FAILED:
            last = trace.records[-1]
            return last.oom and last.memory_peak_mb > capacity, f"{sc.name}: bad OOM record"
        return outcome is controller.Outcome.INFEASIBLE, f"{sc.name}: unexpected outcome {outcome}"

    def info(self) -> dict:
        return {"controller_outcomes": self.outcomes, "runs_per_pass": len(self.variants)}


class Cli(Workload):
    name = "cli"
    probe_scenarios = ("xavier-gss",)
    in_process = False
    policies = ("controller", "oracle")
    overhead_repeats = 5
    reference_cmd = (sys.executable, "-c", "import numpy, yaml")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.in_process_reference = self.reference
        self.reference = Reference(self._reference_child)
        self.path = scenario.bundled_scenario_path(self.probe_scenarios[0])
        self.scenario = scenario.load_scenario(self.path).with_seed(self.seed)
        self.expected = harness.emit_report(harness.run_suite(self.scenario, self.policies), "csv")
        self.calibrate_stdout: bytes | None = None
        self.wall: dict[str, list[float]] = {"run": [], "calibrate": []}

    def _invoke(self, op: Op, args: list[str]) -> tuple[int, bytes]:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "oclbudget.cli", *args]
        else:
            spans_path = self.workdir / "child-spans.jsonl"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *args]
        before = op.seconds
        proc = op.step(self.reference, subprocess.run, cmd,
                       env=self.child_env, capture_output=True, timeout=120)
        self.wall[args[0]].append(op.seconds - before)
        if self.tracer is not None:
            self.tracer.load(spans_path)
        return proc.returncode, proc.stdout

    def _reference_child(self) -> float:
        """Wall time of a fresh interpreter importing numpy and yaml: the unit
        for CLI invocations, which spend most of their time starting cold."""
        start = time.perf_counter()
        subprocess.run(self.reference_cmd, env=self.child_env, check=True, timeout=120)
        return time.perf_counter() - start

    def run_pass(self) -> PassStats:
        stats = PassStats()
        op = stats.op()  # one run and one calibrate invocation
        out = self.workdir / "run.csv"
        out.unlink(missing_ok=True)
        policy_args = [a for p in self.policies for a in ("--policy", p)]
        code, _ = self._invoke(
            op,
            ["run", "--scenario", str(self.path), "--seed", str(self.seed),
             *policy_args, "--out", str(out)]
        )
        produced = out.read_bytes() if out.exists() else b""
        self.tally.op(
            code == 0 and produced == self.expected,
            f"run: exit {code}, output {'matches' if produced == self.expected else 'differs'}",
        )
        code, stdout = self._invoke(op, ["calibrate"])
        if self.calibrate_stdout is None:
            self.calibrate_stdout = stdout
        self.tally.op(
            code == 0 and b"fit max relative residual" in stdout and stdout == self.calibrate_stdout,
            f"calibrate: exit {code} or output differs",
        )
        op.experiences = produced.count(b"\n") - 1
        if self.quality is None:
            self.quality = self._quality(produced)
        # Controller overhead on the scenario the CLI runs, measured in this
        # process: a single cold 10-experience run is too short to time.
        for _ in range(self.overhead_repeats):
            ref = self.in_process_reference.now()
            summary = harness.measure_overhead(self.scenario)
            stats.overhead(summary.controller_seconds_total, summary.simulated_training_seconds, ref)
        return stats

    def _quality(self, produced: bytes) -> Quality:
        rows = [r for r in harness.parse_report_csv(produced) if r["policy"] == "controller"]
        ok = [r for r in rows if r["outcome"] == "ok"]
        return Quality(
            completed_share=len(ok) / self.scenario.num_experiences,
            sim_latency_s=statistics.fmean(r["latency_s"] for r in ok),
            sim_plasticity=ok[-1]["plasticity"],
            sim_stability=ok[-1]["stability"],
        )

    def info(self) -> dict:
        return {
            "run_s_median": statistics.median(self.wall["run"]),
            "calibrate_s_median": statistics.median(self.wall["calibrate"]),
            "invocations": 2 * len(self.wall["run"]),
        }


WORKLOADS = {w.name: w for w in (BundledSuite, LongHorizon, ControllerStress, Cli)}
