"""In-memory span tracer wrapped around oclbudget's public functions.

The tracer patches module attributes from the outside, under the names each
caller bound (``from .urge import compute_urge`` in ``controller`` is a
different binding from the one in ``baselines``), so no file under ``src/``
changes. A span records its name, start and end, the span that was open when
it started (its parent), the operation it belongs to (its run id) and,
where a layer has an outcome worth counting, one observed value.

Self time is a span's duration minus the time its child spans cover. The
per-layer table is computed from the spans after the traced passes end.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Span:
    id: int
    parent: int
    run: int
    name: str
    start_ns: int
    end_ns: int
    error: Optional[str] = None
    value: Any = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = 0
        self.recorders: list = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[Any, str, Any]] = []

    def new_run(self) -> None:
        """Start a new operation; later spans share its run id."""
        self.run_id += 1

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span; observe(args, kwargs, result) sets its value."""
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            error = None
            value = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    value = observe(args, kwargs, result)
                return result
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, parent, self.run_id, name, start, end, error, value)
                )

        return traced

    def patch(self, owners: list, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace owner.attr with one traced wrapper on every listed owner."""
        original = getattr(owners[0], attr)
        wrapper = self.wrap(name, original, observe)
        for owner in owners:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__, default=str) + "\n")

    def load(self, path) -> None:
        """Append spans written by another process, shifting ids and run ids."""
        id_base = self._next_id
        self.new_run()
        run = self.run_id
        top = id_base
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                raw = json.loads(line)
                raw["id"] += id_base
                raw["parent"] = raw["parent"] + id_base if raw["parent"] else 0
                raw["run"] = run
                top = max(top, raw["id"])
                self.spans.append(Span(**raw))
        self._next_id = top + 1


def install(tracer: Tracer) -> None:
    """Patch every layer boundary of oclbudget under its callers' bindings."""
    import oclbudget.baselines as baselines
    import oclbudget.cli as cli
    import oclbudget.controller as controller
    import oclbudget.harness as harness
    import oclbudget.metrics as metrics
    import oclbudget.scenario as scenario
    import oclbudget.simulator as simulator

    def oom(args, kwargs, result):
        return bool(result.oom)

    def row_length(args, kwargs, result):
        return len(args[0])  # the AccuracyMatrix after add_row

    def at_cap(args, kwargs, result):
        config = args[3] if len(args) > 3 else kwargs["config"]
        return result.total_mb >= config.budget_cap_mb * (1.0 - 1e-12)

    def oracle_ooms(args, kwargs, result):
        return [result.oom_count(), result.run_count]

    def size(args, kwargs, result):
        return len(result)

    tracer.patch([scenario, cli], "load_scenario", "scenario.load")
    tracer.patch([scenario, harness, baselines], "build_environment", "scenario.build_env")
    tracer.patch([simulator.SimulatedEnvironment], "train_experience", "simulator.train", oom)
    tracer.patch([simulator, cli], "calibrate_profile", "simulator.calibrate")
    tracer.patch([metrics.AccuracyMatrix], "add_row", "metrics.add_row", row_length)
    tracer.patch([controller, baselines], "build_snapshot", "metrics.snapshot")
    tracer.patch([controller, baselines], "compute_urge", "urge.compute")
    tracer.patch([controller], "update_budgets", "controller.update", at_cap)
    tracer.patch([controller, baselines], "derive_knobs", "controller.derive")
    tracer.patch([controller, harness], "run_control_loop", "controller.loop")
    tracer.patch([baselines, harness], "run_baseline", "baselines.run")
    tracer.patch([baselines, harness], "run_oracle", "baselines.oracle", oracle_ooms)
    tracer.patch([harness, cli], "run_suite", "harness.suite")
    tracer.patch([harness, cli], "measure_overhead", "harness.overhead")
    tracer.patch([harness, cli], "emit_report", "harness.emit", size)
    tracer.patch([cli], "main", "cli.main")

    recorders = tracer.recorders

    class RecordingOverheadRecorder(controller.OverheadRecorder):
        def __init__(self):
            super().__init__()
            recorders.append(self)

    tracer._patches.append((harness, "OverheadRecorder", harness.OverheadRecorder))
    harness.OverheadRecorder = RecordingOverheadRecorder


def _self_ns(spans: list[Span]) -> dict[int, int]:
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.duration_ns
    return {s.id: s.duration_ns - child_ns.get(s.id, 0) for s in spans}


def _p50_us(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e3 if values_ns else 0.0


def layer_metrics(tracer: Tracer, import_times: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The per-layer table: name -> (value, unit)."""
    self_ns = _self_ns(tracer.spans)
    by_name: dict[str, list[Span]] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def spans(name):
        return by_name.get(name, [])

    def count(name):
        return float(len(spans(name)))

    def total_s(name):
        return sum(s.duration_ns for s in spans(name)) / 1e9

    def self_s(name):
        return sum(self_ns[s.id] for s in spans(name)) / 1e9

    def p50_us(name):
        return _p50_us([s.duration_ns for s in spans(name)])

    trains = spans("simulator.train")
    ooms = sum(1 for s in trains if s.value)
    # A matrix starts again at row 1; its last row length before the next
    # restart is the size it held when its run ended.
    largest = 0
    held = 0
    for s in spans("metrics.add_row"):
        if s.value == 1:
            held = 0
        if s.value is not None:
            held = s.value
        largest = max(largest, held * (held + 1) // 2)
    oracle_runs = sum(s.value[1] for s in spans("baselines.oracle") if s.value)
    oracle_ooms = sum(s.value[0] for s in spans("baselines.oracle") if s.value)
    steps = [sec for r in tracer.recorders for sec in r.controller_seconds]

    return {
        "scenario.load_calls": (count("scenario.load"), "count"),
        "scenario.load_s": (total_s("scenario.load"), "s"),
        "scenario.build_env_calls": (count("scenario.build_env"), "count"),
        "scenario.build_env_us_p50": (p50_us("scenario.build_env"), "us"),
        "simulator.train_calls": (float(len(trains)), "count"),
        "simulator.train_self_s": (self_s("simulator.train"), "s"),
        "simulator.train_us_p50": (p50_us("simulator.train"), "us"),
        "simulator.oom_share": (ooms / len(trains) if trains else 0.0, "1"),
        "simulator.calibrate_s": (total_s("simulator.calibrate"), "s"),
        "metrics.snapshot_calls": (count("metrics.snapshot"), "count"),
        "metrics.snapshot_self_s": (self_s("metrics.snapshot"), "s"),
        "metrics.snapshot_us_p50": (p50_us("metrics.snapshot"), "us"),
        "metrics.add_row_self_s": (self_s("metrics.add_row"), "s"),
        "metrics.matrix_entries": (float(largest), "count"),
        "urge.compute_calls": (count("urge.compute"), "count"),
        "urge.compute_us_p50": (p50_us("urge.compute"), "us"),
        "urge.compute_self_s": (self_s("urge.compute"), "s"),
        "controller.update_calls": (count("controller.update"), "count"),
        "controller.update_us_p50": (p50_us("controller.update"), "us"),
        "controller.update_raises": (
            float(sum(1 for s in spans("controller.update") if s.error)), "count"),
        "controller.projection_fired": (
            float(sum(1 for s in spans("controller.update") if s.value)), "count"),
        "controller.derive_us_p50": (p50_us("controller.derive"), "us"),
        "controller.loop_self_s": (self_s("controller.loop"), "s"),
        "controller.step_us_p50": (
            statistics.median(steps) * 1e6 if steps else 0.0, "us"),
        "baselines.run_calls": (count("baselines.run"), "count"),
        "baselines.run_self_s": (self_s("baselines.run"), "s"),
        "baselines.oracle_s": (total_s("baselines.oracle"), "s"),
        "baselines.oracle_oom_share": (
            oracle_ooms / oracle_runs if oracle_runs else 0.0, "1"),
        "harness.suite_self_s": (self_s("harness.suite"), "s"),
        "harness.emit_s": (total_s("harness.emit"), "s"),
        "harness.emit_bytes": (
            float(sum(s.value for s in spans("harness.emit") if s.value)), "B"),
        "cli.import_s": (import_times.get("oclbudget", 0.0), "s"),
        "cli.import_scipy_s": (import_times.get("scipy", 0.0), "s"),
        "cli.main_s": (
            statistics.median([s.duration_ns for s in spans("cli.main")]) / 1e9
            if spans("cli.main") else 0.0, "s"),
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of `oclbudget` and of all top-level scipy imports.

    `python -X importtime` prints a module after the modules it imported,
    indented two spaces deeper than its importer. A scipy entry counts when
    the entry that imported it is not itself a scipy module.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the header line
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped)) // 2
        entries.append((depth, int(cumulative), stripped.strip()))
    result = {"oclbudget": 0.0, "scipy": 0.0}
    for i, (depth, cumulative_us, name) in enumerate(entries):
        if name == "oclbudget":
            result["oclbudget"] = cumulative_us / 1e6
        if name == "scipy" or name.startswith("scipy."):
            importer = next((e[2] for e in entries[i + 1:] if e[0] < depth), "")
            if not (importer == "scipy" or importer.startswith("scipy.")):
                result["scipy"] += cumulative_us / 1e6
    return result
