"""Harness: scenario loading, suite runs, CSV/JSONL emission, CLI, overhead."""

import dataclasses
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oclbudget.cli as cli_module
import oclbudget.harness as harness
from oclbudget import (
    BudgetState,
    Knobs,
    MetricSnapshot,
    OptimizerMode,
    Outcome,
    RunTrace,
    SchemaError,
    TraceRecord,
    UrgeScore,
    ablate_prefetch,
    build_environment,
    bundled_scenario_names,
    bundled_scenario_path,
    calibrate_profile,
    emit_report,
    load_bundled_scenario,
    load_calibration_targets,
    load_profile_library,
    load_scenario,
    measure_overhead,
    parse_report_csv,
    run_suite,
)
from oclbudget.cli import main as cli_main
from oclbudget.harness import CSV_COLUMNS, Report
from oclbudget.scenario import PREFERENCE_PRESETS, default_calibration_targets_path


def scenario_text(**overrides):
    base = {
        "num_experiences": "num_experiences: 3",
        "name": "name: tiny",
    }
    base.update(overrides)
    return f"""\
schema_version: 1
{base['name']}
platform: xavier-class
profile: er
{base['num_experiences']}
samples_per_experience: 2000
seed: 7
preference: balanced
thresholds: {{plasticity: 0.9, stability: 0.95, latency_s: 30.0, memory_mb: 5000}}
controller:
  initial_threshold: 0.065
  threshold_decay: 0.01
  batch_sensitivity: 1.0
  replay_sensitivity: 2.0
  initial_batch_mb: 268.8
  initial_replay_mb: 45.0
"""


class TestLoadScenario:
    def test_bundled_xavier_er_loads_with_platform_capacity(self):
        scenario = load_bundled_scenario("xavier-er")
        assert scenario.platform.capacity_mb == 8192
        assert scenario.controller.capacity_mb == 8192
        assert scenario.name == "xavier-er"

    def test_all_bundled_scenarios_load(self):
        names = bundled_scenario_names()
        assert len(names) == 12
        for name in names:
            scenario = load_bundled_scenario(name)
            assert scenario.num_experiences >= 1

    def test_misspelled_key_names_the_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text() + "unknown_knob: 5\n")
        with pytest.raises(SchemaError, match="unknown_knob"):
            load_scenario(path)

    def test_nested_misspelled_key_has_path(self, tmp_path):
        text = scenario_text().replace("batch_sensitivity", "batch_sensitivty")
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(SchemaError, match="controller"):
            load_scenario(path)

    def test_zero_experiences_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text(num_experiences="num_experiences: 0"))
        with pytest.raises(SchemaError, match="num_experiences"):
            load_scenario(path)

    def test_dangling_profile_reference(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text().replace("profile: er", "profile: nope"))
        with pytest.raises(SchemaError, match="nope"):
            load_scenario(path)

    def test_initial_knobs_that_cannot_fit_rejected(self, tmp_path):
        # batch + replay + base is 6,356 MB, under the 8,192 MB cap, but the
        # 730,000-frame buffer adds the residency term: 8,380.7 MB in all.
        path = tmp_path / "bad.yaml"
        path.write_text(
            scenario_text()
            .replace("profile: er", "profile: gss")
            .replace("initial_batch_mb: 268.8", "safety_margin: 0.0\n  initial_batch_mb: 0.0")
            .replace("initial_replay_mb: 45.0", "initial_replay_mb: 2190")
        )
        with pytest.raises(SchemaError, match=r"initial knobs .* need 8380\.7 MB"):
            load_scenario(path)

    def test_defaults_derived_from_profile(self, tmp_path):
        path = tmp_path / "ok.yaml"
        path.write_text(scenario_text())
        scenario = load_scenario(path)
        # One memory model: the environment checks OOM with the very object
        # the controller budgets with.
        assert build_environment(scenario).memory is scenario.controller.memory
        assert scenario.controller.memory.sample_mb == 4.2
        assert scenario.controller.optimizer_default_mb == 4200.0
        assert scenario.controller.optimizer_advanced_mb == 4200.0 + 107.0

    @pytest.mark.parametrize(
        "key",
        [
            "batch_sample_mb: 4.2",
            "replay_frame_mb: 0.045",
            "optimizer_default_mb: 4200.0",
            "optimizer_ratio: 1.0",
            "min_batch: 1",
            "min_buffer: 1",
        ],
    )
    def test_removed_memory_keys_rejected(self, tmp_path, key):
        # The memory model comes from the profile only; the controller
        # section no longer carries copies of its costs.
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text().replace("controller:", f"controller:\n  {key}"))
        name = key.split(":")[0]
        with pytest.raises(SchemaError, match=rf"controller: unknown key\(s\) \['{name}'\]"):
            load_scenario(path)

    @pytest.mark.parametrize(
        "text",
        [
            "normalize_deviations: true",
            "prefetch: {enabled: true}",
            "baselines: {max_a: {batch: 32, buffer: 1000}}",
        ],
    )
    def test_removed_fixed_keys_rejected(self, tmp_path, text):
        # Baseline presets, the prefetch pipeline and deviation normalization
        # are not scenario settings.
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text() + text + "\n")
        name = text.split(":")[0]
        with pytest.raises(SchemaError, match=rf"unknown key\(s\) \['{name}'\]"):
            load_scenario(path)

    def test_readme_scenario_example_is_bundled_xavier_er(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Scenario files", 1)[1]
        example = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(example)
        assert load_scenario(path) == load_bundled_scenario("xavier-er")

    def test_infeasible_initial_budgets_rejected(self, tmp_path):
        text = scenario_text().replace("initial_batch_mb: 268.8", "initial_batch_mb: 99999.0")
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(SchemaError, match="initial budgets"):
            load_scenario(path)


@pytest.fixture
def control_loop_calls(monkeypatch):
    """The overhead recorder of each run_control_loop call the harness makes."""
    calls = []
    real = harness.run_control_loop

    def counting(*args, **kwargs):
        calls.append(kwargs.get("overhead"))
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "run_control_loop", counting)
    return calls


class TestRunSuite:
    def test_counts_controller_baselines_oracle(self):
        scenario = load_bundled_scenario("orin-er")
        report = run_suite(scenario, ["controller", "max_a", "max_p", "oracle"])
        assert len(report.traces) == 1 + 1 + 1 + 42

    def test_traces_sorted_by_policy(self):
        scenario = load_bundled_scenario("orin-er")
        report = run_suite(scenario, ["max_p", "controller", "max_a"])
        assert [label for label, _ in report.traces] == ["controller", "max-a", "max-p"]

    def test_empty_policy_list_rejected(self):
        with pytest.raises(ValueError):
            run_suite(load_bundled_scenario("orin-er"), [])

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_suite(load_bundled_scenario("orin-er"), ["sgd"])

    def test_report_can_carry_overhead_accounting(self):
        scenario = load_bundled_scenario("server-gem")
        report = run_suite(scenario, ["controller"], include_overhead=True)
        assert report.overhead is not None
        assert report.overhead.state_bytes < 10 * 1024
        # Wall times never enter the CSV, so emission stays deterministic.
        plain = run_suite(scenario, ["controller"])
        assert emit_report(report, "csv") == emit_report(plain, "csv")

    def test_overhead_is_timed_in_the_reports_controller_run(self, control_loop_calls):
        calls = control_loop_calls
        scenario = load_bundled_scenario("orin-gem")
        report = run_suite(scenario, ["max_a", "controller", "fixed"], include_overhead=True)
        assert len(calls) == 1 and calls[0] is not None
        trace = dict(report.traces)["controller"]
        overhead = report.overhead
        assert overhead.simulated_training_seconds == trace.total_latency_s()
        assert overhead.controller_seconds_total == calls[0].total_seconds > 0
        assert len(calls[0].controller_seconds) == 2 * len(trace.records)
        assert overhead.per_experience_seconds == overhead.controller_seconds_total / len(
            trace.records
        )
        assert overhead.state_bytes == measure_overhead(scenario).state_bytes

    def test_overhead_without_the_controller_runs_it_once(self, control_loop_calls):
        calls = control_loop_calls
        scenario = load_bundled_scenario("orin-gem")
        report = run_suite(scenario, ["max_p"], include_overhead=True)
        assert [label for label, _ in report.traces] == ["max-p"]
        assert len(calls) == 1 and calls[0] is not None
        assert report.overhead.simulated_training_seconds > 0


EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]
# Budgets, memory and thresholds are floats, but the record types take ints too.
any_float = st.floats() | st.sampled_from(EDGE_FLOATS) | st.integers()
not_negative = any_float.filter(lambda v: not v < 0)  # nan passes the >= 0 checks
unit_float = st.floats(0.0, 1.0) | st.sampled_from([0.0, -0.0, 5e-324, 1.0])
names = st.text(max_size=12) | st.text(alphabet='"\\/éß—😀\x00\n\u2028 a', max_size=12)
open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@st.composite
def urge_scores(draw):
    if draw(st.booleans()):
        # Factors this small multiply to 0.0, so any value within 1e-12 of it
        # passes UrgeScore's product check.
        value = draw(st.sampled_from([0.0, -0.0, 5e-324]))
        return UrgeScore(value, 1e-100, 1e-100, 1e-100, 1e-100)
    f_p, f_s, f_l, f_m = draw(st.tuples(open_unit, open_unit, open_unit, open_unit))
    return UrgeScore(f_p * f_s * f_l * f_m, f_p, f_s, f_l, f_m)


@st.composite
def trace_records(draw):
    oom = draw(st.booleans())
    knobs = Knobs(
        batch_size=draw(st.integers()),
        buffer_size=draw(st.integers()),
        optimizer_mode=draw(st.sampled_from(OptimizerMode)),
    )
    budgets = BudgetState(
        batch_mb=draw(not_negative),
        replay_mb=draw(not_negative),
        optimizer_mb=draw(any_float),
    )
    snapshot = None
    if not oom:
        snapshot = MetricSnapshot(
            plasticity=draw(unit_float),
            stability=draw(unit_float),
            latency_s=draw(not_negative),
            memory_peak_mb=draw(not_negative),
        )
    return TraceRecord(
        experience=draw(st.integers()),
        knobs=knobs,
        score=None if oom else draw(urge_scores()),
        threshold=None if oom else draw(any_float),
        snapshot=snapshot,
        budgets=budgets,
        memory_peak_mb=draw(any_float),
        oom=oom,
    )


def reference_json_line(scenario_name, policy, record):
    """The record's 16 fields through json.dumps, the spec for a JSONL line."""
    snap = record.snapshot
    return json.dumps(
        {
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
        },
        sort_keys=True,
    )


def reference_csv_row(scenario_name, policy, record):
    """The record's 13 cells, each spelled on its own: the spec for a CSV row."""

    def cell(value):
        return "" if value is None else f"{value:.6g}"

    snap = record.snapshot
    return ",".join(
        [
            scenario_name,
            policy,
            str(record.experience),
            str(record.knobs.batch_size),
            str(record.knobs.buffer_size),
            record.knobs.optimizer_mode.value,
            cell(record.score.value if record.score is not None else None),
            cell(record.threshold),
            cell(snap.latency_s if snap is not None else None),
            cell(record.memory_peak_mb),
            cell(snap.plasticity if snap is not None else None),
            cell(snap.stability if snap is not None else None),
            "oom" if record.oom else "ok",
        ]
    )


def reference_reports(scenario_name, traces):
    """The CSV and JSONL bytes of traces, every record spelled on its own."""
    records = [(policy, record) for policy, trace in traces for record in trace]
    csv = [",".join(CSV_COLUMNS)] + [
        reference_csv_row(scenario_name, policy, record) for policy, record in records
    ]
    jsonl = [reference_json_line(scenario_name, policy, record) for policy, record in records]
    return tuple("".join(line + "\n" for line in lines).encode() for lines in (csv, jsonl))


def report_of(scenario_name, traces):
    return Report(
        scenario_name=scenario_name,
        traces=tuple(
            (policy, RunTrace(tuple(records), Outcome.COMPLETED)) for policy, records in traces
        ),
    )


# Equal values that a dict would hold under one key but that are spelled
# differently (0.0 and -0.0; 1 and 1.0 in JSON), NaNs, which a dict finds only
# by identity, and the infinities.
TWINS = [0.0, -0.0, 1, 1.0, math.nan, -math.nan, float("nan"), math.inf, -math.inf]
twin_or_any = st.sampled_from(TWINS) | any_float
knob_values = st.builds(
    Knobs,
    batch_size=st.integers(),
    buffer_size=st.integers(),
    optimizer_mode=st.sampled_from(OptimizerMode),
)
budget_values = st.builds(
    BudgetState, batch_mb=not_negative, replay_mb=not_negative, optimizer_mb=any_float
)


@st.composite
def shared_value_traces(draw):
    """Traces whose records hold one of a few shared (Knobs, BudgetState,
    memory) objects, as a fixed-knob run does, with thresholds and memory
    values drawn from TWINS."""
    shared = draw(
        st.lists(st.tuples(knob_values, budget_values, twin_or_any), min_size=1, max_size=3)
    )
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        records = []
        for _ in range(draw(st.integers(1, 6))):
            knobs, budgets, memory = draw(st.sampled_from(shared))
            drawn = draw(trace_records())
            threshold = draw(st.none() | twin_or_any)
            records.append(
                TraceRecord(
                    drawn.experience,
                    knobs,
                    drawn.score,
                    threshold,
                    drawn.snapshot,
                    budgets,
                    memory,
                    drawn.oom,
                )
            )
        traces.append((draw(names), records))
    return traces


class TestEmitReport:
    @settings(max_examples=300, deadline=None)
    @given(
        scenario_name=names,
        traces=st.lists(
            st.tuples(names, st.lists(trace_records(), min_size=1, max_size=4)), max_size=3
        ),
    )
    def test_csv_row_is_each_cell_spelled(self, scenario_name, traces):
        csv, _ = reference_reports(scenario_name, traces)
        assert emit_report(report_of(scenario_name, traces), "csv") == csv

    @settings(max_examples=150, deadline=None)
    @given(scenario_name=names, traces=shared_value_traces())
    def test_shared_values_spelled_as_fresh_ones(self, scenario_name, traces):
        report = report_of(scenario_name, traces)
        assert (emit_report(report, "csv"), emit_report(report, "jsonl")) == reference_reports(
            scenario_name, traces
        )

    def test_equal_values_spelled_apart(self):
        knobs = Knobs(64, 2000, OptimizerMode.DEFAULT)
        budgets = BudgetState(batch_mb=0.0, replay_mb=1, optimizer_mb=-0.0)
        snap = MetricSnapshot(0.5, 1, 2.0, 0.0)
        score = UrgeScore(0.0625, 0.5, 0.5, 0.5, 0.5)
        records = [
            TraceRecord(e, knobs, score, threshold, snap, budgets, memory)
            for e, (threshold, memory) in enumerate(
                [(1, 0.0), (1.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.nan, 1), (-0.0, 1.0)]
                + [(float("nan"), math.inf), (math.inf, -math.inf), (1.0, 1), (1, 1.0)],
                start=1,
            )
        ]
        traces = [("fixed-proxy", records), ("max-a", records[::-1])]
        report = report_of("s", traces)
        csv, jsonl = emit_report(report, "csv"), emit_report(report, "jsonl")
        assert (csv, jsonl) == reference_reports("s", traces)
        assert b'"threshold": 1}' in jsonl and b'"threshold": 1.0}' in jsonl
        assert b",3,64,2000,default,0.0625,0,2,-0,0.5,1,ok" in csv
        assert b",4,64,2000,default,0.0625,-0,2,-0,0.5,1,ok" in csv

    @settings(max_examples=300, deadline=None)
    @given(
        scenario_name=names,
        traces=st.lists(
            st.tuples(names, st.lists(trace_records(), min_size=1, max_size=4)), max_size=3
        ),
    )
    def test_jsonl_line_is_json_dumps_of_the_record(self, scenario_name, traces):
        report = Report(
            scenario_name=scenario_name,
            traces=tuple(
                (policy, RunTrace(tuple(records), Outcome.COMPLETED)) for policy, records in traces
            ),
        )
        expected = [
            reference_json_line(scenario_name, policy, record)
            for policy, records in traces
            for record in records
        ]
        data = emit_report(report, "jsonl")
        assert data == "".join(line + "\n" for line in expected).encode("utf-8")

    def test_jsonl_of_bundled_runs_is_json_dumps_of_each_record(self):
        scenario = load_bundled_scenario("xavier-gss")
        report = run_suite(scenario, ["controller", "max_a", "max_p", "fixed"])
        lines = emit_report(report, "jsonl").decode("utf-8").split("\n")
        expected = [
            reference_json_line(scenario.name, policy, record)
            for policy, trace in report.traces
            for record in trace.records
        ]
        assert any(record.oom for _, trace in report.traces for record in trace.records)
        assert lines == expected + [""]

    def test_empty_report_is_header_only(self):
        report = Report(scenario_name="x", traces=())
        data = emit_report(report, "csv")
        assert data.decode() == ",".join(CSV_COLUMNS) + "\n"

    def test_one_record_trace_two_lines(self):
        scenario = load_bundled_scenario("xavier-er")
        scenario = dataclasses.replace(scenario, num_experiences=1)
        report = run_suite(scenario, ["controller"])
        lines = emit_report(report, "csv").decode().splitlines()
        assert len(lines) == 2

    def test_round_trip_within_rendering_precision(self):
        scenario = load_bundled_scenario("xavier-er")
        report = run_suite(scenario, ["controller", "max_a"])
        rows = parse_report_csv(emit_report(report, "csv"))
        records = [
            (label, record) for label, trace in report.traces for record in trace.records
        ]
        assert len(rows) == len(records)
        for row, (label, record) in zip(rows, records):
            assert row["policy"] == label
            assert row["experience"] == record.experience
            assert row["batch"] == record.knobs.batch_size
            assert row["score"] == pytest.approx(record.score.value, rel=1e-5)
            assert row["latency_s"] == pytest.approx(record.snapshot.latency_s, rel=1e-5)

    def test_byte_identical_reruns(self):
        scenario = load_bundled_scenario("orin-gss")
        a = emit_report(run_suite(scenario, ["controller", "max_a", "max_p"]), "csv")
        b = emit_report(run_suite(scenario, ["controller", "max_a", "max_p"]), "csv")
        assert a == b

    def test_jsonl_structured_log(self):
        scenario = dataclasses.replace(load_bundled_scenario("xavier-er"), num_experiences=2)
        report = run_suite(scenario, ["controller"])
        lines = emit_report(report, "log").decode().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["scenario"] == "xavier-er"
        assert record["outcome"] == "ok"
        assert "budget_batch_mb" in record

    def test_oom_rows_have_empty_metric_cells(self):
        scenario = load_bundled_scenario("xavier-gss")
        report = run_suite(scenario, ["max_p"])
        lines = emit_report(report, "csv").decode().splitlines()
        oom_line = lines[-1]
        cells = dict(zip(CSV_COLUMNS, oom_line.split(",")))
        assert cells["outcome"] == "oom"
        assert cells["score"] == "" and cells["latency_s"] == ""
        assert float(cells["mem_peak_mb"]) > 8192

    def test_unknown_format_rejected(self):
        report = Report(scenario_name="x", traces=())
        with pytest.raises(ValueError):
            emit_report(report, "xml")


class TestOverheadAndAblation:
    def test_overhead_bounds(self):
        summary = measure_overhead(load_bundled_scenario("xavier-er"))
        assert summary.per_experience_seconds < 1e-3
        assert summary.state_bytes < 10 * 1024
        assert summary.overhead_ratio < 0.021
        assert summary.simulated_training_seconds > 0

    def test_ablation_reduces_latency(self):
        result = ablate_prefetch(load_bundled_scenario("server-er"))
        assert result.latency_prefetch_on_s < result.latency_prefetch_off_s
        assert 0.0 < result.reduction < 1.0


    def test_ablation_without_a_completed_experience_is_a_config_error(
        self, monkeypatch, capsys
    ):
        # At 1000 MB the initial knobs run out of memory at experience 1, so
        # neither side of the ablation has any latency to compare.
        scenario = load_bundled_scenario("xavier-er")
        scenario = dataclasses.replace(
            scenario, platform=dataclasses.replace(scenario.platform, capacity_mb=1000.0)
        )
        with pytest.raises(ValueError, match="xavier-er"):
            ablate_prefetch(scenario)
        monkeypatch.setattr(cli_module, "load_scenario", lambda path: scenario)
        code = cli_main(["ablate-prefetch", "--scenario", "xavier-er.yaml"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: scenario 'xavier-er'")


class TestCli:
    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli_main(
            [
                "run",
                "--scenario",
                str(bundled_scenario_path("xavier-er")),
                "--policy",
                "controller",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith(",".join(CSV_COLUMNS))
        assert len(text.splitlines()) == 11

    def test_run_prefer_override(self, tmp_path):
        path = bundled_scenario_path("xavier-er")
        out = tmp_path / "report.csv"
        code = cli_main(
            ["run", "--scenario", str(path), "--prefer", "prefer-latency", "--out", str(out)]
        )
        assert code == 0
        scenario = load_scenario(path)
        assert scenario.preference != PREFERENCE_PRESETS["prefer-latency"]
        expected = run_suite(scenario.with_preference("prefer-latency"), ["controller"])
        assert out.read_bytes() == emit_report(expected, "csv")
        assert out.read_bytes() != emit_report(run_suite(scenario, ["controller"]), "csv")

    def test_run_explicit_preference_list_seed_and_log_format(self, tmp_path):
        path = bundled_scenario_path("xavier-er")
        out = tmp_path / "report.jsonl"
        code = cli_main(
            [
                "run",
                "--scenario",
                str(path),
                "--prefer",
                "latency, memory, plasticity, stability",
                "--seed",
                "123",
                "--format",
                "log",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["experience"] == 1
        scenario = (
            load_scenario(path)
            .with_seed(123)
            .with_preference(["latency", "memory", "plasticity", "stability"])
        )
        assert out.read_bytes() == emit_report(run_suite(scenario, ["controller"]), "log")

    def test_run_unknown_preference_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli_main(
            [
                "run",
                "--scenario",
                str(bundled_scenario_path("xavier-er")),
                "--prefer",
                "prefer-memory",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "unknown preference preset 'prefer-memory'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nname: broken\n")
        code = cli_main(["run", "--scenario", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_controller_oom_exit_code(self, tmp_path, capsys):
        # At 60 experiences orin-er's replay buffer passes the spike
        # threshold and the controller's own run OOMs at experience 46.
        text = bundled_scenario_path("orin-er").read_text()
        path = tmp_path / "oom.yaml"
        path.write_text(text.replace("num_experiences: 10", "num_experiences: 60"))
        code = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 3

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        # At 60 experiences xavier-gss grows its replay budget until, after
        # 48 experiences, projection cannot leave room for one batch sample.
        text = bundled_scenario_path("xavier-gss").read_text()
        path = tmp_path / "infeasible.yaml"
        path.write_text(text.replace("num_experiences: 10", "num_experiences: 60"))
        code = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 4
        assert "infeasible" in capsys.readouterr().err

    def test_oracle_subcommand(self, tmp_path, capsys):
        code = cli_main(
            [
                "oracle",
                "--scenario",
                str(bundled_scenario_path("xavier-gss")),
                "--out",
                str(tmp_path / "oracle.csv"),
            ]
        )
        assert code == 0
        assert "best config" in capsys.readouterr().err

    def test_ablate_subcommand(self, capsys):
        code = cli_main(
            ["ablate-prefetch", "--scenario", str(bundled_scenario_path("server-er"))]
        )
        assert code == 0
        assert "reduction" in capsys.readouterr().out

    def test_overhead_subcommand(self, capsys):
        code = cli_main(["overhead", "--scenario", str(bundled_scenario_path("orin-er"))])
        assert code == 0
        assert "overhead ratio" in capsys.readouterr().out

    def test_calibrate_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fitted.yaml"
        code = cli_main(["calibrate", "--out", str(out)])
        assert code == 0
        assert "optimizer multiplier" in capsys.readouterr().out
        fitted = calibrate_profile(load_calibration_targets(default_calibration_targets_path()))
        assert load_profile_library(out).profiles["calibrated"] == (
            fitted.profile,
            fitted.response,
            fitted.memory,
        )
