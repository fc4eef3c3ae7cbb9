"""Harness: scenario loading, suite runs, CSV/JSONL emission, CLI, overhead."""

import dataclasses
import json
import math
import re
import struct
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spec
import oclbudget.cli as cli_module
import oclbudget.harness as harness
from oclbudget import (
    BaselinePolicy,
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
    run_baseline,
    run_suite,
)
from oclbudget.cli import main as cli_main
from oclbudget.harness import CSV_COLUMNS, Report
from oclbudget.scenario import (
    PREFERENCE_PRESETS,
    default_calibration_targets_path,
    default_profile_library_path,
)
from oclbudget.simulator import profile_document


# `oclbudget calibrate --out` on the bundled targets.
CALIBRATED_PROFILE_YAML = """\
schema_version: 1
platforms: {}
profiles:
  calibrated:
    compute_cost_per_sample_s: 0.0009999999999999998
    replay_sampling_cost_s: 0.002
    optimizer_latency_multiplier: 2.944566110046537
    per_experience_growth: 1.03
    batch_knee: 192
    stability_gain_max: 0.949999621752805
    stability_buffer_scale: 699.9984923548999
    plasticity_max: 0.9
    plasticity_updates_scale: 45.0
    advanced_plasticity_bonus: 0.04
    forgetting_rate: 0.22
    noise_fraction: 0.0
    base_memory_mb: 4200.0
    optimizer_memory_delta_mb: 107.0
    activation_mb_per_sample: 8.399999999999999
    replay_frame_mb: 0.045
    buffer_spike_threshold: 20000
    buffer_spike_coeff: 7.0e-07
"""


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

    def test_horizon_that_overflows_the_latency_model_rejected(self):
        # orin-gss grows latency 4% an experience. Its fixed proxy at K=19,000
        # used to die near experience 18,100 with a bare ValueError from
        # MetricSnapshot (latency inf); dataclasses.replace runs the check.
        scenario = load_bundled_scenario("orin-gss")
        with pytest.raises(
            SchemaError, match=r"ScenarioConfig\.num_experiences: 19000 experiences overflow"
        ):
            dataclasses.replace(scenario, num_experiences=19000)
        assert dataclasses.replace(scenario, num_experiences=17500).num_experiences == 17500

    def test_horizon_whose_total_latency_overflows_rejected(self):
        # K=17,852 passed when only the last experience was bounded, yet the
        # batch-1, buffer-2000 run summed its latencies to inf, and
        # measure_overhead and ablate_prefetch divide by that total. 17,603 is
        # the new limit.
        scenario = load_bundled_scenario("orin-gss")
        for k in (17852, 17604):
            with pytest.raises(
                SchemaError, match=rf"ScenarioConfig\.num_experiences: {k} experiences overflow"
            ):
                dataclasses.replace(scenario, num_experiences=k)
        longest = dataclasses.replace(scenario, num_experiences=17603)
        trace = run_baseline(BaselinePolicy(Knobs(1, 2000, OptimizerMode.DEFAULT)), longest)
        assert trace.outcome is Outcome.COMPLETED
        assert len(trace.records) == 17603
        assert math.isfinite(trace.total_latency_s())

    def test_growth_that_overflows_the_latency_model_rejected(self, tmp_path):
        # growth ** 59 overflows, so a fixed run at K=60 used to raise a bare
        # OverflowError from the latency model.
        text = default_profile_library_path().read_text(encoding="utf-8")
        anchor = "    per_experience_growth: 1.03\n"
        assert anchor in text  # the er profile, the first in the file
        library = tmp_path / "lib.yaml"
        library.write_text(text.replace(anchor, "    per_experience_growth: 1.0e+6\n", 1))
        path = tmp_path / "long.yaml"
        path.write_text(scenario_text(num_experiences="num_experiences: 60"))
        # The file's error names its key; the rule is ScenarioConfig's own.
        with pytest.raises(
            SchemaError, match=rf"^{re.escape(str(path))}\.num_experiences: 60 experiences overflow"
        ):
            load_scenario(path, library_path=library)
        short = tmp_path / "short.yaml"
        short.write_text(scenario_text(num_experiences="num_experiences: 40"))
        assert load_scenario(short, library_path=library).num_experiences == 40

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_benchmark_horizons_build(self, name):
        # The bundled K=10 files load; the benchmark runs them at K=200 (the
        # controller) and server-er at K=500 and K=1000 (the fixed proxy).
        scenario = load_bundled_scenario(name)
        for k in (200, 500, 1000):
            assert dataclasses.replace(scenario, num_experiences=k).num_experiences == k

    @pytest.mark.parametrize(
        "name", ['"xavier,gss"', """'say "hi"'""", '"line\\rbreak"', '"line\\nbreak"']
    )
    def test_name_the_csv_cannot_hold_rejected(self, tmp_path, name):
        # The CSV report writes the name unquoted: a comma would add a cell,
        # a quote or a line break would end or split the row.
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text(name=f"name: {name}"))
        with pytest.raises(SchemaError, match=r"\.name: .* must not contain"):
            load_scenario(path)

    @pytest.mark.parametrize("name", ["xavier,gss", 'say "hi"', "line\rbreak", "line\nbreak"])
    def test_replaced_name_the_csv_cannot_hold_rejected(self, name):
        # ScenarioConfig itself checks the name, so a scenario built in code
        # cannot reach emit_report with a name the CSV cannot hold either.
        scenario = load_bundled_scenario("xavier-gss")
        with pytest.raises(SchemaError, match=r"ScenarioConfig\.name: .* must not contain"):
            dataclasses.replace(scenario, name=name)

    def test_dangling_profile_reference(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text().replace("profile: er", "profile: nope"))
        with pytest.raises(SchemaError, match="nope"):
            load_scenario(path)

    def test_unknown_preference_preset_names_the_key(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(scenario_text().replace("preference: balanced", "preference: nope"))
        match = r"bad\.yaml\.preference: unknown preference preset 'nope'"
        with pytest.raises(SchemaError, match=match):
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

    def test_readme_library_quick_start_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        exec(compile(code, "README.md", "exec"), {})
        assert capsys.readouterr().out.startswith("Outcome.")
        rows = parse_report_csv((tmp_path / "report.csv").read_bytes())
        policies = {row["policy"].split("[")[0] for row in rows}
        assert policies == {"controller", "max-a", "max-p", "oracle"}
        assert {row["scenario"] for row in rows} == {"xavier-gss"}

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

    @pytest.mark.parametrize(
        "policies, message",
        [
            ("controller", "policies must be a list of names, not the str 'controller'"),
            ([5], "unknown policy 5; known: "),
            (["controller", None], "unknown policy None; known: "),
            (5, "policies must be a list of names, not the int 5"),
            (None, "policies must be a list of names, not the NoneType None"),
            # An empty iterator is not taken for a non-empty list.
            (iter([]), "policies must be a list of names, not the list_iterator <"),
            ({"controller"}, "policies must be a list of names, not the set {'controller'}"),
        ],
    )
    def test_str_policy_list_or_non_str_name_rejected_whole(self, policies, message):
        # A str is not walked one character at a time, and a name that is no
        # str is named as it was given.
        with pytest.raises(ValueError) as info:
            run_suite(load_bundled_scenario("orin-er"), policies)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "policies", [["max_a", "max-a"], ["controller", "fixed", " Controller "]]
    )
    def test_repeated_policy_rejected(self, policies):
        # Two runs under one label could not be told apart in the CSV.
        repeated = policies[-1].strip().lower().replace("-", "_")
        with pytest.raises(ValueError, match=f"policy '{repeated}' is requested more than once"):
            run_suite(load_bundled_scenario("orin-er"), policies)

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
# Budgets, memory and thresholds are floats, but the record types take ints a
# float can hold too (a trace reads them back as floats); a larger int is
# rejected (test_int_beyond_the_float_range_is_rejected).
FLOAT_INT = int(sys.float_info.max)
any_float = (
    st.floats() | st.sampled_from(EDGE_FLOATS) | st.integers(-FLOAT_INT, FLOAT_INT)
)
# A knob size is an int a double holds exactly: any up to 2**53, or a larger
# one equal to its float.
EXACT_INTS = 2**53
exact_sizes = st.integers(0, EXACT_INTS) | st.floats(EXACT_INTS, sys.float_info.max).map(int)
# A snapshot's latency and memory, and the batch and replay budgets, must be
# finite as well as >= 0.
finite_not_negative = any_float.filter(lambda v: 0 <= v < math.inf)
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
        batch_size=draw(exact_sizes.filter(bool)),
        buffer_size=draw(exact_sizes),
        optimizer_mode=draw(st.sampled_from(OptimizerMode)),
    )
    budgets = BudgetState(
        batch_mb=draw(finite_not_negative),
        replay_mb=draw(finite_not_negative),
        optimizer_mb=draw(any_float),
    )
    snapshot = None
    if not oom:
        snapshot = MetricSnapshot(
            plasticity=draw(unit_float),
            stability=draw(unit_float),
            latency_s=draw(finite_not_negative),
            memory_peak_mb=draw(finite_not_negative),
        )
    return TraceRecord(
        experience=draw(st.integers()),
        knobs=knobs,
        score=None if oom else draw(urge_scores()),
        threshold=None if oom else draw(any_float),
        snapshot=snapshot,
        budgets=budgets,
        memory_peak_mb=draw(any_float),
    )


def spec_record(record):
    """A TraceRecord as the spec holds one: its modes by name."""
    experience, (batch, buffer, mode), score, threshold, snapshot, budgets, memory = record
    knobs, budgets = (batch, buffer, mode.value), (*budgets[:3], budgets[3].value)
    return experience, knobs, score, threshold, snapshot, budgets, memory


def spec_reports(scenario_name, traces):
    """The spec's CSV and JSONL bytes of (policy, TraceRecords) pairs."""
    runs = [(policy, list(map(spec_record, records))) for policy, records in traces]
    return spec.reports(scenario_name, runs)


def numbered(records):
    """The records renumbered 1..n, as a trace numbers its experiences."""
    return [TraceRecord(row, *record[1:]) for row, record in enumerate(records, 1)]


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
# The twins a snapshot holds: it rejects NaN and the infinities.
snapshot_twins = st.sampled_from([0.0, -0.0, 1, 1.0])
knob_values = st.builds(
    Knobs,
    batch_size=exact_sizes.filter(bool),
    buffer_size=exact_sizes,
    optimizer_mode=st.sampled_from(OptimizerMode),
)
budget_values = st.builds(
    BudgetState,
    batch_mb=finite_not_negative,
    replay_mb=finite_not_negative,
    optimizer_mb=any_float,
)


@st.composite
def shared_value_traces(draw):
    """Traces whose records hold one of a few shared (Knobs, BudgetState,
    memory) objects, as a fixed-knob run does, with memory values and the
    thresholds of scored records drawn from TWINS and their snapshot
    latencies from a small pool of twins, so values repeat within a report."""
    shared = draw(
        st.lists(st.tuples(knob_values, budget_values, twin_or_any), min_size=1, max_size=3)
    )
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        records = []
        for _ in range(draw(st.integers(1, 6))):
            knobs, budgets, memory = draw(st.sampled_from(shared))
            drawn = draw(trace_records())
            threshold = snapshot = None
            if not drawn.oom:
                threshold = draw(twin_or_any)
                plasticity, stability, _, memory_peak = drawn.snapshot
                snapshot = MetricSnapshot(plasticity, stability, draw(snapshot_twins), memory_peak)
            records.append(
                TraceRecord(
                    len(records) + 1,
                    knobs,
                    drawn.score,
                    threshold,
                    snapshot,
                    budgets,
                    memory,
                )
            )
        traces.append((draw(names), records))
    return traces


@st.composite
def packed_records(draw):
    """Records for one trace, numbered 1..n, OOM ones at any position:
    drawn by trace_records, or with the TWINS in their float fields as
    shared_value_traces draws them, so runs of records share their knobs,
    budgets and memory peak objects."""
    if draw(st.booleans()):
        return numbered(draw(st.lists(trace_records(), max_size=6)))
    return numbered(record for _, records in draw(shared_value_traces()) for record in records)


def float_fields(record):
    """The record's float fields, None for each one an OOM record lacks."""
    scored = record.score is not None
    return (
        *(record.score if scored else (None,) * 5),
        record.threshold,
        *(record.snapshot if scored else (None,) * 4),
        *record.budgets[:3],
        record.memory_peak_mb,
    )


def spans(trace):
    """(first row, row after the last) of each stretch of the trace."""
    return [(start, stop) for stop, (start, *_) in trace.stretches()]


def float_bits(value):
    return None if value is None else struct.pack("<d", float(value))


def copied(record):
    """The record with equal values, each in an object of its own."""

    def fresh(value):  # a float of the same bits, NaN payload and sign included
        return None if value is None else struct.unpack("d", struct.pack("d", value))[0]

    e, knobs, score, threshold, snapshot, budgets, memory = record
    return TraceRecord(
        e,
        Knobs(*knobs),
        None if score is None else UrgeScore(*map(fresh, score)),
        fresh(threshold),
        None if snapshot is None else MetricSnapshot(*map(fresh, snapshot)),
        BudgetState(*map(fresh, budgets[:3]), budgets[3]),
        fresh(memory),
    )


# The float fields that can hold a zero (an URGE factor cannot), each as the
# record's index and the index within the record it holds, or None; an OOM
# record holds only the last four.
ZERO_FIELDS = [(2, 0), (3, None), (4, 0), (4, 1), (4, 2), (4, 3), (5, 0), (5, 1), (5, 2), (6, None)]


def with_zero(record, field, zero):
    """The record with zero in the float field (ZERO_FIELDS)."""
    index, inner = field
    values = list(record)
    if inner is None:
        values[index] = zero
    elif index == 2:  # factors this small multiply to 0.0
        values[index] = UrgeScore(zero, 1e-100, 1e-100, 1e-100, 1e-100)
    else:
        part = list(record[index])
        part[inner] = zero
        values[index] = type(record[index])(*part)
    return TraceRecord(*values)


class TestPackedTrace:
    @settings(max_examples=300, deadline=None)
    @given(records=packed_records(), outcome=st.sampled_from(Outcome))
    def test_records_read_back_bit_for_bit(self, records, outcome):
        trace = RunTrace(records, outcome)
        back = trace.records
        assert len(back) == len(records) == len(trace)
        for read, given in zip(back, records):
            assert type(read) is TraceRecord and read.oom is given.oom
            assert (read.experience, *read.knobs[:2]) == (given.experience, *given.knobs[:2])
            assert {type(read.experience), *map(type, read.knobs[:2])} == {int}
            assert read.knobs.optimizer_mode is given.knobs.optimizer_mode
            assert read.budgets.optimizer_mode is OptimizerMode(given.budgets.optimizer_mode)
            # Every float keeps its bits (-0.0, NaN, the infinities, 5e-324),
            # and an int in a float field reads back as its float.
            for value in float_fields(read):
                assert value is None or type(value) is float
            assert [float_bits(v) for v in float_fields(read)] == [
                float_bits(v) for v in float_fields(given)
            ]
        # The summaries read the packed floats of the scored records only.
        scored = [float_fields(r) for r in records if not r.oom]
        latency = sum(float(f[8]) for f in scored)
        assert float_bits(trace.total_latency_s()) == float_bits(latency)
        assert float_bits(trace.peak_memory_mb()) == float_bits(
            max((float(f[-1]) for f in map(float_fields, records)), default=0.0)
        )
        assert float_bits(trace.final_plasticity()) == float_bits(scored[-1][6] if scored else None)
        # A stretch starts exactly where a record's packed sizes, flag,
        # budgets or memory peak change, so the trace of its records, and
        # records that share no object, pack the same; equality and hashing
        # go by the packed bytes, so a trace holding a NaN equals its copy.
        entries = [(*row[1:4], row[4][80:]) for row in map(spec.packed, records)]
        starts = [row for row, entry in enumerate(entries) if not row or entry != entries[row - 1]]
        assert spans(trace) == list(zip(starts, [*starts[1:], len(entries)]))
        again = RunTrace(back, outcome)
        fresh = RunTrace([TraceRecord(r[0], Knobs(*r.knobs), *r[2:]) for r in back], outcome)
        for same in (trace, again, fresh):
            assert spans(same) == spans(trace)
            assert same == trace and hash(same) == hash(trace)
        other = next(o for o in Outcome if o is not outcome)
        assert RunTrace(back, other) != trace

    @settings(max_examples=200, deadline=None)
    @given(records=packed_records(), data=st.data())
    def test_equal_values_pack_to_equal_bytes(self, records, data):
        # Records of equal values give byte-equal tables and equal hashes,
        # whether they share their objects or each holds its own.
        trace = RunTrace(records, Outcome.COMPLETED)
        copy = RunTrace(map(copied, records), Outcome.COMPLETED)
        assert copy.floats.tobytes() == trace.floats.tobytes() and spans(copy) == spans(trace)
        assert copy == trace and hash(copy) == hash(trace)
        # A zero of the other sign in any float field of any record is
        # another trace.
        assume(records)
        row = data.draw(st.integers(0, len(records) - 1), label="row")
        fields = ZERO_FIELDS[-4:] if records[row].oom else ZERO_FIELDS
        field = data.draw(st.sampled_from(fields), label="field")
        zero, negative_zero = (
            RunTrace(
                [*records[:row], with_zero(records[row], field, z), *records[row + 1:]],
                Outcome.COMPLETED,
            )
            for z in (0.0, -0.0)
        )
        assert zero != negative_zero

    def test_rows_sharing_their_objects_are_one_stretch(self):
        knobs, budgets, memory = Knobs(64, 10, "default"), BudgetState(1.0, 1.0, 1.0), 2.0
        score, snapshot = UrgeScore(0.0625, 0.5, 0.5, 0.5, 0.5), MetricSnapshot(0.5, 0.5, 1.0, 1.0)
        scored = [TraceRecord(e, knobs, score, 0.5, snapshot, budgets, memory) for e in (1, 2, 3)]
        oom = TraceRecord(4, knobs, None, None, None, budgets, memory)
        trace = RunTrace([*scored, oom, TraceRecord(5, *oom[1:])], Outcome.OOM_FAILED)
        # An OOM row packs another flag, so it starts a stretch though it
        # shares the objects; the OOM rows after it repeat its values.
        assert spans(trace) == [(0, 3), (3, 5)]
        assert [flag for _, (*_, flag) in trace.stretches()] == [0, 4]
        # Stretches go by value: a row holding an equal but other memory
        # peak, or equal knobs, continues the stretch.
        other_peak = TraceRecord(3, *scored[2][1:6], float("2"))
        other_knobs = TraceRecord(2, Knobs(64, 10, "default"), *scored[1][2:])
        apart = RunTrace([scored[0], other_knobs, other_peak], Outcome.COMPLETED)
        shared = RunTrace(scored, Outcome.COMPLETED)
        assert spans(apart) == spans(shared) == [(0, 3)]
        assert apart == shared and hash(apart) == hash(shared)
        # A -0.0 where the other holds 0.0 starts a stretch, and is another trace.
        zero, negative_zero = (
            TraceRecord(1, knobs, score, 0.5, snapshot, BudgetState(v, 1.0, 1.0), memory)
            for v in (0.0, -0.0)
        )
        both = RunTrace(numbered([zero, negative_zero]), Outcome.COMPLETED)
        assert spans(both) == [(0, 1), (1, 2)]
        assert RunTrace([zero], Outcome.COMPLETED) != RunTrace([negative_zero], Outcome.COMPLETED)

    @pytest.mark.parametrize(
        "experiences", [[0], [2], [1, 1], [1, 3], [2, 1], [-(2**70)], [True], [1.0]]
    )
    def test_experiences_must_be_numbered_from_1(self, experiences):
        # An experience's number is its row; a TraceRecord takes only ints,
        # and a trace of plain tuples refuses any other type too.
        budgets = BudgetState(1.0, 1.0, 1.0)
        knobs = Knobs(64, 10, "default")
        records = [(e, knobs, None, None, None, budgets, 2.0) for e in experiences]
        with pytest.raises(ValueError, match=r"record \d+ must be experience \d+, got"):
            RunTrace(records, Outcome.OOM_FAILED)

    def test_buffer_0_from_a_mode_string_reads_back(self):
        # Knobs(1, 0, "default") takes the slow path, which must accept the
        # least batch and buffer as the fast path does, and build the member.
        knobs = Knobs(1, 0, "default")
        assert knobs.optimizer_mode is OptimizerMode.DEFAULT
        record = TraceRecord(1, knobs, None, None, None, BudgetState(0.0, 0.0, 1.0), 3.0)
        trace = RunTrace([record], Outcome.OOM_FAILED)
        assert trace.records == (record,)
        assert [row[:4] for row in spec.packed_trace(trace)[0]] == [(1, 1, 0, 4)]

    def test_plain_tuple_knobs_and_budgets_are_checked(self):
        # A trace packs a size as a double and a mode as a flag bit, so a
        # plain tuple in a record is checked as Knobs and BudgetState are:
        # 64.5 is refused, not read back as 64, and a mode string as its member.
        knobs, budgets = (64, 10, "advanced"), (1.0, 1.0, 1.0, "advanced")
        record = TraceRecord(1, knobs, None, None, None, budgets, 2.0)
        (record,) = RunTrace([record], Outcome.OOM_FAILED).records
        assert record.knobs == Knobs(64, 10, OptimizerMode.ADVANCED)
        assert record.budgets.optimizer_mode is OptimizerMode.ADVANCED
        with pytest.raises(SchemaError, match=r"^Knobs\.batch_size: must be an int, got 64\.5$"):
            RunTrace([TraceRecord(1, (64.5, 10, "default"), *record[2:])], Outcome.OOM_FAILED)

    def test_ints_beyond_64_bits_are_kept(self):
        # The stretch table packs a size as the double that holds it
        # exactly (Knobs takes no other), and the records read back the int.
        budgets = BudgetState(1.0, 1.0, 1.0)
        largest = int(sys.float_info.max)
        records = (
            TraceRecord(1, Knobs(64, 10, "default"), None, None, None, budgets, 2.0),
            TraceRecord(2, Knobs(2**64, 10, "advanced"), None, None, None, budgets, 2.0),
            TraceRecord(3, Knobs(1, largest, "default"), None, None, None, budgets, 2),
        )
        trace = RunTrace(records, Outcome.OOM_FAILED)
        assert trace.records == records
        assert [entry[4:7] for _, entry in trace.stretches()] == [
            (2.0, 64.0, 10.0), (2.0, 2.0**64, 10.0), (2.0, 1.0, sys.float_info.max)
        ]
        assert {type(value) for _, entry in trace.stretches() for value in entry[4:7]} == {float}
        assert {type(size) for record in trace.records for size in record.knobs[:2]} == {int}
        assert trace == RunTrace(trace.records, Outcome.OOM_FAILED)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_int_costs_write_the_bytes_of_float_costs(self, name):
        # A config built in code may give an integral cost as an int; the
        # report must not depend on it, as a budget or memory value is a float.
        scenario = load_bundled_scenario(name)
        memory = scenario.controller.memory
        costs = ("base_mb", "optimizer_delta_mb", "sample_mb", "frame_mb", "spike_coeff")
        integral = {
            cost: int(getattr(memory, cost))
            for cost in costs
            if float(getattr(memory, cost)).is_integer()
        }
        assert {"base_mb", "optimizer_delta_mb"} <= integral.keys()
        controller = dataclasses.replace(
            scenario.controller, memory=dataclasses.replace(memory, **integral)
        )
        with_ints = dataclasses.replace(scenario, controller=controller)
        policies = list(harness.KNOWN_POLICIES)
        floats_report, ints_report = run_suite(scenario, policies), run_suite(with_ints, policies)
        for format in ("csv", "jsonl"):
            assert emit_report(ints_report, format) == emit_report(floats_report, format)


BEYOND_FLOAT = (
    st.integers(min_value=FLOAT_INT + 1)
    | st.integers(max_value=-FLOAT_INT - 1)
    | st.sampled_from([10**5000, -(10**5000)])  # too long for str() to write
)
# Each float field a trace packs, and a record holding a value in it.
FLOAT_FIELD_RECORDS = {
    "UrgeScore.value": lambda v: UrgeScore(v, 0.5, 0.5, 0.5, 0.5),
    "UrgeScore.plasticity_factor": lambda v: UrgeScore(0.0625, v, 0.5, 0.5, 0.5),
    "UrgeScore.stability_factor": lambda v: UrgeScore(0.0625, 0.5, v, 0.5, 0.5),
    "UrgeScore.latency_factor": lambda v: UrgeScore(0.0625, 0.5, 0.5, v, 0.5),
    "UrgeScore.memory_factor": lambda v: UrgeScore(0.0625, 0.5, 0.5, 0.5, v),
    "MetricSnapshot.plasticity": lambda v: MetricSnapshot(v, 0.5, 1.0, 1.0),
    "MetricSnapshot.stability": lambda v: MetricSnapshot(0.5, v, 1.0, 1.0),
    "MetricSnapshot.latency_s": lambda v: MetricSnapshot(0.5, 0.5, v, 1.0),
    "MetricSnapshot.memory_peak_mb": lambda v: MetricSnapshot(0.5, 0.5, 1.0, v),
    "BudgetState.batch_mb": lambda v: BudgetState(v, 1.0, 1.0),
    "BudgetState.replay_mb": lambda v: BudgetState(1.0, v, 1.0),
    "BudgetState.optimizer_mb": lambda v: BudgetState(1.0, 1.0, v),
    "TraceRecord.threshold": lambda v: TraceRecord(
        1, Knobs(1, 1, "default"), UrgeScore(0.0625, 0.5, 0.5, 0.5, 0.5), v,
        MetricSnapshot(0.5, 0.5, 1.0, 1.0), BudgetState(1.0, 1.0, 1.0), 1.0,
    ),
    "TraceRecord.memory_peak_mb": lambda v: TraceRecord(
        1, Knobs(1, 1, "default"), None, None, None, BudgetState(1.0, 1.0, 1.0), v
    ),
}


@pytest.mark.parametrize("field", FLOAT_FIELD_RECORDS)
@settings(max_examples=20, deadline=None)
@given(value=BEYOND_FLOAT)
def test_int_beyond_the_float_range_is_rejected(field, value):
    rule = f"must be within the float range, got an int of {value.bit_length()} bits"
    with pytest.raises(SchemaError) as info:
        FLOAT_FIELD_RECORDS[field](value)
    assert str(info.value) == f"{field}: {rule}"


class TestEmitReport:
    @settings(max_examples=300, deadline=None)
    @given(
        scenario_name=names,
        traces=st.lists(
            st.tuples(names, st.lists(trace_records(), min_size=1, max_size=4).map(numbered)),
            max_size=3,
        ),
    )
    def test_csv_row_is_each_cell_spelled(self, scenario_name, traces):
        csv, _ = spec_reports(scenario_name, traces)
        assert emit_report(report_of(scenario_name, traces), "csv") == csv

    @settings(max_examples=150, deadline=None)
    @given(scenario_name=names, traces=shared_value_traces())
    def test_shared_values_spelled_as_fresh_ones(self, scenario_name, traces):
        report = report_of(scenario_name, traces)
        assert (emit_report(report, "csv"), emit_report(report, "jsonl")) == spec_reports(
            scenario_name, traces
        )

    def test_equal_values_spelled_apart(self):
        knobs = Knobs(64, 2000, OptimizerMode.DEFAULT)
        budgets = BudgetState(batch_mb=0.0, replay_mb=1, optimizer_mb=-0.0)
        snap = MetricSnapshot(0.5, 1, 2.0, 0.0)
        # Snapshot latencies -0.0 and 0.0 in one report, each more than once.
        snaps = [snap, MetricSnapshot(0.5, 1, -0.0, 0.0), MetricSnapshot(0.5, 1, 0.0, 0.0)]
        score = UrgeScore(0.0625, 0.5, 0.5, 0.5, 0.5)
        records = [
            TraceRecord(e, knobs, score, threshold, snaps[e % 3], budgets, memory)
            for e, (threshold, memory) in enumerate(
                [(1, 0.0), (1.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (math.nan, 1), (-0.0, 1.0)]
                + [(float("nan"), math.inf), (math.inf, -math.inf), (1.0, 1), (1, 1.0)],
                start=1,
            )
        ]
        traces = [("fixed-proxy", records), ("max-a", numbered(records[::-1]))]
        report = report_of("s", traces)
        csv, jsonl = emit_report(report, "csv"), emit_report(report, "jsonl")
        assert (csv, jsonl) == spec_reports("s", traces)
        # An int in a float field is written as its float.
        assert b'"threshold": 1}' not in jsonl and b'"threshold": 1.0}' in jsonl
        assert b'"budget_replay_mb": 1,' not in jsonl and b'"budget_replay_mb": 1.0,' in jsonl
        assert b",3,64,2000,default,0.0625,0,2,-0,0.5,1,ok" in csv
        assert b",4,64,2000,default,0.0625,-0,-0,-0,0.5,1,ok" in csv
        assert b",5,64,2000,default,0.0625,nan,0,1,0.5,1,ok" in csv
        assert b'"experience": 1, "latency_s": -0.0,' in jsonl
        assert b'"experience": 2, "latency_s": 0.0,' in jsonl
        assert b'"experience": 3, "latency_s": 2.0,' in jsonl
        assert b'"experience": 4, "latency_s": -0.0,' in jsonl

    @settings(max_examples=300, deadline=None)
    @given(
        scenario_name=names,
        traces=st.lists(
            st.tuples(names, st.lists(trace_records(), min_size=1, max_size=4).map(numbered)),
            max_size=3,
        ),
    )
    def test_jsonl_line_is_json_dumps_of_the_record(self, scenario_name, traces):
        _, jsonl = spec_reports(scenario_name, traces)
        assert emit_report(report_of(scenario_name, traces), "jsonl") == jsonl

    def test_jsonl_of_bundled_runs_is_json_dumps_of_each_record(self):
        scenario = load_bundled_scenario("xavier-gss")
        report = run_suite(scenario, ["controller", "max_a", "max_p", "fixed"])
        traces = [(policy, trace.records) for policy, trace in report.traces]
        assert any(record.oom for _, records in traces for record in records)
        assert emit_report(report, "jsonl") == spec_reports(scenario.name, traces)[1]

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

    @pytest.mark.parametrize("cells", [12, 14])
    def test_parse_refuses_a_row_of_another_cell_count(self, cells):
        scenario = dataclasses.replace(load_bundled_scenario("xavier-er"), num_experiences=2)
        header, first, second = emit_report(run_suite(scenario, ["max_a"]), "csv").splitlines()
        row = b",".join((second.split(b",") + [b""])[:cells])
        with pytest.raises(ValueError) as info:
            parse_report_csv(b"\n".join([header, first, row]) + b"\n")
        assert str(info.value) == f"line 3 has {cells} cells, not 13"

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_records_read_back_rebuild_the_trace_and_the_report(self, name):
        # A trace packs its records; its records, read back and packed again,
        # give the same trace, and a report of those traces the same bytes.
        scenario = load_bundled_scenario(name)
        report = run_suite(scenario, list(harness.KNOWN_POLICIES))
        rebuilt = Report(
            scenario_name=report.scenario_name,
            traces=tuple(
                (label, RunTrace(trace.records, trace.outcome)) for label, trace in report.traces
            ),
        )
        for (label, trace), (_, again) in zip(report.traces, rebuilt.traces):
            assert again == trace, label
        for format in ("csv", "jsonl"):
            assert emit_report(rebuilt, format) == emit_report(report, format)

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
        for column in ("score", "threshold", "latency_s", "plasticity", "stability"):
            assert cells[column] == "", column
        assert float(cells["mem_peak_mb"]) > 8192
        # The OOM row the README and the harness docstring show.
        max_a = emit_report(run_suite(scenario, ["max_a"]), "csv").decode()
        assert max_a.endswith("\nxavier-gss,max-a,1,32,1000,advanced,,,,8283,,,oom\n")

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

    def test_run_empty_preference_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        path = str(bundled_scenario_path("xavier-er"))
        code = cli_main(["run", "--scenario", path, "--prefer", "", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: --prefer: unknown preference preset ''" in err
        assert not out.exists()

    # (option, value, the rule its error gives); a case's id is "value-rule".
    OPTION_ERRORS = [
        ("--prefer", "nope", "unknown preference preset 'nope'; "),
        ("--prefer", "memory,latency", "preference must name each of "),
        ("--prefer", "memory,memory,latency,stability", "preference must name each of "),
        ("--seed", "-1", "must be in [0, inf), got -1"),
    ]

    @pytest.mark.parametrize(
        "option, value, rule",
        OPTION_ERRORS,
        ids=[f"{value}-{rule}" for _, value, rule in OPTION_ERRORS],
    )
    def test_prefer_errors_name_the_option(self, tmp_path, capsys, option, value, rule):
        # The option, not the record field it sets, is what the user wrote.
        out = tmp_path / "report.csv"
        path = str(bundled_scenario_path("xavier-er"))
        code = cli_main(["run", "--scenario", path, option, value, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {option}: {rule}") and "ScenarioConfig" not in err
        assert not out.exists()

    def test_scenario_file_preference_error_names_the_file_key(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            bundled_scenario_path("xavier-er").read_text().replace(
                "preference: balanced", "preference: nope"
            )
        )
        assert "preference: nope" in path.read_text()
        code = cli_main(["run", "--scenario", str(path), "--prefer", "balanced"])
        assert code == 2
        err = capsys.readouterr().err
        key = f"{path}.preference"
        assert err.startswith(f"config error: {key}: unknown preference preset 'nope'")

    def test_repeated_policy_exit_code(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        path = str(bundled_scenario_path("xavier-er"))
        code = cli_main(
            ["run", "--scenario", path, "--policy", "max_a", "--policy", "max-a", "--out", str(out)]
        )
        assert code == 2
        assert "config error: policy 'max_a' is requested more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema_version: 1\nname: broken\n")
        code = cli_main(["run", "--scenario", str(bad)])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["run", "--scenario", "{dir}"], None),
            (["calibrate", "--targets", "{dir}"], None),
            (["run", "--scenario", "{scenario}", "--policy", "max-a", "--out", "{dir}"], None),
            (["calibrate", "--out", "{dir}"], None),
            (
                ["run", "--scenario", "{scenario}", "--out", "{dir}/missing/report.csv"],
                "[Errno 2] parent does not exist",
            ),
            (
                ["run", "--scenario", "{scenario}", "--out", "{dir}/file/report.csv"],
                "[Errno 20] parent is not a directory",
            ),
            (["calibrate", "--out", "{dir}/missing/profile.yaml"], "[Errno 2] parent does not exist"),
            (["calibrate", "--out", ""], None),
        ],
        ids=[
            "run-scenario", "calibrate-targets", "run-out", "calibrate-out", "run-out-parent",
            "run-out-parent-file", "calibrate-out-parent", "calibrate-out-empty",
        ],
    )
    def test_a_path_that_cannot_be_read_or_written_is_a_config_error(
        self, tmp_path, capsys, monkeypatch, argv, reason
    ):
        # A directory where a file belongs raises IsADirectoryError, an
        # OSError like the FileNotFoundError of a missing file: exit 2, and
        # the message names the path. An --out is checked before any work:
        # no policy runs and calibrate prints no summary. A missing parent
        # and a parent that is a file each give their own errno.
        calls = []
        monkeypatch.setattr(cli_module, "run_suite", lambda *args: calls.append(args))
        (tmp_path / "file").write_text("")
        scenario = str(bundled_scenario_path("xavier-er"))
        args = [arg.format(dir=tmp_path, scenario=scenario) for arg in argv]
        code = cli_main(args)
        assert code == 2
        out, err = capsys.readouterr()
        (path,) = [arg for arg in args if arg.startswith(str(tmp_path)) or not arg]
        assert err.startswith("config error: ") and repr(path) in err
        if reason is not None:
            assert err == f"config error: {reason}: {path!r}\n"
        assert calls == [] and out == ""

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

    def test_non_finite_budget_exit_code(self, tmp_path, capsys):
        # The first grow step overflows both budgets; that is an infeasible
        # budget, not a config error from a NaN knob.
        text = bundled_scenario_path("xavier-er").read_text()
        for old, new in [
            ("initial_threshold: 0.0655", "initial_threshold: 0.01"),
            ("batch_sensitivity: 3.0", "batch_sensitivity: 1.0e+308"),
            ("replay_sensitivity: 14.0", "replay_sensitivity: 1.0e+308"),
        ]:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "runaway.yaml"
        path.write_text(text)
        code = cli_main(["run", "--scenario", str(path), "--out", str(tmp_path / "r.csv")])
        assert code == 4
        assert "non-finite" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["ablate-prefetch", "overhead"])
    @pytest.mark.parametrize("flag", [["--out", "report.out"], ["--format", "log"]])
    def test_report_options_rejected_where_no_report_is_written(
        self, tmp_path, monkeypatch, capsys, command, flag
    ):
        # These subcommands print a summary and write no report, so an --out
        # or --format would be ignored; argparse refuses them instead (exit 2).
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--scenario", str(bundled_scenario_path("orin-er")), *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_calibrate_subcommand(self, tmp_path, capsys):
        out = tmp_path / "fitted.yaml"
        code = cli_main(["calibrate", "--out", str(out)])
        assert code == 0
        assert "optimizer multiplier" in capsys.readouterr().out
        fitted = calibrate_profile(load_calibration_targets(default_calibration_targets_path()))
        assert load_profile_library(out).profiles["calibrated"] == (fitted.response, fitted.memory)
        # The writer keeps every response field, noise_fraction included.
        noisy = dataclasses.replace(fitted.response, noise_fraction=0.1)
        path = tmp_path / "noisy.yaml"
        path.write_text(yaml.safe_dump(profile_document("noisy", noisy, fitted.memory)))
        assert load_profile_library(path).profiles["noisy"] == (noisy, fitted.memory)

    def test_calibrate_out_bytes_are_pinned(self, tmp_path, capsys):
        # The profile file format: every key, its order and its value as
        # yaml.safe_dump writes the bundled fit. A reordered or renamed key
        # still round-trips, so only the bytes catch it.
        out = tmp_path / "fitted.yaml"
        assert cli_main(["calibrate", "--out", str(out)]) == 0
        capsys.readouterr()
        assert out.read_text(encoding="utf-8") == CALIBRATED_PROFILE_YAML
