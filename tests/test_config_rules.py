"""One validation path: a config record states its own rules, and a file obeys
exactly those.

A drawn scenario is written as a profiles file and a scenario file, loaded
with load_scenario, and built directly from the same values. The two must
agree: equal records, or both raise, with the file's error naming a key
path of the file. Every accepted draw must then run and report.
"""

import dataclasses
import itertools
import math

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oclbudget import (
    BaselinePolicy,
    ControllerConfig,
    MemoryModel,
    Outcome,
    PlatformPreset,
    ResponseModel,
    ScenarioConfig,
    SchemaError,
    Thresholds,
    emit_report,
    load_bundled_scenario,
    load_calibration_targets,
    load_scenario,
    run_baseline,
)
from oclbudget.harness import Report
from oclbudget.scenario import (
    PREFERENCE_PRESETS,
    bundled_scenario_path,
    default_calibration_targets_path,
)
from oclbudget.urge import METRIC_NAMES

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _past(*values):
    return st.sampled_from(values) | NON_FINITE


def _not_int(*values):
    """Ints past an int key's range, and a fraction and a bool, which are not
    ints."""
    return st.sampled_from(values + (10.5, True))


# Every key a scenario draws, as (document, dotted key path): the values in
# its range and the values past it. None omits an optional key.
KEYS = {
    ("library", "platforms.dev.capacity_mb"): (_floats(1, 30000), _past(0.5, -1.0)),
    ("library", "platforms.dev.compute_scale"): (_floats(0.1, 4), _past(0.0, 1e-10)),
    ("library", "platforms.dev.load_time_per_sample_s"): (_floats(0, 0.01), _past(-1e-6)),
    ("library", "profiles.p.compute_cost_per_sample_s"): (_floats(0, 0.02), _past(-1e-9)),
    ("library", "profiles.p.replay_sampling_cost_s"): (_floats(0, 0.01), _past(-1.0)),
    ("library", "profiles.p.optimizer_latency_multiplier"): (_floats(1, 3), _past(0.999)),
    ("library", "profiles.p.per_experience_growth"): (_floats(1, 1.2), _past(0.5)),
    ("library", "profiles.p.batch_knee"): (st.integers(1, 512), _not_int(0, -3)),
    ("library", "profiles.p.stability_gain_max"): (_floats(0, 1), _past(-0.1, 1.01)),
    ("library", "profiles.p.stability_buffer_scale"): (_floats(1e-9, 5000), _past(0.0, -1.0)),
    ("library", "profiles.p.plasticity_max"): (_floats(0, 1), _past(5.0, -0.5)),
    ("library", "profiles.p.plasticity_updates_scale"): (_floats(1e-9, 200), _past(0.0)),
    ("library", "profiles.p.advanced_plasticity_bonus"): (_floats(0, 0.2), _past(-0.01)),
    ("library", "profiles.p.forgetting_rate"): (_floats(0, 1), _past(1.5, -0.2)),
    ("library", "profiles.p.noise_fraction"): (st.none() | _floats(0, 0.99), _past(1.0, -0.1)),
    ("library", "profiles.p.base_memory_mb"): (_floats(0, 8000), _past(-1.0)),
    ("library", "profiles.p.optimizer_memory_delta_mb"): (_floats(0, 500), _past(-1.0)),
    ("library", "profiles.p.activation_mb_per_sample"): (_floats(1e-9, 20), _past(0.0)),
    ("library", "profiles.p.replay_frame_mb"): (_floats(1e-9, 1), _past(0.0, -0.1)),
    ("library", "profiles.p.buffer_spike_threshold"): (st.integers(0, 50000), _not_int(-1)),
    ("library", "profiles.p.buffer_spike_coeff"): (_floats(0, 1e-5), _past(-1.0)),
    ("scenario", "name"): (
        st.text("abcxyz-", min_size=1, max_size=8),
        st.sampled_from(["a,b", 'say "hi"', "line\nbreak", "x\ry"]),
    ),
    ("scenario", "num_experiences"): (st.integers(1, 60), _not_int(0, -1)),
    ("scenario", "samples_per_experience"): (st.integers(1, 20000), _not_int(0, -5)),
    ("scenario", "seed"): (st.integers(0, 2**31), _not_int(-1)),
    ("scenario", "preference"): (
        st.sampled_from(sorted(PREFERENCE_PRESETS)) | st.permutations(METRIC_NAMES).map(list),
        st.lists(st.sampled_from(METRIC_NAMES), min_size=3, max_size=5).filter(
            lambda names: sorted(names) != sorted(METRIC_NAMES)
        ),
    ),
    ("scenario", "thresholds.plasticity"): (_floats(0, 1), _past(-0.1, 1.5)),
    ("scenario", "thresholds.stability"): (_floats(0, 1), _past(-0.1, 1.5)),
    ("scenario", "thresholds.latency_s"): (_floats(0, 500), _past(-1.0)),
    ("scenario", "thresholds.memory_mb"): (st.none() | _floats(1, 30000), _past(0.5, 0.0, -3.0)),
    ("scenario", "controller.initial_threshold"): (_floats(1e-12, 0.999), _past(0.0, 1.0, 1.5)),
    ("scenario", "controller.threshold_decay"): (_floats(0, 0.1), _past(-0.01)),
    ("scenario", "controller.batch_sensitivity"): (_floats(0, 50), _past(-1.0)),
    ("scenario", "controller.replay_sensitivity"): (_floats(0, 50), _past(-1.0)),
    ("scenario", "controller.safety_margin"): (st.none() | _floats(0, 0.5), _past(-0.01, 0.995)),
    ("scenario", "controller.initial_batch_mb"): (_floats(0, 2000), _past(-5.0)),
    ("scenario", "controller.initial_replay_mb"): (_floats(0, 500), _past(-5.0)),
}

# The profile format's keys for MemoryModel's fields; ResponseModel's keys are
# its field names.
MEMORY_KEYS = {
    "base_mb": "base_memory_mb",
    "optimizer_delta_mb": "optimizer_memory_delta_mb",
    "sample_mb": "activation_mb_per_sample",
    "frame_mb": "replay_frame_mb",
    "spike_threshold": "buffer_spike_threshold",
    "spike_coeff": "buffer_spike_coeff",
}


@st.composite
def drawn_configs(draw):
    """Values for every key in KEYS, and the key drawn past its range (None
    for none). Also the same draw with that key back in range."""
    broken = draw(st.none() | st.sampled_from(sorted(KEYS)))
    clean = {key: draw(within) for key, (within, _) in KEYS.items()}
    values = dict(clean)
    if broken is not None:
        values[broken] = draw(KEYS[broken][1])
    return values, clean, broken


def _document(values: dict, doc: str) -> dict:
    """The nested mapping of one document's keys; a None value is omitted."""
    out = {"schema_version": 1}
    for (where, path), value in values.items():
        if where != doc or value is None:
            continue
        *parents, leaf = path.split(".")
        node = out
        for parent in parents:
            node = node.setdefault(parent, {})
        node[leaf] = value
    return out


def write_files(values: dict, directory, index: int):
    """Write the draw as a profiles file (one platform "dev", one profile "p")
    and a scenario file that names them."""
    library = _document(values, "library")
    library.setdefault("platforms", {}).setdefault("dev", {})
    library.setdefault("profiles", {}).setdefault("p", {})
    scenario = _document(values, "scenario")
    scenario.update(platform="dev", profile="p")
    library_path = directory / f"lib{index}.yaml"
    scenario_path = directory / f"scenario{index}.yaml"
    library_path.write_text(yaml.safe_dump(library, sort_keys=False), encoding="utf-8")
    scenario_path.write_text(yaml.safe_dump(scenario, sort_keys=False), encoding="utf-8")
    return library_path, scenario_path


def build_direct(values: dict) -> ScenarioConfig:
    """The same scenario built in code, record by record, in the order a
    load builds them."""

    def section(doc, prefix):
        return {
            path[len(prefix):]: value
            for (where, path), value in values.items()
            if where == doc and path.startswith(prefix) and value is not None
        }

    platform = PlatformPreset(**section("library", "platforms.dev."))
    profile = section("library", "profiles.p.")
    memory_fields = {field: profile.pop(key) for field, key in MEMORY_KEYS.items()}
    response = ResponseModel(**profile)
    memory = MemoryModel(**memory_fields)
    top = section("scenario", "")
    th = section("scenario", "thresholds.")
    th.setdefault("memory_mb", platform.capacity_mb)
    thresholds = Thresholds(**th)
    ctrl = section("scenario", "controller.")
    initial_batch_mb = ctrl.pop("initial_batch_mb")
    initial_replay_mb = ctrl.pop("initial_replay_mb")
    controller = ControllerConfig(memory=memory, capacity_mb=platform.capacity_mb, **ctrl)
    preference = top["preference"]
    if not isinstance(preference, str):
        preference = tuple(preference)
    return ScenarioConfig(
        name=top["name"],
        platform=platform,
        response=response,
        num_experiences=top["num_experiences"],
        samples_per_experience=top["samples_per_experience"],
        seed=top["seed"],
        preference=PREFERENCE_PRESETS.get(preference, preference),
        thresholds=thresholds,
        controller=controller,
        initial_batch_mb=initial_batch_mb,
        initial_replay_mb=initial_replay_mb,
    )


def key_of(message: str) -> tuple[str, str]:
    """The (document, key path) a direct build's "Record.field: rule" names."""
    record, field = message.split(": ", 1)[0].split(".", 1)
    if record == "PlatformPreset":
        return "library", f"platforms.dev.{field}"
    if record == "ResponseModel":
        return "library", f"profiles.p.{field}"
    if record == "MemoryModel":
        return "library", f"profiles.p.{MEMORY_KEYS[field]}"
    if record == "Thresholds":
        return "scenario", f"thresholds.{field}"
    if record == "ControllerConfig":
        return "scenario", "platform" if field == "capacity_mb" else f"controller.{field}"
    assert record == "ScenarioConfig", message
    if field.startswith("initial_"):
        return "scenario", f"controller.{field}"
    return "scenario", field


def _outcome(build):
    try:
        return build(), None
    except SchemaError as exc:
        return None, exc


# load_scenario caches a profiles file by path, so every draw writes new files.
_files = itertools.count()


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(drawn_configs())
def test_loaded_and_built_scenarios_obey_the_same_rules(tmp_path, drawn):
    values, clean, broken = drawn
    library_path, scenario_path = write_files(values, tmp_path, next(_files))
    loaded, load_error = _outcome(lambda: load_scenario(scenario_path, library_path=library_path))
    built, build_error = _outcome(lambda: build_direct(values))

    assert (load_error is None) == (build_error is None), (load_error, build_error)
    if build_error is None:
        assert loaded == built
        trace = run_baseline(BaselinePolicy.fixed(), built)
        assert trace.outcome in (Outcome.COMPLETED, Outcome.OOM_FAILED)
        assert trace.outcome is Outcome.OOM_FAILED or len(trace.records) == built.num_experiences
        report = Report(scenario_name=built.name, traces=(("fixed", trace),))
        emit_report(report, "csv")
        emit_report(report, "jsonl")
        return

    # The file's error names one of its own key paths.
    message = str(load_error)
    paths = {"library": str(library_path), "scenario": str(scenario_path)}
    named = [
        (doc, key)
        for doc, key in list(KEYS) + [("scenario", "platform"), ("scenario", "controller")]
        if message.startswith(f"{paths[doc]}.{key}: ")
    ]
    assert named, message
    # With the one broken key back in range the draw builds, so both errors
    # name that key.
    if broken is not None and _outcome(lambda: build_direct(clean))[1] is None:
        assert key_of(str(build_error)) == broken, (build_error, broken)
        assert message.startswith(f"{paths[broken[0]]}.{broken[1]}: "), (message, broken)


def _replaced(path: str, **changes):
    """xavier-er with one record replaced: path "" is the scenario itself,
    else the name of the field holding the record to change."""

    def make(tmp_path):
        scenario = load_bundled_scenario("xavier-er")
        if not path:
            return dataclasses.replace(scenario, **changes)
        record = dataclasses.replace(getattr(scenario, path), **changes)
        return dataclasses.replace(scenario, **{path: record})

    return make


def _file_initial_threshold_of_one(tmp_path):
    text = bundled_scenario_path("xavier-er").read_text(encoding="utf-8")
    anchor = "initial_threshold: 0.0655"
    assert anchor in text
    path = tmp_path / "xavier-er.yaml"
    path.write_text(text.replace(anchor, "initial_threshold: 1.0"), encoding="utf-8")
    return load_scenario(path)


# Configs that were accepted, or rejected naming no field, before each record
# stated its own rules; each now raises at construction, naming the field.
HOLES = {
    "file-initial-threshold-1": (
        _file_initial_threshold_of_one,
        r"xavier-er\.yaml\.controller\.initial_threshold: must be in \[1e-12, 1\), got 1\.0$",
    ),
    "stability-buffer-scale-0": (
        _replaced("response", stability_buffer_scale=0.0),
        r"^ResponseModel\.stability_buffer_scale: must be in \[1e-9, inf\), got 0\.0$",
    ),
    "plasticity-updates-scale-0": (
        _replaced("response", plasticity_updates_scale=0.0),
        r"^ResponseModel\.plasticity_updates_scale: must be in \[1e-9, inf\), got 0\.0$",
    ),
    "safety-margin-0.9": (
        _replaced("controller", safety_margin=0.9),
        r"^ScenarioConfig\.controller: initial budgets total 4827\.6 MB, above the 819\.2 MB cap$",
    ),
    "float-experiences": (
        _replaced("", num_experiences=10.0),
        r"^ScenarioConfig\.num_experiences: must be an int, got 10\.0$",
    ),
    "zero-experiences": (
        _replaced("", num_experiences=0),
        r"^ScenarioConfig\.num_experiences: must be in \[1, inf\), got 0$",
    ),
    "negative-seed": (
        _replaced("", seed=-1),
        r"^ScenarioConfig\.seed: must be in \[0, inf\), got -1$",
    ),
    "zero-samples": (
        _replaced("", samples_per_experience=0),
        r"^ScenarioConfig\.samples_per_experience: must be in \[1, inf\), got 0$",
    ),
    "negative-initial-batch": (
        _replaced("", initial_batch_mb=-5.0),
        r"^ScenarioConfig\.initial_batch_mb: must be in \[0, inf\), got -5\.0$",
    ),
    "plasticity-threshold-above-1": (
        _replaced("thresholds", plasticity=1.5),
        r"^Thresholds\.plasticity: must be in \[0, 1\], got 1\.5$",
    ),
    "stability-threshold-below-0": (
        _replaced("thresholds", stability=-0.1),
        r"^Thresholds\.stability: must be in \[0, 1\], got -0\.1$",
    ),
    "infinite-memory-threshold": (
        _replaced("thresholds", memory_mb=math.inf),
        r"^Thresholds\.memory_mb: must be in \[1, inf\), got inf$",
    ),
    "nan-plasticity-threshold": (
        _replaced("thresholds", plasticity=math.nan),
        r"^Thresholds\.plasticity: must be in \[0, 1\], got nan$",
    ),
    "negative-latency-threshold": (
        _replaced("thresholds", latency_s=-1.0),
        r"^Thresholds\.latency_s: must be in \[0, inf\), got -1\.0$",
    ),
    "plasticity-max-5": (
        _replaced("response", plasticity_max=5.0),
        r"^ResponseModel\.plasticity_max: must be in \[0, 1\], got 5\.0$",
    ),
    "negative-spike-coeff": (
        lambda tmp_path: dataclasses.replace(
            load_bundled_scenario("xavier-er").controller.memory, spike_coeff=-1.0
        ),
        r"^MemoryModel\.spike_coeff: must be in \[0, inf\), got -1\.0$",
    ),
    "infinite-sensitivity": (
        _replaced("controller", batch_sensitivity=math.inf),
        r"^ControllerConfig\.batch_sensitivity: must be in \[0, inf\), got inf$",
    ),
}


@pytest.mark.parametrize("case", sorted(HOLES))
def test_hole_rejected_at_construction_naming_the_field(tmp_path, case):
    make, match = HOLES[case]
    with pytest.raises(SchemaError, match=match):
        make(tmp_path)


def test_calibration_targets_file_names_the_key_of_a_broken_rule(tmp_path):
    # The shape rules are CalibrationTargets' own: a file breaking one is
    # rejected at load, naming the key, not later by calibrate_profile.
    doc = yaml.safe_load(default_calibration_targets_path().read_text(encoding="utf-8"))
    doc["latency_points"] = [[16, 1.0], [32, 2.0], [64, 3.0]]
    path = tmp_path / "targets.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    match = r"targets\.yaml\.latency_points: latency targets must be strictly decreasing"
    with pytest.raises(SchemaError, match=match):
        load_calibration_targets(path)
