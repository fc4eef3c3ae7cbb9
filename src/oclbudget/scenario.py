"""Scenario files: the declarative description of one simulated OCL run.

A scenario names a platform preset and an algorithm profile from the profile
library, sets the workload size and seed, picks a preference ordering, and
parameterizes the controller. Nothing else varies per scenario: the MAX-A,
MAX-P and fixed-proxy baselines use constant knobs. A profile is a
ResponseModel, kept as ScenarioConfig.response, and a MemoryModel, kept in
the controller config and handed as one object to both the controller and
the environment, so the controller's per-item costs and optimizer budgets
are the simulator's own. The environment also holds the platform preset
itself; build_environment's prefetch flag turns load hiding on or off.
The capacity projection is an OOM guarantee only while the replay buffer
stays under the model's spike_threshold: above it the model adds a quadratic
residency term the projection does not count. The bundled 10-experience
horizon stays under it; longer runs can exceed it (ROADMAP open item 1).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .controller import BudgetState, ControllerConfig, OptimizerMode, derive_knobs
from .errors import InvalidPreferenceError, SchemaError, check_ints, check_ranges, ranges, reject
from .metrics import Thresholds
from .simulator import (
    PlatformPreset,
    ProfileLibrary,
    ResponseModel,
    SimulatedEnvironment,
    load_profile_library,
)
from .urge import weights_from_preference
from .yamlcfg import Section, build, check_schema_version, load_yaml_mapping

PREFERENCE_PRESETS: dict[str, tuple[str, ...]] = {
    "balanced": ("memory", "plasticity", "stability", "latency"),
    "prefer-latency": ("latency", "memory", "plasticity", "stability"),
    "prefer-ps": ("plasticity", "stability", "memory", "latency"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario. A loaded file, a direct build and
    dataclasses.replace obey the same rules: each record, Thresholds
    included, checks its own fields, and __post_init__ checks this record's
    fields (K, samples and seed are ints, not floats or bools) and what
    spans fields, raising a SchemaError that names Record.field
    (load_scenario names the file's key instead).

    The environment reads the device from platform, but load_scenario
    copies platform.capacity_mb into controller.capacity_mb, so replacing
    platform does not move the controller's cap. The copy stays until
    perfbench stops reading ControllerConfig.budget_cap_mb (ROADMAP open
    item 10)."""

    name: str
    platform: PlatformPreset
    response: ResponseModel
    num_experiences: int
    samples_per_experience: int
    seed: int
    preference: tuple[str, str, str, str]
    thresholds: Thresholds
    controller: ControllerConfig
    initial_batch_mb: float
    initial_replay_mb: float

    _RANGES = ranges({
        "[1, inf)": "num_experiences samples_per_experience",
        "[0, inf)": "seed initial_batch_mb initial_replay_mb",
    })

    def __post_init__(self):
        # The CSV report writes the name unquoted in every row.
        if any(c in self.name for c in ',"\r\n'):
            rule = "must not contain a comma, a double quote or a line break"
            reject(self, "name", f"{self.name!r} {rule}")
        check_ints(self, "num_experiences samples_per_experience seed")
        check_ranges(self, self._RANGES)
        try:
            weights_from_preference(self.preference)
        except InvalidPreferenceError as exc:
            reject(self, "preference", str(exc))
        # The initial budgets, and their knobs' memory with the residency term
        # the budget total omits, must fit under the controller's cap.
        state, cap = self.initial_budget_state(), self.controller.budget_cap_mb
        above = f"above the {cap:.1f} MB cap"
        if state.total_mb > cap:
            reject(self, "controller", f"initial budgets total {state.total_mb:.1f} MB, {above}")
        knobs = derive_knobs(state, self.controller)
        if (need := self.controller.memory.memory_mb(knobs)) > cap:
            knob = f"batch {knobs.batch_size}, buffer {knobs.buffer_size}"
            reject(self, "controller", f"the initial knobs ({knob}) need {need:.1f} MB, {above}")
        self._check_horizon()

    def _check_horizon(self) -> None:
        """Reject a horizon whose last experience could take an unbounded time.

        Latency grows as growth^(e-1), so the last experience is the slowest.
        Its bound takes the slowest knobs a run can reach: batch 1, the
        advanced optimizer and every replay frame the platform's capacity
        holds beside the base memory and one sample, with the full load and
        the largest noise factor. If that bound overflows, a run could die
        mid-way with a non-finite latency. K times that bound caps the run's
        total latency (RunTrace.total_latency_s), which overhead and prefetch
        accounting divide by; it must stay finite too, with a factor of 2 to
        spare for the rounding of a K-term sum.
        """
        k, n, platform, memory = (
            self.num_experiences, self.samples_per_experience, self.platform, self.controller.memory
        )
        room = platform.capacity_mb - memory.base_mb - memory.sample_mb
        buffer = max(0, math.floor(room / memory.frame_mb))
        try:
            compute = self.response.compute_latency_s(
                1, buffer, OptimizerMode.ADVANCED, k, n, platform.compute_scale
            )
            latency = (compute + n * platform.load_time_per_sample_s) * (
                1.0 + self.response.noise_fraction
            )
        except OverflowError:
            latency = math.inf
        if not 2.0 * k * latency < math.inf:
            slowest = f"at batch 1, buffer {buffer} and the advanced optimizer, experience {k}"
            rule = f"{k} experiences overflow the latency model; {slowest} would take {latency} s"
            reject(self, "num_experiences", f"{rule} and the run up to {k * latency} s")

    def initial_budget_state(self) -> BudgetState:
        return BudgetState(
            self.initial_batch_mb, self.initial_replay_mb, self.controller.optimizer_default_mb
        )

    def with_preference(self, preference) -> "ScenarioConfig":
        return dataclasses.replace(self, preference=resolve_preference(preference))

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=seed)


def resolve_preference(preference) -> tuple[str, ...]:
    """A preset name's ordering, or an explicit ordering as a tuple of names;
    ScenarioConfig checks that it names each metric once."""
    if isinstance(preference, str):
        if preference not in PREFERENCE_PRESETS:
            raise SchemaError(
                f"unknown preference preset {preference!r}; "
                f"known presets: {sorted(PREFERENCE_PRESETS)}"
            )
        return PREFERENCE_PRESETS[preference]
    return tuple(map(str, preference))


def default_profile_library_path() -> Path:
    return Path(resources.files("oclbudget").joinpath("data/profiles.yaml"))


def default_calibration_targets_path() -> Path:
    return Path(resources.files("oclbudget").joinpath("data/calibration_targets.yaml"))


def bundled_scenario_dir() -> Path:
    return Path(resources.files("oclbudget").joinpath("data/scenarios"))


def bundled_scenario_names() -> list[str]:
    return sorted(p.stem for p in bundled_scenario_dir().glob("*.yaml"))


def bundled_scenario_path(name: str) -> Path:
    path = bundled_scenario_dir() / f"{name}.yaml"
    if not path.exists():
        raise SchemaError(
            f"no bundled scenario {name!r}; available: {bundled_scenario_names()}"
        )
    return path


_library_cache: dict[str, ProfileLibrary] = {}


def _library(path: str | Path | None) -> ProfileLibrary:
    resolved = str(Path(path) if path is not None else default_profile_library_path())
    if resolved not in _library_cache:
        _library_cache[resolved] = load_profile_library(resolved)
    return _library_cache[resolved]


def _lookup(root: Section, key: str, table: dict):
    name = root.take(key, kind=str)
    if name not in table:
        raise SchemaError(
            f"{root.path}.{key}: unknown {key} {name!r}; available: {sorted(table)}"
        )
    return table[name]


def load_scenario(path: str | Path, *, library_path: str | Path | None = None) -> ScenarioConfig:
    """Parse one scenario file; unknown keys are rejected.

    It only parses: keys, types, finite numbers, the platform and profile
    names and the memory_mb default. Every range and cross-field rule is the
    records' own, the same for a file as for a ScenarioConfig built in
    code; a rejection is re-raised naming the key, e.g.
    <file>.controller.initial_threshold.
    """
    library = _library(library_path)
    doc = load_yaml_mapping(path)
    label = str(path)
    check_schema_version(doc, label)
    root = Section(doc, label)

    platform = _lookup(root, "platform", library.platforms)
    response, memory = _lookup(root, "profile", library.profiles)
    values = {"name": root.take("name", kind=str), "platform": platform, "response": response}
    for key in ("num_experiences", "samples_per_experience", "seed"):
        values[key] = root.take(key, kind=int)
    preference = root.take("preference", kind=(str, list))
    try:
        values["preference"] = resolve_preference(preference)
    except SchemaError as exc:  # an unknown preset name
        raise SchemaError(f"{label}.preference: {exc}") from exc

    th = root.section("thresholds")
    thresholds = {key: th.take_number(key) for key in ("plasticity", "stability", "latency_s")}
    thresholds["memory_mb"] = th.take_number("memory_mb", default=platform.capacity_mb)
    th.finish()
    ctrl = root.section("controller")
    knobs = ("initial_threshold", "threshold_decay", "batch_sensitivity", "replay_sensitivity")
    config = {key: ctrl.take_number(key) for key in knobs}
    config["safety_margin"] = ctrl.take_number("safety_margin", default=0.05)
    for key in ("initial_batch_mb", "initial_replay_mb"):
        values[key] = ctrl.take_number(key)
    ctrl.finish()
    root.finish()

    values["thresholds"] = build(Thresholds, th.path, thresholds)
    # A controller key's rule names it; the controller's capacity is the platform's.
    keys = {key: f"controller.{key}" for key in [*config, "initial_batch_mb", "initial_replay_mb"]}
    keys["capacity_mb"] = "platform"
    config.update(memory=memory, capacity_mb=platform.capacity_mb)
    values["controller"] = build(ControllerConfig, label, config, keys)
    return build(ScenarioConfig, label, values, keys)


def load_bundled_scenario(name: str) -> ScenarioConfig:
    return load_scenario(bundled_scenario_path(name))


def build_environment(scenario: ScenarioConfig, *, prefetch: bool = True) -> SimulatedEnvironment:
    """Fresh single-owner environment for one run; prefetch off hides no load."""
    return SimulatedEnvironment(
        response=scenario.response,
        memory=scenario.controller.memory,
        platform=scenario.platform,
        seed=scenario.seed,
        samples_per_experience=scenario.samples_per_experience,
        prefetch=prefetch,
    )
