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
from .errors import SchemaError
from .metrics import Thresholds
from .simulator import (
    PlatformPreset,
    ProfileLibrary,
    ResponseModel,
    SimulatedEnvironment,
    load_profile_library,
)
from .urge import METRIC_NAMES
from .yamlcfg import Section, check_schema_version, load_yaml_mapping

PREFERENCE_PRESETS: dict[str, tuple[str, ...]] = {
    "balanced": ("memory", "plasticity", "stability", "latency"),
    "prefer-latency": ("latency", "memory", "plasticity", "stability"),
    "prefer-ps": ("plasticity", "stability", "memory", "latency"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """One validated scenario file. The environment reads the device from
    platform, but load_scenario copies platform.capacity_mb into
    controller.capacity_mb, so replacing platform does not move the
    controller's cap. The copy stays until perfbench stops reading
    ControllerConfig.budget_cap_mb (ROADMAP open item 10). Every build,
    dataclasses.replace included, checks the name and that num_experiences
    keeps the slowest reachable latency finite."""

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

    def __post_init__(self):
        _check_name(self.name, "ScenarioConfig.name")
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
            raise SchemaError(
                f"ScenarioConfig.num_experiences: {k} experiences overflow the latency "
                f"model; at batch 1, buffer {buffer} and the advanced optimizer, "
                f"experience {k} would take {latency} s and the run up to {k * latency} s"
            )

    def initial_budget_state(self) -> BudgetState:
        return BudgetState(
            self.initial_batch_mb, self.initial_replay_mb, self.controller.optimizer_default_mb
        )

    def with_preference(self, preference) -> "ScenarioConfig":
        return dataclasses.replace(self, preference=resolve_preference(preference))

    def with_seed(self, seed: int) -> "ScenarioConfig":
        return dataclasses.replace(self, seed=int(seed))


def _check_name(name: str, where: str) -> None:
    # The CSV report writes the name unquoted in every row.
    if any(c in name for c in ',"\r\n'):
        raise SchemaError(
            f"{where}: {name!r} must not contain a comma, a double quote or a line break"
        )


def resolve_preference(preference) -> tuple[str, str, str, str]:
    """Accept a preset name or an explicit 4-item ordering."""
    if isinstance(preference, str):
        if preference not in PREFERENCE_PRESETS:
            raise SchemaError(
                f"unknown preference preset {preference!r}; "
                f"known presets: {sorted(PREFERENCE_PRESETS)}"
            )
        return PREFERENCE_PRESETS[preference]
    names = tuple(str(p) for p in preference)
    if sorted(names) != sorted(METRIC_NAMES):
        raise SchemaError(
            f"preference must be a permutation of {METRIC_NAMES}, got {list(names)}"
        )
    return names


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


def load_scenario(path: str | Path, *, library_path: str | Path | None = None) -> ScenarioConfig:
    """Load and validate one scenario file; unknown keys are rejected.

    So are initial budgets whose total, or whose knobs' memory with the
    residency term, is above the controller's cap.
    """
    library = _library(library_path)
    doc = load_yaml_mapping(path)
    label = str(path)
    check_schema_version(doc, label)
    root = Section(doc, label)

    name = root.take("name", kind=str)
    _check_name(name, f"{label}.name")
    platform_name = root.take("platform", kind=str)
    if platform_name not in library.platforms:
        raise SchemaError(
            f"{label}.platform: unknown platform {platform_name!r}; "
            f"available: {sorted(library.platforms)}"
        )
    platform = library.platforms[platform_name]

    profile_name = root.take("profile", kind=str)
    if profile_name not in library.profiles:
        raise SchemaError(
            f"{label}.profile: unknown profile {profile_name!r}; "
            f"available: {sorted(library.profiles)}"
        )
    response, memory = library.profiles[profile_name]

    num_experiences = root.take_int("num_experiences", minimum=1)
    samples = root.take_int("samples_per_experience", minimum=1)
    seed = root.take_int("seed", minimum=0)
    preference = resolve_preference(root.take("preference", kind=(str, list)))

    th = root.section("thresholds")
    memory_mb = th.take_number("memory_mb", default=None, minimum=1.0)
    thresholds = Thresholds(
        plasticity=th.take_number("plasticity", minimum=0.0, maximum=1.0),
        stability=th.take_number("stability", minimum=0.0, maximum=1.0),
        latency_s=th.take_number("latency_s", minimum=0.0),
        memory_mb=platform.capacity_mb if memory_mb is None else memory_mb,
    )
    th.finish()

    ctrl = root.section("controller")
    config = ControllerConfig(
        initial_threshold=ctrl.take_number("initial_threshold", minimum=1e-12, maximum=1.0),
        threshold_decay=ctrl.take_number("threshold_decay", minimum=0.0),
        batch_sensitivity=ctrl.take_number("batch_sensitivity", minimum=0.0),
        replay_sensitivity=ctrl.take_number("replay_sensitivity", minimum=0.0),
        memory=memory,
        capacity_mb=platform.capacity_mb,
        safety_margin=ctrl.take_number("safety_margin", default=0.05, minimum=0.0, maximum=0.99),
    )
    initial_batch_mb = ctrl.take_number("initial_batch_mb", minimum=0.0)
    initial_replay_mb = ctrl.take_number("initial_replay_mb", minimum=0.0)
    ctrl.finish()

    initial_state = BudgetState(initial_batch_mb, initial_replay_mb, config.optimizer_default_mb)
    if initial_state.total_mb > config.budget_cap_mb:
        raise SchemaError(
            f"{label}.controller: initial budgets total {initial_state.total_mb:.1f} MB, "
            f"above the {config.budget_cap_mb:.1f} MB cap"
        )
    # The knobs also pay the residency term, which the budget total omits.
    initial_knobs = derive_knobs(initial_state, config)
    initial_memory = memory.memory_mb(initial_knobs)
    if initial_memory > config.budget_cap_mb:
        raise SchemaError(
            f"{label}.controller: the initial knobs (batch {initial_knobs.batch_size}, "
            f"buffer {initial_knobs.buffer_size}) need {initial_memory:.1f} MB, above the "
            f"{config.budget_cap_mb:.1f} MB cap"
        )

    root.finish()

    return ScenarioConfig(
        name=name,
        platform=platform,
        response=response,
        num_experiences=num_experiences,
        samples_per_experience=samples,
        seed=seed,
        preference=preference,
        thresholds=thresholds,
        controller=config,
        initial_batch_mb=initial_batch_mb,
        initial_replay_mb=initial_replay_mb,
    )


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
