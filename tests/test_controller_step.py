"""The controller step and loop are exactly the spec's (tests/spec.py): the
same floats, modes and errors.

Every step below is compared with spec.update_budgets and
spec.derive_knobs, and every controller run with spec.run_controller:
bit-identical floats, the same modes, the same error class name and
message, and for a run that fails its outcome and partial trace. The test
names keep their earlier wording: "the old step" and "the old loop" are the
spec's.
"""

import dataclasses
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spec
from oclbudget import (
    BudgetState,
    ControllerConfig,
    InfeasibleBudgetError,
    MemoryModel,
    OptimizerMode,
    build_environment,
    bundled_scenario_names,
    derive_knobs,
    load_bundled_scenario,
    run_control_loop,
    update_budgets,
)
from oclbudget.scenario import PREFERENCE_PRESETS


def package_run(run, scenario):
    """run(scenario, env) as (packed rows, outcome, message); an infeasible
    run's rows are its partial trace's."""
    try:
        trace, message = run(scenario, build_environment(scenario)), None
    except InfeasibleBudgetError as exc:
        trace, message = exc.partial_trace, str(exc)
    return spec.packed_trace(trace, message)


def spec_run(result):
    """A spec.Run as (packed rows, outcome, message)."""
    return [spec.packed(record) for record in result.records], result.outcome, result.message


def assert_same_run(scenario):
    assert package_run(run_control_loop, scenario) == spec_run(spec.run_controller(scenario))


def outcome(fn, *args):
    """fn(*args) as comparable bits: ints, float hex and mode names, or the
    error's class name and message."""
    try:
        result = fn(*args)
    except Exception as exc:  # the class name and message are what is compared
        return "raised", type(exc).__name__, str(exc)
    return tuple(v.hex() if type(v) is float else getattr(v, "value", v) for v in result)


# ControllerConfig within the ranges the scenario and profile schemas accept.
unit_open = st.floats(1e-12, 1.0, exclude_max=True)
non_negative = st.just(0.0) | st.floats(0.0, 50.0) | st.floats(0.0, 1e6)
per_item = st.floats(1e-9, 100.0)


@st.composite
def configs(draw):
    memory = MemoryModel(
        base_mb=draw(st.just(0.0) | st.floats(0.0, 1e4), label="base_mb"),
        optimizer_delta_mb=draw(st.just(0.0) | st.floats(0.0, 5e3), label="optimizer_delta_mb"),
        sample_mb=draw(per_item, label="sample_mb"),
        frame_mb=draw(per_item, label="frame_mb"),
        spike_threshold=draw(st.integers(0, 100_000), label="spike_threshold"),
        spike_coeff=draw(st.floats(0.0, 1.0), label="spike_coeff"),
    )
    capacity = draw(st.floats(1.0, 3e4), label="capacity_mb")
    assume(capacity > memory.base_mb)
    return ControllerConfig(
        initial_threshold=draw(unit_open, label="initial_threshold"),
        threshold_decay=draw(st.just(0.0) | st.floats(0.0, 10.0), label="threshold_decay"),
        batch_sensitivity=draw(non_negative, label="batch_sensitivity"),
        replay_sensitivity=draw(non_negative, label="replay_sensitivity"),
        memory=memory,
        capacity_mb=capacity,
        safety_margin=draw(st.just(0.0) | st.floats(0.0, 0.99), label="safety_margin"),
    )


@st.composite
def states(draw, config):
    scale = 2.0 * config.capacity_mb
    budget = st.just(0.0) | st.floats(0.0, scale)
    mode = draw(st.sampled_from(OptimizerMode), label="mode")
    if mode is OptimizerMode.ADVANCED:
        optimizer_mb = config.optimizer_advanced_mb
    else:
        optimizer_mb = config.optimizer_default_mb
    batch_mb, replay_mb = draw(budget, label="batch_mb"), draw(budget, label="replay_mb")
    return BudgetState(batch_mb, replay_mb, optimizer_mb, mode)


@settings(max_examples=1000, deadline=None)
@given(data=st.data())
def test_update_budgets_matches_the_old_step(data):
    config = data.draw(configs(), label="config")
    prev = data.draw(states(config), label="prev")
    threshold = data.draw(unit_open, label="threshold")
    # Scores below, at and above the threshold.
    score = data.draw(st.just(threshold) | st.floats(0.0, 1.0), label="score")
    assert outcome(update_budgets, prev, score, threshold, config) == outcome(
        spec.update_budgets, prev, score, threshold, config
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_derive_knobs_matches_the_old_step(data):
    config = data.draw(configs(), label="config")
    state = data.draw(states(config), label="state")
    assert outcome(derive_knobs, state, config) == outcome(spec.derive_knobs, state, config)


# (sample_mb, frame_mb, batch_mb, replay_mb): budgets whose quotient rounds
# onto an integer, where floor(a / b) and a // b differ (1.0 / 0.1 == 10.0
# while 1.0 // 0.1 == 9.0), budgets of exact multiples, and zero budgets.
DERIVE_CASES = [
    (0.1, 0.1, 1.0, 1.0),
    (0.045, 0.045, 15 * 0.045, 0.045 * 15),
    (1.0, 0.05, 64.0, 2000 * 0.05),
    (0.7, 0.3, 0.0, 0.0),
    (0.7, 0.3, 0.69, 0.31),
]


@pytest.mark.parametrize("sample_mb, frame_mb, batch_mb, replay_mb", DERIVE_CASES)
@pytest.mark.parametrize("mode", list(OptimizerMode))
def test_derive_knobs_matches_the_old_step_at_rounding_edges(
    sample_mb, frame_mb, batch_mb, replay_mb, mode
):
    config = toy_config((100.0, 50.0, sample_mb, frame_mb, 20000, 0.0))
    state = BudgetState(batch_mb, replay_mb, 100.0, mode)
    assert outcome(derive_knobs, state, config) == outcome(spec.derive_knobs, state, config)


def toy_config(memory=(100.0, 50.0, 1.0, 0.05, 20000, 0.0), **overrides):
    params = dict(
        initial_threshold=0.5,
        threshold_decay=0.0,
        batch_sensitivity=0.0,
        replay_sensitivity=0.0,
        memory=MemoryModel(*memory),
        capacity_mb=1000.0,
        safety_margin=0.0,
    )
    params.update(overrides)
    return ControllerConfig(**params)


ADVANCED = OptimizerMode.ADVANCED
SMALL = BudgetState(40.0, 60.0, 100.0)
LARGE = BudgetState(600.0, 700.0, 100.0)

# name: (config, prev, score, threshold, the path the step takes).
PATHS = {
    "zero-budgets": (toy_config(), BudgetState(0.0, 0.0, 100.0), 0.9, 0.5, "fits"),
    "grow": (toy_config(batch_sensitivity=0.5), SMALL, 0.9, 0.5, "fits"),
    "score-at-threshold": (toy_config(batch_sensitivity=3.0), SMALL, 0.5, 0.5, "fits"),
    "shrink": (
        toy_config(replay_sensitivity=1.0),
        BudgetState(40.0, 60.0, 150.0, ADVANCED),
        0.2,
        0.5,
        "fits",
    ),
    # The advanced level alone is above the cap, so the default level is taken.
    "advanced-falls-back": (
        toy_config((100.0, 950.0, 1.0, 0.05, 20000, 0.0)),
        SMALL,
        0.9,
        0.5,
        "fits",
    ),
    "projection": (toy_config(), LARGE, 0.2, 0.5, "projects"),
    # The projected total rounds one ulp above the cap, so the nudge runs.
    "nextafter": (
        toy_config(
            (14.493681273916222, 50.0, 1.0, 0.05, 20000, 0.0), capacity_mb=7646.572816333625
        ),
        BudgetState(6811.371221605108, 11034.616794387026, 14.493681273916222),
        0.2,
        0.5,
        "nudges",
    ),
    "negative": (toy_config(batch_sensitivity=5.0), SMALL, 0.1, 0.5, "negative"),
    "no-room": (
        toy_config((990.0, 50.0, 1.0, 0.05, 20000, 0.0), safety_margin=0.05),
        BudgetState(1.0, 1.0, 990.0),
        0.9,
        0.5,
        "no room",
    ),
    "below-minimum": (
        toy_config((100.0, 50.0, 500.0, 0.05, 20000, 0.0)),
        LARGE,
        0.2,
        0.5,
        "below its minimum",
    ),
}


def grown_budgets(prev, score, threshold, config):
    """The step's batch and replay budgets before any projection."""
    if score >= threshold:
        gain = score - threshold
        return (
            prev.batch_mb * (1.0 + config.batch_sensitivity * gain),
            prev.replay_mb * (1.0 + config.replay_sensitivity * gain),
        )
    drop = threshold - score
    return (
        prev.batch_mb * (1.0 - config.batch_sensitivity * drop),
        prev.replay_mb * (1.0 - config.replay_sensitivity * drop),
    )


@pytest.mark.parametrize("name", PATHS)
def test_each_path_of_the_step_matches_the_old_step(name):
    config, prev, score, threshold, path = PATHS[name]
    expected = outcome(spec.update_budgets, prev, score, threshold, config)
    assert outcome(update_budgets, prev, score, threshold, config) == expected
    # Each case takes the path it is named for.
    if path in ("negative", "no room", "below its minimum"):
        assert expected[:2] == ("raised", "InfeasibleBudgetError") and path in expected[2]
        return
    state = update_budgets(prev, score, threshold, config)
    batch_mb, replay_mb = grown_budgets(prev, score, threshold, config)
    cap = config.budget_cap_mb
    assert state.total_mb <= cap
    if path == "fits":
        assert (state.batch_mb, state.replay_mb) == (batch_mb, replay_mb)
    else:
        assert batch_mb + replay_mb + state.optimizer_mb > cap
        scale = (cap - state.optimizer_mb) / (batch_mb + replay_mb)
        rounded_over = batch_mb * scale + replay_mb * scale + state.optimizer_mb > cap
        assert rounded_over is (path == "nudges")
    if name == "advanced-falls-back":
        assert score >= threshold and state.optimizer_mode is OptimizerMode.DEFAULT
    assert outcome(derive_knobs, state, config) == outcome(spec.derive_knobs, state, config)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_controller_runs_match_the_old_loop_for_any_config(data):
    # Any schema-valid threshold and sensitivities on a bundled scenario: the
    # loop's inline threshold is the spec's decayed threshold, bit for bit.
    scenario = load_bundled_scenario(data.draw(st.sampled_from(bundled_scenario_names())))
    config = dataclasses.replace(
        scenario.controller,
        initial_threshold=data.draw(unit_open, label="initial_threshold"),
        threshold_decay=data.draw(st.just(0.0) | st.floats(0.0, 10.0), label="threshold_decay"),
        batch_sensitivity=data.draw(st.floats(0.0, 20.0), label="batch_sensitivity"),
        replay_sensitivity=data.draw(st.floats(0.0, 20.0), label="replay_sensitivity"),
    )
    horizon = data.draw(st.integers(1, 40), label="num_experiences")
    assert_same_run(dataclasses.replace(scenario, controller=config, num_experiences=horizon))


@pytest.mark.parametrize("preset", sorted(PREFERENCE_PRESETS))
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_bundled_controller_runs_match_the_old_loop(name, preset):
    assert_same_run(load_bundled_scenario(name).with_preference(preset))


STRESSED = ("batch_sensitivity", "replay_sensitivity", "initial_threshold", "threshold_decay")


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_stress_draws_at_k200_match_the_old_loop(name):
    # Drawn as the controller-stress benchmark draws: each of the four
    # parameters scaled by a factor in [0.5, 1.5], a margin in [0.025, 0.075].
    base = load_bundled_scenario(name)
    rng = random.Random(name)
    for _ in range(3):
        changes = {p: getattr(base.controller, p) * rng.uniform(0.5, 1.5) for p in STRESSED}
        config = dataclasses.replace(
            base.controller, safety_margin=rng.uniform(0.025, 0.075), **changes
        )
        scenario = dataclasses.replace(base, controller=config, num_experiences=200)
        assert_same_run(scenario.with_seed(rng.randrange(2**31)))
