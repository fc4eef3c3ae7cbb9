"""The controller step is exact: the same floats, modes and errors as before.

old_threshold_at, old_update_budgets and old_derive_knobs below are verbatim
copies of the step as it was when Knobs and BudgetState were frozen
dataclasses and the step read the cap and the optimizer budgets through
ControllerConfig properties (only the names carry an old_ prefix). The step
now reads its constants directly and the loop computes each threshold
inline; these tests require bit-identical floats, identical modes, and the
same exception types and messages, and every controller trace equal to the
trace of a loop built from the old step.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oclbudget import (
    BudgetState,
    ControllerConfig,
    InfeasibleBudgetError,
    Knobs,
    MemoryModel,
    OptimizerMode,
    Outcome,
    RunTrace,
    TraceRecord,
    build_environment,
    bundled_scenario_names,
    derive_knobs,
    load_bundled_scenario,
    run_control_loop,
    update_budgets,
)
from oclbudget.metrics import running_snapshot
from oclbudget.scenario import PREFERENCE_PRESETS
from oclbudget.urge import urge_scorer, weights_from_preference


def old_threshold_at(config: ControllerConfig, t: int) -> float:
    """Exponentially decaying control setpoint at experience index t (0-based)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return config.initial_threshold * math.exp(-config.threshold_decay * t)


def old_update_budgets(
    prev: BudgetState, score: float, threshold: float, config: ControllerConfig
) -> BudgetState:
    """One budget update step.

    score >= threshold takes the aggressive branch: both budgets scale by
    1 + sensitivity * (score - threshold) and the optimizer moves to the
    advanced level when it fits, else stays at the default level with the
    same grown budgets. Below threshold both budgets shrink by the mirrored
    factor and the optimizer drops to default.

    If the new total would exceed capacity * (1 - safety_margin), the batch
    and replay budgets are scaled proportionally so the total meets the cap
    exactly; the optimizer budget is never scaled, only toggled. A level
    fits when that projection leaves room for one batch sample and one
    replay frame. Raises InfeasibleBudgetError when the default level does
    not fit or a budget goes negative.
    """
    if score >= threshold:
        gain = score - threshold
        batch_mb = prev.batch_mb * (1.0 + config.batch_sensitivity * gain)
        replay_mb = prev.replay_mb * (1.0 + config.replay_sensitivity * gain)
        levels = (
            (OptimizerMode.ADVANCED, config.optimizer_advanced_mb),
            (OptimizerMode.DEFAULT, config.optimizer_default_mb),
        )
    else:
        drop = threshold - score
        batch_mb = prev.batch_mb * (1.0 - config.batch_sensitivity * drop)
        replay_mb = prev.replay_mb * (1.0 - config.replay_sensitivity * drop)
        levels = ((OptimizerMode.DEFAULT, config.optimizer_default_mb),)

    if batch_mb < 0 or replay_mb < 0:
        raise InfeasibleBudgetError(
            "sensitivity large enough to drive a budget negative; "
            f"got batch={batch_mb:.3f} replay={replay_mb:.3f}"
        )

    cap = config.budget_cap_mb
    for mode, optimizer_mb in levels:
        batch_fit, replay_fit = batch_mb, replay_mb
        if batch_fit + replay_fit + optimizer_mb > cap:
            available = cap - optimizer_mb
            scalable = batch_fit + replay_fit
            if available <= 0 or scalable <= 0:
                problem = (
                    f"optimizer budget {optimizer_mb:.1f} MB leaves no room under the "
                    f"{cap:.1f} MB cap"
                )
                continue
            scale = available / scalable
            batch_fit *= scale
            replay_fit *= scale
            # Rounding can leave the total a few ulps above the cap; nudge down.
            while batch_fit + replay_fit + optimizer_mb > cap:
                batch_fit = math.nextafter(batch_fit, 0.0)
                replay_fit = math.nextafter(replay_fit, 0.0)
            if batch_fit < config.memory.sample_mb or replay_fit < config.memory.frame_mb:
                problem = (
                    "projection pushed a budget below its minimum knob requirement "
                    f"(batch {batch_fit:.3f} MB, replay {replay_fit:.3f} MB)"
                )
                continue
        return BudgetState(
            batch_mb=batch_fit,
            replay_mb=replay_fit,
            optimizer_mb=optimizer_mb,
            optimizer_mode=mode,
        )
    raise InfeasibleBudgetError(problem)


def old_derive_knobs(state: BudgetState, config: ControllerConfig) -> Knobs:
    """Floor-divide budgets by per-item costs, with at least one of each."""
    batch = max(1, math.floor(state.batch_mb / config.memory.sample_mb))
    buffer = max(1, math.floor(state.replay_mb / config.memory.frame_mb))
    return Knobs(batch_size=batch, buffer_size=buffer, optimizer_mode=state.optimizer_mode)


def old_control_loop(scenario, env):
    """The controller loop over the old step: a RunTrace, partial on an error."""
    config = scenario.controller
    score_of = urge_scorer(scenario.thresholds, weights_from_preference(scenario.preference))
    state = scenario.initial_budget_state()
    records = []
    for experience in range(1, scenario.num_experiences + 1):
        knobs = old_derive_knobs(state, config)
        latency, memory, oom = env.train_experience(experience, knobs)
        if oom:
            records.append(TraceRecord(experience, knobs, None, None, None, state, memory, True))
            return RunTrace(records=tuple(records), outcome=Outcome.OOM_FAILED), None
        snap = running_snapshot(env.accuracy, latency, memory)
        score = score_of(snap)
        theta = old_threshold_at(config, experience - 1)
        try:
            state = old_update_budgets(state, score.value, theta, config)
        except InfeasibleBudgetError as exc:
            return RunTrace(records=tuple(records), outcome=Outcome.INFEASIBLE), str(exc)
        env.prefetch_next(experience + 1)
        records.append(TraceRecord(experience, knobs, score, theta, snap, state, memory, False))
    return RunTrace(records=tuple(records), outcome=Outcome.COMPLETED), None


def new_control_loop(scenario, env):
    try:
        return run_control_loop(scenario, env), None
    except InfeasibleBudgetError as exc:
        return exc.partial_trace, str(exc)


def assert_same_run(scenario):
    old = old_control_loop(scenario, build_environment(scenario))
    new = new_control_loop(scenario, build_environment(scenario))
    assert new == old
    # repr spells every float exactly, so -0.0 and 0.0 differ here.
    assert repr(new) == repr(old)


def outcome(fn, *args):
    """fn(*args) as comparable bits: float hex, mode identity, or the error."""
    try:
        result = fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return "raised", type(exc), str(exc)
    if isinstance(result, Knobs):
        return Knobs, result.batch_size, result.buffer_size, id(result.optimizer_mode)
    batch, replay, optimizer, mode = result
    return type(result), batch.hex(), replay.hex(), float(optimizer).hex(), id(mode)


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
        old_update_budgets, prev, score, threshold, config
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_derive_knobs_matches_the_old_step(data):
    config = data.draw(configs(), label="config")
    state = data.draw(states(config), label="state")
    assert outcome(derive_knobs, state, config) == outcome(old_derive_knobs, state, config)


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
    assert outcome(derive_knobs, state, config) == outcome(old_derive_knobs, state, config)


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

# name: (config, prev, score, threshold, the path the old step takes).
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
    old = outcome(old_update_budgets, prev, score, threshold, config)
    assert outcome(update_budgets, prev, score, threshold, config) == old
    # Each case takes the path it is named for.
    if path in ("negative", "no room", "below its minimum"):
        assert old[:2] == ("raised", InfeasibleBudgetError) and path in old[2]
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
    assert outcome(derive_knobs, state, config) == outcome(old_derive_knobs, state, config)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_controller_runs_match_the_old_loop_for_any_config(data):
    # Any schema-valid threshold and sensitivities on a bundled scenario: the
    # loop's inline threshold is threshold_at's expression, bit for bit.
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
