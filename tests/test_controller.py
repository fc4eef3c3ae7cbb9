"""Controller: threshold decay, budget updates, projection, control loop."""

import dataclasses
import functools
import math
import types

import numpy as np
import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oclbudget import (
    BaselinePolicy,
    BudgetState,
    ControllerConfig,
    InfeasibleBudgetError,
    MemoryModel,
    OptimizerMode,
    Outcome,
    build_environment,
    bundled_scenario_names,
    bundled_scenario_path,
    derive_knobs,
    load_bundled_scenario,
    load_scenario,
    run_baseline,
    run_control_loop,
    threshold_at,
    update_budgets,
)
import oclbudget.controller as controller
from oclbudget.controller import OverheadRecorder
from oclbudget.scenario import default_profile_library_path

MEMORY = dict(
    base_mb=100.0,
    optimizer_delta_mb=50.0,
    sample_mb=1.0,
    frame_mb=0.05,
    spike_threshold=20000,
    spike_coeff=0.0,
)


def make_config(**overrides):
    """A config with a toy memory model; memory fields override MEMORY."""
    memory = {key: overrides.pop(key) for key in list(overrides) if key in MEMORY}
    params = dict(
        initial_threshold=0.7,
        threshold_decay=0.1,
        batch_sensitivity=0.1,
        replay_sensitivity=0.2,
        memory=MemoryModel(**{**MEMORY, **memory}),
        capacity_mb=1000.0,
        safety_margin=0.05,
    )
    params.update(overrides)
    return ControllerConfig(**params)


class TestThreshold:
    def test_at_zero_equals_initial(self):
        assert threshold_at(make_config(), 0) == 0.7

    def test_zero_decay_is_constant(self):
        cfg = make_config(threshold_decay=0.0)
        assert threshold_at(cfg, 100) == 0.7

    def test_exponential_decay_value(self):
        cfg = make_config(threshold_decay=0.1)
        assert threshold_at(cfg, 5) == pytest.approx(0.7 * math.exp(-0.5), rel=1e-12)

    def test_non_increasing_and_strictly_decreasing(self):
        flat = make_config(threshold_decay=0.0)
        decaying = make_config(threshold_decay=0.05)
        prev_flat, prev_dec = 1.0, 1.0
        for t in range(30):
            f, d = threshold_at(flat, t), threshold_at(decaying, t)
            assert f <= prev_flat
            assert d < prev_dec or t == 0
            prev_flat, prev_dec = f, d

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            threshold_at(make_config(), -1)


class TestUpdateBudgets:
    def test_documented_batch_multiplier(self):
        cfg = make_config(batch_sensitivity=0.1)
        prev = BudgetState(100.0, 50.0, 100.0)
        new = update_budgets(prev, score=0.8, threshold=0.7, config=cfg)
        assert new.batch_mb / prev.batch_mb == pytest.approx(1.01, abs=1e-12)

    def test_documented_replay_multiplier(self):
        cfg = make_config(replay_sensitivity=0.2)
        prev = BudgetState(100.0, 50.0, 100.0)
        new = update_budgets(prev, score=0.8, threshold=0.7, config=cfg)
        assert new.replay_mb / prev.replay_mb == pytest.approx(1.02, abs=1e-12)

    def test_boundary_tie_goes_aggressive(self):
        cfg = make_config()
        prev = BudgetState(100.0, 50.0, 100.0)
        new = update_budgets(prev, score=0.7, threshold=0.7, config=cfg)
        assert new.batch_mb == prev.batch_mb
        assert new.replay_mb == prev.replay_mb
        assert new.optimizer_mb == cfg.optimizer_advanced_mb

    def test_conservative_branch_shrinks_and_uses_default(self):
        cfg = make_config()
        prev = BudgetState(100.0, 50.0, cfg.optimizer_advanced_mb)
        new = update_budgets(prev, score=0.5, threshold=0.7, config=cfg)
        assert new.batch_mb == pytest.approx(100.0 * (1 - 0.1 * 0.2), rel=1e-15)
        assert new.replay_mb == pytest.approx(50.0 * (1 - 0.2 * 0.2), rel=1e-15)
        assert new.optimizer_mb == cfg.optimizer_default_mb

    def test_multiplicative_exactness_property(self):
        rng = np.random.default_rng(17)
        cfg = make_config(capacity_mb=1e9)  # no projection
        for _ in range(500):
            prev = BudgetState(
                float(rng.uniform(1, 500)), float(rng.uniform(1, 500)), 100.0
            )
            score = float(rng.uniform(0, 1))
            theta = float(rng.uniform(0, 1))
            new = update_budgets(prev, score, theta, cfg)
            if score >= theta:
                expected = 1.0 + cfg.batch_sensitivity * (score - theta)
            else:
                expected = 1.0 - cfg.batch_sensitivity * (theta - score)
            assert new.batch_mb / prev.batch_mb == pytest.approx(expected, rel=1e-14)

    def test_optimizer_mode_pure_function_of_comparison(self):
        cfg = make_config(capacity_mb=1e9)
        rng = np.random.default_rng(23)
        for _ in range(500):
            prev = BudgetState(10.0, 10.0, 100.0)
            score, theta = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            new = update_budgets(prev, score, theta, cfg)
            expected = cfg.optimizer_advanced_mb if score >= theta else cfg.optimizer_default_mb
            assert new.optimizer_mb == expected

    def test_projection_meets_cap_exactly_and_proportionally(self):
        cfg = make_config(capacity_mb=1000.0, safety_margin=0.05)
        prev = BudgetState(600.0, 300.0, 100.0)
        new = update_budgets(prev, score=0.9, threshold=0.7, config=cfg)
        cap = cfg.budget_cap_mb
        assert new.total_mb <= cap
        assert new.total_mb == pytest.approx(cap, rel=1e-12)
        # Batch:replay ratio preserved by the proportional scaling.
        assert new.batch_mb / new.replay_mb == pytest.approx(
            (600.0 * 1.02) / (300.0 * 1.04), rel=1e-12
        )
        # Optimizer budget is never scaled.
        assert new.optimizer_mb == cfg.optimizer_advanced_mb

    def test_cap_never_exceeded_randomized(self):
        rng = np.random.default_rng(31)
        cfg = make_config(capacity_mb=500.0, batch_sensitivity=2.0, replay_sensitivity=3.0)
        state = BudgetState(200.0, 100.0, 100.0)
        for _ in range(300):
            # Thresholds stay in the score's realistic band so multipliers
            # remain positive; the cap invariant is what is under test.
            score, theta = float(rng.uniform(0, 1)), float(rng.uniform(0, 0.3))
            try:
                state = update_budgets(state, score, theta, cfg)
            except InfeasibleBudgetError:
                # A walk this random can pin a budget below its minimum;
                # refusing the update is the correct behavior there.
                state = BudgetState(200.0, 100.0, 100.0)
                continue
            assert state.total_mb <= cfg.budget_cap_mb

    def test_advanced_that_cannot_fit_falls_back_to_default(self):
        cfg = make_config(capacity_mb=160.0, optimizer_delta_mb=60.0)  # advanced = 160 > cap 152
        prev = BudgetState(10.0, 10.0, 100.0)
        # One call: the aggressive growth is kept at the default optimizer.
        new = update_budgets(prev, score=0.9, threshold=0.5, config=cfg)
        assert new.optimizer_mode is OptimizerMode.DEFAULT
        assert new.optimizer_mb == cfg.optimizer_default_mb
        assert new.batch_mb > prev.batch_mb

    def test_advanced_projection_below_one_sample_falls_back_to_default(self):
        cfg = make_config(capacity_mb=200.0, sample_mb=20.0)  # cap 190, advanced 150
        prev = BudgetState(20.0, 30.0, 100.0)
        # Grown budgets 20.8 + 32.4 MB: the advanced level leaves 40 MB, but
        # projecting into it scales batch to ~15.6 MB, under one 20 MB sample.
        assert cfg.budget_cap_mb - cfg.optimizer_advanced_mb > 0
        new = update_budgets(prev, score=0.9, threshold=0.5, config=cfg)
        assert new.optimizer_mode is OptimizerMode.DEFAULT
        assert new.optimizer_mb == cfg.optimizer_default_mb
        # The default level fits unprojected, so the growth is kept whole.
        assert new.batch_mb == pytest.approx(20.0 * (1.0 + 0.1 * 0.4), rel=1e-14)
        assert new.replay_mb == pytest.approx(30.0 * (1.0 + 0.2 * 0.4), rel=1e-14)
        assert new.total_mb <= cfg.budget_cap_mb

    def test_projection_below_min_knobs_raises(self):
        cfg = make_config(capacity_mb=120.0, sample_mb=10.0, optimizer_delta_mb=0.0)
        # cap = 114, optimizer 100 leaves 14 MB; batch alone needs 10 MB and
        # the projection scales batch to ~9 MB.
        prev = BudgetState(10.0, 5.0, 100.0)
        with pytest.raises(InfeasibleBudgetError):
            update_budgets(prev, score=0.9, threshold=0.5, config=cfg)

    def test_runaway_sensitivity_raises(self):
        cfg = make_config(batch_sensitivity=50.0)
        prev = BudgetState(100.0, 10.0, 100.0)
        with pytest.raises(InfeasibleBudgetError):
            update_budgets(prev, score=0.1, threshold=0.7, config=cfg)


class TestDeriveKnobs:
    def test_exact_division(self):
        cfg = make_config(sample_mb=1.0)
        knobs = derive_knobs(BudgetState(64.0, 50.0, 100.0), cfg)
        assert knobs.batch_size == 64

    def test_floor_division(self):
        cfg = make_config(sample_mb=2.0)
        knobs = derive_knobs(BudgetState(64.9, 50.0, 100.0), cfg)
        assert knobs.batch_size == 32

    def test_minimum_floor_applies(self):
        cfg = make_config(frame_mb=10.0)
        knobs = derive_knobs(BudgetState(64.0, 5.0, 100.0), cfg)
        assert knobs.buffer_size == 1

    def test_optimizer_mode_from_budget_value(self):
        # The mode is the one the budget state records, not a comparison of
        # budgets: with a zero optimizer delta both levels cost the same.
        for delta in (50.0, 0.0):
            cfg = make_config(optimizer_delta_mb=delta)
            advanced = BudgetState(
                1.0, 1.0, cfg.optimizer_advanced_mb, optimizer_mode=OptimizerMode.ADVANCED
            )
            assert derive_knobs(advanced, cfg).optimizer_mode is OptimizerMode.ADVANCED
            assert (
                derive_knobs(BudgetState(1.0, 1.0, cfg.optimizer_default_mb), cfg).optimizer_mode
                is OptimizerMode.DEFAULT
            )


class TestConfigValidation:
    def test_threshold_range(self):
        with pytest.raises(ValueError):
            make_config(initial_threshold=1.5)

    def test_capacity_must_exceed_optimizer(self):
        with pytest.raises(ValueError):
            make_config(capacity_mb=50.0, base_mb=100.0)

    def test_advanced_budget_below_default_rejected(self):
        with pytest.raises(ValueError):
            make_config(optimizer_delta_mb=-1.0)


@functools.cache
def bundled(name):
    return load_bundled_scenario(name)


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_budgets_under_cap_fit_device_below_spike_threshold(data):
    # The README's guarantee: knobs derived from any budget state under the
    # cap, with room for one sample and one frame, fit device memory as long
    # as the buffer stays at or below the spike threshold.
    scenario = bundled(data.draw(st.sampled_from(bundled_scenario_names()), label="scenario"))
    margin = data.draw(st.just(0.0) | st.floats(0.0, 0.3), label="safety_margin")
    config = dataclasses.replace(scenario.controller, safety_margin=margin)
    memory = config.memory
    mode = data.draw(st.sampled_from(OptimizerMode), label="mode")
    optimizer_mb = (
        config.optimizer_advanced_mb
        if mode is OptimizerMode.ADVANCED
        else config.optimizer_default_mb
    )
    room = config.budget_cap_mb - optimizer_mb
    batch_hi = room - memory.frame_mb
    assume(batch_hi >= memory.sample_mb)
    whole_samples = st.integers(1, int(batch_hi / memory.sample_mb)).map(
        lambda n: n * memory.sample_mb
    )
    batch_mb = data.draw(
        whole_samples | st.floats(memory.sample_mb, batch_hi), label="batch_mb"
    )
    replay_hi = min(room - batch_mb, (memory.spike_threshold + 1) * memory.frame_mb)
    assume(replay_hi >= memory.frame_mb)
    # Budgets that fill the cap exactly are where rounding would show.
    replay_mb = data.draw(
        st.just(replay_hi) | st.floats(memory.frame_mb, replay_hi), label="replay_mb"
    )
    state = BudgetState(batch_mb, replay_mb, optimizer_mb, optimizer_mode=mode)
    assume(state.total_mb <= config.budget_cap_mb)
    knobs = derive_knobs(state, config)
    assume(knobs.buffer_size <= memory.spike_threshold)
    assert knobs.optimizer_mode is mode
    assert memory.memory_mb(knobs) <= config.capacity_mb


class TestControlLoop:
    def test_single_experience_scenario(self):
        scenario = load_bundled_scenario("xavier-er")
        scenario = dataclasses.replace(scenario, num_experiences=1)
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.COMPLETED
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.score is not None
        assert record.threshold == scenario.controller.initial_threshold

    def test_determinism_identical_traces(self):
        scenario = load_bundled_scenario("xavier-er")
        a = run_control_loop(scenario, build_environment(scenario))
        b = run_control_loop(scenario, build_environment(scenario))
        assert a == b

    def test_neutral_controller_constant_knobs(self):
        scenario = load_bundled_scenario("xavier-er")
        # No score reaches the threshold, so every step is a zero-sensitivity
        # shrink with the default optimizer.
        neutral = dataclasses.replace(
            scenario.controller,
            batch_sensitivity=0.0,
            replay_sensitivity=0.0,
            initial_threshold=0.999,
            threshold_decay=0.0,
        )
        scenario = dataclasses.replace(scenario, controller=neutral)
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.COMPLETED
        knob_sets = {r.knobs for r in trace.records}
        assert len(knob_sets) == 1
        budget_values = {
            (r.budgets.batch_mb, r.budgets.replay_mb, r.budgets.optimizer_mb)
            for r in trace.records
        }
        assert len(budget_values) == 1

    def test_budget_cap_invariant_over_full_suite_trace(self):
        scenario = load_bundled_scenario("xavier-gss")
        trace = run_control_loop(scenario, build_environment(scenario))
        cap = scenario.controller.budget_cap_mb
        for record in trace.records:
            assert record.budgets.total_mb <= cap

    def test_oom_aborts_and_marks_trace(self):
        # At 60 experiences orin-er's replay buffer grows past the spike
        # threshold, whose residency term the projection does not count, and
        # experience 46 runs out of memory.
        scenario = load_bundled_scenario("orin-er")
        scenario = dataclasses.replace(scenario, num_experiences=60)
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.OOM_FAILED
        assert trace.records[-1].oom
        assert trace.records[-1].snapshot is None
        assert trace.records[-1].memory_peak_mb > scenario.platform.capacity_mb
        assert len(trace.records) <= scenario.num_experiences
        assert len(trace.records) == 46

    def test_outcome_completed_iff_full_length_and_no_oom(self):
        scenario = load_bundled_scenario("orin-gem")
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.COMPLETED
        assert len(trace.records) == scenario.num_experiences
        assert not any(r.oom for r in trace.records)

    def test_independent_loops_run_concurrently(self):
        # One loop owns one environment; loops for different scenarios share
        # no state and parallel results equal serial ones.
        from concurrent.futures import ThreadPoolExecutor

        names = ["xavier-er", "orin-gss", "server-gem", "xavier-agem"]
        scenarios = [load_bundled_scenario(n) for n in names]
        serial = [run_control_loop(s, build_environment(s)) for s in scenarios]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda s: run_control_loop(s, build_environment(s)), scenarios)
            )
        assert parallel == serial

    def test_advanced_fallback_when_optimizer_cannot_fit(self):
        # xavier-gss: the advanced optimizer budget exceeds the cap, so the
        # loop keeps running with the default optimizer instead of failing.
        scenario = load_bundled_scenario("xavier-gss")
        cfg = scenario.controller
        assert cfg.optimizer_advanced_mb > cfg.budget_cap_mb
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.COMPLETED
        assert all(
            r.knobs.optimizer_mode is OptimizerMode.DEFAULT for r in trace.records
        )
        aggressive = [r for r in trace.records if r.score.value >= r.threshold]
        assert aggressive, "expected at least one aggressive step to exercise the fallback"

    def test_infeasible_update_attaches_partial_trace(self):
        # At 60 experiences xavier-gss drives an update infeasible after 48
        # recorded experiences; the error carries everything recorded so far.
        scenario = load_bundled_scenario("xavier-gss")
        long = dataclasses.replace(scenario, num_experiences=60)
        with pytest.raises(InfeasibleBudgetError) as info:
            run_control_loop(long, build_environment(long))
        partial = info.value.partial_trace
        assert partial.outcome is Outcome.INFEASIBLE
        assert [r.experience for r in partial.records] == list(range(1, 49))
        assert not any(r.oom for r in partial.records)

        short = dataclasses.replace(scenario, num_experiences=48)
        full = run_control_loop(short, build_environment(short))
        assert partial.records == full.records

    def test_infeasible_run_times_its_failing_step(self):
        # Each attempted experience has two timed regions: knob derivation,
        # then snapshot, score, threshold and update. The failing update's
        # region is closed before the error propagates.
        scenario = load_bundled_scenario("xavier-gss")
        long = dataclasses.replace(scenario, num_experiences=60)
        recorder = OverheadRecorder()
        with pytest.raises(InfeasibleBudgetError) as info:
            run_control_loop(long, build_environment(long), overhead=recorder)
        completed = len(info.value.partial_trace.records)
        assert completed == 48
        assert len(recorder.controller_seconds) == 2 * (completed + 1)
        assert all(seconds >= 0.0 for seconds in recorder.controller_seconds)

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_recorder_regions_per_experience(self, name):
        # At K=60 the bundled controller completes, OOMs and turns infeasible
        # on different scenarios: two regions per scored experience, one for
        # an OOM experience (its knob derivation), two for the failing one.
        scenario = dataclasses.replace(load_bundled_scenario(name), num_experiences=60)
        recorder = OverheadRecorder()
        try:
            trace = run_control_loop(scenario, build_environment(scenario), overhead=recorder)
        except InfeasibleBudgetError as exc:
            trace = exc.partial_trace
        scored = sum(1 for r in trace.records if not r.oom)
        oom = sum(1 for r in trace.records if r.oom)
        failing = 2 if trace.outcome is Outcome.INFEASIBLE else 0
        assert oom == (trace.outcome is Outcome.OOM_FAILED)
        assert len(recorder.controller_seconds) == 2 * scored + oom + failing
        assert recorder.total_seconds == sum(recorder.controller_seconds)

    @pytest.mark.parametrize("name", ["server-er", "orin-er", "xavier-gss"])
    def test_every_step_is_inside_a_timed_region(self, name, monkeypatch):
        # Log the clock reads, the step's calls and the threshold's exp in
        # order: knobs, snapshot, threshold and update fall between an
        # opening and a closing read, training outside (completed, OOM and
        # infeasible runs).
        events = []

        def logged(event, fn):
            def call(*args, **kwargs):
                events.append(event)
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(
            controller, "time", types.SimpleNamespace(perf_counter=logged("clock", lambda: 0.0))
        )
        fake_math = types.SimpleNamespace(
            exp=logged("threshold", math.exp), floor=math.floor, nextafter=math.nextafter
        )
        monkeypatch.setattr(controller, "math", fake_math)
        for attr, event in [
            ("derive_knobs", "knobs"),
            ("build_snapshot", "snapshot"),
            ("update_budgets", "update"),
        ]:
            monkeypatch.setattr(controller, attr, logged(event, getattr(controller, attr)))
        scenario = dataclasses.replace(load_bundled_scenario(name), num_experiences=60)
        env = build_environment(scenario)
        monkeypatch.setattr(env, "train_experience", logged("train", env.train_experience))
        recorder = OverheadRecorder()
        try:
            run_control_loop(scenario, env, overhead=recorder)
        except InfeasibleBudgetError:
            pass
        timed = False
        for event in events:
            if event == "clock":
                timed = not timed
            else:
                assert timed is (event != "train"), events
        assert not timed
        assert events.count("clock") == 2 * len(recorder.controller_seconds)
        assert events.count("threshold") == events.count("update") == events.count("snapshot")
        assert events.count("knobs") == events.count("train") > 0

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_threshold_is_indexed_by_experience(self, name):
        scenario = load_bundled_scenario(name)
        config = dataclasses.replace(scenario.controller, threshold_decay=0.1)
        scenario = dataclasses.replace(scenario, controller=config)
        traces = [run_control_loop(scenario, build_environment(scenario))]
        traces += [
            run_baseline(policy, scenario)
            for policy in (BaselinePolicy.max_a(), BaselinePolicy.max_p(), BaselinePolicy.fixed())
        ]
        scored = [r for trace in traces for r in trace.records if not r.oom]
        assert len(scored) >= scenario.num_experiences  # the controller's, at least
        for r in scored:
            assert r.threshold == threshold_at(config, r.experience - 1)

    def test_optimizer_mode_follows_branch_when_levels_cost_the_same(self, tmp_path):
        # A zero optimizer delta makes the default and advanced budgets
        # equal; the mode must still follow the branch that set the budgets.
        library = yaml.safe_load(default_profile_library_path().read_text())
        library["profiles"]["er"]["optimizer_memory_delta_mb"] = 0
        path = tmp_path / "profiles.yaml"
        path.write_text(yaml.safe_dump(library))
        scenario = load_scenario(bundled_scenario_path("xavier-er"), library_path=path)
        cfg = scenario.controller
        assert cfg.optimizer_advanced_mb == cfg.optimizer_default_mb
        trace = run_control_loop(scenario, build_environment(scenario))
        assert trace.outcome is Outcome.COMPLETED
        assert trace.records[0].knobs.optimizer_mode is OptimizerMode.DEFAULT
        for prev, record in zip(trace.records, trace.records[1:]):
            aggressive = prev.score.value >= prev.threshold
            expected = OptimizerMode.ADVANCED if aggressive else OptimizerMode.DEFAULT
            assert prev.budgets.optimizer_mode is expected
            assert record.knobs.optimizer_mode is expected
        # Both branches occur, so the check above covers each.
        assert {r.knobs.optimizer_mode for r in trace.records} == set(OptimizerMode)
