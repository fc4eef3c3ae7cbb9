"""Baselines: fixed policies, the oracle sweep, and controller equivalence."""

import dataclasses

import pytest

from oclbudget import (
    ORACLE_BATCH_GRID,
    ORACLE_BUFFER_GRID,
    BaselinePolicy,
    OptimizerMode,
    Outcome,
    PolicyKind,
    Report,
    SchemaError,
    build_environment,
    bundled_scenario_names,
    emit_report,
    load_bundled_scenario,
    run_baseline,
    run_control_loop,
    run_oracle,
)


def neutral(scenario):
    # Zero sensitivities and a threshold no score reaches (the score is a
    # product of logistic factors, each below 0.6): every step keeps the
    # initial budgets and the default optimizer.
    cfg = dataclasses.replace(
        scenario.controller,
        batch_sensitivity=0.0,
        replay_sensitivity=0.0,
        initial_threshold=0.999,
        threshold_decay=0.0,
    )
    return dataclasses.replace(scenario, controller=cfg)


class TestFixedPolicies:
    def test_fixed_never_changes_knobs(self):
        scenario = load_bundled_scenario("orin-er")
        trace = run_baseline(BaselinePolicy.fixed(batch=64, buffer=500), scenario)
        assert trace.outcome is Outcome.COMPLETED
        assert len({r.knobs for r in trace.records}) == 1

    def test_explicit_knobs_pass_through_unchanged(self):
        # orin-er costs 0.045 MB per frame and 4.2 MB per sample, where
        # floor(15 * 0.045 / 0.045) == 14 and floor(61 * 4.2 / 4.2) == 60:
        # the fixed knobs must not be derived back from their budgets.
        scenario = load_bundled_scenario("orin-er")
        trace = run_baseline(BaselinePolicy.fixed(batch=61, buffer=15), scenario)
        assert {(r.knobs.batch_size, r.knobs.buffer_size) for r in trace.records} == {(61, 15)}

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_fixed_from_initial_budgets_matches_neutral_controller(self, name):
        # A fixed policy at the controller's initial knobs is exactly a
        # neutral controller.
        scenario = neutral(load_bundled_scenario(name))
        fixed = run_baseline(BaselinePolicy.fixed(), scenario)
        controller = run_control_loop(scenario, build_environment(scenario))
        assert fixed == controller

    def test_preset_knobs_are_constants(self):
        scenario = load_bundled_scenario("server-er")
        assert BaselinePolicy.max_a() == BaselinePolicy(32, 1000, OptimizerMode.ADVANCED)
        assert BaselinePolicy.max_p() == BaselinePolicy(1024, 10, OptimizerMode.DEFAULT)
        assert BaselinePolicy.from_scenario(PolicyKind.MAX_A, scenario) == BaselinePolicy.max_a()
        assert BaselinePolicy.from_scenario(PolicyKind.MAX_P, scenario) == BaselinePolicy.max_p()

    def test_max_p_ooms_on_xavier_gss(self):
        scenario = load_bundled_scenario("xavier-gss")
        trace = run_baseline(BaselinePolicy.from_scenario(PolicyKind.MAX_P, scenario), scenario)
        assert trace.outcome is Outcome.OOM_FAILED

    def test_max_a_ooms_on_xavier_gss(self):
        scenario = load_bundled_scenario("xavier-gss")
        trace = run_baseline(BaselinePolicy.from_scenario(PolicyKind.MAX_A, scenario), scenario)
        assert trace.outcome is Outcome.OOM_FAILED

    def test_max_a_completes_but_slower_than_controller(self):
        scenario = load_bundled_scenario("xavier-er")
        max_a = run_baseline(BaselinePolicy.from_scenario(PolicyKind.MAX_A, scenario), scenario)
        controller = run_control_loop(scenario, build_environment(scenario))
        assert max_a.outcome is Outcome.COMPLETED
        assert controller.outcome is Outcome.COMPLETED
        assert controller.total_latency_s() < max_a.total_latency_s()

    def test_baseline_oom_is_an_outcome_not_an_exception(self):
        scenario = load_bundled_scenario("xavier-er")
        trace = run_baseline(BaselinePolicy.fixed(batch=4096, buffer=10), scenario)
        assert trace.outcome is Outcome.OOM_FAILED
        assert trace.records[-1].oom


class TestPolicyRules:
    # Each rule keeps a policy from running something other than it names:
    # run_baseline falls back to the initial budgets unless both knobs are
    # set, tests the mode by identity with the OptimizerMode member, and
    # writes each knob to the report as an int.
    @pytest.mark.parametrize(
        "args, message",
        [
            ((512, None), "BaselinePolicy.buffer: must be set with the other knob"),
            ((None, 5), "BaselinePolicy.batch: must be set with the other knob"),
            ((0, 10), "BaselinePolicy.batch: must be >= 1, got 0"),
            ((16, -1), "BaselinePolicy.buffer: must be >= 0, got -1"),
            ((16, 10, "fast"), "BaselinePolicy.optimizer_mode: must be 'default' or 'advanced', got 'fast'"),
            ((None, None, "advanced"), "BaselinePolicy.optimizer_mode: needs explicit knobs, got 'advanced'"),
            ((32.5, 1000), "BaselinePolicy.batch: must be an int, got 32.5"),
            ((32, 1000.0), "BaselinePolicy.buffer: must be an int, got 1000.0"),
            ((True, 10), "BaselinePolicy.batch: must be an int, got True"),
        ],
        ids=[
            "batch-only", "buffer-only", "batch-0", "buffer-negative", "unknown-mode", "mode-only",
            "batch-fractional", "buffer-float", "batch-bool",
        ],
    )
    def test_invalid_policy_rejected(self, args, message):
        with pytest.raises(SchemaError) as info:
            BaselinePolicy.fixed(*args)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)

    def test_mode_string_becomes_its_member(self):
        scenario = load_bundled_scenario("server-er")
        named = BaselinePolicy.fixed(32, 1000, "advanced")
        member = BaselinePolicy.fixed(32, 1000, OptimizerMode.ADVANCED)
        assert named.optimizer_mode is OptimizerMode.ADVANCED and named == member
        trace = run_baseline(named, scenario)
        assert trace == run_baseline(member, scenario)
        config = scenario.controller
        assert {r.budgets.optimizer_mb for r in trace.records} == {config.optimizer_advanced_mb}
        # The report spells the mode from its member.
        assert b",1,32,1000,advanced," in emit_report(Report("server-er", (("fixed", trace),)))


class TestOracle:
    def test_grid_cardinality_is_42(self):
        assert len(ORACLE_BATCH_GRID) * len(ORACLE_BUFFER_GRID) == 42
        scenario = load_bundled_scenario("xavier-er")
        result = run_oracle(scenario)
        assert result.run_count == 42

    def test_memory_rich_scenario_no_oom(self):
        scenario = load_bundled_scenario("server-er")
        # Capacity above the model maximum over the whole grid: every one of
        # the 42 runs completes.
        roomy = dataclasses.replace(
            scenario, platform=dataclasses.replace(scenario.platform, capacity_mb=2e5)
        )
        result = run_oracle(roomy)
        assert result.run_count == 42
        assert result.oom_count() == 0

    def test_xavier_oracle_has_oom_points(self):
        result = run_oracle(load_bundled_scenario("xavier-gss"))
        assert result.oom_count() >= 1
        assert result.best_config is not None

    def test_best_config_invariant_under_enumeration_order(self):
        scenario = load_bundled_scenario("orin-er")
        forward = run_oracle(scenario)
        backward = run_oracle(
            scenario,
            batch_grid=tuple(reversed(ORACLE_BATCH_GRID)),
            buffer_grid=tuple(reversed(ORACLE_BUFFER_GRID)),
        )
        assert forward.best_config == backward.best_config

    def test_all_oom_reports_infeasible_without_raising(self):
        scenario = load_bundled_scenario("xavier-gss")
        # Every grid point with batch >= 1024 blows Xavier-class capacity.
        result = run_oracle(scenario, batch_grid=(1024, 2048), buffer_grid=(10, 100))
        assert result.oom_count() == result.run_count == 4
        assert result.best_config is None

    def test_controller_to_oracle_run_ratio(self):
        scenario = load_bundled_scenario("xavier-er")
        controller_runs = 1  # run_control_loop touches exactly one environment
        result = run_oracle(scenario)
        assert result.run_count // controller_runs == 42
