"""Baselines: fixed policies, the oracle sweep, and controller equivalence."""

import dataclasses
import sys

import pytest

from oclbudget import (
    ORACLE_BATCH_GRID,
    ORACLE_BUFFER_GRID,
    BaselinePolicy,
    Knobs,
    OptimizerMode,
    Outcome,
    PolicyKind,
    Report,
    SchemaError,
    SimulationStateError,
    build_environment,
    bundled_scenario_names,
    emit_report,
    load_bundled_scenario,
    run_baseline,
    run_control_loop,
    run_oracle,
)
from oclbudget.baselines import SUITE_BASELINES


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
        trace = run_baseline(BaselinePolicy(Knobs(64, 500, OptimizerMode.DEFAULT)), scenario)
        assert trace.outcome is Outcome.COMPLETED
        assert len({r.knobs for r in trace.records}) == 1

    def test_explicit_knobs_pass_through_unchanged(self):
        # orin-er costs 0.045 MB per frame and 4.2 MB per sample, where
        # floor(15 * 0.045 / 0.045) == 14 and floor(61 * 4.2 / 4.2) == 60:
        # the fixed knobs must not be derived back from their budgets.
        scenario = load_bundled_scenario("orin-er")
        trace = run_baseline(BaselinePolicy(Knobs(61, 15, OptimizerMode.DEFAULT)), scenario)
        assert {(r.knobs.batch_size, r.knobs.buffer_size) for r in trace.records} == {(61, 15)}

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_fixed_from_initial_budgets_matches_neutral_controller(self, name):
        # A fixed policy at the controller's initial knobs is exactly a
        # neutral controller.
        scenario = neutral(load_bundled_scenario(name))
        fixed = run_baseline(BaselinePolicy(), scenario)
        controller = run_control_loop(scenario, build_environment(scenario))
        assert fixed == controller

    def test_preset_knobs_are_constants(self):
        assert SUITE_BASELINES == {
            PolicyKind.MAX_A: ("max-a", Knobs(32, 1000, OptimizerMode.ADVANCED)),
            PolicyKind.MAX_P: ("max-p", Knobs(1024, 10, OptimizerMode.DEFAULT)),
            PolicyKind.FIXED: ("fixed-proxy", Knobs(64, 2000, OptimizerMode.DEFAULT)),
        }
        for kind, (_, knobs) in SUITE_BASELINES.items():
            for name in ("server-er", "xavier-gss"):
                scenario = load_bundled_scenario(name)
                assert BaselinePolicy.from_scenario(kind, scenario) == BaselinePolicy(knobs)

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
        trace = run_baseline(BaselinePolicy(Knobs(4096, 10, OptimizerMode.DEFAULT)), scenario)
        assert trace.outcome is Outcome.OOM_FAILED
        assert trace.records[-1].oom

    def test_trained_environment_rejected(self):
        # The loop numbers its experiences from 1: an environment that has
        # trained already would train experiences 11-20 under records 1-10.
        scenario = load_bundled_scenario("server-er")
        policy = BaselinePolicy.from_scenario(PolicyKind.FIXED, scenario)
        env = build_environment(scenario)
        run_baseline(policy, scenario, env)
        with pytest.raises(SimulationStateError, match="has trained 10 experiences already"):
            run_baseline(policy, scenario, env)
        with pytest.raises(SimulationStateError):
            run_control_loop(scenario, env)


class TestPolicyRules:
    # A policy's only rule is that it holds a Knobs, which has checked its
    # own fields (tests/test_records.py), or None. So a policy with bad
    # sizes or mode cannot be built: the error names the Knobs field.
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 10), "Knobs.batch_size: must be >= 1, got 0"),
            ((16, -1), "Knobs.buffer_size: must be >= 0, got -1"),
            ((16, 10, "fast"), "Knobs.optimizer_mode: must be 'default' or 'advanced', got 'fast'"),
            ((32.5, 1000), "Knobs.batch_size: must be an int, got 32.5"),
            ((32, 1000.0), "Knobs.buffer_size: must be an int, got 1000.0"),
            ((True, 10), "Knobs.batch_size: must be an int, got True"),
        ],
        ids=["batch-0", "buffer-negative", "unknown-mode", "batch-fractional", "buffer-float", "batch-bool"],
    )
    def test_invalid_policy_rejected(self, args, message):
        batch, buffer, *mode = args
        with pytest.raises(SchemaError) as info:
            BaselinePolicy(Knobs(batch, buffer, *(mode or ["default"])))
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)

    def test_plain_tuple_rejected(self):
        with pytest.raises(SchemaError) as info:
            BaselinePolicy((32, 1000, "advanced"))
        assert str(info.value) == (
            "BaselinePolicy.knobs: must be a Knobs or None, got (32, 1000, 'advanced')"
        )
        assert isinstance(info.value, ValueError)

    def test_budget_overflow_names_the_policy_knobs(self):
        # The largest size Knobs accepts, times xavier-er's per-sample cost,
        # overflows the batch budget: there is no budget state to run from.
        scenario = load_bundled_scenario("xavier-er")
        policy = BaselinePolicy(Knobs(int(sys.float_info.max), 10, "default"))
        with pytest.raises(SchemaError) as info:
            run_baseline(policy, scenario)
        assert str(info.value).startswith(
            "BaselinePolicy.knobs: budgets must be finite on 'xavier-er', got inf and "
        )
        assert info.value.field == "knobs"
        # A size whose budget is finite still trains, and runs out of memory.
        trace = run_baseline(BaselinePolicy(Knobs(int(1e300), 10, "default")), scenario)
        assert trace.outcome is Outcome.OOM_FAILED and trace.records[-1].oom

    def test_mode_string_becomes_its_member(self):
        scenario = load_bundled_scenario("server-er")
        named = BaselinePolicy(Knobs(32, 1000, "advanced"))
        member = BaselinePolicy(Knobs(32, 1000, OptimizerMode.ADVANCED))
        assert named.knobs.optimizer_mode is OptimizerMode.ADVANCED and named == member
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
