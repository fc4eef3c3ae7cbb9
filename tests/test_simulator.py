"""Simulator: response surfaces, OOM predicate, prefetch, calibration."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from oclbudget import (
    CalibrationError,
    Knobs,
    MemoryModel,
    OptimizerMode,
    PlatformPreset,
    ResponseModel,
    SchemaError,
    SimulatedEnvironment,
    SimulationStateError,
    calibrate_profile,
    load_calibration_targets,
    load_profile_library,
)
from oclbudget.baselines import BaselinePolicy
from oclbudget.cli import main as cli_main
from oclbudget.controller import _run_policy, derive_knobs
from oclbudget.scenario import (
    build_environment,
    bundled_scenario_names,
    default_calibration_targets_path,
    default_profile_library_path,
    load_bundled_scenario,
    load_scenario,
)
from oclbudget.simulator import PREFETCH_OVERLAP


def make_response(**overrides):
    params = dict(
        compute_cost_per_sample_s=0.004,
        replay_sampling_cost_s=0.002,
        optimizer_latency_multiplier=1.4,
        per_experience_growth=1.03,
        batch_knee=128,
        stability_gain_max=0.95,
        stability_buffer_scale=800.0,
        plasticity_max=0.9,
        plasticity_updates_scale=40.0,
        advanced_plasticity_bonus=0.05,
        forgetting_rate=0.3,
        noise_fraction=0.0,
    )
    params.update(overrides)
    return ResponseModel(**params)


def make_memory():
    return MemoryModel(
        base_mb=4000.0,
        optimizer_delta_mb=100.0,
        sample_mb=4.0,
        frame_mb=0.05,
        spike_threshold=20000,
        spike_coeff=1e-7,
    )


def make_env(
    capacity_mb=10000.0, seed=0, n=8000, platform=None, prefetch=True, **response_overrides
):
    return SimulatedEnvironment(
        response=make_response(**response_overrides),
        memory=make_memory(),
        platform=platform or PlatformPreset(capacity_mb, 1.0, 0.0),
        seed=seed,
        samples_per_experience=n,
        prefetch=prefetch,
    )


def knobs(b, r, mode=OptimizerMode.DEFAULT):
    return Knobs(batch_size=b, buffer_size=r, optimizer_mode=mode)


class TestLatencyModel:
    def test_doubling_batch_below_knee_strictly_faster(self):
        response = make_response()
        lat16 = response.compute_latency_s(16, 0, OptimizerMode.DEFAULT, 1, 8000)
        lat32 = response.compute_latency_s(32, 0, OptimizerMode.DEFAULT, 1, 8000)
        assert lat32 < lat16

    def test_flat_above_knee(self):
        response = make_response(batch_knee=64)
        lat64 = response.compute_latency_s(64, 0, OptimizerMode.DEFAULT, 1, 8000)
        lat256 = response.compute_latency_s(256, 0, OptimizerMode.DEFAULT, 1, 8000)
        assert lat64 == pytest.approx(lat256, rel=1e-12)

    def test_monotone_until_knee_randomized_profiles(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            response = make_response(
                compute_cost_per_sample_s=float(rng.uniform(0.001, 0.02)),
                per_experience_growth=float(rng.uniform(1.0, 1.1)),
                batch_knee=int(rng.integers(32, 512)),
            )
            batches = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
            prev = math.inf
            for b in batches:
                lat = response.compute_latency_s(b, 0, OptimizerMode.DEFAULT, 1, 8000)
                if b <= response.batch_knee:
                    assert lat < prev
                else:
                    assert lat <= prev + 1e-9
                prev = lat

    def test_advanced_mode_multiplies_stream_term(self):
        response = make_response()
        lat_def = response.compute_latency_s(128, 0, OptimizerMode.DEFAULT, 1, 8000)
        lat_adv = response.compute_latency_s(128, 0, OptimizerMode.ADVANCED, 1, 8000)
        assert lat_adv == pytest.approx(lat_def * 1.4, rel=1e-12)

    def test_replay_term_additive(self):
        response = make_response()
        lat0 = response.compute_latency_s(128, 0, OptimizerMode.DEFAULT, 1, 8000)
        lat_r = response.compute_latency_s(128, 500, OptimizerMode.DEFAULT, 1, 8000)
        assert lat_r - lat0 == pytest.approx(500 * 0.002, rel=1e-12)


class TestResponseModelChecks:
    @pytest.mark.parametrize(
        "field", ["compute_cost_per_sample_s", "replay_sampling_cost_s"]
    )
    def test_negative_cost_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^ResponseModel\.{field}: must be in \[0, inf\)"):
            make_response(**{field: -1e-9})

    @pytest.mark.parametrize(
        "field", ["optimizer_latency_multiplier", "per_experience_growth"]
    )
    def test_multiplier_below_one_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^ResponseModel\.{field}: must be in \[1, inf\)"):
            make_response(**{field: 0.999})

    def test_zero_costs_and_unit_multipliers_accepted(self):
        make_response(
            compute_cost_per_sample_s=0.0,
            replay_sampling_cost_s=0.0,
            optimizer_latency_multiplier=1.0,
            per_experience_growth=1.0,
        )


class TestMemoryModel:
    def test_strictly_increasing_in_batch_and_buffer(self):
        memory = make_memory()
        m = memory.memory_mb(knobs(32, 100))
        assert memory.memory_mb(knobs(33, 100)) > m
        assert memory.memory_mb(knobs(32, 101)) > m

    def test_additivity_below_spike_threshold(self):
        memory = make_memory()
        for r in (0, 1, 100, 5000, 20000):
            got = memory.memory_mb(knobs(64, r))
            base = memory.memory_mb(knobs(64, 0))
            # Exact up to float summation rounding: no residency term below
            # the threshold.
            assert got - base == pytest.approx(r * memory.frame_mb, abs=1e-9)

    def test_superlinear_spike_above_threshold(self):
        memory = make_memory()

        def overhang(r):
            linear = memory.memory_mb(knobs(64, 0)) + r * memory.frame_mb
            return memory.memory_mb(knobs(64, r)) - linear

        assert overhang(20000) == 0.0
        assert overhang(40000) > 0.0
        # Superlinear: doubling the overhang more than doubles the term.
        assert overhang(60000) > 2 * overhang(40000)

    def test_advanced_mode_adds_plugin_delta(self):
        memory = make_memory()
        diff = memory.memory_mb(knobs(64, 100, OptimizerMode.ADVANCED)) - (
            memory.memory_mb(knobs(64, 100))
        )
        assert diff == memory.optimizer_delta_mb


class TestStabilityPlasticityResponses:
    def test_stability_gain_bounds(self):
        response = make_response()
        assert response.stability_gain(0) == 0.0
        prev = -1.0
        for r in (0, 10, 100, 1000, 10000, 1000000):
            gain = response.stability_gain(r)
            assert prev <= gain <= response.stability_gain_max
            prev = gain

    def test_plasticity_diminishing_in_updates(self):
        response = make_response()
        # Fewer gradient updates (bigger batch) learn less in one pass.
        small = response.plasticity_level(16, OptimizerMode.DEFAULT, 8000)
        large = response.plasticity_level(1024, OptimizerMode.DEFAULT, 8000)
        assert large < small <= response.plasticity_max

    def test_advanced_bonus_is_additive(self):
        response = make_response()
        base = response.plasticity_level(64, OptimizerMode.DEFAULT, 8000)
        boosted = response.plasticity_level(64, OptimizerMode.ADVANCED, 8000)
        assert boosted == pytest.approx(base + 0.05, abs=1e-12)


class TestTrainExperience:
    def test_batch_doubling_with_headroom(self):
        env_small = make_env()
        env_big = make_env()
        r_small = env_small.train_experience(knobs(16, 100))
        r_big = env_big.train_experience(knobs(32, 100))
        assert r_big.latency_s < r_small.latency_s
        assert r_big.memory_peak_mb > r_small.memory_peak_mb

    def test_zero_buffer_maximal_forgetting(self):
        env = make_env()
        env.train_experience(knobs(64, 0))
        first = env.accuracy_matrix.get(1, 1)
        env.train_experience(knobs(64, 0))
        decayed = env.accuracy_matrix.get(2, 1)
        assert decayed == pytest.approx(first * (1.0 - 0.3), rel=1e-12)

    def test_oom_boundary_is_exact(self):
        need = make_memory().memory_mb(knobs(64, 100))
        fits = make_env(capacity_mb=need)
        assert not fits.train_experience(knobs(64, 100)).oom
        blows = make_env(capacity_mb=need - 1.0)
        result = blows.train_experience(knobs(64, 100))
        assert result.oom
        assert result.latency_s is None and len(blows.accuracy) == 0
        assert result.memory_peak_mb == need
        assert blows.failed

    def test_failed_env_refuses_further_work(self):
        env = make_env(capacity_mb=10.0)
        assert env.train_experience(knobs(64, 100)).oom
        with pytest.raises(SimulationStateError):
            env.train_experience(knobs(1, 0))

    def test_same_seed_identical_rows_with_noise(self):
        rows = []
        for _ in range(2):
            env = make_env(seed=77, noise_fraction=0.1)
            for _ in range(4):
                env.train_experience(knobs(64, 500))
            matrix = env.accuracy_matrix
            rows.append([matrix.row(k) for k in range(1, len(matrix) + 1)])
        assert rows[0] == rows[1]

    def test_different_seed_changes_noisy_rows(self):
        a = make_env(seed=1, noise_fraction=0.1)
        b = make_env(seed=2, noise_fraction=0.1)
        a.train_experience(knobs(64, 500))
        b.train_experience(knobs(64, 500))
        assert a.accuracy_matrix.get(1, 1) != b.accuracy_matrix.get(1, 1)

    @pytest.mark.parametrize("noise", [0.05, 0.3])
    def test_noise_stays_within_its_fraction(self, noise):
        """Latency and the new diagonal move by at most noise_fraction, both ways."""
        moves = []
        for seed in range(200):
            clean, noisy = make_env(seed=seed), make_env(seed=seed, noise_fraction=noise)
            for e in range(1, 4):
                kn = knobs(2 ** (4 + e), 300 * e)
                a, b = clean.train_experience(kn), noisy.train_experience(kn)
                ratio = b.latency_s / a.latency_s - 1.0
                assert abs(ratio) <= noise * (1.0 + 1e-12), (seed, e, ratio)
                diagonal = clean.accuracy.row[-1]
                lo = max(0.0, diagonal * (1.0 - noise)) * (1.0 - 1e-12)
                hi = min(1.0, diagonal * (1.0 + noise) * (1.0 + 1e-12))
                assert lo <= noisy.accuracy.row[-1] <= hi, (seed, e, noisy.accuracy.row[-1])
                moves.append(ratio)
        assert min(moves) < -noise / 2 and max(moves) > noise / 2

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_negative_seed_rejected(self, noise):
        with pytest.raises(ValueError, match="seed"):
            make_env(seed=-1, noise_fraction=noise)


def _fixed_run(scenario, policy, fresh_knobs_each_experience):
    """A fixed-knob run through the shared loop, passing either one Knobs
    object for the whole run or a new, equal one every experience."""
    def make():
        return knobs(policy.batch, policy.buffer, policy.optimizer_mode)

    same = make()
    state = scenario.initial_budget_state()
    return _run_policy(
        scenario,
        build_environment(scenario),
        state,
        (lambda _state: make()) if fresh_knobs_each_experience else (lambda _state: same),
        lambda s, _score, _theta: s,
    )


class TestKnobMemo:
    """The environment computes the knob-only terms once per Knobs object."""

    POLICIES = (BaselinePolicy.max_a(), BaselinePolicy.max_p(), BaselinePolicy.fixed(64, 2000))

    @pytest.mark.parametrize("name", bundled_scenario_names())
    def test_same_object_equals_fresh_equal_knobs(self, name):
        scenario = load_bundled_scenario(name)
        for policy in self.POLICIES:
            reused = _fixed_run(scenario, policy, fresh_knobs_each_experience=False)
            fresh = _fixed_run(scenario, policy, fresh_knobs_each_experience=True)
            assert reused == fresh, (name, policy)

    def test_same_object_equals_fresh_equal_knobs_with_noise(self):
        scenario = load_bundled_scenario("orin-er")
        noisy = dataclasses.replace(
            scenario, response=dataclasses.replace(scenario.response, noise_fraction=0.05)
        )
        for policy in self.POLICIES:
            reused = _fixed_run(noisy, policy, fresh_knobs_each_experience=False)
            fresh = _fixed_run(noisy, policy, fresh_knobs_each_experience=True)
            assert reused == fresh, policy
        # The noise is live: the noisy run differs from the noise-free one.
        assert _fixed_run(noisy, self.POLICIES[2], False) != _fixed_run(
            scenario, self.POLICIES[2], False
        )

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    def test_switching_knobs_back_and_forth(self, noise):
        a = knobs(64, 500)
        b = knobs(256, 40, OptimizerMode.ADVANCED)
        schedule = (a, b, a, a, b, a)
        env = make_env(seed=9, noise_fraction=noise)
        reference = make_env(seed=9, noise_fraction=noise)
        for e, kn in enumerate(schedule, start=1):
            got = env.train_experience(kn)
            copy = knobs(kn.batch_size, kn.buffer_size, kn.optimizer_mode)
            assert got == reference.train_experience(copy), e
            assert env.accuracy.row == reference.accuracy.row, e
            if noise == 0.0:
                # make_env's platform loads nothing, so whether an experience
                # is staged or not its latency is the compute plus a zero load.
                compute = env.response.compute_latency_s(
                    kn.batch_size, kn.buffer_size, kn.optimizer_mode,
                    e, env.samples_per_experience, env.platform.compute_scale,
                )
                load = env.samples_per_experience * env.platform.load_time_per_sample_s
                assert got.latency_s == compute + load
                assert got.memory_peak_mb == env.memory.memory_mb(kn)
                assert env.accuracy.row[-1] == env.response.plasticity_level(
                    kn.batch_size, kn.optimizer_mode, env.samples_per_experience
                )

    @pytest.mark.parametrize("bad", [knobs(0, 10), knobs(16, -1)])
    def test_invalid_knobs_raise_on_every_call(self, bad):
        env = make_env()
        for _ in range(3):
            with pytest.raises(ValueError, match="invalid knobs"):
                env.train_experience(bad)
        good = knobs(16, 10)
        assert not env.train_experience(good).oom
        with pytest.raises(ValueError, match="invalid knobs"):
            env.train_experience(bad)


class TestPrefetch:
    # knobs(128, 0) at the knee: 8000 samples * 0.004 s = 32 s of compute for
    # experience 1 at compute scale 1, and one growth step more, 32 * 1.03 =
    # 32.96 s, for experience 2, so 0.85 of it hides 28.016 s of loading.
    # Every experience after the first is staged while the previous one
    # trains, so these tests train experience 1 and assert on experience 2.
    KNOBS = knobs(128, 0)

    def env(self, load_per_sample, prefetch=True, compute_scale=1.0):
        platform = PlatformPreset(10000.0, compute_scale, load_per_sample)
        return make_env(platform=platform, prefetch=prefetch)

    def compute(self, experience=2, compute_scale=1.0):
        return make_response().compute_latency_s(
            128, 0, OptimizerMode.DEFAULT, experience, 8000, compute_scale
        )

    def second(self, env, kn=KNOBS):
        """Train experience 1, then return experience 2's result."""
        env.train_experience(kn)
        return env.train_experience(kn)

    def test_overlap_is_85_percent(self):
        assert PREFETCH_OVERLAP == 0.85

    def test_staged_load_under_the_overlap_is_hidden(self):
        # 8 s of loading < 28.016 s: the max takes its 0.0 branch.
        env = self.env(0.001)
        compute = self.compute()
        assert compute == pytest.approx(32.96)
        assert self.second(env).latency_s == compute

    def test_staged_load_over_the_overlap_pays_the_remainder(self):
        # 80 s of loading > 28.016 s: the max takes its load - 0.85 * compute branch.
        env = self.env(0.01)
        compute, load = self.compute(), 8000 * 0.01
        assert load - 0.85 * compute > 0.0
        assert self.second(env).latency_s == compute + (load - 0.85 * compute)

    def test_overlap_scales_with_the_platform_compute_scale(self):
        env = self.env(0.01, compute_scale=0.5)
        compute, load = self.compute(compute_scale=0.5), 8000 * 0.01
        assert compute == pytest.approx(16.48)
        assert self.second(env).latency_s == compute + (load - 0.85 * compute)

    @pytest.mark.parametrize("load_per_sample", [0.001, 0.01])
    def test_prefetch_off_pays_full_load(self, load_per_sample):
        env = self.env(load_per_sample, prefetch=False)
        assert self.second(env).latency_s == self.compute() + 8000 * load_per_sample

    @pytest.mark.parametrize("load_per_sample", [0.001, 0.01])
    def test_unstaged_experience_pays_full_load(self, load_per_sample):
        env = self.env(load_per_sample)
        result = env.train_experience(self.KNOBS)
        assert result.latency_s == self.compute(1) + 8000 * load_per_sample

    @pytest.mark.parametrize("prefetch", [True, False])
    def test_staging_follows_from_the_trained_rows(self, prefetch):
        # A hand-driven environment makes no staging call: experience 1 pays
        # the full load, and experience 2 is staged exactly when prefetch is on.
        env = self.env(0.01, prefetch=prefetch)
        load = 8000 * 0.01
        assert env.next_experience == len(env.accuracy) + 1 == 1
        assert env.train_experience(self.KNOBS).latency_s == self.compute(1) + load
        assert env.next_experience == len(env.accuracy) + 1 == 2
        compute = self.compute(2)
        paid = max(0.0, load - 0.85 * compute) if prefetch else load
        assert env.train_experience(self.KNOBS).latency_s == compute + paid
        assert env.next_experience == len(env.accuracy) + 1 == 3
        # 4000 MB base + 4096 samples * 4 MB is over the 10000 MB capacity.
        assert env.train_experience(knobs(4096, 0)).oom
        assert env.failed
        assert env.next_experience == len(env.accuracy) + 1 == 3

    def test_prefetch_changes_only_latency(self):
        on = self.env(0.001)
        off = self.env(0.001, prefetch=False)
        a = self.second(on, knobs(64, 200))
        b = self.second(off, knobs(64, 200))
        assert a.memory_peak_mb == b.memory_peak_mb
        assert on.accuracy.row == off.accuracy.row
        assert a.latency_s < b.latency_s


class TestPlatform:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(3))
    def test_non_finite_values_rejected(self, field, bad):
        values = [8192.0, 1.0, 0.0045]
        values[field] = bad
        name = dataclasses.fields(PlatformPreset)[field].name
        with pytest.raises(ValueError, match=rf"^PlatformPreset\.{name}: must be in \[.*, inf\)"):
            PlatformPreset(*values)

    def test_replaced_platform_reaches_the_environment(self):
        # Capacity, compute scale and load rate are read from the scenario's
        # platform when the environment is built, not copied at load.
        scenario = load_bundled_scenario("xavier-er")
        start = derive_knobs(scenario.initial_budget_state(), scenario.controller)
        need = scenario.controller.memory.memory_mb(start)
        platform = dataclasses.replace(
            scenario.platform, capacity_mb=need, compute_scale=0.5, load_time_per_sample_s=0.0
        )
        env = build_environment(dataclasses.replace(scenario, platform=platform))
        assert env.platform is platform
        result = env.train_experience(start)
        assert result.latency_s == scenario.response.compute_latency_s(
            start.batch_size, start.buffer_size, start.optimizer_mode, 1,
            scenario.samples_per_experience, 0.5,
        )
        below = dataclasses.replace(platform, capacity_mb=need - 1.0)
        env = build_environment(dataclasses.replace(scenario, platform=below))
        assert env.train_experience(start).oom

    def test_build_environment_prefetch_flag(self):
        scenario = load_bundled_scenario("xavier-er")
        assert build_environment(scenario).prefetch is True
        assert build_environment(scenario, prefetch=False).prefetch is False


class TestCalibration:
    def bundled_targets(self):
        return load_calibration_targets(default_calibration_targets_path())

    def test_bundled_targets_fit_tightly(self):
        result = calibrate_profile(self.bundled_targets())
        assert max(result.residuals.values()) < 0.01
        # The synthetic trend was generated by the model family itself.
        assert result.response.compute_cost_per_sample_s == pytest.approx(0.001, rel=1e-3)
        assert result.response.batch_knee == pytest.approx(192, abs=2)
        assert result.memory.sample_mb == pytest.approx(8.4, rel=1e-6)
        assert result.memory.base_mb == pytest.approx(4200.0, rel=1e-6)
        assert result.response.stability_gain_max == pytest.approx(0.95, rel=1e-3)
        assert result.response.stability_buffer_scale == pytest.approx(700.0, rel=1e-2)

    def test_plugin_anchors_recovered(self):
        result = calibrate_profile(self.bundled_targets())
        assert result.response.optimizer_latency_multiplier == pytest.approx(
            215.13 / 73.06, rel=1e-12
        )
        assert result.memory.optimizer_delta_mb == pytest.approx(107.0, rel=1e-12)

    # Malformed anchors are CalibrationTargets' own rules: building them raises,
    # so calibrate_profile never sees them.
    def test_constant_latency_targets_rejected(self):
        with pytest.raises(CalibrationError):
            dataclasses.replace(
                self.bundled_targets(),
                latency_points=((16, 100.0), (32, 100.0), (64, 100.0)),
            )

    def test_non_monotone_memory_targets_rejected(self):
        with pytest.raises(CalibrationError):
            dataclasses.replace(
                self.bundled_targets(),
                memory_points=((16, 5000.0), (64, 4800.0), (256, 6000.0)),
            )

    def test_too_few_points_rejected(self):
        with pytest.raises(CalibrationError):
            dataclasses.replace(
                self.bundled_targets(), stability_points=((10, 0.1), (100, 0.5))
            )

    @pytest.mark.parametrize(
        "group, points",
        [
            ("latency", ((16, 2160.0), (32, 1080.0), (64, 0.0))),
            ("memory", ((16, 0.0), (64, 4737.6), (256, 6350.4))),
        ],
    )
    def test_non_positive_anchor_rejected(self, group, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CalibrationError, match=f"{group} targets must be > 0"):
                dataclasses.replace(self.bundled_targets(), **{f"{group}_points": points})

    @pytest.mark.parametrize(
        "group, points, size",
        [
            ("latency", ((0, 2160.0), (32, 1080.0), (64, 540.0)), "batch"),
            ("memory", ((0, 4200.0), (64, 4737.6), (256, 6350.4)), "batch"),
            ("stability", ((0, 0.0), (500, 0.47), (2000, 0.9)), "buffer"),
        ],
    )
    def test_anchor_size_below_one_rejected(self, group, points, size):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(CalibrationError, match=f"{group} targets must use {size} sizes >= 1"):
                dataclasses.replace(self.bundled_targets(), **{f"{group}_points": points})

    def test_repeated_memory_batch_size_rejected(self):
        with pytest.raises(CalibrationError, match="memory targets must use distinct batch sizes"):
            dataclasses.replace(
                self.bundled_targets(),
                memory_points=((64, 4000.0), (64, 4100.0), (64, 4200.0)),
            )

    def test_non_finite_residual_rejected(self):
        # Anchors near the float maximum overflow the memory line's sums.
        targets = dataclasses.replace(
            self.bundled_targets(),
            memory_points=((16, 1e308), (64, 1.5e308), (256, 1.7e308)),
        )
        with pytest.raises(CalibrationError, match="memory fit residual is not finite"):
            calibrate_profile(targets)

    def test_poor_fit_rejected(self):
        # Monotone but wildly off the model family: relative residual > 20%.
        targets = dataclasses.replace(
            self.bundled_targets(),
            latency_points=((16, 5000.0), (32, 4999.0), (64, 200.0), (128, 199.0), (256, 198.0)),
        )
        with pytest.raises(CalibrationError):
            calibrate_profile(targets)


class TestDeclarativeFiles:
    def test_bundled_profile_library_loads(self):
        lib = load_profile_library(default_profile_library_path())
        assert set(lib.platforms) == {"xavier-class", "orin-class", "server-class"}
        assert set(lib.profiles) == {"er", "gss", "gem", "agem"}

    def test_unknown_key_rejected_with_path(self, tmp_path):
        bad = tmp_path / "lib.yaml"
        bad.write_text(
            "schema_version: 1\nplatforms: {}\nprofiles: {}\nextra_key: 1\n"
        )
        with pytest.raises(SchemaError, match="extra_key"):
            load_profile_library(bad)

    @pytest.mark.parametrize("value", ["1.0", "1.5"])
    def test_noise_fraction_of_one_or_more_rejected_with_path(self, tmp_path, value):
        text = default_profile_library_path().read_text(encoding="utf-8")
        anchor = "    forgetting_rate: 0.35\n"
        assert anchor in text  # the er profile, the first in the file
        bad = tmp_path / "lib.yaml"
        bad.write_text(text.replace(anchor, anchor + f"    noise_fraction: {value}\n", 1))
        match = rf"profiles\.er\.noise_fraction: must be in \[0, 1\), got {value}"
        with pytest.raises(SchemaError, match=match):
            load_profile_library(bad)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf", "1.0e+400", "1" + "0" * 400])
    def test_non_finite_capacity_rejected_with_path(self, tmp_path, value):
        # A NaN capacity used to load, and memory > nan is never true, so
        # xavier-gss at K=200 completed with a 30,808 MB peak on 8 GB.
        text = default_profile_library_path().read_text(encoding="utf-8")
        anchor = "    capacity_mb: 8192\n"
        assert anchor in text
        bad = tmp_path / "lib.yaml"
        bad.write_text(text.replace(anchor, f"    capacity_mb: {value}\n", 1))
        match = r"platforms\.xavier-class\.capacity_mb: must be a finite number"
        with pytest.raises(SchemaError, match=match):
            load_profile_library(bad)
        with pytest.raises(SchemaError, match=match):
            load_scenario(
                default_profile_library_path().parent / "scenarios" / "xavier-gss.yaml",
                library_path=bad,
            )

    @pytest.mark.parametrize("value", [".nan", ".inf"])
    def test_non_finite_scenario_number_rejected_with_path(self, tmp_path, value):
        # A NaN sensitivity used to load and then raise InfeasibleBudgetError
        # in the middle of the run.
        text = (
            default_profile_library_path().parent / "scenarios" / "xavier-gss.yaml"
        ).read_text(encoding="utf-8")
        anchor = "  batch_sensitivity: 3.0\n"
        assert anchor in text
        bad = tmp_path / "scenario.yaml"
        bad.write_text(text.replace(anchor, f"  batch_sensitivity: {value}\n", 1))
        with pytest.raises(
            SchemaError, match=r"controller\.batch_sensitivity: must be a finite number"
        ):
            load_scenario(bad)

    @pytest.mark.parametrize("value", ["1e-3", "1E-3", "1.0e-3", "10e-4"])
    def test_exponent_form_number_loads(self, tmp_path, value):
        # YAML 1.1 wants a dot and a signed exponent, so PyYAML's SafeLoader
        # read 1e-3 as a string and the scenario was rejected (CLI exit 2).
        text = (
            default_profile_library_path().parent / "scenarios" / "xavier-gss.yaml"
        ).read_text(encoding="utf-8")
        anchor = "  threshold_decay: 0.001\n"
        assert anchor in text
        path = tmp_path / "xavier-gss.yaml"
        path.write_text(text.replace(anchor, f"  threshold_decay: {value}\n", 1))
        assert load_scenario(path) == load_bundled_scenario("xavier-gss")
        out = tmp_path / "report.csv"
        assert cli_main(["run", "--scenario", str(path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("value", ["8192e0", "8.192e3", "8.192E+3"])
    def test_exponent_form_capacity_loads(self, tmp_path, value):
        text = default_profile_library_path().read_text(encoding="utf-8")
        anchor = "    capacity_mb: 8192\n"
        assert anchor in text
        path = tmp_path / "lib.yaml"
        path.write_text(text.replace(anchor, f"    capacity_mb: {value}\n", 1))
        assert load_profile_library(path) == load_profile_library(default_profile_library_path())

    def test_quoted_exponent_form_is_still_a_string(self, tmp_path):
        text = (
            default_profile_library_path().parent / "scenarios" / "xavier-gss.yaml"
        ).read_text(encoding="utf-8")
        anchor = "  threshold_decay: 0.001\n"
        bad = tmp_path / "scenario.yaml"
        bad.write_text(text.replace(anchor, "  threshold_decay: '1e-3'\n", 1))
        with pytest.raises(
            SchemaError, match=r"controller\.threshold_decay: expected a number, got '1e-3'"
        ):
            load_scenario(bad)

    @pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
    def test_non_finite_target_point_rejected_with_path(self, tmp_path, value):
        text = default_calibration_targets_path().read_text(encoding="utf-8")
        anchor = "  - [32, 1080.0]\n"
        assert anchor in text
        bad = tmp_path / "targets.yaml"
        bad.write_text(text.replace(anchor, f"  - [32, {value}]\n", 1))
        with pytest.raises(
            SchemaError, match=r"latency_points\[1\]: must be a finite number"
        ):
            load_calibration_targets(bad)

    def test_schema_version_required(self, tmp_path):
        bad = tmp_path / "lib.yaml"
        bad.write_text("platforms: {}\nprofiles: {}\n")
        with pytest.raises(SchemaError, match="schema_version"):
            load_profile_library(bad)

    def test_targets_point_shape_checked(self, tmp_path):
        bad = tmp_path / "targets.yaml"
        bad.write_text(
            "schema_version: 1\nsamples_per_experience: 100\n"
            "latency_points: [[16, 10, 3]]\nmemory_points: []\nstability_points: []\n"
            "plugin: {latency_without_s: 1, latency_with_s: 2, memory_without_mb: 1, memory_with_mb: 2}\n"
        )
        with pytest.raises(SchemaError, match="latency_points"):
            load_calibration_targets(bad)
