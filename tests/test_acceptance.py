"""Acceptance suite: every shipped criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion. Each criterion is a separate test so a failure pinpoints itself.
"""

import dataclasses
import itertools
import time

import numpy as np

from oclbudget import (
    BaselinePolicy,
    BudgetState,
    ControllerConfig,
    Knobs,
    MemoryModel,
    MetricSnapshot,
    Outcome,
    PolicyKind,
    Thresholds,
    ablate_prefetch,
    build_environment,
    calibrate_profile,
    compute_urge,
    emit_report,
    load_bundled_scenario,
    load_calibration_targets,
    measure_overhead,
    run_baseline,
    run_control_loop,
    run_oracle,
    run_suite,
    update_budgets,
    weights_from_preference,
)
from oclbudget.controller import OptimizerMode
from oclbudget.metrics import AccuracyMatrix, plasticity, stability
from oclbudget.scenario import bundled_scenario_names, default_calibration_targets_path
from oclbudget.urge import METRIC_NAMES

PREFS = ("prefer-latency", "balanced", "prefer-ps")


def check(num, description, ok):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_01_update_multiplier_exactness():
    cfg = ControllerConfig(
        initial_threshold=0.7,
        threshold_decay=0.0,
        batch_sensitivity=0.1,
        replay_sensitivity=0.2,
        memory=MemoryModel(
            base_mb=100.0,
            optimizer_delta_mb=0.0,
            sample_mb=1.0,
            frame_mb=1.0,
            spike_threshold=0,
            spike_coeff=0.0,
        ),
        capacity_mb=1e9,
    )
    prev = BudgetState(1000.0, 1000.0, 100.0)
    new = update_budgets(prev, score=0.8, threshold=0.7, config=cfg)
    batch_mult = new.batch_mb / prev.batch_mb
    replay_mult = new.replay_mb / prev.replay_mb
    ok = abs(batch_mult - 1.01) <= 1e-12 and abs(replay_mult - 1.02) <= 1e-12
    check(1, f"update multipliers 1.01/1.02 exact (got {batch_mult!r}, {replay_mult!r})", ok)


def test_criterion_02_weight_rule():
    w = weights_from_preference(["memory", "plasticity", "stability", "latency"])
    exact = (w.k_m, w.k_p, w.k_s, w.k_l) == (0.4, 0.3, 0.2, 0.1)
    sums_ok = all(
        abs(sum(dataclasses.astuple(weights_from_preference(order))) - 1.0) <= 1e-9
        for order in itertools.permutations(METRIC_NAMES)
    )
    check(2, "positional weight rule exact; 24 permutations normalized", exact and sums_ok)


def test_criterion_03_score_invariants():
    weights = weights_from_preference(["memory", "plasticity", "stability", "latency"])
    rng = np.random.default_rng(2024)
    in_open_interval = True
    for _ in range(10_000):
        th = Thresholds(
            plasticity=float(rng.uniform(0.05, 0.95)),
            stability=float(rng.uniform(0.05, 0.95)),
            latency_s=float(rng.uniform(1.0, 500.0)),
            memory_mb=float(rng.uniform(100.0, 10000.0)),
        )
        snap = MetricSnapshot(
            plasticity=float(rng.uniform(0.0, 1.0)),
            stability=float(rng.uniform(0.0, 1.0)),
            latency_s=float(rng.uniform(0.0, 5000.0)),
            memory_peak_mb=float(rng.uniform(0.0, 20000.0)),
        )
        value = compute_urge(snap, th, weights).value
        in_open_interval &= 0.0 < value < 1.0

    th = Thresholds(plasticity=0.8, stability=0.9, latency_s=100.0, memory_mb=4000.0)
    neutral = compute_urge(MetricSnapshot(0.8, 0.9, 100.0, 4000.0), th, weights).value
    neutral_ok = abs(neutral - 0.0625) <= 1e-12

    monotone = True
    for _ in range(1_000):
        th = Thresholds(
            plasticity=float(rng.uniform(0.2, 0.9)),
            stability=float(rng.uniform(0.2, 0.9)),
            latency_s=float(rng.uniform(20.0, 200.0)),
            memory_mb=float(rng.uniform(1000.0, 8000.0)),
        )
        p = float(rng.uniform(0.05, 0.9))
        s = float(rng.uniform(0.05, 0.9))
        lat = float(rng.uniform(1.0, 400.0))
        mem = float(rng.uniform(200.0, 9000.0))
        base = compute_urge(MetricSnapshot(p, s, lat, mem), th, weights).value
        monotone &= compute_urge(MetricSnapshot(p + 0.05, s, lat, mem), th, weights).value < base
        monotone &= compute_urge(MetricSnapshot(p, s + 0.05, lat, mem), th, weights).value < base
        monotone &= compute_urge(MetricSnapshot(p, s, lat + 10.0, mem), th, weights).value > base
        monotone &= compute_urge(MetricSnapshot(p, s, lat, mem + 100.0), th, weights).value < base

    check(
        3,
        "10k scores in (0,1); all-thresholds-met = 0.0625 +/- 1e-12; 1k monotone pairs",
        in_open_interval and neutral_ok and monotone,
    )


def test_criterion_04_metric_oracle_equivalence():
    # Both sums add newest first, i = k, k-1, ..., 1, as the metrics define.
    def brute_plasticity(rows, k):
        total = 0.0
        for i in range(k, 0, -1):
            total += rows[k - 1][i - 1]
        return total / k

    def brute_stability(rows, k):
        if k == 1:
            return 1.0
        total = 0.0
        for i in range(k - 1, 0, -1):
            total += max(0.0, rows[i - 1][i - 1] - rows[k - 1][i - 1])
        return min(1.0, max(0.0, 1.0 - total / (k - 1)))

    rng = np.random.default_rng(404)
    exact = True
    first_always_one = True
    for _ in range(1_000):
        k = int(rng.integers(1, 12))
        rows = [list(rng.uniform(0.0, 1.0, size=i)) for i in range(1, k + 1)]
        m = AccuracyMatrix(rows)
        exact &= plasticity(m, k) == brute_plasticity(rows, k)
        exact &= stability(m, k) == brute_stability(rows, k)
        first_always_one &= stability(m, 1) == 1.0
    check(4, "1k random matrices match brute force exactly; stability(.,1)=1", exact and first_always_one)


def test_criterion_05_controller_oom_freedom():
    started = time.perf_counter()
    failures = []
    for name in bundled_scenario_names():
        base = load_bundled_scenario(name)
        for pref in PREFS:
            scenario = base.with_preference(pref)
            trace = run_control_loop(scenario, build_environment(scenario))
            if trace.outcome is not Outcome.COMPLETED:
                failures.append((name, pref, trace.outcome))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60.0
    check(5, f"36 controller runs, zero OOM, {elapsed:.1f}s (<60s); failures={failures}", ok)


def test_criterion_06_baseline_failures_and_oracle_oom_band():
    scenario = load_bundled_scenario("xavier-gss")
    max_p = run_baseline(BaselinePolicy.from_scenario(PolicyKind.MAX_P, scenario), scenario)
    max_a = run_baseline(BaselinePolicy.from_scenario(PolicyKind.MAX_A, scenario), scenario)
    controller = run_control_loop(scenario, build_environment(scenario))
    oracle = run_oracle(scenario)
    oom_points = oracle.oom_count()
    ok = (
        max_p.outcome is Outcome.OOM_FAILED
        and max_a.outcome is Outcome.OOM_FAILED
        and controller.outcome is Outcome.COMPLETED
        and 7 <= oom_points <= 15
    )
    check(
        6,
        "xavier-gss: max-p/max-a OOM, controller completes, oracle OOM points "
        f"{oom_points} in [7, 15]",
        ok,
    )


def test_criterion_07_oracle_cardinality_and_efficiency():
    scenario = load_bundled_scenario("xavier-er")
    oracle = run_oracle(scenario)
    controller_runs = 1
    ok = oracle.run_count == 42 and oracle.run_count // controller_runs == 42
    check(7, f"oracle executes {oracle.run_count} runs vs 1 controller run (42x)", ok)


def test_criterion_08_prefetch_ablation_bands():
    bands = {
        "server-er": (0.30, 0.40),
        "xavier-er": (0.28, 0.38),
        "orin-er": (0.28, 0.38),
    }
    results = {}
    ok = True
    for name, (lo, hi) in bands.items():
        reduction = ablate_prefetch(load_bundled_scenario(name)).reduction
        results[name] = round(reduction, 4)
        ok &= lo <= reduction <= hi
    check(8, f"prefetch latency reduction in band per platform: {results}", ok)


def test_criterion_09_calibration_fidelity():
    result = calibrate_profile(load_calibration_targets(default_calibration_targets_path()))
    response, model = result.response, result.memory

    def latency(batch):
        return response.compute_latency_s(batch, 0, OptimizerMode.DEFAULT, 1, 180_000)

    def memory(batch):
        return model.memory_mb(Knobs(batch, 0, OptimizerMode.DEFAULT))

    plugin_latency = 73.06 * response.optimizer_latency_multiplier
    plugin_memory = 4100.0 + model.optimizer_delta_mb
    table_ok = (
        abs(plugin_latency - 215.13) / 215.13 <= 0.15
        and abs(plugin_memory - 4207.0) / 4207.0 <= 0.15
    )
    trend_ok = (
        all(latency(b) > 2000.0 for b in (1, 2, 4, 8, 16))
        and latency(256) < 200.0
        and memory(256) > 6144.0
    )
    check(
        9,
        "fitted model hits plugin anchors within 15% and batch-sweep anchors "
        f"(L(16)={latency(16):.0f}s, L(256)={latency(256):.0f}s, M(256)={memory(256):.0f}MB)",
        table_ok and trend_ok,
    )


def test_criterion_10_preference_ordering_structure():
    failures = []
    for name in bundled_scenario_names():
        base = load_bundled_scenario(name)
        outcomes = {}
        for pref in PREFS:
            scenario = base.with_preference(pref)
            trace = run_control_loop(scenario, build_environment(scenario))
            outcomes[pref] = (
                trace.total_latency_s(),
                trace.final_plasticity(),
                trace.final_stability(),
            )
        lat = [outcomes[p][0] for p in PREFS]
        pla = [outcomes[p][1] for p in PREFS]
        sta = [outcomes[p][2] for p in PREFS]
        if not (lat[0] < lat[1] < lat[2]):
            failures.append((name, "latency", lat))
        if not (pla[0] <= pla[1] <= pla[2]):
            failures.append((name, "plasticity", pla))
        if not (sta[0] <= sta[1] <= sta[2]):
            failures.append((name, "stability", sta))
    check(
        10,
        "latency(prefer-latency) < balanced < prefer-P/S with P/S order reversed "
        f"on all {len(bundled_scenario_names())} scenarios; failures={failures}",
        not failures,
    )


def test_criterion_11_determinism_and_overhead():
    scenario = load_bundled_scenario("orin-gem")
    policies = ["controller", "max_a", "max_p"]
    first = emit_report(run_suite(scenario, policies), "csv")
    second = emit_report(run_suite(scenario, policies), "csv")
    deterministic = first == second

    summary = measure_overhead(scenario)
    overhead_ok = summary.overhead_ratio < 0.021 and summary.state_bytes < 10 * 1024
    check(
        11,
        "byte-identical CSV reruns; controller overhead "
        f"{summary.overhead_ratio:.2e} < 2.1% and state {summary.state_bytes}B < 10KB",
        deterministic and overhead_ok,
    )
