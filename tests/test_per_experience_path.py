"""The per-experience path clamps by comparison and scores a memory peak once.

Every function that runs once an experience (or once per Knobs object, so
on every controller experience) writes each clamp as a conditional
expression instead of a min or max call, and the URGE scorer keeps the last
memory peak's factor. Both are pure speed-ups: these tests hold each
rewritten site to the min/max form tests/spec.py states, at its edges, to
the sign and the bit, and the scorer's memo to compute_urge.
"""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

import spec
from oclbudget import (
    BaselinePolicy,
    BudgetState,
    Knobs,
    MetricSnapshot,
    OptimizerMode,
    RunningAccuracy,
    build_environment,
    compute_urge,
    derive_knobs,
    load_bundled_scenario,
    run_baseline,
    running_snapshot,
    weights_from_preference,
)
from oclbudget.urge import urge_scorer

SRC = Path(__file__).resolve().parent.parent / "src" / "oclbudget"
DEFAULT, ADVANCED = OptimizerMode.DEFAULT, OptimizerMode.ADVANCED

# The functions each experience runs, by module: a min or max call in any of
# them (or in any function nested in one) fails the guard below.
PER_EXPERIENCE = {
    "metrics.py": ["running_snapshot"],
    "simulator.py": [
        "SimulatedEnvironment.train_experience",
        "SimulatedEnvironment._knob_terms",
        "ResponseModel.knob_latency_terms",
        "ResponseModel.latency_s",
        "ResponseModel.stability_gain",
        "ResponseModel.plasticity_level",
    ],
    "controller.py": [
        "MemoryModel.memory_mb",
        "derive_knobs",
        "update_budgets",
        "_run_policy",
        "RunTrace._append",
    ],
    "urge.py": ["urge_scorer.score"],  # the closure; the per-run setup may call max
}


def _functions(tree):
    """Every function definition in tree by its dotted name (Class.method,
    outer.inner)."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[name] = child
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_the_per_experience_path_calls_no_min_or_max():
    """A min or max builtin call costs 250-500 ns where the comparisons it
    stands for cost 30-50 (CPython 3.11), several times an experience."""
    calls = []
    for module, names in PER_EXPERIENCE.items():
        functions = _functions(ast.parse((SRC / module).read_text(encoding="utf-8")))
        for name in names:
            assert name in functions, f"{module}: no function {name}"
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("min", "max"):
                    calls.append(f"{module}:{node.lineno} {name} calls {node.func.id}")
    assert calls == []


def same(got, expected):
    """The same type and value; a float to the bit, so the sign of a zero too."""
    assert type(got) is type(expected), (got, expected)
    if type(got) is float:
        assert float.hex(got) == float.hex(expected), (got, expected)
    else:
        assert got == expected


def assert_runs_as_the_spec(scenario, knobs, prefetch=True):
    """A fixed-knob run of scenario is the spec's, every packed row bit for bit."""
    env = build_environment(scenario, prefetch=prefetch)
    trace = run_baseline(BaselinePolicy(Knobs(*knobs)), scenario, env)
    run = spec.run_fixed(scenario, knobs, prefetch)
    expected = [spec.packed(record) for record in run.records], run.outcome, run.message
    assert spec.packed_trace(trace) == expected
    return run


@pytest.fixture
def xavier():
    return dataclasses.replace(load_bundled_scenario("xavier-er"), num_experiences=4)


def test_batch_at_the_knee(xavier):
    response, n = xavier.response, xavier.samples_per_experience
    knee = response.batch_knee
    for batch in (knee - 1, knee, knee + 1):
        for mode in (DEFAULT, ADVANCED):
            stream, replay = response.knob_latency_terms(batch, 100, mode, n)
            c_iter = response.compute_cost_per_sample_s * max(batch, knee)
            opt = response.optimizer_latency_multiplier if mode is ADVANCED else 1.0
            same(stream, (n / batch) * c_iter * opt)
            same(replay, 100 * response.replay_sampling_cost_s)
            assert_runs_as_the_spec(xavier, (batch, 100, mode.value))


def test_buffer_at_the_spike_threshold(xavier):
    memory = xavier.controller.memory
    threshold = memory.spike_threshold
    for buffer in (threshold - 1, threshold, threshold + 1):
        overhang = max(0, buffer - threshold)
        expected = (
            memory.base_mb + 64 * memory.sample_mb + buffer * memory.frame_mb + 0.0
            + memory.spike_coeff * overhang * overhang
        )
        same(memory.memory_mb(Knobs(64, buffer, DEFAULT)), expected)
        assert_runs_as_the_spec(xavier, (64, buffer, "default"))


@pytest.mark.parametrize("noise", [0.0, 0.3])
def test_plasticity_level_at_its_bounds(xavier, noise):
    """A level above 1 (the advanced bonus) clamps to 1.0 and a level of 0
    (no plasticity) stays 0.0; with noise, the jittered diagonal clamps the
    same way on either side."""
    n = xavier.samples_per_experience
    for changes, mode, bound in [
        ({"plasticity_max": 1.0, "advanced_plasticity_bonus": 0.5}, ADVANCED, 1.0),
        ({"plasticity_max": 0.0}, DEFAULT, 0.0),
    ]:
        response = dataclasses.replace(xavier.response, noise_fraction=noise, **changes)
        scenario = dataclasses.replace(xavier, response=response, num_experiences=40)
        learned = 1.0 - math.exp(-(n / 16) / response.plasticity_updates_scale)
        level = response.plasticity_max * learned
        if mode is ADVANCED:
            level += response.advanced_plasticity_bonus
        assert level > 1.0 if bound else level == 0.0
        got = response.plasticity_level(16, mode, n)
        same(got, min(1.0, max(0.0, level)))
        same(got, bound)
        run = assert_runs_as_the_spec(scenario, (16, 100, mode.value))
        diagonals = [row[-1] for row in run.matrix]
        if noise and bound:  # the jitter pushes about half the diagonals past 1
            assert 0 < diagonals.count(1.0) < len(diagonals)
        else:
            for diagonal in diagonals:
                same(diagonal, bound)


def test_derive_knobs_below_one_sample_and_one_frame(xavier):
    config = xavier.controller
    memory = config.memory
    for batch_mb, replay_mb in [
        (0.0, 0.0),
        (memory.sample_mb / 2, memory.frame_mb / 2),
        (memory.sample_mb, memory.frame_mb),
        (math.nextafter(memory.sample_mb, 0.0), math.nextafter(memory.frame_mb, 0.0)),
        (2.5 * memory.sample_mb, 2.5 * memory.frame_mb),
    ]:
        for mode in ("default", "advanced"):
            state = BudgetState(batch_mb, replay_mb, memory.base_mb, mode)
            got = derive_knobs(state, config)
            batch, buffer, _ = spec.derive_knobs(tuple(state), config)
            same(got[0], batch)
            same(got[1], buffer)
            assert got[2] is OptimizerMode(mode)


@pytest.mark.parametrize("load", [0.0, -0.0, 1e-6])
@pytest.mark.parametrize("prefetch", [True, False])
def test_a_staged_experience_whose_hidden_load_is_not_positive(xavier, load, prefetch):
    """load - 0.85 * compute <= 0 on every staged experience: a load time of
    0.0 or -0.0 per sample, or one far below the compute time. The hidden
    load is then 0.0, so the latency is the compute time, as in the spec."""
    platform = dataclasses.replace(xavier.platform, load_time_per_sample_s=load)
    scenario = dataclasses.replace(xavier, platform=platform)
    run = assert_runs_as_the_spec(scenario, (64, 2000, "default"), prefetch)
    response, n = scenario.response, scenario.samples_per_experience
    terms = response.knob_latency_terms(64, 2000, DEFAULT, n)
    for experience, record in enumerate(run.records, start=1):
        compute = response.latency_s(*terms, experience, platform.compute_scale)
        if experience > 1 and prefetch:
            assert n * load - 0.85 * compute <= 0.0
            same(record[4][2], compute)


def test_stability_clamp_of_the_running_snapshot():
    """The running stability 1 - F / (k - 1) clamped to [0, 1], for sums at
    and past both bounds, NaN included, is the spec's min/max clamp."""
    for forgetting_sum in [0.0, -0.0, 1.0, 0.5, 2.0, -1.0, 1.0 + 2.0**-52, -(2.0**-52), math.nan]:
        accuracy = RunningAccuracy()
        accuracy.advance(1.0, 1.0)
        accuracy.advance(1.0, 1.0)
        accuracy._forgetting_sum = forgetting_sum
        got = running_snapshot(accuracy, 1.0, 1.0).stability
        same(got, min(1.0, max(0.0, 1.0 - forgetting_sum / 1)))


def test_the_scorer_memo_is_invisible():
    """One scorer, fed snapshots whose memory peaks alternate between two
    objects, repeat one object, or are equal but distinct objects (an int
    among them), scores each as compute_urge scores it alone, bit for bit."""
    scenario = load_bundled_scenario("xavier-er")
    thresholds = scenario.thresholds
    weights = weights_from_preference(scenario.preference)
    a, b = float("4980.5"), float("6120.25")
    a_again = float(repr(a))
    assert a_again == a and a_again is not a
    peaks = [a, a, b, a, b, b, a_again, a, a_again, a_again, 4980, b, 4980.0, a]
    score = urge_scorer(thresholds, weights)
    for i, peak in enumerate(peaks):
        snapshot = MetricSnapshot(0.5 + i / 100, 0.9 - i / 100, 40.0 + i, peak)
        got = score(snapshot)
        expected = compute_urge(snapshot, thresholds, weights)
        assert list(map(float.hex, got)) == list(map(float.hex, expected)), i
        spec_score = spec.urge(tuple(snapshot), thresholds, spec.weights(scenario.preference))
        assert list(map(float.hex, got)) == list(map(float.hex, spec_score)), i
