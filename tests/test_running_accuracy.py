"""The running accuracy row agrees exactly with the spec's explicit matrix
(tests/spec.py): its metrics, its latest row and diagonal, and its errors."""

import dataclasses
import math
import random
import subprocess
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spec
from oclbudget import (
    AccuracyMatrix,
    BaselinePolicy,
    IncompleteMatrixError,
    InfeasibleBudgetError,
    PolicyKind,
    RunningAccuracy,
    build_environment,
    bundled_scenario_names,
    load_bundled_scenario,
    plasticity,
    run_baseline,
    run_control_loop,
    running_snapshot,
    stability,
)


TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _raw(values):
    """The bytes of the floats: equal exactly when every float is bit-identical."""
    return array("d", values).tobytes()


def spec_rows(steps):
    """The spec's matrix of (factor, diagonal) steps, a list of rows."""
    rows = []
    for factor, diagonal in steps:
        rows.append(spec.next_row(rows, factor, diagonal))
    return rows


def check_against_spec(steps):
    """Advance a RunningAccuracy through (factor, diagonal) steps. Each
    snapshot and each row k, read as it becomes the latest, are the spec's,
    bit for bit; so are, at k <= 40, around each change of step and at the
    end, the diagonal, entries of row k and the metrics computed over the
    running accuracy. A bad step raises and changes nothing."""
    switches = {k for k in range(2, len(steps) + 1) if _raw(steps[k - 1]) != _raw(steps[k - 2])}
    checked = {k + d for k in switches for d in (-1, 0, 1)} | set(range(1, 41)) | {len(steps)}
    running, rows = RunningAccuracy(), []
    for k, (factor, diagonal) in enumerate(steps, start=1):
        running.advance(factor, diagonal)
        rows.append(spec.next_row(rows, factor, diagonal))
        # No entry exceeds its diagonal, so the running sums need no clip.
        assert all(v <= rows[i][i] for i, v in enumerate(rows[-1])), k
        expected = _raw((spec.plasticity(rows, k), spec.stability(rows, k)))
        snap = running_snapshot(running, 1.0, 1.0)
        assert _raw((snap.plasticity, snap.stability)) == expected, k
        # -0.0 and 5e-324 survive in every row, as in a stored matrix.
        assert _raw(running.row(k)) == _raw(rows[-1]), k
        if k in checked:
            diagonal = _raw(running.get(i, i) for i in range(1, k + 1))
            assert diagonal == _raw(row[-1] for row in rows), k
            some = sorted({1, (k + 1) // 2, k})
            assert _raw(running.get(k, i) for i in some) == _raw(rows[-1][i - 1] for i in some), k
            assert _raw((plasticity(running, k), stability(running, k))) == expected, k
    n, stored = len(steps), AccuracyMatrix(rows)
    assert _raw((plasticity(stored, n), stability(stored, n))) == expected
    # The second bad step repeats the chain's factor, so it reaches the range check too.
    bad_steps = [((1.5, 0.5), "decay factor 1.5"), ((steps[-1][0], math.nan), "accuracy nan")]
    for bad, message in bad_steps:
        with pytest.raises(ValueError) as error:
            running.advance(*bad)
        assert str(error.value) == f"{message} outside [0, 1] in row {n + 1}"
    assert len(running) == n and running_snapshot(running, 1.0, 1.0) == snap
    assert _raw(running.row(n)) == _raw(rows[-1])


unit = st.floats(min_value=0.0, max_value=1.0)
_long = random.Random(300)
LONG_STEPS = [(_long.random(), _long.random()) for _ in range(300)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=300))
@example(LONG_STEPS)
def test_running_row_equals_matrix_reference(steps):
    check_against_spec(steps)


EDGES = [0.0, 1.0, 5e-324]
edge_unit = st.one_of(st.sampled_from(EDGES), unit)
_edge = random.Random(301)


def _edge_or(value):
    return _edge.choice(EDGES) if _edge.random() < 0.1 else value


# Factors near 1 keep old entries alive across the whole 1000-step run.
EDGE_STEPS = [(_edge_or(_edge.uniform(0.99, 1.0)), _edge_or(_edge.random())) for _ in range(1000)]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(edge_unit, edge_unit), min_size=1, max_size=1000))
@example(EDGE_STEPS)
def test_stability_kernel_contract(steps):
    check_against_spec(steps)


# 0.0 and -0.0 compare equal but are different floats; 1 - 2**-53 is the
# largest factor below 1, so its chain decays as slowly as a chain can.
EXACT_EDGES = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
exact_unit = st.one_of(st.sampled_from(EXACT_EDGES), unit)
# A run of equal (factor, diagonal) steps and its length. The first run keeps
# the chain form (if its values are nonzero); the first switch leaves it.
step_runs = st.lists(
    st.tuples(st.tuples(exact_unit, exact_unit), st.integers(1, 1000)), min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(step_runs)
@example([((0.999, 0.8), 1000)])
@example([((1.0 - 2.0**-53, 5e-324), 700), ((1.0 - 2.0**-53, 1.0), 300)])
@example([((0.9, 0.8), 1), ((0.9, -0.0), 5), ((0.9, 0.8), 5)])
@example([((0.5, 0.0), 3), ((0.5, -0.0), 3)])
@example([((1.0, -0.0), 2), ((0.5, 0.0), 2)])
@example([((0.9, 0.8), 1), ((0.5, 0.8), 40)])
@example([((0.9, 0.8), 2), ((0.9, 0.7), 3), ((0.9, 0.8), 3)])
@example([((0.999, 0.8), 700), ((0.999, 0.5), 300)])
@example([((0.9, 0.8), 3), ((0.9, -0.0), 3), ((0.9, 0.0), 3)])
@example([((1.0 - 2.0**-53, 5e-324), 500), ((5e-324, 1.0), 5)])
@example([((-0.0, 0.5), 2), ((0.5, 0.5), 2)])
def test_chain_form_equals_matrix_reference(runs):
    """Both forms of the running row, and the switch between them at k = 1,
    2 or late, give the spec's floats."""
    check_against_spec([step for step, length in runs for _ in range(length)][:1000])


def test_constant_steps_hold_constant_memory():
    """A run of equal steps keeps O(1) state: 10,000 steps leave no more
    net allocated memory than 10 do, up to a small fixed slack."""

    def net_bytes(steps):
        running = RunningAccuracy()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(steps):
                running.advance(0.999, 0.8)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(running) == steps
        return after - before

    assert net_bytes(10_000) <= net_bytes(10) + 512


def test_replayed_matrix_holds_o_k_floats():
    """Reading a run's accuracy back holds O(K) floats, not K(K+1)/2: at
    most 100 bytes an experience, with row K and both metrics read, for the
    K=1000 fixed proxy on server-er (the long-horizon benchmark's check,
    chain form, whose row K is replayed from the chain) and a K=200
    server-er controller run (row form)."""
    base = load_bundled_scenario("server-er")
    fixed = dataclasses.replace(base, num_experiences=1000)
    controlled = dataclasses.replace(base, num_experiences=200)
    env = build_environment(fixed)
    runs = [(env, run_baseline(BaselinePolicy.from_scenario(PolicyKind.FIXED, fixed), fixed, env))]
    env = build_environment(controlled)
    runs.append((env, run_control_loop(controlled, env)))
    for env, trace in runs:
        k = len(env.accuracy)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            running = env.accuracy
            last = running.row(k)
            metrics = (plasticity(running, k), stability(running, k))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.completed and len(running) == k == len(trace.records) and len(last) == k
        assert metrics == (trace.final_plasticity(), trace.final_stability())
        assert held <= 100 * k, (k, held / k)
    assert runs[0][0].accuracy._row is None and runs[1][0].accuracy._row is not None


def _error(call):
    with pytest.raises((ValueError, IncompleteMatrixError)) as error:
        call()
    return type(error.value), str(error.value)


@pytest.mark.parametrize(
    "steps",
    [[], [(0.9, 0.8)] * 4, [(0.9, 0.8), (0.9, 0.8), (0.5, 0.8), (0.9, 0.7)]],
    ids=["empty", "chain", "row"],
)
def test_replayed_matrix_raises_the_stored_matrix_errors(steps):
    """The running accuracy raises what a stored matrix raises for a request
    outside it, and ValueError for the rows before the latest, which it no
    longer holds; their diagonal entries it still reads."""
    running = RunningAccuracy()
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
    stored = AccuracyMatrix(spec_rows(steps))
    n = len(steps)
    assert len(running) == len(stored) == n
    calls = [
        lambda m: m.row(0),
        lambda m: m.row(-1),
        lambda m: m.row(n + 1),
        lambda m: m.get(n + 1, 1),
        lambda m: m.get(n + 1, n + 1),
        lambda m: m.get(2, 3),
        lambda m: m.get(2, 0),
        lambda m: m.get(0, 0),
        lambda m: m.get(n + 2, n + 3),
    ]
    for call in calls:
        assert _error(lambda: call(running)) == _error(lambda: call(stored))
    assert _error(lambda: running.row(0))[0] is ValueError
    assert _error(lambda: running.row(n + 1))[0] is IncompleteMatrixError
    assert _error(lambda: running.get(2, 3))[0] is ValueError
    for k in range(1, n):  # an earlier row keeps only its diagonal entry
        message = f"only the latest row, {n}, is kept; row {k} was requested"
        assert _error(lambda: running.row(k)) == (ValueError, message)
        if k > 1:
            assert _error(lambda: running.get(k, 1)) == (ValueError, message)
        assert running.get(k, k) == stored.get(k, k)


@pytest.mark.parametrize(
    "factor, diagonal",
    [(1.5, 0.5), (-0.1, 0.5), (0.5, 1.5), (0.5, float("nan")), (float("inf"), 0.5)],
)
def test_advance_rejects_values_outside_unit_interval(factor, diagonal):
    running = RunningAccuracy()
    running.advance(0.9, 0.8)
    with pytest.raises(ValueError):
        running.advance(factor, diagonal)
    assert len(running) == 1 and running.row(1) == (0.8,)


def test_running_snapshot_needs_a_trained_experience():
    with pytest.raises(IncompleteMatrixError):
        running_snapshot(RunningAccuracy(), 1.0, 1.0)


def _long_runs():
    """K=300 fixed-proxy and controller runs of every bundled scenario and
    of a noisy copy of the first: each as (name, packed rows, outcome,
    message) from the package, then from the spec."""
    scenarios = [
        dataclasses.replace(load_bundled_scenario(name), num_experiences=300)
        for name in bundled_scenario_names()
    ]
    noisy = scenarios[0]
    scenarios.append(
        dataclasses.replace(
            noisy, response=dataclasses.replace(noisy.response, noise_fraction=0.05)
        )
    )
    for sc in scenarios:
        fixed = BaselinePolicy.from_scenario(PolicyKind.FIXED, sc)
        trace = run_baseline(fixed, sc, build_environment(sc))
        yield sc.name, spec.packed_trace(trace), spec.run_fixed(sc, spec.SUITE_KNOBS["fixed-proxy"])
        try:
            trace, message = run_control_loop(sc, build_environment(sc)), None
        except InfeasibleBudgetError as exc:
            trace, message = exc.partial_trace, str(exc)
        yield sc.name, spec.packed_trace(trace, message), spec.run_controller(sc)


def test_long_run_snapshots_equal_matrix_reference():
    """Every record of the 26 K=300 runs, its snapshot included, is the
    spec's over its explicit matrix, bit for bit: both forms of the running
    row, the noisy clamp of the diagonal, and each run's outcome."""
    checked = 0
    for name, got, run in _long_runs():
        expected = [spec.packed(record) for record in run.records], run.outcome, run.message
        assert got == expected, name
        checked += sum(record[4] is not None for record in run.records)
    assert checked >= 13 * 300  # every fixed-proxy run completes


def test_long_horizon_final_metrics_equal_matrix_reference():
    """perfbench's long-horizon check reads env.accuracy_matrix, the running
    accuracy itself, and plasticity and stability over it. Row K, every get(i, i) and both
    metrics equal the spec's, bit for bit, for the fixed proxy on server-er
    at K=500 and K=1000 (chain form throughout) and the controller at K=200
    (row form from its first knob change)."""
    base = load_bundled_scenario("server-er")
    proxy = BaselinePolicy.from_scenario(PolicyKind.FIXED, base)
    for k, policy in [(500, "fixed"), (1000, "fixed"), (200, "controller")]:
        scenario = dataclasses.replace(base, num_experiences=k)
        env = build_environment(scenario)
        if policy == "fixed":
            trace = run_baseline(proxy, scenario, env)
            expected = spec.run_fixed(scenario, spec.SUITE_KNOBS["fixed-proxy"])
        else:
            trace = run_control_loop(scenario, env)
            expected = spec.run_controller(scenario)
        assert (env.accuracy._row is None) is (policy == "fixed")
        matrix, rows = env.accuracy_matrix, expected.matrix
        assert matrix is env.accuracy
        assert trace.completed and expected.outcome == "completed"
        assert len(matrix) == len(rows) == k
        assert _raw(matrix.row(k)) == _raw(rows[-1])
        assert _raw(matrix.get(i, i) for i in range(1, k + 1)) == _raw(row[-1] for row in rows)
        metrics = (spec.plasticity(rows, k), spec.stability(rows, k))
        assert _raw((plasticity(matrix, k), stability(matrix, k))) == _raw(metrics)
        assert _raw((trace.final_plasticity(), trace.final_stability())) == _raw(metrics)


# Runs in a fresh interpreter. metrics and the spec need no PyYAML, which
# other interpreters may lack, so yaml is stubbed before the package is
# imported. Each sequence is runs of equal steps with switches, so both forms
# of the running row and the switch between them are checked.
EQUIVALENCE_SCRIPT = """
import random, sys, types
sys.modules["yaml"] = types.ModuleType("yaml")
sys.path[:0] = sys.argv[1:]
import spec
from oclbudget.metrics import RunningAccuracy, running_snapshot

rng = random.Random(14)
edges = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]

def value():
    return rng.choice(edges) if rng.random() < 0.1 else rng.random()

steps_checked = 0
for sequence in range(16):
    steps = []
    while len(steps) < 300:
        steps += [(value(), value())] * rng.choice([1, 1, 7, 50, 300])
    running, rows = RunningAccuracy(), []
    for k, (factor, diagonal) in enumerate(steps[:300], start=1):
        running.advance(factor, diagonal)
        rows.append(spec.next_row(rows, factor, diagonal))
        snap = running_snapshot(running, 1.0, 1.0)
        got = (snap.plasticity, snap.stability, *running.row(k))
        expected = (spec.plasticity(rows, k), spec.stability(rows, k), *rows[-1])
        if list(map(float.hex, got)) != list(map(float.hex, expected)):
            sys.exit(f"sequence {sequence}, k={k}: {got} != {expected}")
        steps_checked += 1
print(sys.version_info[:2], steps_checked)
"""


def test_running_metrics_equal_reference_on_other_interpreters(other_interpreters):
    """The README's promise that on every version the running metrics equal
    the spec's over the explicit matrix, for both forms of the running row."""
    if not other_interpreters:
        pytest.skip("no other CPython 3.10-3.13 found")
    for exe in other_interpreters:
        done = subprocess.run(
            [exe, "-c", EQUIVALENCE_SCRIPT, str(SRC), str(TESTS)],
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, (exe, done.stderr)
        assert done.stdout.split()[-1] == str(16 * 300), (exe, done.stdout)
