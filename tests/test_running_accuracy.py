"""The running accuracy row agrees exactly with the spec's explicit matrix
(tests/spec.py): its metrics, the matrix it replays and its errors."""

import dataclasses
import math
import random
import struct
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
    Knobs,
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


def _bits(values):
    return [float.hex(v) for v in values]


def spec_rows(steps):
    """The spec's matrix of (factor, diagonal) steps, a list of rows."""
    rows = []
    for factor, diagonal in steps:
        rows.append(spec.next_row(rows, factor, diagonal))
    return rows


def check_against_spec(steps):
    """Advance a RunningAccuracy through (factor, diagonal) steps. Each
    snapshot, and at k <= 40, around each change of step and at the end the
    replayed matrix's row k and metrics, are the spec's, bit for bit; at the
    end every replayed row is, and a bad step raises and changes nothing."""
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
        if k in checked:
            matrix = running.matrix()
            assert _raw(matrix.row(k)) == _raw(rows[-1]), k
            assert _raw((plasticity(matrix, k), stability(matrix, k))) == expected, k
    # -0.0 and 5e-324 survive in every replayed row and in a stored matrix.
    n, matrix, stored = len(steps), running.matrix(), AccuracyMatrix(rows)
    assert [_raw(matrix.row(k)) for k in range(1, n + 1)] == list(map(_raw, rows))
    assert _raw((plasticity(stored, n), stability(stored, n))) == expected
    # The second bad step repeats the chain's factor, so it reaches the range check too.
    bad_steps = [((1.5, 0.5), "decay factor 1.5"), ((steps[-1][0], math.nan), "accuracy nan")]
    for bad, message in bad_steps:
        with pytest.raises(ValueError) as error:
            running.advance(*bad)
        assert str(error.value) == f"{message} outside [0, 1] in row {n + 1}"
    assert len(running) == n and running_snapshot(running, 1.0, 1.0) == snap
    assert _raw(running.matrix().row(n)) == _raw(rows[-1])


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
    """The matrix a run reads back holds O(K) floats, not K(K+1)/2: at most
    100 bytes an experience, with row K and both metrics read, for the
    K=1000 fixed proxy on server-er (the long-horizon benchmark's check,
    chain form) and a K=200 server-er controller run (row form)."""
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
            matrix = env.accuracy_matrix
            last = matrix.row(k)
            metrics = (plasticity(matrix, k), stability(matrix, k))
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert trace.completed and len(matrix) == k == len(trace.records) and len(last) == k
        assert metrics == (trace.final_plasticity(), trace.final_stability())
        assert held <= 100 * k, (k, held / k)
    assert runs[0][0].accuracy._row is None and runs[1][0].accuracy._row is not None


def _train(env, steps):
    """Trains one experience per Knobs; returns each step's newest row."""
    rows = []
    for step in steps:
        env.train_experience(step)
        rows.append(env.accuracy_matrix.row(len(env.accuracy)))
    return rows


KEEP, SWITCH = Knobs(64, 500, "default"), Knobs(32, 100, "advanced")


@pytest.mark.parametrize(
    "steps", [[KEEP] * 5, [KEEP, KEEP, SWITCH, KEEP, KEEP]], ids=["chain", "row"]
)
@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
def test_held_matrix_is_a_snapshot(steps, read_first):
    """A view of 5 rows keeps its length and every bit after the environment
    trains experiences 6 and 7, whether or not it was read before."""
    env = build_environment(load_bundled_scenario("server-er"))
    rows = _train(env, steps)
    assert (env.accuracy._row is None) == (SWITCH not in steps)
    matrix = env.accuracy_matrix
    if read_first:
        assert [matrix.row(k) for k in (5, 2)] == [rows[4], rows[1]]
    _train(env, [KEEP, SWITCH])
    assert len(env.accuracy_matrix) == 7 and len(matrix) == 5
    assert [_bits(matrix.row(k)) for k in range(1, 6)] == [_bits(row) for row in rows]
    assert _bits(matrix.get(k, k) for k in range(1, 6)) == _bits(row[-1] for row in rows)
    with pytest.raises(IncompleteMatrixError):
        matrix.row(6)


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
    running = RunningAccuracy()
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
    replayed, stored = running.matrix(), AccuracyMatrix(spec_rows(steps))
    n = len(steps)
    assert len(replayed) == len(stored) == n
    assert repr(replayed) == f"<ReplayedMatrix of {n} rows>"
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
        assert _error(lambda: call(replayed)) == _error(lambda: call(stored))
    assert _error(lambda: replayed.row(0))[0] is ValueError
    assert _error(lambda: replayed.row(n + 1))[0] is IncompleteMatrixError
    assert _error(lambda: replayed.get(2, 3))[0] is ValueError


@settings(max_examples=25, deadline=None)
@given(step_runs.map(lambda runs: runs[:3]), st.randoms(use_true_random=False))
@example([((0.999, 0.8), 150)], random.Random(0))
@example([((0.9, 0.8), 2), ((0.9, -0.0), 3), ((0.9, 0.8), 3)], random.Random(1))
@example([((1.0 - 2.0**-53, 5e-324), 40), ((5e-324, 1.0), 5)], random.Random(2))
def test_rows_read_in_any_order_are_the_rows_read_in_order(runs, rng):
    """Rows and entries read in a random order, from a fresh view and after
    other reads, have the float.hex of the rows read in order; and every
    row passes the range and finiteness check of AccuracyMatrix.add_row,
    which a replayed row no longer runs."""
    steps = [step for step, length in runs for _ in range(length)][:150]
    running = RunningAccuracy()
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
    n = len(steps)
    in_order = [_bits(running.matrix().row(k)) for k in range(1, n + 1)]
    assert in_order == list(map(_bits, spec_rows(steps)))
    matrix = running.matrix()
    order = list(range(1, n + 1)) * 2
    rng.shuffle(order)
    for k in order[:60]:
        assert _bits(matrix.row(k)) == in_order[k - 1], k
        i = rng.randint(1, k)
        assert float.hex(matrix.get(k, i)) == in_order[k - 1][i - 1], (k, i)
    stored = AccuracyMatrix(matrix.row(k) for k in range(1, n + 1))
    assert [_bits(stored.row(k)) for k in range(1, n + 1)] == in_order


@pytest.mark.parametrize(
    "factor, diagonal",
    [(1.5, 0.5), (-0.1, 0.5), (0.5, 1.5), (0.5, float("nan")), (float("inf"), 0.5)],
)
def test_advance_rejects_values_outside_unit_interval(factor, diagonal):
    running = RunningAccuracy()
    running.advance(0.9, 0.8)
    with pytest.raises(ValueError):
        running.advance(factor, diagonal)
    assert len(running) == 1 and running.matrix().row(1) == (0.8,)


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
        yield sc.name, _packed(trace), spec.run_fixed(sc, spec.SUITE_KNOBS["fixed-proxy"])
        try:
            trace, message = run_control_loop(sc, build_environment(sc)), None
        except InfeasibleBudgetError as exc:
            trace, message = exc.partial_trace, str(exc)
        yield sc.name, _packed(trace, message), spec.run_controller(sc)


def _packed(trace, message=None):
    """A trace's rows with their floats as bytes, its outcome and message."""
    rows = [(*row[:4], struct.pack("14d", *row[4])) for row in trace.rows()]
    return rows, trace.outcome.value, message


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
    """perfbench's long-horizon check reads env.accuracy_matrix and
    plasticity and stability over it. Row K, every get(i, i) and both
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
        got = (snap.plasticity, snap.stability, *running.matrix().row(k))
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
