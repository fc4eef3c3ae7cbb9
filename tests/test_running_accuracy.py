"""The running accuracy row agrees exactly with the full-matrix reference."""

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
from oclbudget.metrics import _check_unit_interval, _stability


SRC = Path(__file__).resolve().parents[1] / "src"

unit = st.floats(min_value=0.0, max_value=1.0)
_long = random.Random(300)
LONG_STEPS = [(_long.random(), _long.random()) for _ in range(300)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=300))
@example(LONG_STEPS)
def test_running_row_equals_matrix_reference(steps):
    """steps: (factor, diagonal) per experience."""
    running = RunningAccuracy()
    matrix = AccuracyMatrix()
    for k, (factor, diagonal) in enumerate(steps, start=1):
        running.advance(factor, diagonal)
        # Row by row as the full matrix was built before the running row.
        previous = matrix.row(k - 1) if k > 1 else ()
        matrix.add_row(tuple(v * factor for v in previous) + (diagonal,))

        assert running.row == matrix.row(k)
        snap = running_snapshot(running, 1.0, 1.0)
        assert snap.plasticity == plasticity(matrix, k)
        assert snap.stability == stability(matrix, k)
    replayed = running.matrix()
    assert [replayed.row(k) for k in range(1, len(steps) + 1)] == [
        matrix.row(k) for k in range(1, len(steps) + 1)
    ]


EDGES = [0.0, 1.0, 5e-324]
edge_unit = st.one_of(st.sampled_from(EDGES), unit)
_edge = random.Random(301)


def _edge_or(value):
    return _edge.choice(EDGES) if _edge.random() < 0.1 else value


# Factors near 1 keep old entries alive across the whole 1000-step run.
EDGE_STEPS = [(_edge_or(_edge.uniform(0.99, 1.0)), _edge_or(_edge.random())) for _ in range(1000)]


def brute_force_stability(row, diagonal):
    # Independent evaluation with the clip written out, adding the terms
    # newest first (i = k-1 down to 1) from 0.0 with plain +.
    k = len(row)
    if k == 1:
        return 1.0
    total = 0.0
    for i in range(k - 2, -1, -1):
        total += max(0.0, diagonal[i] - row[i])
    return min(1.0, max(0.0, 1.0 - total / (k - 1)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(edge_unit, edge_unit), min_size=1, max_size=1000))
@example(EDGE_STEPS)
def test_stability_kernel_contract(steps):
    """No running entry exceeds its diagonal, and all three stabilities agree."""
    running = RunningAccuracy()
    matrix = AccuracyMatrix()
    for k, (factor, diagonal) in enumerate(steps, start=1):
        running.advance(factor, diagonal)
        matrix.add_row(running.row)
        assert all(v <= d for v, d in zip(running.row, running.diagonal))
        snap = running_snapshot(running, 1.0, 1.0)
        assert snap.stability == stability(matrix, k)
        assert snap.stability == brute_force_stability(running.row, running.diagonal)


# 0.0 and -0.0 compare equal but are different floats; 1 - 2**-53 is the
# largest factor below 1, so its chain decays as slowly as a chain can.
EXACT_EDGES = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]
exact_unit = st.one_of(st.sampled_from(EXACT_EDGES), unit)
# A run of equal (factor, diagonal) steps and its length. The first run keeps
# the chain form (if its values are nonzero); the first switch leaves it.
step_runs = st.lists(
    st.tuples(st.tuples(exact_unit, exact_unit), st.integers(1, 1000)), min_size=1, max_size=4
)


def _bits(values):
    return [float.hex(v) for v in values]


@settings(max_examples=20, deadline=None)
@given(step_runs)
@example([((0.999, 0.8), 1000)])
@example([((1.0 - 2.0**-53, 5e-324), 700), ((1.0 - 2.0**-53, 1.0), 300)])
@example([((0.9, 0.8), 1), ((0.9, -0.0), 5), ((0.9, 0.8), 5)])
@example([((0.5, 0.0), 3), ((0.5, -0.0), 3)])
def test_chain_form_equals_matrix_reference(runs):
    """Both forms of the running row, and the switch between them, give the
    floats of the full matrix replayed from the same steps, bit for bit."""
    steps = [step for step, length in runs for _ in range(length)][:1000]
    running = RunningAccuracy()
    rows, metrics = [], []
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
        rows.append(running.row)
        snap = running_snapshot(running, 1.0, 1.0)
        metrics.append((snap.plasticity, snap.stability))
    matrix = running.matrix()
    for k, (row, (p, s)) in enumerate(zip(rows, metrics), start=1):
        assert _bits(row) == _bits(matrix.row(k)), k
        assert _bits((p, s)) == _bits((plasticity(matrix, k), stability(matrix, k))), k


@settings(max_examples=20, deadline=None)
@given(step_runs)
@example([((0.999, 0.8), 1000)])
@example([((0.9, 0.8), 1), ((0.9, -0.0), 5), ((0.9, 0.8), 5)])
@example([((0.5, 0.0), 3), ((0.5, -0.0), 3)])
@example([((1.0, -0.0), 2), ((0.5, 0.0), 2)])
def test_running_sums_equal_a_newest_first_loop(runs):
    """Both running sums, in the chain form, the row form and across the
    switch, are the plain s += v loop over the row and over its clipped
    forgetting terms, newest first, bit for bit."""
    steps = [step for step, length in runs for _ in range(length)][:1000]
    running = RunningAccuracy()
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
        row = running.row
        total = 0.0
        for v in reversed(row):
            total += v
        expected = (total / len(row), brute_force_stability(row, running.diagonal))
        snap = running_snapshot(running, 1.0, 1.0)
        assert _bits((snap.plasticity, snap.stability)) == _bits(expected), len(row)


# A verbatim copy of RunningAccuracy as it was when the chain form kept the
# row, the diagonal and the factors as lists that grew by one entry a step;
# only the class name carries an Old prefix.
class OldRunningAccuracy:
    """The latest accuracy-matrix row, advanced one experience at a time.

    Row k is row k-1 with every entry multiplied by experience k's decay
    factor, plus the new diagonal accuracy. Each step checks the new
    diagonal and the factor to be finite and in [0, 1]; since products of
    such values stay in [0, 1], every entry of every row satisfies the same
    check AccuracyMatrix.add_row applies.

    No entry ever exceeds its diagonal, so every forgetting term a[i][i] -
    a[k][i] is already clipped at zero: under round-to-nearest,
    fl(v * f) <= v for every v >= 0 and f <= 1, so each multiply can only
    keep or lower an entry. row, diagonal and factors are read-only tuples
    built on each read from private lists, so no caller can edit an entry
    past its diagonal or change the factors a later matrix() replays.

    _row holds row k newest first, a[k][k], a[k][k-1], ..., a[k][1], in
    both forms, and _sums holds the newest-first sums of that row and of
    its forgetting terms, which advance keeps up to date. While every step
    so far has had the same nonzero factor f and diagonal d, row k is row
    k-1 with g(a[k-1][1]) appended at its old end, g(x) = fl(x * f): every
    older entry has already been multiplied by f exactly as often as the
    entry before it. So in this chain form _row is [d, g(d), g(g(d)), ...],
    and a step is one multiply, one append and two adds, since the entry it
    appends is also the last term of both sums. The first step that
    differs leaves the chain form, and from then on every step builds the
    new row and both sums in one pass. Both start values are nonzero, so
    the == test that keeps the chain going is bit-exact: it cannot mistake
    -0.0 for 0.0.
    """

    def __init__(self):
        self._diagonal: list[float] = []
        self._factors: list[float] = []
        self._row: list[float] = []  # newest first
        self._chained = False
        self._sums = (0.0, 0.0)  # (row, forgetting terms), newest first

    def __len__(self) -> int:
        return len(self._diagonal)

    @property
    def row(self) -> tuple[float, ...]:
        """The latest row, a[k][1] .. a[k][k]."""
        return tuple(reversed(self._row))

    @property
    def diagonal(self) -> tuple[float, ...]:
        """a[1][1] .. a[k][k], each experience's accuracy when it was trained."""
        return tuple(self._diagonal)

    @property
    def factors(self) -> tuple[float, ...]:
        """The decay factor of each experience, 1 .. k."""
        return tuple(self._factors)

    def advance(self, factor: float, diagonal: float) -> None:
        """Append experience k's row: row k-1 times factor, then diagonal."""
        factor, diagonal = float(factor), float(diagonal)
        diagonals = self._diagonal
        # A chained comparison is false for NaN and +-inf, so it is the whole
        # check; _check_unit_interval only words the error.
        if not 0.0 <= factor <= 1.0:
            _check_unit_interval(factor, "decay factor", len(diagonals) + 1)
        if not 0.0 <= diagonal <= 1.0:
            _check_unit_interval(diagonal, "accuracy", len(diagonals) + 1)
        row = self._row
        if self._chained:
            if factor == self._factors[0] and diagonal == row[0]:
                diagonals.append(diagonal)
                self._factors.append(factor)
                decayed = row[-1] * factor
                row.append(decayed)
                plasticity_sum, forgetting_sum = self._sums
                self._sums = (plasticity_sum + decayed, forgetting_sum + (diagonal - decayed))
                return
            self._chained = False
        elif not row and factor and diagonal:
            self._chained = True
        new_row = [diagonal]
        append = new_row.append
        plasticity_sum = 0.0 + diagonal  # a sum from 0.0, so -0.0 becomes 0.0
        forgetting_sum = 0.0
        for v, d in zip(row, reversed(diagonals)):
            v *= factor
            append(v)
            plasticity_sum += v
            forgetting_sum += d - v
        diagonals.append(diagonal)
        self._factors.append(factor)
        self._row = new_row
        self._sums = (plasticity_sum, forgetting_sum)

    def _metrics(self) -> tuple[float, float]:
        """(plasticity, stability) of the latest row."""
        plasticity_sum, forgetting_sum = self._sums
        k = len(self._row)
        return plasticity_sum / k, _stability(forgetting_sum, k)

    def matrix(self) -> AccuracyMatrix:
        """Replay the factors into the full lower-triangular matrix."""
        matrix = AccuracyMatrix()
        row: list[float] = []
        for factor, diagonal in zip(self._factors, self._diagonal):
            row = [v * factor for v in row]
            row.append(diagonal)
            matrix.add_row(row)
        return matrix



def _raw(values):
    """The bytes of the floats: equal exactly when every float is bit-identical."""
    return array("d", values).tobytes()


def _matrix_raw(matrix):
    return [_raw(matrix.row(k)) for k in range(1, len(matrix) + 1)]


@settings(max_examples=20, deadline=None)
@given(step_runs)
@example([((0.9, 0.8), 1), ((0.5, 0.8), 40)])
@example([((0.9, 0.8), 2), ((0.9, 0.7), 3), ((0.9, 0.8), 3)])
@example([((0.999, 0.8), 700), ((0.999, 0.5), 300)])
@example([((0.9, 0.8), 3), ((0.9, -0.0), 3), ((0.9, 0.0), 3)])
@example([((1.0 - 2.0**-53, 5e-324), 500), ((5e-324, 1.0), 5)])
@example([((0.5, -0.0), 3), ((0.5, 0.0), 3)])
@example([((-0.0, 0.5), 2), ((0.5, 0.5), 2)])
def test_replay_equals_the_list_keeping_running_accuracy(runs):
    """The chain form's replayed row, diagonal, factors and matrix, both
    metrics, and the errors of a bad step, are those of the list-keeping
    class, bit for bit: in the chain form, across a switch at k = 1, 2 or
    late, and in the row form. matrix() replays the factors and the
    diagonal, which are compared at every step, so it is compared in full
    at every step up to k = 40 and around every switch, and at the end,
    where each of its rows is also compared with the old class's row of
    that step."""
    steps = [step for step, length in runs for _ in range(length)][:1000]
    switches = {k for k in range(2, len(steps) + 1) if _raw(steps[k - 1]) != _raw(steps[k - 2])}
    checked = {k + d for k in switches for d in (-1, 0, 1)} | {len(steps)}
    new, old = RunningAccuracy(), OldRunningAccuracy()
    old_rows = []
    for k, (factor, diagonal) in enumerate(steps, start=1):
        new.advance(factor, diagonal)
        old.advance(factor, diagonal)
        old_rows.append(_raw(old.row))
        assert len(new) == len(old) == k
        for name in ("row", "diagonal", "factors"):
            view = getattr(new, name)
            assert type(view) is tuple and _raw(view) == _raw(getattr(old, name)), (name, k)
        snap = running_snapshot(new, 1.0, 1.0)
        assert _raw((snap.plasticity, snap.stability)) == _raw(old._metrics()), k
        if k <= 40 or k in checked:
            assert _matrix_raw(new.matrix()) == _matrix_raw(old.matrix()), k
    # The packed matrix holds, as array('d') bytes, every row the old class
    # reported from its own lists: -0.0 and 5e-324 survive the packing.
    assert _matrix_raw(new.matrix()) == old_rows
    # A bad step raises the same error and changes neither; the second
    # repeats the chain's factor, so it reaches the range check too.
    for bad in [(1.5, 0.5), (steps[-1][0], math.nan)]:
        with pytest.raises(ValueError) as new_error:
            new.advance(*bad)
        with pytest.raises(ValueError) as old_error:
            old.advance(*bad)
        assert str(new_error.value) == str(old_error.value)
    assert len(new) == len(steps) and _raw(new.row) == _raw(old.row)


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
    """Trains one experience per Knobs; returns each step's running row."""
    rows = []
    for step in steps:
        env.train_experience(step)
        rows.append(env.accuracy.row)
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
    rows = []
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
        rows.append(running.row)
    replayed, stored = running.matrix(), AccuracyMatrix(rows)
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
    assert in_order[-1] == _bits(running.row)
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
    assert len(running) == 1 and running.row == (0.8,)


@pytest.mark.parametrize(
    "steps",
    [
        [(0.9, 0.8)] * 3,  # chain form
        [(0.9, 0.8), (0.8, 0.8), (0.9, 0.8)],  # row form
    ],
    ids=["chain", "row"],
)
def test_callers_cannot_edit_the_running_accuracy(steps):
    running = RunningAccuracy()
    for factor, diagonal in steps:
        running.advance(factor, diagonal)
    before = running_snapshot(running, 1.0, 1.0)
    rows = [running.matrix().row(k) for k in range(1, len(steps) + 1)]
    for name in ("row", "diagonal", "factors"):
        view = getattr(running, name)
        assert type(view) is tuple and len(view) == len(steps)
        with pytest.raises(TypeError):
            view[0] = 0.1
        with pytest.raises(AttributeError):
            setattr(running, name, [0.1] * len(steps))
        copy = list(view)  # a copy the caller edits is the caller's own
        copy[0] = 0.1
    assert running.diagonal == tuple(d for _, d in steps)
    assert running.factors == tuple(f for f, _ in steps)
    assert running_snapshot(running, 1.0, 1.0) == before
    # The next step still extends the untouched history.
    factor, diagonal = steps[-1]
    running.advance(factor, diagonal)
    reference = AccuracyMatrix([*rows, [v * factor for v in rows[-1]] + [diagonal]])
    k = len(steps) + 1
    snap = running_snapshot(running, 1.0, 1.0)
    assert (snap.plasticity, snap.stability) == (plasticity(reference, k), stability(reference, k))


def test_running_snapshot_needs_a_trained_experience():
    with pytest.raises(IncompleteMatrixError):
        running_snapshot(RunningAccuracy(), 1.0, 1.0)


def _long_runs():
    """K=300 fixed-proxy and controller runs of every bundled scenario."""
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
        env = build_environment(sc)
        fixed = BaselinePolicy.from_scenario(PolicyKind.FIXED, sc)
        yield sc, env, run_baseline(fixed, sc, env)
        env = build_environment(sc)
        try:
            trace = run_control_loop(sc, env)
        except InfeasibleBudgetError as exc:
            trace = exc.partial_trace
        yield sc, env, trace


def test_long_run_snapshots_equal_matrix_reference():
    checked = 0
    for sc, env, trace in _long_runs():
        matrix = env.accuracy_matrix
        for record in trace.records:
            if record.snapshot is None:
                continue
            k = record.experience
            assert record.snapshot.plasticity == plasticity(matrix, k), (sc.name, k)
            assert record.snapshot.stability == stability(matrix, k), (sc.name, k)
            checked += 1
    assert checked >= 13 * 300  # every fixed-proxy run completes


def test_long_horizon_final_metrics_equal_matrix_reference():
    """The long-horizon benchmark's output check: the fixed proxy on server-er
    at K=1000 keeps the chain form throughout (no row list), and the
    controller at K=200 leaves it at its first knob change."""
    base = load_bundled_scenario("server-er")
    fixed = dataclasses.replace(base, num_experiences=1000)
    controlled = dataclasses.replace(base, num_experiences=200)
    policy = BaselinePolicy.from_scenario(PolicyKind.FIXED, fixed)
    runs = []
    env = build_environment(fixed)
    runs.append((env, run_baseline(policy, fixed, env)))
    assert env.accuracy._row is None
    env = build_environment(controlled)
    runs.append((env, run_control_loop(controlled, env)))
    assert env.accuracy._row is not None
    for env, trace in runs:
        k = len(env.accuracy)
        matrix = env.accuracy_matrix
        assert trace.completed and len(trace.records) == k
        assert trace.final_plasticity() == plasticity(matrix, k)
        assert trace.final_stability() == stability(matrix, k)


# Runs in a fresh interpreter. metrics needs no PyYAML, which other
# interpreters may lack, so yaml is stubbed before the package is imported.
# Each sequence is runs of equal steps with switches, so both forms of the
# running row and the switch between them are checked.
EQUIVALENCE_SCRIPT = """
import random, sys, types
sys.modules["yaml"] = types.ModuleType("yaml")
sys.path.insert(0, sys.argv[1])
from oclbudget.metrics import RunningAccuracy, plasticity, running_snapshot, stability

rng = random.Random(14)
edges = [0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0**-53]

def value():
    return rng.choice(edges) if rng.random() < 0.1 else rng.random()

steps_checked = 0
for sequence in range(16):
    steps = []
    while len(steps) < 300:
        steps += [(value(), value())] * rng.choice([1, 1, 7, 50, 300])
    running = RunningAccuracy()
    seen = []
    for factor, diagonal in steps[:300]:
        running.advance(factor, diagonal)
        snap = running_snapshot(running, 1.0, 1.0)
        seen.append((running.row, snap.plasticity, snap.stability))
    matrix = running.matrix()
    for k, (row, p, s) in enumerate(seen, start=1):
        got = (*row, p, s)
        expected = (*matrix.row(k), plasticity(matrix, k), stability(matrix, k))
        if list(map(float.hex, got)) != list(map(float.hex, expected)):
            sys.exit(f"sequence {sequence}, k={k}: {got} != {expected}")
        steps_checked += 1
print(sys.version_info[:2], steps_checked)
"""


def test_running_metrics_equal_reference_on_other_interpreters(other_interpreters):
    """The README's promise that on every version the running metrics equal
    the full-matrix reference, for both forms of the running row."""
    if not other_interpreters:
        pytest.skip("no other CPython 3.10-3.13 found")
    for exe in other_interpreters:
        done = subprocess.run(
            [exe, "-c", EQUIVALENCE_SCRIPT, str(SRC)], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, (exe, done.stderr)
        assert done.stdout.split()[-1] == str(16 * 300), (exe, done.stdout)
