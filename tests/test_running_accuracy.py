"""The running accuracy row agrees exactly with the full-matrix reference."""

import dataclasses
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert running.matrix().entries() == matrix.entries()


EDGES = [0.0, 1.0, 5e-324]
edge_unit = st.one_of(st.sampled_from(EDGES), unit)
_edge = random.Random(301)


def _edge_or(value):
    return _edge.choice(EDGES) if _edge.random() < 0.1 else value


# Factors near 1 keep old entries alive across the whole 1000-step run.
EDGE_STEPS = [(_edge_or(_edge.uniform(0.99, 1.0)), _edge_or(_edge.random())) for _ in range(1000)]


def brute_force_stability(row, diagonal):
    # Independent evaluation with the clip written out; sum() so it folds the
    # same values in the same order as the kernel on every CPython.
    k = len(row)
    if k == 1:
        return 1.0
    total = sum(max(0.0, diagonal[i] - row[i]) for i in range(k - 1))
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
    at K=1000 keeps the chain form throughout, and the controller at K=200
    leaves it at its first knob change."""
    base = load_bundled_scenario("server-er")
    fixed = dataclasses.replace(base, num_experiences=1000)
    controlled = dataclasses.replace(base, num_experiences=200)
    policy = BaselinePolicy.from_scenario(PolicyKind.FIXED, fixed)
    runs = []
    env = build_environment(fixed)
    runs.append((env, run_baseline(policy, fixed, env)))
    assert env.accuracy._chain is not None
    env = build_environment(controlled)
    runs.append((env, run_control_loop(controlled, env)))
    assert env.accuracy._chain is None
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


def _other_interpreters():
    """One working CPython 3.10-3.13 per minor version other than this one,
    from PATH or a pyenv installation."""
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    found = {}
    for minor in range(10, 14):
        if minor == sys.version_info.minor:
            continue
        candidates = [shutil.which(f"python3.{minor}")]
        candidates += sorted(pyenv.glob(f"versions/3.{minor}.*/bin/python3.{minor}"))
        for exe in filter(None, candidates):
            probe = subprocess.run(
                [str(exe), "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60,
            )
            if probe.returncode == 0 and probe.stdout.strip() == f"(3, {minor})":
                found[minor] = str(exe)
                break
    return [found[minor] for minor in sorted(found)]


def test_running_metrics_equal_reference_on_other_interpreters():
    """The README's promise that on every version the running metrics equal
    the full-matrix reference, for both forms of the running row."""
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython 3.10-3.13 found")
    for exe in interpreters:
        done = subprocess.run(
            [exe, "-c", EQUIVALENCE_SCRIPT, str(SRC)], capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, (exe, done.stderr)
        assert done.stdout.split()[-1] == str(16 * 300), (exe, done.stdout)
