"""The running accuracy row agrees exactly with the full-matrix reference."""

import dataclasses
import random

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
        matrix.add_row(running.advance(factor, diagonal))
        assert all(v <= d for v, d in zip(running.row, running.diagonal))
        snap = running_snapshot(running, 1.0, 1.0)
        assert snap.stability == stability(matrix, k)
        assert snap.stability == brute_force_stability(running.row, running.diagonal)


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
