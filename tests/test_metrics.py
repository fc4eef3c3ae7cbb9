"""Metrics: accuracy matrix bookkeeping, plasticity, stability."""

import numpy as np
import pytest

from oclbudget import (
    AccuracyMatrix,
    IncompleteMatrixError,
    MetricSnapshot,
    Thresholds,
    plasticity,
    snapshot,
    stability,
)


def brute_force_plasticity(rows, k):
    # Independent evaluation: mean of row k, accumulated newest first.
    total = 0.0
    for i in range(k, 0, -1):
        total += rows[k - 1][i - 1]
    return total / k


def brute_force_stability(rows, k):
    # Independent evaluation: 1 - mean over i < k of max(0, a[i][i] - a[k][i]),
    # accumulated newest first.
    if k == 1:
        return 1.0
    total = 0.0
    for i in range(k - 1, 0, -1):
        total += max(0.0, rows[i - 1][i - 1] - rows[k - 1][i - 1])
    value = 1.0 - total / (k - 1)
    return min(1.0, max(0.0, value))


def random_matrix(rng, k):
    return [list(rng.uniform(0.0, 1.0, size=i)) for i in range(1, k + 1)]


class TestAccuracyMatrix:
    def test_row_lengths_enforced(self):
        m = AccuracyMatrix()
        m.add_row([0.5])
        with pytest.raises(ValueError):
            m.add_row([0.1, 0.2, 0.3])

    def test_values_outside_unit_interval_rejected(self):
        # Each error names the first bad entry of the row and the row, even
        # where NaN comes after a good entry, which min and max pass over.
        nan, inf = float("nan"), float("inf")
        cases = [
            ([[1.5]], "accuracy 1.5 outside [0, 1] in row 1"),
            ([[-0.1]], "accuracy -0.1 outside [0, 1] in row 1"),
            ([[nan]], "accuracy nan outside [0, 1] in row 1"),
            ([[0.5], [nan, 0.5]], "accuracy nan outside [0, 1] in row 2"),
            ([[0.5], [0.5, nan]], "accuracy nan outside [0, 1] in row 2"),
            ([[0.5], [0.5, 0.4], [0.3, nan, 1.5]], "accuracy nan outside [0, 1] in row 3"),
            ([[0.5], [0.5, 0.4], [0.3, 1.5, nan]], "accuracy 1.5 outside [0, 1] in row 3"),
            ([[inf]], "accuracy inf outside [0, 1] in row 1"),
            ([[0.5], [0.2, -inf]], "accuracy -inf outside [0, 1] in row 2"),
            ([[1.0000000000000002]], "accuracy 1.0000000000000002 outside [0, 1] in row 1"),
            ([[0.5], [-5e-324, 0.5]], "accuracy -5e-324 outside [0, 1] in row 2"),
        ]
        for rows, message in cases:
            with pytest.raises(ValueError) as error:
                AccuracyMatrix(rows)
            assert str(error.value) == message, rows

    def test_lower_triangular_completeness(self):
        m = AccuracyMatrix([[0.9], [0.4, 0.8]])
        assert len(m) == 2
        assert (m.row(1), m.row(2)) == ((0.9,), (0.4, 0.8))
        with pytest.raises(ValueError):
            m.get(1, 2)  # upper triangle

    def test_missing_row_raises_incomplete(self):
        m = AccuracyMatrix([[0.9]])
        with pytest.raises(IncompleteMatrixError):
            m.row(2)


class TestPlasticity:
    def test_single_experience_mean(self):
        assert plasticity(AccuracyMatrix([[0.9]]), 1) == 0.9

    def test_two_experience_mean(self):
        m = AccuracyMatrix([[0.9], [0.4, 0.8]])
        assert plasticity(m, 2) == (0.4 + 0.8) / 2  # direct arithmetic oracle

    def test_all_ones_matrix(self):
        m = AccuracyMatrix([[1.0], [1.0, 1.0], [1.0, 1.0, 1.0]])
        assert plasticity(m, 3) == 1.0

    def test_constant_matrix_equals_constant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            c = float(rng.uniform(0, 1))
            k = int(rng.integers(1, 8))
            m = AccuracyMatrix([[c] * i for i in range(1, k + 1)])
            assert plasticity(m, k) == pytest.approx(c, abs=1e-15)

    def test_missing_entries_raise(self):
        m = AccuracyMatrix([[0.9]])
        with pytest.raises(IncompleteMatrixError):
            plasticity(m, 2)
        with pytest.raises(ValueError):
            plasticity(m, 0)


class TestStability:
    def test_first_experience_is_one_always(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = AccuracyMatrix([[float(rng.uniform(0, 1))]])
            assert stability(m, 1) == 1.0

    def test_no_forgetting_means_one(self):
        m = AccuracyMatrix([[0.9], [0.9, 0.8], [0.9, 0.8, 0.7]])
        assert stability(m, 3) == 1.0

    def test_two_experience_forgetting(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.8]])
        assert stability(m, 2) == pytest.approx(0.6, abs=1e-15)

    def test_improvement_never_counts_negative(self):
        # Later accuracy above the diagonal clips to zero forgetting.
        m = AccuracyMatrix([[0.5], [0.9, 0.8]])
        assert stability(m, 2) == 1.0
        # Below the clamp: a[3][1] = 0.8 above a[1][1] = 0.5 forgets nothing,
        # so only experience 2 (0.7 -> 0.4) counts.
        m = AccuracyMatrix([[0.5], [0.9, 0.7], [0.8, 0.4, 0.6]])
        assert stability(m, 3) == 1.0 - (0.7 - 0.4) / 2

    def test_incomplete_matrix_raises(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.8]])
        with pytest.raises(IncompleteMatrixError):
            stability(m, 3)


def test_brute_force_equivalence_random_matrices():
    # Both metrics must match an independently coded evaluation exactly.
    rng = np.random.default_rng(12345)
    for _ in range(1000):
        k = int(rng.integers(1, 10))
        rows = random_matrix(rng, k)
        m = AccuracyMatrix(rows)
        assert plasticity(m, k) == brute_force_plasticity(rows, k)
        assert stability(m, k) == brute_force_stability(rows, k)


def test_metrics_are_pure_and_deterministic():
    rows = [[0.3], [0.2, 0.9], [0.1, 0.7, 0.6]]
    m = AccuracyMatrix(rows)
    first = (plasticity(m, 3), stability(m, 3))
    for _ in range(5):
        assert (plasticity(m, 3), stability(m, 3)) == first


class TestSnapshot:
    def test_perfect_matrix_snapshot(self):
        m = AccuracyMatrix([[1.0]])
        snap = snapshot(m, 1, 10.0, 4000.0)
        assert snap.plasticity == 1.0
        assert snap.stability == 1.0

    def test_composes_metric_values(self):
        m = AccuracyMatrix([[0.9], [0.5, 0.7]])
        snap = snapshot(m, 2, 120.0, 4200.0)
        assert snap.plasticity == pytest.approx(0.6, abs=1e-15)
        assert snap.stability == pytest.approx(0.6, abs=1e-15)
        assert snap.latency_s == 120.0
        assert snap.memory_peak_mb == 4200.0

    def test_negative_memory_rejected(self):
        m = AccuracyMatrix([[1.0]])
        with pytest.raises(ValueError):
            snapshot(m, 1, 10.0, -5.0)

    def test_propagates_metric_errors(self):
        m = AccuracyMatrix([[1.0]])
        with pytest.raises(IncompleteMatrixError):
            snapshot(m, 2, 10.0, 10.0)

    def test_threshold_requires_positive_memory(self):
        with pytest.raises(ValueError):
            Thresholds(plasticity=0.8, stability=0.9, latency_s=1.0, memory_mb=0.0)

    def test_snapshot_bounds_checked(self):
        with pytest.raises(ValueError):
            MetricSnapshot(1.2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            MetricSnapshot(0.5, -0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            MetricSnapshot(0.5, 0.5, -1.0, 1.0)
