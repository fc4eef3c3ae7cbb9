"""Accuracy bookkeeping and the plasticity / stability metrics.

The accuracy matrix is lower-triangular: entry (k, i) with i <= k holds the
test accuracy on experience i measured after training experience k. Both
indices are 1-based to match the usual experience numbering.

Plasticity after experience K is the mean of row K: the current model's
accuracy over everything seen so far. Stability is one minus the mean
forgetting over prior experiences, where forgetting on experience i is
max(0, a[i][i] - a[K][i]) -- the accuracy lost since experience i was
trained, clipped at zero. Stability is 1 by definition at K = 1.

A run never needs the whole matrix to score itself. Every off-diagonal entry
of a row decays by the same per-experience factor, so row k is row k-1
scaled by that factor with the new diagonal accuracy appended.
RunningAccuracy keeps only the latest row, the diagonal and the factors:
O(K) floats for a K-experience run instead of the K(K+1)/2 of the matrix,
which it rebuilds on demand with the same multiplies in the same order.
plasticity, stability and snapshot are the reference implementations over
an AccuracyMatrix; running_snapshot scores a RunningAccuracy through the
same summation kernels, so both give identical floats.

The running row has two forms. While every step has had the same nonzero
factor and diagonal, as in every fixed-knob run of a noise-free profile,
RunningAccuracy keeps a chain instead of the row: the diagonal decayed 0, 1,
2, ... times, and the forgetting of each. An experience then appends one
entry to each, O(1) work where rescaling the row is O(k), and row k is the
chain read backwards (see RunningAccuracy). The first step with a different
factor or diagonal turns the chain into the row once; from then on every
step rescales the row, as a controller run does after its first knob
change. Both forms hand the kernels the same floats in the same order, so
the metrics do not depend on the form.

The stability kernel sums a[i][i] - a[K][i] in one sum() with no test per
entry, so it requires that no entry exceeds its diagonal. A running row
meets that by construction (see RunningAccuracy); the reference first clips
each entry of an arbitrary matrix to its diagonal, which turns every
negative difference into an exact 0.0 and leaves the others unchanged. All
paths then fold the same values in the same order. On CPython 3.10-3.11
sum() of floats adds left to right, the same floats as a loop that skips
non-positive differences; from 3.12 sum() is compensated, and the paths
still agree with each other.

A MetricSnapshot is a validated immutable tuple (record.Record): every
construction checks its four values, and it equals a plain tuple of them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import IncompleteMatrixError
from .record import Record


class AccuracyMatrix:
    """Lower-triangular record of per-experience test accuracies.

    Rows are appended one experience at a time; row k must contain exactly
    k accuracies, each in [0, 1]. The matrix is complete by construction:
    asking for a row beyond what has been trained raises
    IncompleteMatrixError.
    """

    def __init__(self, rows: Iterable[Sequence[float]] = ()):
        self._rows: list[tuple[float, ...]] = []
        for row in rows:
            self.add_row(row)

    def add_row(self, row: Sequence[float]) -> None:
        k = len(self._rows) + 1
        values = tuple(float(v) for v in row)
        if len(values) != k:
            raise ValueError(
                f"row {k} must contain exactly {k} accuracies, got {len(values)}"
            )
        for v in values:
            _check_unit_interval(v, "accuracy", k)
        self._rows.append(values)

    @property
    def num_experiences_trained(self) -> int:
        return len(self._rows)

    def row(self, k: int) -> tuple[float, ...]:
        if k < 1:
            raise ValueError(f"experience index must be >= 1, got {k}")
        if k > len(self._rows):
            raise IncompleteMatrixError(
                f"matrix has {len(self._rows)} rows, row {k} was requested"
            )
        return self._rows[k - 1]

    def get(self, k: int, i: int) -> float:
        if not 1 <= i <= k:
            raise ValueError(f"entry ({k}, {i}) is outside the lower triangle")
        return self.row(k)[i - 1]

    def entries(self) -> dict[tuple[int, int], float]:
        """Dict view {(k, i): accuracy}, mainly for serialization and tests."""
        return {
            (k, i): v
            for k, row in enumerate(self._rows, start=1)
            for i, v in enumerate(row, start=1)
        }

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"AccuracyMatrix(num_experiences_trained={len(self._rows)})"


def _check_unit_interval(value: float, what: str, k: int) -> None:
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value!r} outside [0, 1] in row {k}")


class RunningAccuracy:
    """The latest accuracy-matrix row, advanced one experience at a time.

    Row k is row k-1 with every entry multiplied by experience k's decay
    factor, plus the new diagonal accuracy. Each step checks the new
    diagonal and the factor to be finite and in [0, 1]; since products of
    such values stay in [0, 1], every entry of every row satisfies the same
    check AccuracyMatrix.add_row applies.

    No entry ever exceeds its diagonal, which is the contract the stability
    kernel relies on: under round-to-nearest, fl(v * f) <= v for every
    v >= 0 and f <= 1, so each multiply can only keep or lower an entry.
    row is read-only, so no caller can edit an entry past its diagonal.

    The row has two forms. While every step so far has had the same
    nonzero factor f and diagonal d, row k is row k-1 with g(a[k-1][1])
    put in front, g(x) = fl(x * f): every older entry has already been
    multiplied by f exactly as often as the entry before it. So the chain
    form keeps _chain = [d, g(d), g(g(d)), ...] and _gaps, the forgetting
    d - _chain[j] of each, and a step is one multiply and one subtraction.
    Row k is _chain reversed, and the forgetting terms of row k are _gaps
    reversed, so the metric sums see the same floats in the same order as
    on the row and give the same results, compensated sum() included. The
    first step that differs turns the chain into the row once, and every
    later step rescales the row. Both start values are nonzero, so the ==
    test that keeps the chain going is bit-exact: it cannot mistake -0.0
    for 0.0.
    """

    def __init__(self):
        self.diagonal: list[float] = []
        self.factors: list[float] = []
        self._chain: Optional[list[float]] = None
        self._gaps: list[float] = []
        self._row: tuple[float, ...] = ()

    def __len__(self) -> int:
        return len(self.diagonal)

    @property
    def row(self) -> tuple[float, ...]:
        """The latest row, a[k][1] .. a[k][k]."""
        if self._chain is not None:
            return tuple(reversed(self._chain))
        return self._row

    def advance(self, factor: float, diagonal: float) -> None:
        """Append experience k's row: row k-1 times factor, then diagonal."""
        factor, diagonal = float(factor), float(diagonal)
        # A chained comparison is false for NaN and +-inf, so it is the whole
        # check; _check_unit_interval only words the error.
        if not 0.0 <= factor <= 1.0:
            _check_unit_interval(factor, "decay factor", len(self.diagonal) + 1)
        if not 0.0 <= diagonal <= 1.0:
            _check_unit_interval(diagonal, "accuracy", len(self.diagonal) + 1)
        self.diagonal.append(diagonal)
        self.factors.append(factor)
        chain = self._chain
        if chain is not None:
            if factor == self.factors[0] and diagonal == chain[0]:
                decayed = chain[-1] * factor
                chain.append(decayed)
                self._gaps.append(diagonal - decayed)
                return
            self._row = tuple(reversed(chain))
            self._chain = None
        elif len(self.diagonal) == 1 and factor and diagonal:
            self._chain = [diagonal]
            self._gaps = [0.0]
            return
        row = [v * factor for v in self._row]
        row.append(diagonal)
        self._row = tuple(row)

    def _metrics(self) -> tuple[float, float]:
        """(plasticity, stability) of the latest row."""
        chain = self._chain
        if chain is None:
            row = self._row
            k = len(row)
            return _mean(row, k), _stability(map(operator.sub, self.diagonal, row), k)
        k = len(chain)
        return _mean(reversed(chain), k), _stability(reversed(self._gaps), k)

    def matrix(self) -> AccuracyMatrix:
        """Replay the factors into the full lower-triangular matrix."""
        matrix = AccuracyMatrix()
        row: list[float] = []
        for factor, diagonal in zip(self.factors, self.diagonal):
            row = [v * factor for v in row]
            row.append(diagonal)
            matrix.add_row(row)
        return matrix


@dataclass(frozen=True)
class Thresholds:
    """Target levels the health score measures deviations against.

    latency_s is the per-experience training latency target; memory_mb is
    the maximum allowed memory (must be positive).
    """

    plasticity: float
    stability: float
    latency_s: float
    memory_mb: float

    def __post_init__(self):
        if not self.memory_mb > 0:
            raise ValueError(f"memory threshold must be > 0, got {self.memory_mb}")


class MetricSnapshot(Record):
    """State of the four controlled metrics after one experience.

    Only measured values: the thresholds a snapshot is scored against belong
    to the run and are fixed once in its scorer (urge.urge_scorer). A
    validated tuple (record.Record): every construction checks the values,
    and a snapshot equals a plain tuple of the same four values.
    """

    __slots__ = ()
    plasticity: float
    stability: float
    latency_s: float
    memory_peak_mb: float

    def __new__(cls, plasticity, stability, latency_s, memory_peak_mb):
        if not 0.0 <= plasticity <= 1.0:
            raise ValueError(f"plasticity {plasticity} outside [0, 1]")
        if not 0.0 <= stability <= 1.0:
            raise ValueError(f"stability {stability} outside [0, 1]")
        # NaN fails every comparison, so these reject NaN as well as inf.
        if not 0.0 <= latency_s < math.inf:
            raise ValueError(f"latency must be finite and >= 0, got {latency_s}")
        if not 0.0 <= memory_peak_mb < math.inf:
            raise ValueError(f"memory peak must be finite and >= 0, got {memory_peak_mb}")
        return tuple.__new__(cls, (plasticity, stability, latency_s, memory_peak_mb))


def _mean(values: Iterable[float], k: int) -> float:
    return sum(values) / k


def _stability(forgetting: Iterable[float], k: int) -> float:
    """One minus the mean of a[i][i] - a[k][i] over i = 1, 2, ... in order.

    Contract: no entry of row k exceeds its diagonal, so every term is
    already the clipped forgetting max(0, ...) and the sum needs no test per
    entry. The terms may stop at i = k-1 or include i = k: that last pair is
    equal and adds an exact 0.0, so the sum is the same either way.
    """
    if k == 1:
        return 1.0
    value = 1.0 - sum(forgetting) / (k - 1)
    return min(1.0, max(0.0, value))


def plasticity(matrix: AccuracyMatrix, k: int) -> float:
    """Mean accuracy of the current model over all k experiences seen so far."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _mean(matrix.row(k), k)


def stability(matrix: AccuracyMatrix, k: int) -> float:
    """One minus mean forgetting over experiences 1..k-1; exactly 1 when k = 1.

    Forgetting on experience i is max(0, a[i][i] - a[k][i]): row k is
    clipped to the diagonal before the kernel sums the differences. The
    result is clamped to [0, 1] so it always satisfies the snapshot invariant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    current = matrix.row(k)
    diagonal = [matrix.get(i, i) for i in range(1, k)]
    return _stability(map(operator.sub, diagonal, map(min, diagonal, current)), k)


def snapshot(
    matrix: AccuracyMatrix,
    k: int,
    latency_s: float,
    memory_peak_mb: float,
) -> MetricSnapshot:
    """Bundle plasticity/stability with the observed latency and memory peak."""
    return MetricSnapshot(plasticity(matrix, k), stability(matrix, k), latency_s, memory_peak_mb)


def running_snapshot(
    accuracy: RunningAccuracy,
    latency_s: float,
    memory_peak_mb: float,
) -> MetricSnapshot:
    """snapshot() of the latest experience, scored from the running accuracy."""
    if not accuracy.diagonal:
        raise IncompleteMatrixError("no experience has been trained yet")
    return MetricSnapshot(*accuracy._metrics(), latency_s, memory_peak_mb)
