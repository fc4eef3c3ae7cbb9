"""Accuracy bookkeeping and the plasticity / stability metrics.

The accuracy matrix is lower-triangular: entry (k, i) with i <= k holds the
test accuracy on experience i measured after training experience k. Both
indices are 1-based to match the usual experience numbering.

Plasticity after experience K is the mean of row K: the current model's
accuracy over everything seen so far. Stability is one minus the mean
forgetting over prior experiences, where forgetting on experience i is
max(0, a[i][i] - a[K][i]) -- the accuracy lost since experience i was
trained, clipped at zero. Stability is 1 by definition at K = 1.

Every sum adds its terms newest first, i = K, K-1, ..., 1, starting from
0.0 with plain float +. That order is part of the definition: addition of
floats is not associative, and the same order with the same operator gives
the same bits on every CPython, where sum() of floats is compensated from
3.12 on. plasticity and stability, the reference implementations over an
AccuracyMatrix, add in an explicit loop.

A run never needs the whole matrix to score itself. Every off-diagonal entry
of a row decays by the same per-experience factor, so row k is row k-1
scaled by that factor with the new diagonal accuracy appended.
RunningAccuracy keeps only the latest row, newest entry first, with the
diagonal and the factors: O(K) floats for a K-experience run instead of the
K(K+1)/2 of the matrix, which it rebuilds on demand with the same
multiplies in the same order. Next to the row it keeps the two newest-first
sums, of the row and of its forgetting terms, and updates them in advance,
the environment's training step. running_snapshot then only divides and
clamps, through the same final step as the reference, so both give
identical floats.

The running row has two forms. While every step has had the same nonzero
factor and diagonal, as in every fixed-knob run of a noise-free profile,
row k is row k-1 with one older entry appended at its old end (see
RunningAccuracy). An experience then appends one entry and adds it and its
forgetting to the two sums: O(1) work, where rescaling the row is O(k). The
first step with a different factor or diagonal leaves that form; from then
on every step rebuilds the row in one pass that rescales each entry, appends
it and adds it and its forgetting to fresh sums, as a controller run does
after its first knob change. Both forms add the same floats in the same
order, so the metrics do not depend on the form.

No running entry exceeds its diagonal (see RunningAccuracy), so each running
forgetting term is already clipped; the reference clips each entry of an
arbitrary matrix to its diagonal first, which turns every negative
difference into an exact 0.0 and leaves the others unchanged. Where the two
differ, it is only in the sign of a zero term, and a sum that starts from
0.0 is unchanged by a zero of either sign. Neither adds the newest term,
a[K][K] - a[K][K], which is always 0.0.

A MetricSnapshot is a validated immutable tuple (record.Record): every
construction checks its four values, and it equals a plain tuple of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _newest_first_sum(values: Sequence[float]) -> float:
    """values[-1] + values[-2] + ... + values[0], from 0.0, with plain +."""
    total = 0.0
    for v in reversed(values):
        total += v
    return total


def _stability(forgetting_sum: float, k: int) -> float:
    """One minus the mean forgetting over the k - 1 earlier experiences,
    clamped to [0, 1]; exactly 1 when k = 1."""
    if k == 1:
        return 1.0
    value = 1.0 - forgetting_sum / (k - 1)
    return min(1.0, max(0.0, value))


def plasticity(matrix: AccuracyMatrix, k: int) -> float:
    """Mean accuracy of the current model over all k experiences seen so far."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _newest_first_sum(matrix.row(k)) / k


def stability(matrix: AccuracyMatrix, k: int) -> float:
    """One minus mean forgetting over experiences 1..k-1; exactly 1 when k = 1.

    Forgetting on experience i is max(0, a[i][i] - a[k][i]): row k is
    clipped to the diagonal before the differences are added. The result
    is clamped to [0, 1] so it always satisfies the snapshot invariant.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    current = matrix.row(k)
    diagonal = [matrix.get(i, i) for i in range(1, k)]
    forgetting = [d - min(d, a) for d, a in zip(diagonal, current)]
    return _stability(_newest_first_sum(forgetting), k)


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
    if not len(accuracy):
        raise IncompleteMatrixError("no experience has been trained yet")
    return MetricSnapshot(*accuracy._metrics(), latency_s, memory_peak_mb)
