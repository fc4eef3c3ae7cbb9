"""Accuracy bookkeeping and the plasticity / stability metrics.

The accuracy matrix is lower-triangular: entry (k, i) with i <= k holds the
test accuracy on experience i measured after training experience k. Both
indices are 1-based to match the usual experience numbering. An
AccuracyMatrix holds an arbitrary matrix, checking every entry it is given,
and keeps each row packed as an array('d'): about 8.5 bytes per entry, 4
MiB for the 500,500 entries of K = 1000. A run's own matrix is never built:
RunningAccuracy.matrix() returns a ReplayedMatrix, which holds O(K) floats
and replays a row when it is read.

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
RunningAccuracy keeps only what fixes the latest row, not the K(K+1)/2
entries of the matrix. Its matrix() is a ReplayedMatrix: a snapshot of the
factors and diagonals, O(K) floats, which replays any row on demand with the
same multiplies in the same order, so it reads the floats a stored matrix
would hold. Next to the row it keeps k and the two newest-first sums, of the
row and of its forgetting terms, and updates them in advance, the
environment's training step. running_snapshot then only divides and
clamps, through the same final step as the reference, so both give
identical floats.

The running row has two forms. While every step has had the same nonzero
factor and diagonal, as in every fixed-knob run of a noise-free profile, the
row is a chain: d, d*f, (d*f)*f, ..., newest first, so the factor, the
diagonal, k and the oldest entry fix it, and RunningAccuracy holds only
those and the two sums (see RunningAccuracy). An experience then multiplies
the oldest entry once and adds it and its forgetting to the two sums: O(1)
work and O(1) memory, where rescaling the row is O(k) of each. The first
step with a different factor or diagonal leaves that form, replaying the
chain into a list; from then on every step rescales the row with one list
comprehension, adds each entry and its forgetting to fresh sums in one loop
and puts the new diagonal in front, as a controller run does after its first
knob change. Both forms add the same floats in the same order, so the
metrics do not depend on the form.

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
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MAX_FLOAT, IncompleteMatrixError, check_floats, check_ranges, ranges
from .record import Record


class AccuracyMatrix:
    """Lower-triangular record of per-experience test accuracies.

    Rows are appended one experience at a time; row k must contain exactly
    k accuracies, each in [0, 1]. The matrix is complete by construction:
    asking for a row beyond what has been trained raises
    IncompleteMatrixError.

    Each row is kept packed, as an array('d') of the floats add_row was
    given, bit for bit (-0.0 and subnormals included): 8 bytes per entry
    plus a small per-row header, where a tuple of floats costs an 8-byte
    slot and a 24-byte float object per entry. row(k) unpacks a tuple on
    each call; get(k, i) reads one entry without unpacking the row.
    """

    def __init__(self, rows: Iterable[Sequence[float]] = ()):
        self._rows: list[array] = []
        for row in rows:
            self.add_row(row)

    def add_row(self, row: Sequence[float]) -> None:
        k = len(self._rows) + 1
        values = array("d", map(float, row))
        if len(values) != k:
            raise ValueError(
                f"row {k} must contain exactly {k} accuracies, got {len(values)}"
            )
        # min and max skip a NaN after the first entry, but the sum carries
        # it; so the three C-level passes are the whole check, and the loop
        # only words the error for the first bad entry.
        if not (0.0 <= min(values) and max(values) <= 1.0 and math.isfinite(sum(values))):
            for v in values:
                _check_unit_interval(v, "accuracy", k)
        self._rows.append(values)

    def _packed_row(self, k: int) -> array:
        _check_row_index(k, len(self._rows))
        return self._rows[k - 1]

    def row(self, k: int) -> tuple[float, ...]:
        return tuple(self._packed_row(k))

    def get(self, k: int, i: int) -> float:
        _check_entry_index(k, i)
        return self._packed_row(k)[i - 1]

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"<AccuracyMatrix of {len(self._rows)} rows>"


def _check_unit_interval(value: float, what: str, k: int) -> None:
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{what} {value!r} outside [0, 1] in row {k}")


def _check_row_index(k: int, rows: int) -> None:
    if k < 1:
        raise ValueError(f"experience index must be >= 1, got {k}")
    if k > rows:
        raise IncompleteMatrixError(f"matrix has {rows} rows, row {k} was requested")


def _check_entry_index(k: int, i: int) -> None:
    if not 1 <= i <= k:
        raise ValueError(f"entry ({k}, {i}) is outside the lower triangle")


class ReplayedMatrix:
    """A read-only snapshot of a run's accuracy matrix, replayed on demand.

    RunningAccuracy.matrix() returns one. It reads like an AccuracyMatrix
    (row(k), get(k, i), len, with the same errors) but holds only what
    fixes every entry: the factors and diagonals as tuples, O(K) floats, or
    in the chain form only f, d and k. row(k) replays row k with the
    multiplies RunningAccuracy made, in the same order, so every float is
    the one a stored matrix would hold, and get(k, k) is the stored
    diagonal. Every entry lies in [0, 1] (see RunningAccuracy), so no row
    is checked again as add_row would.

    The view keeps one replayed row, newest first: row(k) and get(k, i)
    read its first k entries. In the chain form it is the chain itself,
    d, g(d), g(g(d)), ..., which serves every row up to its length and
    grows by one multiply an entry, so row(k) is O(k) work. In the row
    form it is one row, row K to begin with (a copy of the running row):
    a later row replays forward from it and an earlier one from row 1, so
    reading rows 1..K in order is O(K^2) work in all and get along one
    row is O(1) after its first call.
    """

    __slots__ = ("_k", "_chain", "_factors", "_diagonals", "_cached_k", "_cached")

    def __init__(self, k, chain, factors, diagonals, cached_k, cached):
        self._k = k
        self._chain = chain  # (f, d) in the chain form, else None
        self._factors = factors
        self._diagonals = diagonals
        self._cached_k = cached_k
        self._cached = cached  # newest first; its first _cached_k entries are a row

    def _newest_first(self, k: int) -> list[float]:
        """A list whose first k entries are row k, newest first."""
        _check_row_index(k, self._k)
        cached = self._cached
        if self._chain is not None:
            factor, diagonal = self._chain
            append = cached.append
            if not cached:
                append(diagonal)
            value = cached[-1]
            for _ in range(k - len(cached)):
                value *= factor
                append(value)
            return cached
        start = self._cached_k
        if start == k:
            return cached
        if start > k:
            start, cached = 0, []
        for factor, diagonal in zip(self._factors[start:k], self._diagonals[start:k]):
            cached = [v * factor for v in cached]
            cached.insert(0, diagonal)  # the newest entry comes first
        self._cached_k, self._cached = k, cached
        return cached

    def row(self, k: int) -> tuple[float, ...]:
        return tuple(self._newest_first(k)[k - 1 :: -1])

    def get(self, k: int, i: int) -> float:
        _check_entry_index(k, i)
        if i == k:
            _check_row_index(k, self._k)
            return self._chain[1] if self._chain is not None else self._diagonals[k - 1]
        return self._newest_first(k)[k - i]

    def __len__(self) -> int:
        return self._k

    def __repr__(self) -> str:
        return f"<ReplayedMatrix of {self._k} rows>"


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
    built on each read, so no caller can edit an entry past its diagonal or
    change the factors a later matrix() replays.

    Both forms keep k and the newest-first sums of the row and of its
    forgetting terms as plain floats, which advance keeps up to date and
    running_snapshot reads. While every step so far has had the same
    nonzero factor f and diagonal d, row k is row k-1 with g(a[k-1][1])
    appended at its old end, g(x) = fl(x * f): every older entry has already
    been multiplied by f exactly as often as the entry before it. So the
    row, newest first, is d, g(d), g(g(d)), ..., and in this chain form
    the object holds only f, d, k, the oldest entry a[k][1] and the two
    sums: O(1) floats however long the run. A step that repeats f and d is
    one multiply, two adds and a counter increment, since the entry it
    appends is also the last term of both sums; it needs no range check,
    because f and d were checked when the chain began. row, diagonal,
    factors and matrix() replay the chain's entries with the same multiplies
    in the same order, so every float is the one the lists would hold.

    The first step that differs leaves the chain form for good: it replays
    the chain into the list _row (newest first) with the diagonal and
    factor lists, and from then on every step builds the scaled row, folds
    both sums over it newest first in one loop and puts the new diagonal in
    front. _row is None exactly while the form is the chain.
    Both chain values are nonzero, so the == test that keeps the chain going
    is bit-exact: it cannot mistake -0.0 for 0.0. Outside the chain form
    both are NaN, which no value equals.
    """

    __slots__ = (
        "_k",
        "_plasticity_sum",
        "_forgetting_sum",
        "_chain_factor",
        "_chain_diagonal",
        "_oldest",
        "_row",
        "_diagonals",
        "_factors",
    )

    def __init__(self):
        self._k = 0
        self._plasticity_sum = 0.0  # newest first
        self._forgetting_sum = 0.0  # newest first
        self._chain_factor = self._chain_diagonal = math.nan
        self._oldest = math.nan  # a[k][1] in the chain form
        self._row: list[float] | None = []  # newest first; None in the chain form
        self._diagonals: list[float] | None = []
        self._factors: list[float] | None = []

    def __len__(self) -> int:
        return self._k

    def _chain_row(self) -> list[float]:
        """The chain form's row, newest first, replayed from f, d and k."""
        factor, value = self._chain_factor, self._chain_diagonal
        row = []
        append = row.append
        for _ in range(self._k):
            append(value)
            value *= factor
        return row

    @property
    def row(self) -> tuple[float, ...]:
        """The latest row, a[k][1] .. a[k][k]."""
        row = self._chain_row() if self._row is None else self._row
        return tuple(reversed(row))

    @property
    def diagonal(self) -> tuple[float, ...]:
        """a[1][1] .. a[k][k], each experience's accuracy when it was trained."""
        if self._row is None:
            return (self._chain_diagonal,) * self._k
        return tuple(self._diagonals)

    @property
    def factors(self) -> tuple[float, ...]:
        """The decay factor of each experience, 1 .. k."""
        if self._row is None:
            return (self._chain_factor,) * self._k
        return tuple(self._factors)

    def advance(self, factor: float, diagonal: float) -> None:
        """Append experience k's row: row k-1 times factor, then diagonal."""
        factor, diagonal = float(factor), float(diagonal)
        if factor == self._chain_factor and diagonal == self._chain_diagonal:
            decayed = self._oldest * factor
            self._oldest = decayed
            self._plasticity_sum += decayed
            self._forgetting_sum += diagonal - decayed
            self._k += 1
            return
        k = self._k + 1
        # A chained comparison is false for NaN and +-inf, so it is the whole
        # check; _check_unit_interval only words the error.
        if not 0.0 <= factor <= 1.0:
            _check_unit_interval(factor, "decay factor", k)
        if not 0.0 <= diagonal <= 1.0:
            _check_unit_interval(diagonal, "accuracy", k)
        row = self._row
        if row is None:
            row = self._chain_row()
            self._diagonals = [self._chain_diagonal] * self._k
            self._factors = [self._chain_factor] * self._k
            self._chain_factor = self._chain_diagonal = self._oldest = math.nan
        elif not row and factor and diagonal:
            self._row = self._diagonals = self._factors = None
            self._chain_factor, self._chain_diagonal, self._oldest = factor, diagonal, diagonal
            self._plasticity_sum = diagonal  # a nonzero diagonal: 0.0 + diagonal
            self._k = 1
            return
        diagonals = self._diagonals
        scaled = [v * factor for v in row]
        plasticity_sum = 0.0 + diagonal  # a sum from 0.0, so -0.0 becomes 0.0
        forgetting_sum = 0.0
        for v, d in zip(scaled, reversed(diagonals)):
            plasticity_sum += v
            forgetting_sum += d - v
        scaled.insert(0, diagonal)  # the newest entry comes first
        diagonals.append(diagonal)
        self._factors.append(factor)
        self._row = scaled
        self._plasticity_sum = plasticity_sum
        self._forgetting_sum = forgetting_sum
        self._k = k

    def matrix(self) -> ReplayedMatrix:
        """The full lower-triangular matrix so far, as a read-only snapshot
        that replays its rows on demand: O(K) floats, not K(K+1)/2."""
        if self._row is None:
            return ReplayedMatrix(
                self._k, (self._chain_factor, self._chain_diagonal), (), (), 0, []
            )
        return ReplayedMatrix(
            self._k, None, tuple(self._factors), tuple(self._diagonals), self._k, list(self._row)
        )


@dataclass(frozen=True)
class Thresholds:
    """Target levels the health score measures deviations against.

    plasticity and stability are in [0, 1]; latency_s, the per-experience
    training latency target, is finite and >= 0; memory_mb, the maximum
    allowed memory, is finite and >= 1 MB. Each is finite and >= 0, which
    urge.urge_scorer relies on.
    """

    plasticity: float
    stability: float
    latency_s: float
    memory_mb: float

    _RANGES = ranges({
        "[0, 1]": "plasticity stability",
        "[0, inf)": "latency_s",
        "[1, inf)": "memory_mb",
    })

    def __post_init__(self):
        check_ranges(self, self._RANGES)


class MetricSnapshot(Record):
    """State of the four controlled metrics after one experience.

    Only measured values: the thresholds a snapshot is scored against belong
    to the run and are fixed once in its scorer (urge.urge_scorer). A
    validated tuple (record.Record): every construction checks the values,
    and a snapshot equals a plain tuple of the same four values. Latency
    and memory must be finite and >= 0. A value that is no number, or an
    int beyond the largest float, which no float can hold, makes a
    SchemaError that names the field.
    """

    __slots__ = ()
    plasticity: float
    stability: float
    latency_s: float
    memory_peak_mb: float

    def __new__(cls, plasticity, stability, latency_s, memory_peak_mb):
        snapshot = tuple.__new__(cls, (plasticity, stability, latency_s, memory_peak_mb))
        # NaN fails every comparison, so this rejects NaN as well as inf; the
        # largest float bounds the ints a float can hold.
        if not (
            0.0 <= plasticity <= 1.0
            and 0.0 <= stability <= 1.0
            and 0.0 <= latency_s <= MAX_FLOAT
            and 0.0 <= memory_peak_mb <= MAX_FLOAT
        ):
            check_floats(snapshot, "plasticity stability latency_s memory_peak_mb")
            if not 0.0 <= plasticity <= 1.0:
                raise ValueError(f"plasticity {plasticity} outside [0, 1]")
            if not 0.0 <= stability <= 1.0:
                raise ValueError(f"stability {stability} outside [0, 1]")
            if not 0.0 <= latency_s < math.inf:
                raise ValueError(f"latency must be finite and >= 0, got {latency_s}")
            raise ValueError(f"memory peak must be finite and >= 0, got {memory_peak_mb}")
        return snapshot


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


def plasticity(matrix: AccuracyMatrix | ReplayedMatrix, k: int) -> float:
    """Mean accuracy of the current model over all k experiences seen so far."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _newest_first_sum(matrix.row(k)) / k


def stability(matrix: AccuracyMatrix | ReplayedMatrix, k: int) -> float:
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
    matrix: AccuracyMatrix | ReplayedMatrix,
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
    """snapshot() of the latest experience, scored from the running accuracy.

    It reads k and the two running sums the training step keeps, in either
    form of RunningAccuracy, and only divides and clamps them: the final
    step of plasticity and of _stability, written out here so a step costs
    no further call.
    """
    k = accuracy._k
    if k > 1:
        stability = min(1.0, max(0.0, 1.0 - accuracy._forgetting_sum / (k - 1)))
    elif k:
        stability = 1.0
    else:
        raise IncompleteMatrixError("no experience has been trained yet")
    return MetricSnapshot(accuracy._plasticity_sum / k, stability, latency_s, memory_peak_mb)
