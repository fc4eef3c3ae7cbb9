"""The URGE health score and the rule-based sensitivity weights.

The score is a product of four logistic factors, one per controlled metric.
High plasticity, high stability, and high memory usage each pull the score
down (those conditions mean "no urgent need" or "no headroom"); high latency
pulls it up. A high score therefore signals an urgent, memory-safe
optimization opportunity; a low score says the system is either healthy or
too close to its memory limit to push harder.

Weights come from a user preference ordering: with n metrics, position p
(1-indexed from most important) gets raw weight n + 1 - p, normalized to
sum 1. For the four metrics this is the 4/3/2/1 rule.

Each deviation from its threshold is divided by the threshold (floored at
1e-9), so fractions, seconds and megabytes enter the logistics on
comparable scales. The score is the product of the four factors and
nothing more: how much the smallest factor drives it is measured, not
assumed (ROADMAP open item 7).

Every input is a validated record: a MetricSnapshot, Thresholds and
Weights each reject a NaN or infinite field, and a threshold or weight
below 0, when they are built, so the score checks none of them again.
urge_scorer fixes what a run does not change (the thresholds, their
deviation divisors and the weights) once, and returns the per-snapshot
score; compute_urge is that scorer built for a single call.
weights_from_preference derives each ordering's weights once and hands every
later caller the same frozen Weights. A score is an UrgeScore, a validated
tuple (see record): it checks its factors on every construction and equals
a plain tuple of its five values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidPreferenceError, check_ranges, ranges
from .metrics import MetricSnapshot, Thresholds
from .record import Record

METRIC_NAMES = ("memory", "plasticity", "stability", "latency")

# Logistic arguments are saturated here so every factor stays strictly inside
# (0, 1) in IEEE double arithmetic: exp(-36) is still above the epsilon at 1.0.
_ARG_LIMIT = 36.0

# Floor for the threshold magnitude when normalizing deviations.
_NORM_EPS = 1e-9


@dataclass(frozen=True)
class Weights:
    """Per-metric sensitivities (k_p, k_s, k_l, k_m).

    Weights produced by weights_from_preference are normalized to sum 1;
    any finite weights >= 0 are accepted for sensitivity studies (e.g.
    scaling a single factor). A weight outside [0, inf) raises a
    SchemaError naming it.
    """

    k_p: float
    k_s: float
    k_l: float
    k_m: float

    _RANGES = ranges({"[0, inf)": "k_p k_s k_l k_m"})

    def __post_init__(self):
        check_ranges(self, self._RANGES)


class UrgeScore(Record):
    """Score value plus the four logistic factors it is the product of.

    A validated tuple (record.Record): every construction checks that each
    factor lies in (0, 1) and that value is their product within 1e-12.
    """

    __slots__ = ()
    value: float
    plasticity_factor: float
    stability_factor: float
    latency_factor: float
    memory_factor: float

    def __new__(cls, value, plasticity_factor, stability_factor, latency_factor, memory_factor):
        if not (
            0.0 < plasticity_factor < 1.0
            and 0.0 < stability_factor < 1.0
            and 0.0 < latency_factor < 1.0
            and 0.0 < memory_factor < 1.0
        ):
            for f in (plasticity_factor, stability_factor, latency_factor, memory_factor):
                if not 0.0 < f < 1.0:
                    raise ValueError(f"factor {f!r} outside the open interval (0, 1)")
        product = plasticity_factor * stability_factor * latency_factor * memory_factor
        if not abs(product - value) <= 1e-12:  # written so a NaN value fails
            raise ValueError("score value does not equal the product of its factors")
        return tuple.__new__(
            cls, (value, plasticity_factor, stability_factor, latency_factor, memory_factor)
        )

    def components(self) -> tuple[float, float, float, float]:
        """The four factors: plasticity, stability, latency, memory."""
        return self[1:]


# The weights of each valid ordering, derived on its first call. Only
# orderings that pass the check are stored, so a bad one raises on every
# call and the table holds at most the 4! = 24 permutations.
_WEIGHTS_BY_ORDER: dict[tuple[str, ...], Weights] = {}


def weights_from_preference(order: Sequence[str]) -> Weights:
    """Derive normalized weights from a most-important-first metric ordering.

    Position p (1-indexed) receives raw weight n + 1 - p; raw weights are
    normalized to sum 1. E.g. [memory, plasticity, stability, latency] gives
    (k_m, k_p, k_s, k_l) = (0.4, 0.3, 0.2, 0.1). Every call with the same
    ordering returns the same Weights object, which is frozen.
    """
    names = tuple(map(str, order))
    weights = _WEIGHTS_BY_ORDER.get(names)
    if weights is None:
        if sorted(names) != sorted(METRIC_NAMES):
            raise InvalidPreferenceError(
                f"preference must name each of {METRIC_NAMES} exactly once, got {list(names)}"
            )
        n = len(names)
        raw = {name: float(n + 1 - p) for p, name in enumerate(names, start=1)}
        total = sum(raw.values())
        weights = _WEIGHTS_BY_ORDER[names] = Weights(
            k_p=raw["plasticity"] / total,
            k_s=raw["stability"] / total,
            k_l=raw["latency"] / total,
            k_m=raw["memory"] / total,
        )
    return weights


def urge_scorer(
    thresholds: Thresholds, weights: Weights
) -> Callable[[MetricSnapshot], UrgeScore]:
    """The health score of one run, with its per-run constants fixed once.

    Returns score(snapshot), which measures each deviation against these
    thresholds, divides it by its threshold (floored at 1e-9) and scales it
    by the four weights. Each factor is the logistic 1 / (1 + exp(-x)) with
    x clamped to [-36, 36].

    Thresholds, Weights and MetricSnapshot have checked every input to be
    finite, and the thresholds and weights to be >= 0, so nothing is checked
    here. The memory threshold is >= 1, so it is its own divisor.
    """
    exp = math.exp
    th_p, th_s = thresholds.plasticity, thresholds.stability
    th_l, th_m = thresholds.latency_s, thresholds.memory_mb
    n_p, n_s, n_l = max(th_p, _NORM_EPS), max(th_s, _NORM_EPS), max(th_l, _NORM_EPS)
    k_p, k_s, k_l, k_m = weights.k_p, weights.k_s, weights.k_l, weights.k_m
    hi, lo = _ARG_LIMIT, -_ARG_LIMIT

    def score(snapshot: MetricSnapshot) -> UrgeScore:
        p, s = snapshot.plasticity, snapshot.stability
        l, m = snapshot.latency_s, snapshot.memory_peak_mb

        # Each x is clamped to [lo, hi] by two comparisons, so a NaN argument
        # (a zero weight times a deviation that overflowed to inf) passes
        # through unchanged and fails UrgeScore's factor check.
        x = -(k_p * ((p - th_p) / n_p))
        f_p = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        x = -(k_s * ((s - th_s) / n_s))
        f_s = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        x = k_l * ((l - th_l) / n_l)
        f_l = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        x = -(k_m * ((m - th_m) / th_m))
        f_m = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))

        return UrgeScore(f_p * f_s * f_l * f_m, f_p, f_s, f_l, f_m)

    return score


def compute_urge(snapshot: MetricSnapshot, thresholds: Thresholds, weights: Weights) -> UrgeScore:
    """Evaluate the health score of one metric snapshot against thresholds.

    The one-off form of urge_scorer(thresholds, weights)(snapshot). A loop
    over many snapshots against the same thresholds builds the scorer once
    instead.
    """
    return urge_scorer(thresholds, weights)(snapshot)
