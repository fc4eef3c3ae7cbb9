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
score; compute_urge is that scorer built for a single call. A run's
weights are derived once, by weights_from_preference when its
ScenarioConfig resolves its preference, and held as scenario.weights.
A score is an UrgeScore, a validated tuple (see record): it checks its
factors on every construction and equals a plain tuple of its five
values. The scorer unpacks its snapshot and builds each score through
UrgeScore.__new__ directly, which runs the same checks as the class call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidPreferenceError, check_number, check_ranges, ranges, reject
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
    factor is a number in (0, 1) (_RANGES), that value is a number a float
    can hold and that it is their product within 1e-12; else a SchemaError
    names the field.
    """

    __slots__ = ()
    value: float
    plasticity_factor: float
    stability_factor: float
    latency_factor: float
    memory_factor: float

    _RANGES = ranges({"(0, 1)": "plasticity_factor stability_factor latency_factor memory_factor"})

    def __new__(cls, value, plasticity_factor, stability_factor, latency_factor, memory_factor):
        score = tuple.__new__(
            cls, (value, plasticity_factor, stability_factor, latency_factor, memory_factor)
        )
        try:
            valid = (
                value.__class__ is float
                and 0.0 < plasticity_factor < 1.0
                and 0.0 < stability_factor < 1.0
                and 0.0 < latency_factor < 1.0
                and 0.0 < memory_factor < 1.0
            )
        except TypeError:  # a factor no float compares with; check_ranges names it
            valid = False
        if not valid:
            # An int no float can hold would overflow the product test below.
            check_number(score, "value", value)
            check_ranges(score, cls._RANGES)
        product = plasticity_factor * stability_factor * latency_factor * memory_factor
        if not abs(product - value) <= 1e-12:  # written so a NaN value fails
            reject(score, "value", f"must equal the product of its factors, got {value!r}")
        return score

    def components(self) -> tuple[float, float, float, float]:
        """The four factors: plasticity, stability, latency, memory."""
        return self[1:]


_new_score = UrgeScore.__new__  # each scorer builds through it; see record


def weights_from_preference(order: Sequence[str]) -> Weights:
    """Derive normalized weights from a most-important-first metric ordering.

    Position p (1-indexed) receives raw weight n + 1 - p; raw weights are
    normalized to sum 1. E.g. [memory, plasticity, stability, latency] gives
    (k_m, k_p, k_s, k_l) = (0.4, 0.3, 0.2, 0.1). order must be a list or a
    tuple: another iterable, such as a set, whose order can change from run
    to run, raises InvalidPreferenceError naming its type.
    """
    if not isinstance(order, (list, tuple)):
        raise InvalidPreferenceError(
            f"preference must be a list or tuple, got a {type(order).__name__}: {order!r}"
        )
    names = tuple(map(str, order))
    if sorted(names) != sorted(METRIC_NAMES):
        raise InvalidPreferenceError(
            f"preference must name each of {METRIC_NAMES} exactly once, got {list(names)}"
        )
    raw = {name: float(len(names) - i) for i, name in enumerate(names)}  # i is p - 1
    total = sum(raw.values())
    return Weights(*(raw[name] / total for name in ("plasticity", "stability", "latency", "memory")))


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

    score runs once an experience, so it calls no min or max builtin: each
    clamp is two comparisons. It also keeps the last (memory peak, memory
    factor) pair it computed, as one tuple, and reuses the factor when a
    snapshot's memory peak is that same object. A fixed-knob run passes the
    same float every experience (the environment computes a Knobs object's
    memory once), so it computes the memory logistic once; any other peak,
    an equal float included, is computed as before and replaces the pair.
    The factor is a function of the peak alone, so the score is the same
    either way, bit for bit. The pair is read and replaced as one tuple, so
    a scorer shared between threads never matches a peak with another
    peak's factor.
    """
    exp = math.exp
    th_p, th_s = thresholds.plasticity, thresholds.stability
    th_l, th_m = thresholds.latency_s, thresholds.memory_mb
    # max(th, eps) as the builtin returns it: th unless eps is strictly greater.
    n_p = _NORM_EPS if _NORM_EPS > th_p else th_p
    n_s = _NORM_EPS if _NORM_EPS > th_s else th_s
    n_l = _NORM_EPS if _NORM_EPS > th_l else th_l
    k_p, k_s, k_l, k_m = weights.k_p, weights.k_s, weights.k_l, weights.k_m
    hi, lo = _ARG_LIMIT, -_ARG_LIMIT
    memo = (None, 0.0)  # (memory peak, its factor); no snapshot holds None

    def score(snapshot: MetricSnapshot) -> UrgeScore:
        nonlocal memo
        p, s, l, m = snapshot

        # Each x is clamped to [lo, hi] by two comparisons, so a NaN argument
        # (a zero weight times a deviation that overflowed to inf) passes
        # through unchanged and fails UrgeScore's factor check.
        x = -(k_p * ((p - th_p) / n_p))
        f_p = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        x = -(k_s * ((s - th_s) / n_s))
        f_s = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        x = k_l * ((l - th_l) / n_l)
        f_l = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
        peak, f_m = memo
        if m is not peak:
            x = -(k_m * ((m - th_m) / th_m))
            f_m = 1.0 / (1.0 + exp(-(hi if x > hi else lo if x < lo else x)))
            memo = (m, f_m)

        return _new_score(UrgeScore, f_p * f_s * f_l * f_m, f_p, f_s, f_l, f_m)

    return score


def compute_urge(snapshot: MetricSnapshot, thresholds: Thresholds, weights: Weights) -> UrgeScore:
    """Evaluate the health score of one metric snapshot against thresholds.

    The one-off form of urge_scorer(thresholds, weights)(snapshot). A loop
    over many snapshots against the same thresholds builds the scorer once
    instead.
    """
    return urge_scorer(thresholds, weights)(snapshot)
