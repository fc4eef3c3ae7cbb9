"""Deterministic stand-in for on-device OCL training.

One algorithm profile, a profiles.<name> section of the profiles file, is two
objects: a ResponseModel (latency costs and accuracy surfaces) and a
controller.MemoryModel. load_profile_library reads that file format and
profile_document writes it. The environment maps (knobs, experience index) to
latency, peak memory, and a new accuracy-matrix row through a small family of
response surfaces:

* latency: (n / B) * c_iter(B) * opt_mult(mode) * growth^(e-1) + R * replay_cost,
  with c_iter(B) = cost_per_sample * max(B, knee). Below the knee the device
  is latency-bound and iteration time is flat, so latency falls as 1/B; at
  the knee it goes compute-bound and latency flattens.
* memory: controller.MemoryModel, base + B * m_act + R * m_df
  + plugin_delta(mode) + residency(R), where residency is a quadratic term
  that only activates above a buffer threshold (the abrupt blow-up large
  buffers cause in practice). The controller budgets with the same instance.
* stability gain: s(R) = s_max * (1 - exp(-R / R0)), saturating.
* plasticity: the new diagonal accuracy rises with the number of gradient
  updates n / B with diminishing returns, so very large batches learn almost
  nothing in a single online pass; the advanced optimizer adds a flat bonus.

Off-diagonal accuracies decay multiplicatively each experience by
forgetting_rate * (1 - s(R)): bigger replay buffers attenuate forgetting.
Because the decay is shared by a whole row, the environment keeps only a
metrics.RunningAccuracy (the latest row, the diagonal and the two metric
sums): O(K) memory for K experiences. While the factor 1 - decay and the
new diagonal stay the same (fixed knobs, no noise), it keeps only those two
values, the oldest entry, the count and the sums, and advances without
touching the older entries: O(1) memory, and one multiply and two adds per
experience, not one multiply and two adds per entry. env.accuracy reads the
latest row and every diagonal entry, which is all the metrics take; no
earlier row is kept.

Everything the knobs alone decide (the memory, the stream term before
growth, the replay term, the new diagonal before noise and the decay factor)
is computed once per Knobs object the environment is given and kept until a
different object arrives. Knobs checks its own fields when it is built and
is immutable, so a policy that passes one object for a whole run pays for
it once; per experience only the growth power, the prefetch overlap, the
noise draws and the row advance remain.

The environment holds the device, one PlatformPreset: its capacity, compute
scale and load rate. Out-of-memory is exactly the predicate memory > capacity
and is reported as an outcome, never a silent clamp. Prefetch only changes
latency. Every experience after the first is staged while the previous one
trains, so with the environment's prefetch flag on it pays
max(0, load - PREFETCH_OVERLAP * compute) instead of the full load; the first
experience always pays the full load.

A response with noise_fraction > 0 scales latency and the new diagonal by
1 + noise_fraction * u, u uniform in [-1, 1), drawn from a random.Random
seeded with the run's seed; noise-free responses build no generator. The
module, calibration fits included, is plain Python over floats and the math
module, so importing it loads nothing beyond the standard library and PyYAML.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .controller import Knobs, MemoryModel, OptimizerMode
from .errors import CalibrationError, SchemaError, SimulationStateError
from .errors import MAX_FLOAT, check_ints, check_number, check_ranges, interval, ranges, reject
from .metrics import RunningAccuracy
from .record import Record
from .yamlcfg import Section, as_float, build, check_schema_version, load_yaml_mapping

# A module global, read per call far more cheaply than the Enum member.
_ADVANCED = OptimizerMode.ADVANCED

# The largest int an "inf)" interval holds: check_ranges compares an int with
# the largest float, which is this int's exact value.
_MAX_INT = int(MAX_FLOAT)

PREFETCH_OVERLAP = 0.85  # the share of a staged experience's compute that hides its load


@dataclass(frozen=True)
class ResponseModel:
    """One algorithm profile's latency and accuracy response to the knobs.

    The four costs and the batch knee set latency; the stability, plasticity
    and forgetting parameters set accuracy. The profile's memory costs are
    its MemoryModel, which the controller shares.
    """

    compute_cost_per_sample_s: float
    replay_sampling_cost_s: float
    optimizer_latency_multiplier: float  # advanced mode
    per_experience_growth: float  # workload complexity drift
    batch_knee: int  # compute-bound knee
    stability_gain_max: float  # s_max
    stability_buffer_scale: float  # R0
    plasticity_max: float
    plasticity_updates_scale: float  # u0: gradient updates to near-saturation
    advanced_plasticity_bonus: float
    forgetting_rate: float  # per-experience decay at zero replay
    noise_fraction: float = 0.0  # seeded jitter on latency and new accuracy

    _RANGES = ranges({
        "[0, inf)": "compute_cost_per_sample_s replay_sampling_cost_s advanced_plasticity_bonus",
        "[1, inf)": "optimizer_latency_multiplier per_experience_growth batch_knee",
        "[1e-9, inf)": "stability_buffer_scale plasticity_updates_scale",
        "[0, 1]": "stability_gain_max plasticity_max forgetting_rate",
        "[0, 1)": "noise_fraction",  # so a jitter factor 1 + noise_fraction * u stays > 0
    })

    def __post_init__(self):
        check_ints(self, "batch_knee")
        check_ranges(self, self._RANGES)

    def knob_latency_terms(
        self, batch_size: int, buffer_size: int, mode: OptimizerMode, n_samples: int
    ) -> tuple[float, float]:
        """The latency terms the knobs fix: (stream, replay).

        stream is (n / B) * c_iter(B) * opt_mult(mode), the stream term before
        the experience's growth factor; replay is R * replay_cost.
        """
        knee = self.batch_knee
        c_iter = self.compute_cost_per_sample_s * (knee if knee > batch_size else batch_size)
        opt = self.optimizer_latency_multiplier if mode is _ADVANCED else 1.0
        return (n_samples / batch_size) * c_iter * opt, buffer_size * self.replay_sampling_cost_s

    def latency_s(
        self, stream: float, replay: float, experience: int, compute_scale: float
    ) -> float:
        """Training compute time of one experience from its knob terms."""
        growth = self.per_experience_growth ** (experience - 1)
        return (stream * growth + replay) * compute_scale

    def compute_latency_s(
        self,
        batch_size: int,
        buffer_size: int,
        mode: OptimizerMode,
        experience: int,
        n_samples: int,
        compute_scale: float = 1.0,
    ) -> float:
        """Training compute time, excluding data loading."""
        stream, replay = self.knob_latency_terms(batch_size, buffer_size, mode, n_samples)
        return self.latency_s(stream, replay, experience, compute_scale)

    def stability_gain(self, buffer_size: int) -> float:
        """Saturating forgetting attenuation in [0, s_max]; 0 at R = 0."""
        return self.stability_gain_max * (
            1.0 - math.exp(-buffer_size / self.stability_buffer_scale)
        )

    def plasticity_level(
        self, batch_size: int, mode: OptimizerMode, n_samples: int
    ) -> float:
        updates = n_samples / batch_size
        level = self.plasticity_max * (
            1.0 - math.exp(-updates / self.plasticity_updates_scale)
        )
        if mode is _ADVANCED:
            level += self.advanced_plasticity_bonus
        return (level if level < 1.0 else 1.0) if level > 0.0 else 0.0


@dataclass(frozen=True)
class PlatformPreset:
    """What a deployment platform contributes: capacity, speed, load rate."""

    capacity_mb: float
    compute_scale: float
    load_time_per_sample_s: float

    _RANGES = ranges({
        "[1, inf)": "capacity_mb",
        "[1e-9, inf)": "compute_scale",
        "[0, inf)": "load_time_per_sample_s",
    })

    def __post_init__(self):
        check_ranges(self, self._RANGES)


class TrainResult(Record):
    """Latency and peak memory of one experience; latency is None on OOM.

    A trained experience advances the environment's RunningAccuracy; its new
    row is read through env.accuracy; oom reads latency_s is None. An immutable
    tuple (record.Record), so it equals a plain (latency_s, memory_peak_mb) tuple.
    """

    __slots__ = ()
    latency_s: Optional[float]
    memory_peak_mb: float

    def __new__(cls, latency_s, memory_peak_mb):
        return tuple.__new__(cls, (latency_s, memory_peak_mb))

    @property
    def oom(self) -> bool:
        return self.latency_s is None


_new_result = TrainResult.__new__  # train_experience builds through it; see record


class SimulatedEnvironment:
    """Single-owner simulated training target for one run.

    It reads latency and accuracy from one ResponseModel, peak memory from
    one MemoryModel (the profile's two objects), and the device from one
    PlatformPreset. The running accuracy's row count is the only record of
    how far the run has got: each train_experience call trains experience
    len(accuracy) + 1 (next_experience), which sets its growth power and
    whether it is staged (it is not the first). Once an OOM occurs the
    environment is failed and refuses further work. It coerces nothing: the
    seed is an int >= 0, samples an int >= 1 and prefetch a bool.
    """

    _RANGES = ranges({"[1, inf)": "samples_per_experience", "[0, inf)": "seed"})

    def __init__(
        self,
        response: ResponseModel,
        memory: MemoryModel,
        platform: PlatformPreset,
        seed: int,
        samples_per_experience: int,
        prefetch: bool = True,
    ):
        self.response = response
        self.memory = memory
        self.platform = platform
        self.seed = seed
        self.samples_per_experience = samples_per_experience
        self.prefetch = prefetch
        # Valid inputs pass one test with no call; the rest are checked below.
        if not (
            seed.__class__ is int and 0 <= seed <= _MAX_INT
            and samples_per_experience.__class__ is int and 1 <= samples_per_experience <= _MAX_INT
            and prefetch.__class__ is bool
        ):
            check_ints(self, "samples_per_experience seed")
            check_ranges(self, self._RANGES)
            if prefetch.__class__ is not bool:
                reject(self, "prefetch", f"must be a bool, got {prefetch!r}")
        # Only noisy responses draw from the generator, so others skip building it.
        self._rng = random.Random(seed) if response.noise_fraction > 0.0 else None
        # Data loading is the same for every experience of the run.
        self._load_s = self.samples_per_experience * platform.load_time_per_sample_s
        self._accuracy = RunningAccuracy()
        self._failed = False
        # The last Knobs trained with and its _knob_terms. Knobs is immutable, so
        # one object always has the same terms; an identity test is cheaper
        # than comparing, and the reference held here keeps the id unique.
        self._knobs: Optional[Knobs] = None
        self._terms = (0.0, 0.0, 0.0, 0.0, 0.0)

    @property
    def accuracy(self) -> RunningAccuracy:
        """The running accuracy row the per-experience metrics are read from."""
        return self._accuracy

    @property
    def accuracy_matrix(self) -> RunningAccuracy:
        """The running accuracy itself, under the name perfbench reads."""
        return self._accuracy

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def next_experience(self) -> int:
        return len(self._accuracy) + 1

    def train_experience(self, knobs: Knobs) -> TrainResult:
        if self._failed:
            raise SimulationStateError("environment already failed; cannot train")
        trained = self._accuracy._k  # len(self._accuracy), without the call
        if knobs is not self._knobs:
            self._terms = self._knob_terms(knobs)
            self._knobs = knobs
        memory, stream, replay, diagonal, factor = self._terms
        platform = self.platform
        if memory > platform.capacity_mb:
            self._failed = True
            return _new_result(TrainResult, None, memory)

        compute = self.response.latency_s(stream, replay, trained + 1, platform.compute_scale)
        if trained and self.prefetch:
            hidden = self._load_s - PREFETCH_OVERLAP * compute
            latency = compute + (hidden if hidden > 0.0 else 0.0)
        else:
            latency = compute + self._load_s
        if self._rng is not None:
            jitter = self.response.noise_fraction
            latency *= 1.0 + jitter * self._rng.uniform(-1.0, 1.0)
            diagonal *= 1.0 + jitter * self._rng.uniform(-1.0, 1.0)
            diagonal = (diagonal if diagonal < 1.0 else 1.0) if diagonal > 0.0 else 0.0

        self._accuracy.advance(factor, diagonal)
        return _new_result(TrainResult, latency, memory)

    def _knob_terms(self, knobs: Knobs) -> tuple[float, float, float, float, float]:
        """Everything train_experience needs that only the knobs decide:
        (memory, stream, replay, diagonal, decay factor).

        The workload is constant per experience; complexity drift is modeled
        by the response's growth factor, applied per experience.
        """
        b, r, mode = knobs
        n = self.samples_per_experience
        stream, replay = self.response.knob_latency_terms(b, r, mode, n)
        decay = self.response.forgetting_rate * (1.0 - self.response.stability_gain(r))
        return (
            self.memory.memory_mb(knobs),
            stream,
            replay,
            self.response.plasticity_level(b, mode, n),
            1.0 - decay,
        )


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationTargets:
    """Measured anchors a response model is fitted against.

    latency_points and memory_points are (batch_size, value) pairs at a fixed
    workload size; stability_points are (buffer_size, gain) pairs. The plugin
    pair gives latency/memory with the advanced optimizer off and on. A
    broken rule (_RANGES, _POINTS) is a SchemaError naming the field.
    """

    samples_per_experience: int
    latency_points: tuple[tuple[int, float], ...]
    memory_points: tuple[tuple[int, float], ...]
    stability_points: tuple[tuple[int, float], ...]
    plugin_latency_off_s: float
    plugin_latency_on_s: float
    plugin_memory_off_mb: float
    plugin_memory_on_mb: float

    _RANGES = ranges({
        "[1, inf)": "samples_per_experience",
        "(0, inf)": "plugin_latency_off_s plugin_latency_on_s",
        "[0, inf)": "plugin_memory_off_mb plugin_memory_on_mb",
    })
    # Per group: >= 3 points at int sizes >= 1 named size, values in the
    # interval and in the order over sizes (a strict one needs distinct sizes).
    _POINTS = (
        ("latency", "batch", "(0, inf)", "strictly decreasing", operator.gt),
        ("memory", "batch", "(0, inf)", "strictly increasing", operator.lt),
        ("stability", "buffer", "[0, 1]", "non-decreasing", operator.le),
    )

    def __post_init__(self):
        check_ints(self, "samples_per_experience")
        for group, size, values, order, in_order in self._POINTS:
            field, (lo, hi) = f"{group}_points", interval(values)
            points = getattr(self, field)
            if len(points) < 3:
                reject(self, field, f"need {group} targets at >= 3 {size} sizes")
            for at, value in points:
                if not isinstance(at, int) or isinstance(at, bool) or at < 1:
                    rule = f"{group} targets must use int {size} sizes >= 1"
                    reject(self, field, f"{rule}, got {at!r}")
                check_number(self, field, value)
                if not lo <= value <= hi:
                    reject(self, field, f"{group} targets must lie in {values}, got {value!r}")
            ranked = sorted(points)
            for (at, value), (next_at, next_value) in zip(ranked, ranked[1:]):
                if at == next_at and order.startswith("strictly"):
                    reject(self, field, f"{group} targets must use distinct {size} sizes")
                if not in_order(value, next_value):
                    reject(self, field, f"{group} targets must be {order} in {size} size")
        check_ranges(self, self._RANGES)
        if self.plugin_latency_on_s < self.plugin_latency_off_s:
            reject(self, "plugin_latency_on_s", "plugin latency must not decrease when enabled")
        if self.plugin_memory_on_mb < self.plugin_memory_off_mb:
            reject(self, "plugin_memory_on_mb", "plugin memory must not decrease when enabled")


@dataclass(frozen=True)
class CalibrationResult:
    response: ResponseModel
    memory: MemoryModel
    residuals: dict[str, float]  # max relative residual per fitted group


_RESIDUAL_LIMIT = 0.20

_MIN_COST_PER_SAMPLE = 1e-12  # lower bound of the fitted latency cost c
# The stability fit scans R0 in [1, 1e9] on a log grid (20 points per decade),
# then refines by golden-section search between the best point's neighbours.
_STABILITY_GRID_POINTS = 181
_GOLDEN_ITERATIONS = 80

# Defaults for model fields the targets do not constrain.
_UNCONSTRAINED_DEFAULTS = dict(
    frame_mb=0.045,
    spike_threshold=20000,
    spike_coeff=7.0e-7,
    plasticity_max=0.9,
    plasticity_updates_scale=45.0,
    advanced_plasticity_bonus=0.04,
    forgetting_rate=0.22,
    replay_sampling_cost_s=0.002,
    per_experience_growth=1.03,
)


def _fit_latency(
    n: int, batch: Sequence[float], observed: Sequence[float]
) -> tuple[float, float]:
    """Least-squares (c, knee) of L(B) = n * c * max(1, knee / B) in relative
    residuals, with c >= 1e-12 and knee in [1, 16 * max B]. Batch sizes must
    be >= 1 and latencies > 0.

    The residual c * g - 1, with g = n * max(1, knee / B) / L, is linear in c,
    so for a fixed knee the best c is sum(g) / sum(g^2), clipped to its bound.
    Between consecutive target batch sizes the points split into a
    latency-bound set (B <= knee, g = knee * a) and the rest (g = b), and the
    profile cost m - (Sa*knee + Sb)^2 / (Qa*knee^2 + Qb), with Sa, Qa the sum
    and sum of squares of a and Sb, Qb those of b, has its only interior
    optimum at knee = Sa*Qb / (Sb*Qa). Where the clipped c binds, the cost is
    a quadratic in knee with its minimum at Sa / (c_min * Qa). When every
    point is on one branch the cost does not depend on the knee, and such a
    flat valley is represented by its lower end (knee 1, or the largest
    target batch size; the range up to 16 * max B adds nothing). The exact
    minimum is therefore among these candidates; ties go to the smaller knee.
    """
    points = [(float(b), float(v)) for b, v in zip(batch, observed)]
    edges = sorted({1.0, *(b for b, _ in points)})
    knees = set(edges)
    for lo, hi in zip(edges, edges[1:]):
        bound_a = [n / (b * v) for b, v in points if b <= lo]
        rest_b = [n / v for b, v in points if b > lo]
        a_sum, a_sq = sum(bound_a), sum(x * x for x in bound_a)
        b_sum, b_sq = sum(rest_b), sum(x * x for x in rest_b)
        if a_sum > 0 and b_sum > 0:
            free = a_sum * b_sq / (b_sum * a_sq)
            at_bound = a_sum / (_MIN_COST_PER_SAMPLE * a_sq)
            knees.update(min(max(knee, lo), hi) for knee in (free, at_bound))

    best = (math.inf, 0.0, 0.0)
    for knee in sorted(knees):
        g = [n * max(1.0, knee / b) / v for b, v in points]
        c = max(_MIN_COST_PER_SAMPLE, sum(g) / sum(x * x for x in g))
        cost = sum((c * x - 1.0) ** 2 for x in g)
        if cost < best[0]:  # strict, so equal costs keep the smaller knee
            best = (cost, c, knee)
    return best[1], best[2]


def _fit_stability(
    buffer: Sequence[float], observed: Sequence[float]
) -> tuple[float, float]:
    """Least-squares (s_max, R0) of s(R) = s_max * (1 - exp(-R / R0)), with
    s_max in [1e-6, 1] and R0 in [1, 1e9]. Buffer sizes must be >= 1.

    The residual is linear in s_max, so for a fixed R0 the best s_max is
    sum(h * s) / sum(h^2), h = 1 - exp(-R / R0), clipped to its bounds. The
    resulting profile over R0 is scanned on a log grid and refined by
    golden-section search in log R0 between the best grid point's neighbours.
    """
    points = [(float(r), float(s)) for r, s in zip(buffer, observed)]

    def profile(r0: float) -> tuple[float, float]:
        """(best s_max, sum of squared residuals) at this R0."""
        h = [(1.0 - math.exp(-r / r0), s) for r, s in points]
        s_max = sum(x * s for x, s in h) / sum(x * x for x, _ in h)
        s_max = min(max(s_max, 1e-6), 1.0)
        return s_max, sum((s_max * x - s) ** 2 for x, s in h)

    last = _STABILITY_GRID_POINTS - 1
    grid = [10.0 ** (9.0 * i / last) for i in range(_STABILITY_GRID_POINTS)]
    costs = [profile(r0)[1] for r0 in grid]
    i = costs.index(min(costs))
    lo, hi = math.log(grid[max(i - 1, 0)]), math.log(grid[min(i + 1, last)])

    def cost_at(x: float) -> float:
        return profile(math.exp(x))[1]

    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = cost_at(x1), cost_at(x2)
    for _ in range(_GOLDEN_ITERATIONS):
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = cost_at(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = cost_at(x2)
    refined = math.exp(x1 if f1 <= f2 else x2)
    (s_grid, c_grid), (s_ref, c_ref) = profile(grid[i]), profile(refined)
    return (s_ref, refined) if c_ref < c_grid else (s_grid, grid[i])


def _fit_line(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Ordinary least-squares (slope, intercept) of y = intercept + slope * x.
    The x values must not all be equal."""
    x_mean, y_mean = sum(x) / len(x), sum(y) / len(y)
    dx = [v - x_mean for v in x]
    slope = sum(d * (v - y_mean) for d, v in zip(dx, y)) / sum(d * d for d in dx)
    return slope, y_mean - slope * x_mean


def _max_relative_residual(
    predicted: Sequence[float], observed: Sequence[float], floor: float = 0.0
) -> float:
    return max(abs(p - o) / max(o, floor) for p, o in zip(predicted, observed))


def calibrate_profile(targets: CalibrationTargets) -> CalibrationResult:
    """Least-squares fit of the response surfaces to measured anchors.

    Fits (cost_per_sample, knee) to the latency curve, (base, m_act) to the
    memory line, and (s_max, R0) to the stability saturation; the optimizer
    multiplier and memory delta come directly from the plugin pair. Fails
    with CalibrationError if the memory line is not physical or a group's
    max relative residual exceeds 20% or is not finite; malformed anchors
    (CalibrationTargets' rules) cannot be built.

    The latency and stability models are each linear in one parameter, so
    each fit is separable: for a fixed knee (or R0) the linear parameter has
    a closed form clipped to its bound, and the fit reduces to a 1-D problem
    in the other. The latency profile is minimised exactly from its stationary
    points between consecutive target batch sizes; the stability profile by a
    log grid over R0 and golden-section refinement. The memory line is the
    closed-form ordinary least-squares line. All of it is plain Python over
    a handful of anchor points.
    """
    n = targets.samples_per_experience

    # Latency: L(B) = n * c * max(1, knee / B), fitted in relative terms.
    lat_b = [float(b) for b, _ in targets.latency_points]
    lat_obs = [float(v) for _, v in targets.latency_points]
    cost_per_sample, knee = _fit_latency(n, lat_b, lat_obs)
    lat_pred = [n * cost_per_sample * max(1.0, knee / b) for b in lat_b]
    lat_resid = _max_relative_residual(lat_pred, lat_obs)

    # Memory: M(B) = base + m_act * B, ordinary least squares.
    mem_b = [float(b) for b, _ in targets.memory_points]
    mem_obs = [float(v) for _, v in targets.memory_points]
    m_act, base = _fit_line(mem_b, mem_obs)
    if m_act <= 0 or base < 0:
        raise CalibrationError(
            f"memory fit produced non-physical parameters (slope {m_act:.4f}, base {base:.1f})"
        )
    mem_resid = _max_relative_residual([base + m_act * b for b in mem_b], mem_obs)

    # Stability: s(R) = s_max * (1 - exp(-R / R0)).
    stab_r = [float(r) for r, _ in targets.stability_points]
    stab_obs = [float(v) for _, v in targets.stability_points]
    s_max, r0 = _fit_stability(stab_r, stab_obs)
    stab_pred = [s_max * (1.0 - math.exp(-r / r0)) for r in stab_r]
    stab_resid = _max_relative_residual(stab_pred, stab_obs, floor=1e-3)

    # Plugin costs fall straight out of the on/off pair.
    opt_multiplier = targets.plugin_latency_on_s / targets.plugin_latency_off_s
    opt_delta = targets.plugin_memory_on_mb - targets.plugin_memory_off_mb

    residuals = {"latency": lat_resid, "memory": mem_resid, "stability": stab_resid}
    for group, resid in residuals.items():
        if not math.isfinite(resid):
            raise CalibrationError(f"{group} fit residual is not finite ({resid})")
    worst = max(residuals, key=residuals.get)
    if residuals[worst] > _RESIDUAL_LIMIT:
        raise CalibrationError(
            f"{worst} fit residual {residuals[worst]:.1%} exceeds {_RESIDUAL_LIMIT:.0%}"
        )

    d = _UNCONSTRAINED_DEFAULTS
    response = ResponseModel(
        compute_cost_per_sample_s=cost_per_sample,
        replay_sampling_cost_s=d["replay_sampling_cost_s"],
        optimizer_latency_multiplier=max(1.0, opt_multiplier),
        per_experience_growth=d["per_experience_growth"],
        batch_knee=max(1, round(knee)),
        stability_gain_max=s_max,
        stability_buffer_scale=r0,
        plasticity_max=d["plasticity_max"],
        plasticity_updates_scale=d["plasticity_updates_scale"],
        advanced_plasticity_bonus=d["advanced_plasticity_bonus"],
        forgetting_rate=d["forgetting_rate"],
    )
    memory = MemoryModel(
        base_mb=base,
        optimizer_delta_mb=opt_delta,
        sample_mb=m_act,
        frame_mb=d["frame_mb"],
        spike_threshold=d["spike_threshold"],
        spike_coeff=d["spike_coeff"],
    )
    return CalibrationResult(response=response, memory=memory, residuals=residuals)


# ---------------------------------------------------------------------------
# Declarative file loaders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileLibrary:
    """Everything the bundled profiles file provides."""

    platforms: dict[str, PlatformPreset]
    profiles: dict[str, tuple[ResponseModel, MemoryModel]]


# The profile file format: each key of a profiles.<name> section, in file
# order, and the ResponseModel or MemoryModel field it sets. ResponseModel's
# keys are its field names.
_PROFILE_KEYS: dict[str, tuple[type, str]] = {
    **{f.name: (ResponseModel, f.name) for f in dataclasses.fields(ResponseModel)},
    "base_memory_mb": (MemoryModel, "base_mb"),
    "optimizer_memory_delta_mb": (MemoryModel, "optimizer_delta_mb"),
    "activation_mb_per_sample": (MemoryModel, "sample_mb"),
    "replay_frame_mb": (MemoryModel, "frame_mb"),
    "buffer_spike_threshold": (MemoryModel, "spike_threshold"),
    "buffer_spike_coeff": (MemoryModel, "spike_coeff"),
}
_KEY_OF_FIELD = {field: key for key, (_, field) in _PROFILE_KEYS.items()}


def _take_field(sec: Section, key: str, record: type, field: str):
    """A field's value, or its default; an int for a float field becomes
    that float (Section.take_number). The record checks the value."""
    spec = record.__dataclass_fields__[field]
    default = ... if spec.default is dataclasses.MISSING else spec.default
    take = sec.take if spec.type in (int, "int") else sec.take_number
    return take(key, default=default)


def load_profile_library(path: str | Path) -> ProfileLibrary:
    doc = load_yaml_mapping(path)
    label = str(path)
    check_schema_version(doc, label)
    root = Section(doc, label)

    platforms: dict[str, PlatformPreset] = {}
    platform_sec = root.section("platforms")
    for name in platform_sec.keys():
        sec = platform_sec.section(name)
        values = {f.name: sec.take_number(f.name) for f in dataclasses.fields(PlatformPreset)}
        sec.finish()
        platforms[name] = build(PlatformPreset, sec.path, values)
    platform_sec.finish()

    profiles: dict[str, tuple[ResponseModel, MemoryModel]] = {}
    profile_sec = root.section("profiles")
    for name in profile_sec.keys():
        sec = profile_sec.section(name)
        values = {ResponseModel: {}, MemoryModel: {}}
        for key, (record, field) in _PROFILE_KEYS.items():
            values[record][field] = _take_field(sec, key, record, field)
        sec.finish()
        profiles[name] = tuple(
            build(record, sec.path, fields, _KEY_OF_FIELD) for record, fields in values.items()
        )
    profile_sec.finish()
    root.finish()
    return ProfileLibrary(platforms=platforms, profiles=profiles)


def profile_document(name: str, response: ResponseModel, memory: MemoryModel) -> dict:
    """A profiles file holding one profile and no platforms, as a mapping for
    yaml.safe_dump; load_profile_library reads it back as (response, memory)."""
    records = {ResponseModel: response, MemoryModel: memory}
    profile = {key: getattr(records[cls], field) for key, (cls, field) in _PROFILE_KEYS.items()}
    return {"schema_version": 1, "platforms": {}, "profiles": {name: profile}}


def load_calibration_targets(path: str | Path) -> CalibrationTargets:
    doc = load_yaml_mapping(path)
    label = str(path)
    check_schema_version(doc, label)
    root = Section(doc, label)

    def point_list(key: str) -> tuple[tuple[int, float], ...]:
        raw = root.take(key, kind=list)
        points = []
        for idx, pair in enumerate(raw):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SchemaError(f"{label}.{key}[{idx}]: expected a [size, value] pair")
            size, value = pair  # CalibrationTargets checks both
            points.append((size, as_float(value)))
        return tuple(points)

    values = {"samples_per_experience": root.take("samples_per_experience")}
    for key in ("latency_points", "memory_points", "stability_points"):
        values[key] = point_list(key)
    plugin = root.section("plugin")
    keys = {
        "plugin_latency_off_s": "plugin.latency_without_s",
        "plugin_latency_on_s": "plugin.latency_with_s",
        "plugin_memory_off_mb": "plugin.memory_without_mb",
        "plugin_memory_on_mb": "plugin.memory_with_mb",
    }
    for field, key in keys.items():
        values[field] = plugin.take_number(key.removeprefix("plugin."))
    plugin.finish()
    root.finish()
    return build(CalibrationTargets, label, values, keys)
