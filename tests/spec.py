"""The executable specification of every number oclbudget reports.

Plain code over the standard library: it never imports oclbudget. It reads
only the public fields of a ScenarioConfig (and of the records those fields
hold), and packed_trace the records and outcome of a package trace, and
computes each run in the most direct form: one loop for every
policy, the environment step written out, the accuracy matrix kept as an
explicit list of rows, every metric sum added newest first with plain +,
URGE, the controller step with its exact errors, the oracle's ranking, and
both report formats with every cell spelled on its own.

A run's record mirrors the package's TraceRecord as plain tuples:
(experience, (batch, buffer, mode), score, threshold, snapshot,
(batch_mb, replay_mb, optimizer_mb, mode), memory_peak_mb), where score is
(value, plasticity, stability, latency and memory factors), snapshot is
(plasticity, stability, latency_s, memory_peak_mb), both None for an OOM
experience, and a mode is "default" or "advanced".

The tests compare the package with this module; a behaviour change edits it
first.
"""

import json
import math
import random
import struct
from collections import namedtuple

PREFETCH_OVERLAP = 0.85  # the share of a staged experience's compute that hides its load
SUITE_KNOBS = {
    "max-a": (32, 1000, "advanced"),
    "max-p": (1024, 10, "default"),
    "fixed-proxy": (64, 2000, "default"),
}
ORACLE_BATCHES = (16, 32, 64, 128, 256, 512, 1024)
ORACLE_BUFFERS = (10, 100, 1000, 10000, 100000, 1000000)
CSV_HEADER = (
    "scenario,policy,experience,batch,buffer,opt_mode,score,threshold,"
    "latency_s,mem_peak_mb,plasticity,stability,outcome"
)

# outcome is "completed", "oom_failed" or "infeasible"; message is the
# infeasible step's error, else None; matrix is the accuracy matrix, a list
# of rows, row k holding a[k][1] .. a[k][k].
Run = namedtuple("Run", "records outcome message matrix")


class InfeasibleBudgetError(Exception):
    """The controller step found no budgets to take."""


def next_row(matrix, factor, diagonal):
    """Row k: each entry of row k - 1 times experience k's decay factor, then
    the new diagonal accuracy."""
    return [v * factor for v in (matrix[-1] if matrix else [])] + [diagonal]


def newest_first_sum(values):
    total = 0.0
    for v in reversed(values):
        total += v
    return total


def plasticity(matrix, k):
    """The mean of row k."""
    return newest_first_sum(matrix[k - 1]) / k


def stability(matrix, k):
    """One minus the mean forgetting max(0, a[i][i] - a[k][i]) over i < k,
    clamped to [0, 1]; 1 at k = 1."""
    if k == 1:
        return 1.0
    row = matrix[k - 1]
    forgetting = newest_first_sum([max(0.0, matrix[i][i] - row[i]) for i in range(k - 1)])
    return min(1.0, max(0.0, 1.0 - forgetting / (k - 1)))


def weights(preference):
    """(k_p, k_s, k_l, k_m): the metric at position p (0-based) of the
    most-important-first ordering weighs (4 - p) / 10."""
    rank = {name: 4 - p for p, name in enumerate(preference)}
    return tuple(rank[name] / 10 for name in ("plasticity", "stability", "latency", "memory"))


def logistic(x):
    """1 / (1 + exp(-x)), x clamped to [-36, 36]; a NaN passes through."""
    x = 36.0 if x > 36.0 else -36.0 if x < -36.0 else x
    return 1.0 / (1.0 + math.exp(-x))


def urge(snapshot, thresholds, weights):
    """(value, f_p, f_s, f_l, f_m): each deviation over its threshold
    (floored at 1e-9), weighted; high plasticity, stability and memory pull
    the score down, high latency pulls it up."""
    p, s, latency, memory = snapshot
    k_p, k_s, k_l, k_m = weights
    th = thresholds
    f_p = logistic(-(k_p * ((p - th.plasticity) / max(th.plasticity, 1e-9))))
    f_s = logistic(-(k_s * ((s - th.stability) / max(th.stability, 1e-9))))
    f_l = logistic(k_l * ((latency - th.latency_s) / max(th.latency_s, 1e-9)))
    f_m = logistic(-(k_m * ((memory - th.memory_mb) / max(th.memory_mb, 1e-9))))
    return (f_p * f_s * f_l * f_m, f_p, f_s, f_l, f_m)


def update_budgets(prev, score, threshold, config):
    """The next (batch_mb, replay_mb, optimizer_mb, mode).

    At or above the threshold both budgets grow by 1 + sensitivity * gain
    and the advanced optimizer is tried before the default one; below it
    they shrink by the mirrored factor at the default level. A level whose
    total passes the cap capacity * (1 - margin) scales batch and replay to
    meet it, nudged down an ulp at a time while rounding leaves it above,
    and fits if room for one sample and one frame is left.
    """
    memory = config.memory
    if score >= threshold:
        gain = score - threshold
        batch = prev[0] * (1.0 + config.batch_sensitivity * gain)
        replay = prev[1] * (1.0 + config.replay_sensitivity * gain)
        advanced = memory.base_mb + memory.optimizer_delta_mb
        levels = [("advanced", advanced), ("default", memory.base_mb)]
    else:
        drop = threshold - score
        batch = prev[0] * (1.0 - config.batch_sensitivity * drop)
        replay = prev[1] * (1.0 - config.replay_sensitivity * drop)
        levels = [("default", memory.base_mb)]
    if not (0.0 <= batch < math.inf and 0.0 <= replay < math.inf):
        kind = "negative" if batch < 0 or replay < 0 else "non-finite"
        raise InfeasibleBudgetError(
            f"sensitivity large enough to drive a budget {kind}; "
            f"got batch={batch:.3f} replay={replay:.3f}"
        )
    cap = config.capacity_mb * (1.0 - config.safety_margin)
    for mode, optimizer in levels:
        batch_fit, replay_fit = batch, replay
        if batch_fit + replay_fit + optimizer > cap:
            available, scalable = cap - optimizer, batch_fit + replay_fit
            if available <= 0 or scalable <= 0:
                problem = f"optimizer budget {optimizer:.1f} MB leaves no room under the "
                problem += f"{cap:.1f} MB cap"
                continue
            batch_fit *= available / scalable
            replay_fit *= available / scalable
            while batch_fit + replay_fit + optimizer > cap:
                batch_fit = math.nextafter(batch_fit, 0.0)
                replay_fit = math.nextafter(replay_fit, 0.0)
            if batch_fit < memory.sample_mb or replay_fit < memory.frame_mb:
                problem = (
                    "projection pushed a budget below its minimum knob requirement "
                    f"(batch {batch_fit:.3f} MB, replay {replay_fit:.3f} MB)"
                )
                continue
        return (batch_fit, replay_fit, optimizer, mode)
    raise InfeasibleBudgetError(problem)


def derive_knobs(state, config):
    """(batch, buffer, mode): each budget over its per-item cost, floored, at least 1."""
    memory = config.memory
    return (
        max(1, math.floor(state[0] / memory.sample_mb)),
        max(1, math.floor(state[1] / memory.frame_mb)),
        state[3],
    )


def run_policy(scenario, state, knobs_for, update, prefetch=True):
    """Train every experience at knobs_for(state), score it and move the
    state with update(state, score, threshold); a Run."""
    response, platform, config = scenario.response, scenario.platform, scenario.controller
    memory_model, n = config.memory, scenario.samples_per_experience
    score_weights = weights(scenario.preference)
    rng = random.Random(scenario.seed) if response.noise_fraction > 0.0 else None
    load = n * platform.load_time_per_sample_s
    records, matrix = [], []
    for e in range(1, scenario.num_experiences + 1):
        knobs = knobs_for(state)
        batch, buffer, mode = knobs
        advanced = mode == "advanced"
        overhang = max(0, buffer - memory_model.spike_threshold)
        memory = (
            memory_model.base_mb
            + batch * memory_model.sample_mb
            + buffer * memory_model.frame_mb
            + (memory_model.optimizer_delta_mb if advanced else 0.0)
            + memory_model.spike_coeff * overhang * overhang
        )
        if memory > platform.capacity_mb:
            records.append((e, knobs, None, None, None, state, memory))
            return Run(records, "oom_failed", None, matrix)

        c_iter = response.compute_cost_per_sample_s * max(batch, response.batch_knee)
        optimizer = response.optimizer_latency_multiplier if advanced else 1.0
        stream = (n / batch) * c_iter * optimizer
        replay = buffer * response.replay_sampling_cost_s
        growth = response.per_experience_growth ** (e - 1)
        compute = (stream * growth + replay) * platform.compute_scale
        # Every experience after the first is staged while the previous one trains.
        hidden = max(0.0, load - PREFETCH_OVERLAP * compute) if e > 1 and prefetch else load
        latency = compute + hidden
        updates = n / batch
        learned = 1.0 - math.exp(-updates / response.plasticity_updates_scale)
        level = response.plasticity_max * learned
        if advanced:
            level += response.advanced_plasticity_bonus
        diagonal = min(1.0, max(0.0, level))
        if rng is not None:  # latency first, then the diagonal
            latency *= 1.0 + response.noise_fraction * rng.uniform(-1.0, 1.0)
            jitter = 1.0 + response.noise_fraction * rng.uniform(-1.0, 1.0)
            diagonal = min(1.0, max(0.0, diagonal * jitter))
        kept = 1.0 - math.exp(-buffer / response.stability_buffer_scale)
        decay = response.forgetting_rate * (1.0 - response.stability_gain_max * kept)
        matrix.append(next_row(matrix, 1.0 - decay, diagonal))

        snapshot = (plasticity(matrix, e), stability(matrix, e), latency, memory)
        score = urge(snapshot, scenario.thresholds, score_weights)
        threshold = config.initial_threshold * math.exp(-config.threshold_decay * (e - 1))
        try:
            state = update(state, score[0], threshold)
        except InfeasibleBudgetError as exc:
            return Run(records, "infeasible", str(exc), matrix)
        records.append((e, knobs, score, threshold, snapshot, state, memory))
    return Run(records, "completed", None, matrix)


def initial_state(scenario):
    memory = scenario.controller.memory
    return (scenario.initial_batch_mb, scenario.initial_replay_mb, memory.base_mb, "default")


def run_controller(scenario):
    config = scenario.controller
    return run_policy(
        scenario,
        initial_state(scenario),
        lambda state: derive_knobs(state, config),
        lambda state, score, threshold: update_budgets(state, score, threshold, config),
    )


def run_fixed(scenario, knobs=None, prefetch=True):
    """A baseline at one (batch, buffer, mode) for the whole run, its state
    the budgets those knobs occupy; no knobs means the initial budgets and
    the knobs derived from them."""
    memory = scenario.controller.memory
    if knobs is None:
        state = initial_state(scenario)
        knobs = derive_knobs(state, scenario.controller)
    else:
        batch, buffer, mode = knobs
        advanced = mode == "advanced"
        optimizer = memory.base_mb + memory.optimizer_delta_mb if advanced else memory.base_mb
        state = (batch * memory.sample_mb, buffer * memory.frame_mb, optimizer, mode)
    return run_policy(
        scenario, state, lambda state: knobs, lambda state, score, threshold: state, prefetch
    )


def oracle_best(grid):
    """The completed (batch, buffer) run with the highest mean of final
    plasticity and stability, then the lowest total latency, then the
    smallest grid point; None when every run hit OOM."""

    def rank(point):
        records = grid[point].records
        p, s = records[-1][4][:2]
        return (-((p + s) / 2.0), sum(record[4][2] for record in records), *point)

    completed = [point for point, run in grid.items() if run.outcome == "completed"]
    return min(completed, key=rank) if completed else None


def suite(scenario):
    """Every policy's (label, records), sorted by label, and the oracle's best."""
    runs = [("controller", run_controller(scenario))]
    runs += [(label, run_fixed(scenario, knobs)) for label, knobs in SUITE_KNOBS.items()]
    grid = {
        (batch, buffer): run_fixed(scenario, (batch, buffer, "default"))
        for batch in ORACLE_BATCHES
        for buffer in ORACLE_BUFFERS
    }
    runs += [(f"oracle[b{b:04d}-r{r:07d}]", run) for (b, r), run in grid.items()]
    for label, run in runs:
        if run.message is not None:
            raise InfeasibleBudgetError(run.message)
    return sorted((label, run.records) for label, run in runs), oracle_best(grid)


def report_fields(record):
    """The record's 14 report values by name; a float field is a float."""
    e, (batch, buffer, mode), score, threshold, snapshot, budgets, memory = record
    scored = snapshot is not None
    p, s, latency, _ = snapshot if scored else (None,) * 4
    floats = {
        "score": score[0] if scored else None, "threshold": threshold, "latency_s": latency,
        "mem_peak_mb": memory, "plasticity": p, "stability": s, "budget_batch_mb": budgets[0],
        "budget_replay_mb": budgets[1], "budget_optimizer_mb": budgets[2],
    }
    return {
        "experience": e, "batch": batch, "buffer": buffer, "opt_mode": mode,
        "outcome": "ok" if scored else "oom",
        **{name: None if v is None else float(v) for name, v in floats.items()},
    }


def csv_row(scenario_name, policy, record):
    """The 13 CSV cells: a float as %.6g, a value an OOM record lacks empty."""
    fields = {"scenario": scenario_name, "policy": policy, **report_fields(record)}
    cells = [fields[column] for column in CSV_HEADER.split(",")]
    return ",".join("" if v is None else f"{v:.6g}" if type(v) is float else str(v) for v in cells)


def json_line(scenario_name, policy, record):
    """The record's 16 fields through json.dumps(..., sort_keys=True)."""
    fields = {"scenario": scenario_name, "policy": policy, **report_fields(record)}
    return json.dumps(fields, sort_keys=True)


def reports(scenario_name, runs):
    """The CSV and JSONL bytes of (policy, records) pairs, a line per record."""
    rows = [(policy, record) for policy, records in runs for record in records]
    csv = [CSV_HEADER] + [csv_row(scenario_name, policy, record) for policy, record in rows]
    jsonl = [json_line(scenario_name, policy, record) for policy, record in rows]
    return tuple("".join(line + "\n" for line in lines).encode() for lines in (csv, jsonl))


def packed(record):
    """The record's values with its 14 floats as their bytes: (experience,
    batch, buffer, flag, bytes), flag 1 for advanced knobs, 2 for advanced
    budgets and 4 for OOM, an OOM record's first ten floats 0.0."""
    e, (batch, buffer, mode), score, threshold, snapshot, budgets, memory = record
    flag = (mode == "advanced") | (budgets[3] == "advanced") << 1 | (snapshot is None) << 2
    scored = (0.0,) * 10 if snapshot is None else (*score, threshold, *snapshot)
    return e, batch, buffer, flag, struct.pack("14d", *scored, *budgets[:3], memory)


def packed_trace(trace, message=None):
    """A package RunTrace as (its records packed, its outcome's name,
    message), as a Run's are compared: a package TraceRecord is the tuple a
    record is here, and its modes equal their names."""
    return [packed(record) for record in trace.records], trace.outcome.value, message
