"""
Controller versus the fixed baselines and the offline oracle
============================================================

The memory-hungry sampling algorithm on the smallest device is where fixed
configurations break: the throughput-first baseline blows device memory on
its giant batches, and the quality-first baseline does the same once both
optimization plugins are resident. The controller completes by keeping the
budget total under a hard cap and falling back to the default optimizer when
the advanced one cannot fit.

The oracle shows what offline brute force costs: 42 full runs over a
batch/buffer grid, a good number of which die of OOM on this device, against
a single adaptive run.
"""

from oclbudget import (
    BaselinePolicy,
    build_environment,
    load_bundled_scenario,
    run_baseline,
    run_control_loop,
    run_oracle,
)
from oclbudget.baselines import SUITE_BASELINES

scenario = load_bundled_scenario("xavier-gss")
print(f"scenario {scenario.name}: capacity {scenario.platform.capacity_mb:.0f} MB\n")


def describe(label, trace):
    if trace.completed:
        print(
            f"{label:12s} completed: latency {trace.total_latency_s():8.1f} s, "
            f"P {trace.final_plasticity():.3f}, S {trace.final_stability():.3f}, "
            f"peak {trace.peak_memory_mb():7.1f} MB"
        )
    else:
        failed = trace.records[-1]
        print(
            f"{label:12s} OOM at experience {failed.experience} "
            f"(needed {failed.memory_peak_mb:.0f} MB, batch {failed.knobs.batch_size}, "
            f"buffer {failed.knobs.buffer_size})"
        )


describe("controller", run_control_loop(scenario, build_environment(scenario)))
# A baseline policy is its Knobs; the suite's table names each one's label.
for label, knobs in SUITE_BASELINES.values():
    describe(label, run_baseline(BaselinePolicy(knobs), scenario))

# --- The 42-point offline sweep ---------------------------------------------

oracle = run_oracle(scenario)
print(f"\noracle grid runs: {oracle.run_count} (vs 1 controller run)")
print(f"grid points that hit OOM: {oracle.oom_count()}")
print(f"best configuration: batch={oracle.best_config[0]} buffer={oracle.best_config[1]}")

print("\ngrid outcomes (rows = batch, cols = buffer; x = OOM):")
batches = sorted({b for (b, _), _ in oracle.traces})
buffers = sorted({r for (_, r), _ in oracle.traces})
outcome = {key: trace for key, trace in oracle.traces}
print("        " + " ".join(f"{r:>8d}" for r in buffers))
for b in batches:
    cells = ["       x" if not outcome[(b, r)].completed else f"{outcome[(b, r)].total_latency_s():8.0f}" for r in buffers]
    print(f"{b:>7d} " + " ".join(cells))
print("(completed cells show total latency in seconds)")
