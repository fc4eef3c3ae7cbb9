"""
Fitting the response model to measured anchors
==============================================

The simulator's response surfaces are calibrated, not invented: latency and
memory trends over batch size, the saturating stability gain over buffer
size, and the cost of enabling the optimization plugins all come from a
declarative targets file. This demo fits the model, reports residuals, and
checks the fitted surfaces against the anchors. The fitted memory model is
the one object both the controller and the simulator read memory costs from.
"""

import dataclasses

from oclbudget import Knobs, OptimizerMode, calibrate_profile, load_calibration_targets
from oclbudget.scenario import default_calibration_targets_path

targets = load_calibration_targets(default_calibration_targets_path())
print(f"targets: {len(targets.latency_points)} latency points, "
      f"{len(targets.memory_points)} memory points, "
      f"{len(targets.stability_points)} stability points")

result = calibrate_profile(targets)
profile, response, memory = result.profile, result.response, result.memory

print("\nfit residuals (max relative error per group):")
for group, residual in sorted(result.residuals.items()):
    print(f"  {group:10s} {residual:.4%}")

print("\nfitted parameters:")
print(f"  compute cost per sample   {profile.compute_cost_per_sample_s:.6g} s")
print(f"  compute-bound batch knee  {response.batch_knee}")
print(f"  plugin latency multiplier {profile.optimizer_latency_multiplier:.4f}")
print(f"  stability gain limit      {response.stability_gain_max:.4f}")
print(f"  stability buffer scale    {response.stability_buffer_scale:.1f}")

print("\nfitted memory model, shared by the controller and the simulator")
print("(the targets do not constrain the frame and spike terms; they keep defaults):")
for field in dataclasses.fields(memory):
    print(f"  {field.name:18s} {getattr(memory, field.name):.6g}")

n = targets.samples_per_experience
print("\nfitted latency/memory over batch size:")
for batch in (16, 32, 64, 128, 256, 512):
    lat = response.compute_latency_s(profile, batch, 0, OptimizerMode.DEFAULT, 1, n)
    mem = memory.memory_mb(Knobs(batch, 0, OptimizerMode.DEFAULT))
    print(f"  B={batch:4d}  latency {lat:8.1f} s  memory {mem:7.1f} MB")

print("\nfitted stability gain over buffer size:")
for buffer in (10, 100, 1000, 10000, 100000):
    print(f"  R={buffer:7d}  gain {response.stability_gain(buffer):.4f}")
