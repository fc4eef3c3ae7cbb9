"""
Accuracy metrics and the URGE health score
==========================================

Builds a small accuracy history by hand, computes plasticity and stability
from it, and shows how the four logistic factors of the health score react
as each metric moves across its threshold.
"""

import dataclasses

from oclbudget import (
    AccuracyMatrix,
    MetricSnapshot,
    Thresholds,
    compute_urge,
    plasticity,
    snapshot,
    stability,
    weights_from_preference,
)

# A three-experience run: each row holds the current model's test accuracy
# on every experience seen so far. The model learns each new experience well
# (diagonal ~0.9) but forgets older ones as training moves on.
matrix = AccuracyMatrix(
    [
        [0.90],
        [0.78, 0.88],
        [0.70, 0.80, 0.91],
    ]
)

for k in (1, 2, 3):
    print(
        f"after experience {k}: plasticity={plasticity(matrix, k):.4f} "
        f"stability={stability(matrix, k):.4f}"
    )

# Plasticity is the mean of the latest row; stability is one minus the mean
# accuracy lost relative to each experience's own training step. At k=1
# there is nothing to forget, so stability is 1 by definition.

# --- The health score -------------------------------------------------------

# Thresholds are the targets the controller steers against. The score is a
# product of four logistic factors: lagging plasticity/stability and high
# latency push it up (urgent to optimize), while memory pressure pulls it
# down (risky to optimize).
thresholds = Thresholds(plasticity=0.85, stability=0.95, latency_s=100.0, memory_mb=6000.0)
weights = weights_from_preference(["memory", "plasticity", "stability", "latency"])
print(f"\nweights from [memory, plasticity, stability, latency]: {dataclasses.asdict(weights)}")

# A snapshot holds only the four measured values; the thresholds are passed
# to the score, once per run in the controller.
snap = snapshot(matrix, 3, latency_s=140.0, memory_peak_mb=4600.0)
score = compute_urge(snap, thresholds, weights)
print(f"\nsnapshot: P={snap.plasticity:.3f} S={snap.stability:.3f} L={snap.latency_s}s M={snap.memory_peak_mb}MB")
print(
    f"factors: plasticity={score.plasticity_factor:.4f} stability={score.stability_factor:.4f} "
    f"latency={score.latency_factor:.4f} memory={score.memory_factor:.4f}"
)
print(f"health score = {score.value:.5f}  (neutral point is 0.5^4 = 0.0625)")

# Sweep one metric at a time to see the monotone response of the score.
print("\nlatency sweep (all else fixed):")
for latency in (50.0, 100.0, 200.0, 400.0):
    s = MetricSnapshot(0.8, 0.9, latency, 4600.0)
    print(f"  latency={latency:6.1f}s -> score {compute_urge(s, thresholds, weights).value:.5f}")

print("\nmemory sweep (all else fixed):")
for memory in (3000.0, 5000.0, 6000.0, 7000.0):
    s = MetricSnapshot(0.8, 0.9, 140.0, memory)
    print(f"  memory={memory:7.1f}MB -> score {compute_urge(s, thresholds, weights).value:.5f}")
