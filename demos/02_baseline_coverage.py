"""
Why cluster before sampling baselines
=====================================

When one operating mode dominates the training data, simply taking the
highest-scoring points as baselines crowds them all into the dense
mode. Explanations for anomalies near the sparse mode then integrate
along a path that crosses the normal region, muddying the blame.
Cluster-stratified sampling keeps a few exemplars per mode.
"""

import numpy as np

from blamekit import (
    BenchmarkConfig,
    Mode,
    NegativeSamplingConfig,
    TrainConfig,
    fit_detector,
    generate_fault_benchmark,
    naive_baseline,
    select_baseline,
)

# two modes with a 19:1 weight imbalance
modes = [
    Mode(np.array([0.25 + 0.1 * (d % 2) for d in range(8)]), 0.03, 19.0),
    Mode(np.array([0.65 + 0.1 * ((d + 1) % 2) for d in range(8)]), 0.03, 1.0),
]
cfg = BenchmarkConfig(dims=8, modes=modes, n_normal=4000, n_test_normal=10,
                      n_faults=10, seed=11)
train, _ = generate_fault_benchmark(cfg)

det = fit_detector(train,
                   NegativeSamplingConfig(ratio=3.0, envelope=0.05, seed=1),
                   TrainConfig(learning_rate=0.2, epochs=300, batch_size=64,
                               hidden=(24,), seed=2))
x_norm = det.normalizer.apply(train.values)

clustered = select_baseline(x_norm, det, n=5, epsilon=0.1, seed=3)
naive = naive_baseline(x_norm, det, size=len(clustered))

centers = np.stack([det.normalizer.apply(m.center) for m in modes])


def mode_counts(points):
    nearest = np.argmin(
        np.linalg.norm(points[:, None, :] - centers[None], axis=2), axis=1)
    return np.bincount(nearest, minlength=len(modes))


print(f"matched sample size: {len(clustered)} exemplars each")
print(f"naive top-score picks per mode:  {mode_counts(naive.points).tolist()}")
print(f"cluster-stratified picks per mode: {mode_counts(clustered.points).tolist()}")
