"""
End-to-end walkthrough: detect an anomaly and blame the right signal
====================================================================

We generate a synthetic telemetry benchmark with two normal operating
modes, fit a negative-sampling detector, pick exemplar baselines from
the high-confidence region, and then explain a faulty observation by
integrating detector gradients along the path back to the nearest
exemplar.
"""

import numpy as np

from blamekit import (
    BenchmarkConfig,
    NegativeSamplingConfig,
    TrainConfig,
    check_desiderata,
    explain,
    fit_detector,
    generate_fault_benchmark,
    select_baseline,
)

# ---------------------------------------------------------------
# 1. Synthetic benchmark: 8 signals, two operating modes, faults
#    that push one or two signals outside the normal envelope.
# ---------------------------------------------------------------
cfg = BenchmarkConfig(dims=8, n_normal=5000, n_test_normal=200,
                      n_faults=100, fault_dims=(1, 2), seed=0)
train, test = generate_fault_benchmark(cfg)
print(f"train rows: {len(train)}, test rows: {len(test)}")

# ---------------------------------------------------------------
# 2. Fit the detector. Normal rows are positives; uniformly sampled
#    points over the (slightly inflated) unit cube are negatives.
# ---------------------------------------------------------------
det = fit_detector(train,
                   NegativeSamplingConfig(ratio=3.0, envelope=0.05, seed=1),
                   TrainConfig(learning_rate=0.2, epochs=300, batch_size=64,
                               hidden=(24,), seed=2))
print(f"held-out AUC: {det.meta['auc']:.4f}")

# ---------------------------------------------------------------
# 3. Exemplar baselines: cluster the high-confidence training points
#    with DBSCAN and keep a few per cluster, so every operating mode
#    has a nearby normal reference.
# ---------------------------------------------------------------
ex = select_baseline(det.normalizer.apply(train.values), det,
                     n=5, epsilon=0.1, seed=3)
print(f"exemplars: {len(ex)} across {len(set(ex.clusters.tolist()))} clusters")

# ---------------------------------------------------------------
# 4. Explain the first injected fault. Blame lands on the dimensions
#    the fault actually moved (beta marks the ground truth).
# ---------------------------------------------------------------
i = int(np.argmax(test.anomalous))  # the test set's first fault row
e = explain(det, ex, test.x[i:i + 1])  # explain takes a matrix of rows
blame, beta = e.blame[0], test.beta[i]
print(f"\nanomaly score: {e.score[0]:.4f} (baseline scores {e.baseline_score[0]:.4f})")
print(f"completeness gap: {e.gap[0]:.2e} at m={e.steps[0]}")
print("dim  blame   truth")
for d in range(cfg.dims):
    print(f"{d:3d}  {blame[d]:.4f}  {beta[d]:.4f}")
print(f"argmax blame = dim {int(np.argmax(blame))}, "
      f"true fault dims = {np.flatnonzero(beta).tolist()}")

# ---------------------------------------------------------------
# 5. Audit the explanation against the four desiderata.
# ---------------------------------------------------------------
report = check_desiderata(det, e.x[0], e.baseline[0], e.raw[0])
print(f"\ncontrastive: {report['contrastive']}, "
      f"gap: {report['completeness_gap']:.2e}, "
      f"proportionality agreement: {report['proportionality_pass_ratio']:.2f}")
