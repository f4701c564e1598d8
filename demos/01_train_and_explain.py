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
fault = next(t for t in test if t.anomalous)
e = explain(det, ex, fault.x[None])[0]  # explain takes a matrix of rows
print(f"\nanomaly score: {e.score:.4f} (baseline scores {e.baseline_score:.4f})")
print(f"completeness gap: {e.gap:.2e} at m={e.path.steps}")
print("dim  blame   truth")
for d in range(cfg.dims):
    print(f"{d:3d}  {e.blame[d]:.4f}  {fault.beta[d]:.4f}")
print(f"argmax blame = dim {int(np.argmax(e.blame))}, "
      f"true fault dims = {np.flatnonzero(fault.beta).tolist()}")

# ---------------------------------------------------------------
# 5. Audit the explanation against the four desiderata.
# ---------------------------------------------------------------
report = check_desiderata(det, e.x, e.baseline, e.raw)
print(f"\ncontrastive: {report['contrastive']}, "
      f"gap: {report['completeness_gap']:.2e}, "
      f"proportionality agreement: {report['proportionality_pass_ratio']:.2f}")
