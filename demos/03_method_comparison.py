"""
Gradient-path attribution vs. a local surrogate
===============================================

The benchmark labels every injected fault with a ground-truth blame
vector, so attribution methods can be scored by mean absolute error
against it. We compare path-integrated gradients to a LIME-style
weighted linear surrogate and rank them with a Mann-Whitney U test.
"""

from blamekit import (
    BenchmarkConfig,
    NegativeSamplingConfig,
    SurrogateConfig,
    TrainConfig,
    evaluate_methods,
    explain,
    fit_detector,
    generate_fault_benchmark,
    select_baseline,
    surrogate_attribution,
)
from blamekit.evaluation import format_table

cfg = BenchmarkConfig(dims=8, n_normal=5000, n_test_normal=100,
                      n_faults=200, fault_dims=(1, 2), seed=0)
train, test = generate_fault_benchmark(cfg)

det = fit_detector(train,
                   NegativeSamplingConfig(ratio=3.0, envelope=0.05, seed=1),
                   TrainConfig(learning_rate=0.2, epochs=300, batch_size=64,
                               hidden=(24,), seed=2))
ex = select_baseline(det.normalizer.apply(train.values), det,
                     n=5, epsilon=0.1, seed=3)


def ig_method(x_raw):
    # each method maps the (N, D) matrix of raw faults to (N, D) blame
    return explain(det, ex, x_raw).blame


def surrogate_method(x_raw):
    sur_cfg = SurrogateConfig(samples=25 * det.dims, seed=4)
    return surrogate_attribution(det, det.normalizer.apply(x_raw), sur_cfg)


# normal test rows never enter the comparison
reports = evaluate_methods(test, {"ig": ig_method, "surrogate": surrogate_method})
print(format_table(reports))
for r in reports:
    for other, p in r.p_values.items():
        print(f"{r.name} vs {other}: two-sided p = {p:.3g}")
