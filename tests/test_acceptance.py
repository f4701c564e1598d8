"""Release gate: ten criteria, one pass/fail line each.

Each test prints a single summary line (also echoed after the run) so
the gate status is readable without digging through tracebacks. The
trained fixtures come from conftest; everything else is built here.
"""

import math
import time

import numpy as np
import pytest

from blamekit import (
    BenchmarkConfig,
    TrainConfig,
    attribution_error,
    blame,
    completeness_gap,
    explain,
    fit_detector,
    generate_fault_benchmark,
    integrated_gradients,
    mann_whitney_u,
    naive_baseline,
    nearest_exemplar,
    select_baseline,
)
from blamekit import network
from blamekit.benchmark import Mode
from blamekit.evaluation import evaluate_methods
from blamekit.surrogate import surrogate_attribution
from conftest import NS_CFG, train_cfg
from helpers import logistic_unit_ig_closed_form, unit_detector

RESULTS = []


def check(num, desc, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {desc}{tail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


def test_01_gradient_matches_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(0)
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        dims = int(rng.integers(2, 7))
        model = network.init_network(dims, (int(rng.integers(3, 9)),),
                                     seed=int(rng.integers(1000)))
        x = rng.uniform(size=dims)
        g = network.input_gradient_batch(model, x[None])[0]
        for d in range(dims):
            lo, hi = x.copy(), x.copy()
            lo[d] -= h
            hi[d] += h
            fd = (network.forward_batch(model, hi[None])[0]
                  - network.forward_batch(model, lo[None])[0]) / (2 * h)
            rel = abs(g[d] - fd) / max(abs(fd), 1e-6)
            worst = max(worst, rel)
    ok = worst <= 1e-4 and time.time() - t0 < 10
    check(1, "input gradients match central finite differences", ok,
          f"worst rel err {worst:.2e}")


def test_02_ig_matches_analytic_path_integral():
    t0 = time.time()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        dims = int(rng.integers(2, 7))
        w = rng.normal(size=dims)
        b = float(rng.normal())
        det = unit_detector(w, b)
        x, xb = rng.uniform(size=dims), rng.uniform(size=dims)
        raw = integrated_gradients(det, x[None], xb[None], "straight", 2048)[0]
        exact = logistic_unit_ig_closed_form(w, b, x, xb)
        worst = max(worst, float(np.max(np.abs(raw - exact))))
    ok = worst <= 1e-6 and time.time() - t0 < 10
    check(2, "IG matches the closed-form logistic path integral", ok,
          f"worst abs err {worst:.2e}")


def test_03_completeness(det16, ex16, anomalies16):
    t0 = time.time()
    rng = np.random.default_rng(7)
    worst_gap = 0.0
    decreasing = 0
    n_pairs = 100
    for _ in range(n_pairs):
        x = det16.normalizer.apply(anomalies16.x[int(rng.integers(len(anomalies16)))])
        xb = ex16.points[int(rng.integers(len(ex16)))]
        gaps = {}
        m = 256
        while True:
            raw = integrated_gradients(det16, x[None], xb[None], "straight", m)
            gaps[m] = completeness_gap(det16, x[None], xb[None], raw)[0]
            if gaps[m] <= 1e-3 or m >= 2 ** 16:
                break
            m *= 2
        final = gaps[m]
        worst_gap = max(worst_gap, final)
        g256 = gaps.get(256)
        g1024 = gaps.get(1024, final)
        decreasing += g1024 <= g256
    ok = (worst_gap <= 1e-3 and decreasing >= 0.95 * n_pairs
          and time.time() - t0 < 60)
    check(3, "attributions sum to the score difference (gap <= 1e-3)", ok,
          f"worst gap {worst_gap:.2e}, decreasing {decreasing}/{n_pairs}")


def test_04_nearby_baselines_give_equivalent_attributions(det16, ex16, anomalies16):
    t0 = time.time()
    rng = np.random.default_rng(5)
    deltas = (0.05, 0.01, 0.002)
    picks = rng.choice(len(anomalies16), size=20, replace=False)
    diffs = {d: [] for d in deltas}
    for i in picks:
        x = det16.normalizer.apply(anomalies16.x[i])
        c = nearest_exemplar(x[None], ex16)[0][0]
        base = integrated_gradients(det16, x[None], c[None], "straight", 2048)[0]
        # one shared direction per anomaly, kept high-confidence at all radii
        for _ in range(100):
            u = rng.normal(size=len(c))
            u /= np.linalg.norm(u)
            if all(network.forward_batch(det16.model, (c + d * u)[None])[0] > 0.9
                   for d in deltas):
                break
        for d in deltas:
            other = integrated_gradients(det16, x[None], (c + d * u)[None],
                                         "straight", 2048)[0]
            diffs[d].append(float(np.max(np.abs(base - other))))
    means = [float(np.mean(diffs[d])) for d in deltas]
    ok = (means[0] > means[1] > means[2] and means[2] <= 1e-3
          and time.time() - t0 < 60)
    check(4, "perturbed baselines converge to equivalent attributions", ok,
          "mean max-dim diffs " + ", ".join(f"{m:.2e}" for m in means))


def test_05_proportionality(det16, ex16, anomalies16):
    t0 = time.time()
    agree = tried = 0
    es = explain(det16, ex16, anomalies16.x[:50])
    denses = blame(integrated_gradients(det16, es.x, es.baseline, "straight", 16384))
    for b, dense in zip(es.blame, denses):
        for u in range(det16.dims):
            for v in range(u + 1, det16.dims):
                if abs(dense[u] - dense[v]) < 1e-6:
                    continue  # tied pair, excluded
                tried += 1
                agree += np.sign(b[u] - b[v]) == np.sign(dense[u] - dense[v])
    ratio = agree / tried
    ok = ratio >= 0.95 and time.time() - t0 < 120
    check(5, "blame ordering matches dense rate-of-change ordering", ok,
          f"{agree}/{tried} pairs agree ({ratio:.3f})")


def test_06_baseline_selection_contract(det8, ex8):
    t0 = time.time()
    counts = np.bincount(ex8.clusters)
    per_cluster_ok = np.all((counts >= 1) & (counts <= 5))
    scores_ok = np.all(ex8.scores > 0.9)

    # unbalanced 19:1 modes: naive top-score picks crowd into the dense
    # mode, cluster-stratified picks still cover both
    modes = [
        Mode(np.array([0.25 + 0.1 * (d % 2) for d in range(8)]), 0.03, 19.0),
        Mode(np.array([0.65 + 0.1 * ((d + 1) % 2) for d in range(8)]), 0.03, 1.0),
    ]
    cfg = BenchmarkConfig(dims=8, modes=modes, n_normal=4000, n_test_normal=10,
                          n_faults=10, seed=11)
    train, _ = generate_fault_benchmark(cfg)
    det = fit_detector(train, NS_CFG, train_cfg(300))
    x_norm = det.normalizer.apply(train.values)
    clustered = select_baseline(x_norm, det, n=5, epsilon=0.1, seed=3)
    naive = naive_baseline(x_norm, det, size=len(clustered))

    def modes_covered(points):
        centers = np.stack([det.normalizer.apply(m.center) for m in modes])
        nearest = np.argmin(
            np.linalg.norm(points[:, None, :] - centers[None], axis=2), axis=1)
        return set(nearest.tolist())

    coverage_ok = (len(modes_covered(naive.points)) == 1
                   and len(modes_covered(clustered.points)) == 2)
    ok = bool(per_cluster_ok and scores_ok and coverage_ok
              and time.time() - t0 < 30)
    check(6, "exemplar selection covers all modes, naive top-score does not", ok,
          f"clusters {counts.tolist()}, naive modes {sorted(modes_covered(naive.points))}, "
          f"clustered modes {sorted(modes_covered(clustered.points))}")


def test_07_detector_holdout_auc(det8):
    auc = det8.meta["auc"]
    ok = auc is not None and auc >= 0.95
    check(7, "default-benchmark detector held-out AUC >= 0.95", ok,
          f"auc {auc:.4f}")


def test_08_attribution_quality(det16, ex16, anomalies16):
    t0 = time.time()
    assert len(anomalies16) >= 200

    def ig_method(x_raw):
        return explain(det16, ex16, x_raw).blame

    def surrogate_method(x_raw):
        return surrogate_attribution(det16, det16.normalizer.apply(x_raw), seed=6)

    reports = {r.name: r for r in evaluate_methods(
        anomalies16, {"ig": ig_method, "surrogate": surrogate_method})}
    p = reports["ig"].p_values["surrogate"]

    singles = np.isclose(anomalies16.beta.max(axis=1), 1.0)
    hits = sum(beta[np.argmax(b)] == 1.0
               for beta, b in zip(anomalies16.beta[singles],
                                  explain(det16, ex16, anomalies16.x[singles]).blame))
    hit_rate = hits / np.count_nonzero(singles)
    ok = (reports["ig"].mean < reports["surrogate"].mean and p < 0.05
          and hit_rate >= 0.90 and time.time() - t0 < 600)
    check(8, "IG beats the local surrogate on attribution error", ok,
          f"err {reports['ig'].mean:.3f} vs {reports['surrogate'].mean:.3f}, "
          f"p {p:.2e}, argmax hit rate {hit_rate:.3f}")


def test_09_metric_oracles():
    t0 = time.time()
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 16))
        b, beta = rng.uniform(size=d), rng.uniform(size=d)
        oracle = math.fsum(abs(x - y) for x, y in zip(b, beta)) / d
        worst = max(worst, abs(attribution_error(b, beta) - oracle) / oracle)

    _, p = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])

    sums_ok = True
    for _ in range(100):
        a = rng.integers(0, 5, size=rng.integers(3, 12)).astype(float)
        b = rng.integers(0, 5, size=rng.integers(3, 12)).astype(float)
        ua, _ = mann_whitney_u(a, b)
        ub, _ = mann_whitney_u(b, a)
        sums_ok &= ua + ub == len(a) * len(b)
    ok = worst <= 1e-12 and p == 0.1 and sums_ok and time.time() - t0 < 10
    check(9, "metric implementations match independent oracles", ok,
          f"error metric rel diff {worst:.1e}, exact p {p}")


def test_10_cli_determinism(tmp_path):
    from blamekit.cli import main

    t0 = time.time()
    primary = ["train.csv", "test.csv", "detector.json", "exemplars.json",
               "expl.jsonl", "report.json"]
    for d in ("a", "b"):
        root = tmp_path / d
        root.mkdir()
        assert main(["benchmark", "--out-dir", str(root), "--dims", "4",
                     "--n-normal", "400", "--n-test-normal", "30",
                     "--n-faults", "40", "--seed", "9"]) == 0
        assert main(["train", str(root / "train.csv"),
                     "--out", str(root / "detector.json"), "--hidden", "16",
                     "--epochs", "80", "--lr", "0.3", "--seed", "9"]) == 0
        assert main(["baseline", str(root / "detector.json"),
                     str(root / "train.csv"), "--out", str(root / "exemplars.json"),
                     "--seed", "9"]) == 0
        head = "\n".join((root / "train.csv").read_text().splitlines()[:9]) + "\n"
        (root / "input.csv").write_text(head)
        assert main(["explain", str(root / "detector.json"),
                     str(root / "exemplars.json"), str(root / "input.csv"),
                     "--out", str(root / "expl.jsonl")]) == 0
        assert main(["evaluate", str(root / "detector.json"),
                     str(root / "exemplars.json"), str(root / "test.csv"),
                     "--out", str(root / "report.json"),
                     "--methods", "ig,surrogate", "--seed", "9"]) == 0
    same = [name for name in primary
            if (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()]
    ok = len(same) == len(primary) and time.time() - t0 < 120
    check(10, "CLI reruns produce byte-identical outputs", ok,
          f"{len(same)}/{len(primary)} files identical")
