import json

import numpy as np
import pytest

from blamekit import (
    BenchmarkConfig,
    attribution_error,
    evaluation,
    generate_fault_benchmark,
    mann_whitney_u,
)
from blamekit.benchmark import (
    LabeledSet,
    Mode,
    _draw_normals,
    _fault_directions,
    load_labeled,
)
from blamekit.cli import main
from blamekit.errors import ConfigError, InputError, ShapeError
from blamekit.evaluation import MethodReport, evaluate_methods, format_table, reports_to_json


def write_benchmark(cfg, out_dir):
    """Write cfg's train.csv and test.csv with the benchmark command; cfg
    must use the default modes and a single fault dimension count."""
    (n_a,) = cfg.fault_dims
    assert main(["benchmark", "--out-dir", str(out_dir), "--dims", str(cfg.dims),
                 "--n-normal", str(cfg.n_normal), "--n-test-normal", str(cfg.n_test_normal),
                 "--n-faults", str(cfg.n_faults), "--fault-dims", str(n_a),
                 "--magnitude", str(cfg.magnitude), "--seed", str(cfg.seed)]) == 0


def reference_benchmark(cfg):
    """The generator as a per-row loop: every fault row rescans its mode's
    feasible dimensions and each chosen dimension's escape directions,
    making the same rng calls in the same order. Returns the train rows
    and the test set's x, anomalous and beta."""
    rng = np.random.default_rng(cfg.seed)
    train, _ = _draw_normals(cfg, cfg.n_normal, rng)
    normals, _ = _draw_normals(cfg, cfg.n_test_normal, rng)
    faults, which = _draw_normals(cfg, cfg.n_faults, rng)
    beta = np.zeros_like(faults)
    for i, k in enumerate(which):
        mode = cfg.modes[k]
        n_a = int(rng.choice(np.asarray(cfg.fault_dims)))
        feasible = [d for d in range(cfg.dims) if _fault_directions(mode, d, cfg.magnitude)]
        assert len(feasible) >= n_a
        for d in rng.choice(feasible, size=n_a, replace=False):
            dirs = _fault_directions(mode, d, cfg.magnitude)
            sign = dirs[0] if len(dirs) == 1 else float(rng.choice(dirs))
            faults[i, d] = np.clip(mode.center[d] + sign * cfg.magnitude, 0.0, 1.0)
            beta[i, d] = 1.0 / n_a
    anomalous = np.arange(len(normals) + len(faults)) >= len(normals)
    return train, np.vstack([normals, faults]), anomalous, np.vstack([0 * normals, beta])


def brute_force_error(b, beta):
    total = 0.0
    for bd, betad in zip(b, beta):
        total += abs(bd - betad)
    return total / len(b)


class TestAttributionError:
    def test_identity(self):
        beta = np.array([0.5, 0.5, 0.0])
        assert attribution_error(beta, beta) == 0.0

    def test_uniform_vs_point_mass(self):
        beta = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.full(4, 0.25)
        assert attribution_error(b, beta) == pytest.approx(0.375)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 12))
            b, beta = rng.uniform(size=d), rng.uniform(size=d)
            assert attribution_error(b, beta) == pytest.approx(
                brute_force_error(b, beta), rel=1e-12)

    def test_symmetry_and_bound(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = int(rng.integers(2, 10))
            b = rng.dirichlet(np.ones(d))
            beta = rng.dirichlet(np.ones(d))
            err = attribution_error(b, beta)
            assert err == attribution_error(beta, b)
            assert 0.0 <= err <= 2.0 / d

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            attribution_error(np.zeros(2), np.zeros(3))


class TestMannWhitney:
    def test_identical_samples(self):
        _, p = mann_whitney_u([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0])
        assert p > 0.9

    def test_fully_separated_exact(self):
        u, p = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
        assert u == 0.0
        assert p == pytest.approx(0.1)  # 2 of C(6,3)=20 arrangements

    def test_u_sum_invariant(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = rng.integers(0, 5, size=rng.integers(3, 15)).astype(float)
            b = rng.integers(0, 5, size=rng.integers(3, 15)).astype(float)
            ua, pa = mann_whitney_u(a, b)
            ub, pb = mann_whitney_u(b, a)
            assert ua + ub == pytest.approx(len(a) * len(b))
            assert pa == pb  # evaluate_methods ranks each pair once

    def test_u_matches_pairwise_count(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            a = rng.integers(0, 4, size=10).astype(float)
            b = rng.integers(0, 4, size=12).astype(float)
            u, _ = mann_whitney_u(a, b)
            wins = sum(x > y for x in a for y in b)
            ties = sum(x == y for x in a for y in b)
            assert u == pytest.approx(wins + 0.5 * ties)

    def test_large_shifted_samples_significant(self):
        rng = np.random.default_rng(4)
        a = rng.normal(0.0, 1.0, size=50)
        b = rng.normal(1.5, 1.0, size=50)
        _, p = mann_whitney_u(a, b)
        assert p < 0.01

    def test_small_samples_rejected(self):
        with pytest.raises(InputError):
            mann_whitney_u([1.0, 2.0], [3.0, 4.0, 5.0])


class TestBenchmark:
    def test_single_fault_rows(self):
        cfg = BenchmarkConfig(dims=8, n_normal=200, n_test_normal=20,
                              n_faults=50, fault_dims=(1,), seed=0)
        _, test = generate_fault_benchmark(cfg)
        faults = test.beta[test.anomalous]
        assert len(faults) == 50
        for beta in faults:
            assert np.sum(beta == 1.0) == 1
            assert beta.sum() == 1.0

    def test_double_fault_rows(self):
        cfg = BenchmarkConfig(dims=8, n_normal=200, n_test_normal=20,
                              n_faults=50, fault_dims=(2,), seed=0)
        _, test = generate_fault_benchmark(cfg)
        for beta in test.beta[test.anomalous]:
            assert np.sum(beta == 0.5) == 2

    def test_normal_rows_have_zero_beta(self):
        cfg = BenchmarkConfig(dims=8, n_normal=100, n_test_normal=30,
                              n_faults=40, seed=1)
        _, test = generate_fault_benchmark(cfg)
        normals = test.beta[~test.anomalous]
        assert len(normals) == 30
        for beta in normals:
            assert np.all(beta == 0.0)

    def test_byte_identical_csv(self, tmp_path):
        cfg = BenchmarkConfig(dims=4, n_normal=50, n_test_normal=10,
                              n_faults=20, magnitude=0.55, seed=7)
        for d in ("a", "b"):
            write_benchmark(cfg, tmp_path / d)
        for name in ("train.csv", "test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_infeasible_magnitude_rejected(self):
        modes = [Mode(np.full(4, 0.5), scale=0.2, weight=1.0)]
        with pytest.raises(ConfigError):
            generate_fault_benchmark(
                BenchmarkConfig(dims=4, modes=modes, magnitude=0.1, seed=0))
        # one feasible mode does not make up for an infeasible one
        modes = [Mode(np.full(4, 0.5), scale=0.01), Mode(np.full(4, 0.5), scale=0.2)]
        with pytest.raises(ConfigError, match="mode 1"):
            generate_fault_benchmark(
                BenchmarkConfig(dims=4, modes=modes, magnitude=0.1, seed=0))

    @pytest.mark.parametrize("cfg", [
        BenchmarkConfig(dims=8, n_faults=2000, fault_dims=(1, 2), magnitude=0.45, seed=2),
        BenchmarkConfig(dims=16, n_faults=1000, fault_dims=(1, 2), magnitude=0.45, seed=2),
        # criterion 6's unbalanced 19:1 modes
        BenchmarkConfig(dims=8, modes=[
            Mode(np.array([0.25 + 0.1 * (d % 2) for d in range(8)]), 0.03, 19.0),
            Mode(np.array([0.65 + 0.1 * ((d + 1) % 2) for d in range(8)]), 0.03, 1.0),
        ], n_normal=4000, n_test_normal=10, n_faults=10, seed=11),
        # centers where a fault may go either way, so the sign is drawn too
        BenchmarkConfig(dims=4, modes=[Mode([0.5, 0.5, 0.1, 0.9], 0.03),
                                       Mode(np.full(4, 0.3), 0.02, 2.0)],
                        n_normal=100, n_faults=200, fault_dims=(1, 2), magnitude=0.3, seed=5),
    ], ids=["8d", "16d", "19to1", "two-signs"])
    def test_matches_per_row_reference(self, cfg):
        train, test = generate_fault_benchmark(cfg)
        ref_train, x, anomalous, beta = reference_benchmark(cfg)
        np.testing.assert_array_equal(train.values, ref_train)
        np.testing.assert_array_equal(test.x, x)
        np.testing.assert_array_equal(test.anomalous, anomalous)
        np.testing.assert_array_equal(test.beta, beta)

    def test_labeled_set_checks_beta_per_row(self):
        x = np.zeros((3, 2))
        LabeledSet(x, [False, True, True], [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])
        with pytest.raises(ConfigError, match="row 2: anomalous rows need beta summing to 1"):
            LabeledSet(x, [False, True, True], [[0.0, 0.0], [0.5, 0.5], [0.5, 0.0]])
        with pytest.raises(ConfigError, match="row 1: normal rows must have all-zero beta"):
            LabeledSet(x, [False, False, True], [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]])

    def test_labeled_round_trip(self, tmp_path):
        cfg = BenchmarkConfig(dims=4, n_normal=30, n_test_normal=5,
                              n_faults=10, magnitude=0.55, seed=3)
        _, test = generate_fault_benchmark(cfg)
        write_benchmark(cfg, tmp_path)
        back = load_labeled(tmp_path / "test.csv")
        assert len(back) == len(test)
        np.testing.assert_array_equal(test.x, back.x)
        np.testing.assert_array_equal(test.anomalous, back.anomalous)
        np.testing.assert_array_equal(test.beta, back.beta)


class TestEvaluateMethods:
    def fake_test_set(self, n=40, d=4, seed=0):
        rng = np.random.default_rng(seed)
        x, beta = np.empty((n, d)), np.zeros((n, d))
        for i in range(n):
            beta[i, rng.integers(d)] = 1.0
            x[i] = rng.uniform(size=d)
        return LabeledSet(x, np.ones(n, dtype=bool), beta)

    def test_single_method(self):
        test = self.fake_test_set(d=16)
        reports = evaluate_methods(test, {"uniform": lambda x: np.full(x.shape, 1.0 / 16)})
        assert len(reports) == 1
        assert reports[0].p_values == {}
        assert len(reports[0].errors) == 40

    def test_mean_std_consistency(self):
        test = self.fake_test_set(d=16)
        reports = evaluate_methods(test, {"uniform": lambda x: np.full(x.shape, 1.0 / 16)})
        r = reports[0]
        assert r.mean == pytest.approx(np.mean(r.errors), abs=1e-12)
        assert r.std == pytest.approx(np.std(r.errors), abs=1e-12)

    def test_failing_method_propagates(self):
        """A method's error stops the evaluation instead of marking a column."""
        def broken(x):
            raise RuntimeError("boom")

        test = self.fake_test_set(d=16)
        uniform = lambda x: np.full(x.shape, 1.0 / 16)  # noqa: E731
        with pytest.raises(RuntimeError, match="boom"):
            evaluate_methods(test, {"uniform": uniform, "broken": broken})
        with pytest.raises(ShapeError):  # not one blame row per input row
            evaluate_methods(test, {"uniform": uniform,
                                    "one_row": lambda x: np.full(16, 1.0 / 16)})

    def test_each_pair_ranked_once(self, monkeypatch):
        """One rank test per unordered pair; both reports hold its p, keyed
        in method order."""
        calls = []

        def counted(a, b):
            calls.append(1)
            return mann_whitney_u(a, b)

        monkeypatch.setattr(evaluation, "mann_whitney_u", counted)
        def noise(seed):
            return lambda x: np.random.default_rng(seed).uniform(size=x.shape)

        methods = {name: noise(seed) for seed, name in enumerate("abcd")}
        reports = evaluate_methods(self.fake_test_set(d=16), methods)
        assert len(calls) == 6
        for r in reports:
            others = [o for o in reports if o is not r]
            assert list(r.p_values) == [o.name for o in others]
            assert r.p_values == {o.name: mann_whitney_u(r.errors, o.errors)[1]
                                  for o in others}

    def test_report_is_strict_json(self):
        with pytest.raises(ValueError):
            reports_to_json([MethodReport("nan", [float("nan")] * 3)])
        test = self.fake_test_set(d=16)
        reports = evaluate_methods(test, {"uniform": lambda x: np.full(x.shape, 1.0 / 16)})
        (back,) = json.loads(reports_to_json(reports))
        assert back["mean"] == reports[0].mean and back["std"] == reports[0].std

    def test_too_few_anomalies_rejected(self):
        with pytest.raises(InputError):
            evaluate_methods(self.fake_test_set(n=10, d=16),
                             {"uniform": lambda x: np.full(x.shape, 1.0 / 16)})

    def test_table_formatting(self):
        reports = [MethodReport("a", [0.1, 0.2, 0.3]), MethodReport("b", [0.4, 0.5, 0.6])]
        reports[0].p_values["b"] = 0.05
        reports[1].p_values["a"] = 0.05
        table = format_table(reports)
        assert "method" in table and "mean" in table
        assert "0.2000" in table
