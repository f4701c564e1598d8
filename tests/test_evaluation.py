import numpy as np
import pytest

from blamekit import (
    BenchmarkConfig,
    attribution_error,
    generate_fault_benchmark,
    mann_whitney_u,
)
from blamekit.benchmark import LabeledSet, Mode, save_benchmark, load_labeled
from blamekit.errors import ConfigError, InputError, ShapeError
from blamekit.evaluation import MethodReport, evaluate_methods, format_table


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
            ua, _ = mann_whitney_u(a, b)
            ub, _ = mann_whitney_u(b, a)
            assert ua + ub == pytest.approx(len(a) * len(b))

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
            (tmp_path / d).mkdir()
            train, test = generate_fault_benchmark(cfg)
            save_benchmark(train, test, tmp_path / d / "train.csv",
                           tmp_path / d / "test.csv")
        for name in ("train.csv", "test.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_infeasible_magnitude_rejected(self):
        modes = [Mode(np.full(4, 0.5), scale=0.2, weight=1.0)]
        with pytest.raises(ConfigError):
            generate_fault_benchmark(
                BenchmarkConfig(dims=4, modes=modes, magnitude=0.1, seed=0))

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
        train, test = generate_fault_benchmark(cfg)
        save_benchmark(train, test, tmp_path / "train.csv", tmp_path / "test.csv")
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

    def test_failing_method_isolated(self):
        def broken(x):
            raise RuntimeError("boom")

        test = self.fake_test_set(d=16)
        reports = evaluate_methods(test, {
            "uniform": lambda x: np.full(x.shape, 1.0 / 16),
            "broken": broken,
            "one_row": lambda x: np.full(16, 1.0 / 16),  # not one blame row per input row
        })
        by_name = {r.name: r for r in reports}
        assert by_name["broken"].failed is not None
        assert "boom" in by_name["broken"].failed
        assert by_name["one_row"].failed.startswith("ShapeError")
        assert by_name["one_row"].errors == []
        assert len(by_name["uniform"].errors) == 40
        assert by_name["uniform"].p_values == {}

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
