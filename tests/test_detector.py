import numpy as np
import pytest

from blamekit import (
    Dataset,
    Detector,
    NegativeSamplingConfig,
    TrainConfig,
    fit_detector,
    sample_negatives,
)
from blamekit import network
from blamekit.detector import rank_auc
from blamekit.errors import InputError


def score(det, x_raw):
    """Scores of raw rows, through the detector's own normalizer."""
    return network.forward_batch(det.model, det.normalizer.apply(x_raw))


class TestRankAuc:
    def test_ties_match_pair_count(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            pos = rng.integers(0, 5, size=rng.integers(1, 40)).astype(float)
            neg = rng.integers(0, 5, size=rng.integers(1, 40)).astype(float)
            wins = sum(p > n for p in pos for n in neg)
            ties = sum(p == n for p in pos for n in neg)
            assert rank_auc(pos, neg) == (wins + 0.5 * ties) / (len(pos) * len(neg))

    def test_empty_side_is_nan(self):
        assert np.isnan(rank_auc([], [0.5]))
        assert np.isnan(rank_auc([0.5], []))


class TestSampleNegatives:
    def test_count_and_range(self):
        x = np.random.default_rng(0).uniform(size=(100, 4))
        cfg = NegativeSamplingConfig(ratio=2.0, envelope=0.05, seed=1)
        neg = sample_negatives(x, cfg)
        assert neg.shape == (200, 4)
        assert np.all(neg >= -0.05) and np.all(neg <= 1.05)

    def test_zero_envelope_stays_in_unit_cube(self):
        x = np.zeros((10, 3))
        neg = sample_negatives(x, NegativeSamplingConfig(ratio=1.0, envelope=0.0, seed=0))
        assert np.all(neg >= 0.0) and np.all(neg <= 1.0)

    def test_deterministic(self):
        x = np.zeros((10, 3))
        cfg = NegativeSamplingConfig(ratio=3.0, seed=42)
        np.testing.assert_array_equal(sample_negatives(x, cfg), sample_negatives(x, cfg))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            sample_negatives(np.zeros((0, 3)), NegativeSamplingConfig())


class TestFitDetector:
    def test_benchmark_auc(self, det8):
        assert det8.meta["auc"] >= 0.95

    def test_single_point_flags_degenerate(self):
        ds = Dataset(["a", "b"], np.array([[1.0, 2.0]]))
        det = fit_detector(ds, NegativeSamplingConfig(seed=0),
                           TrainConfig(0.1, 5, 4, (4,), seed=0))
        assert det.meta["degenerate_holdout"] is True
        assert det.meta["auc"] is None

    def test_deterministic_artifact(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset(["a", "b"], rng.uniform(size=(80, 2)))
        args = (ds, NegativeSamplingConfig(seed=4), TrainConfig(0.2, 20, 16, (6,), seed=5))
        a, b = fit_detector(*args), fit_detector(*args)
        a.save(tmp_path / "a.json")
        b.save(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_artifact_round_trip(self, tmp_path, det8):
        det8.save(tmp_path / "det.json")
        clone = Detector.load(tmp_path / "det.json")
        x = np.full(det8.dims, 0.3)
        assert score(det8, x) == score(clone, x)
        assert clone.meta["auc"] == det8.meta["auc"]


class TestScore:
    def test_deep_mode_point_scores_high(self, bench8, det8):
        cfg, _, _ = bench8
        assert score(det8, cfg.modes[0].center) > 0.9

    def test_far_point_scores_low(self, det8):
        # every dim clamps, alternating sides, far from both modes
        far = np.where(np.arange(det8.dims) % 2 == 0,
                       det8.normalizer.lo - 10.0, det8.normalizer.hi + 10.0)
        assert score(det8, far) < 0.1

    def test_purity(self, det8):
        x = np.full(det8.dims, 0.4)
        assert score(det8, x) == score(det8, x)

    def test_label_convention(self, bench8, det8):
        _, _, test = bench8
        normals = test.x[~test.anomalous]
        faults = test.x[test.anomalous]
        auc = rank_auc(score(det8, normals), score(det8, faults))
        assert auc > 0.5
        assert score(det8, faults).mean() < score(det8, normals).mean()
