import numpy as np
import pytest
from hypothesis import given, strategies as st

from blamekit import network
from blamekit.dataio import Normalizer
from blamekit.detector import Detector
from blamekit.errors import EmptyBaselineError, ShapeError
from blamekit.exemplar import (
    ExemplarSet,
    distances,
    naive_baseline,
    nearest_exemplar,
    select_baseline,
)
from blamekit.network import Layer, NetworkModel
from helpers import save_artifact


def flat_detector(dims=2):
    """Zero-weight net: every point scores exactly 0.5."""
    model = NetworkModel(dims, [Layer(np.zeros((dims, 1)), np.zeros(1), "logistic")])
    norm = Normalizer(np.zeros(dims), np.ones(dims), [f"d{i}" for i in range(dims)])
    return Detector(model, norm, {})


coords = st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3)


def dist(x, y, metric):
    """Distance between two vectors, through the one-row case of `distances`."""
    d = distances(x, np.atleast_2d(y), metric)
    assert d.shape == (1,)
    return d[0]


class TestDissimilarity:
    def test_identity(self):
        x = np.array([1.0, 2.0])
        assert dist(x, x, "L1") == 0.0
        assert dist(x, x, "L2") == 0.0

    def test_three_four_five(self):
        x, y = np.zeros(2), np.array([3.0, 4.0])
        assert dist(x, y, "L1") == 7.0
        assert dist(x, y, "L2") == 5.0

    def test_symmetry(self):
        x, y = np.array([1.0, -2.0]), np.array([0.5, 4.0])
        for m in ("L1", "L2"):
            assert dist(x, y, m) == dist(y, x, m)

    def test_one_distance_per_row(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, -1.0]])
        np.testing.assert_array_equal(distances(np.zeros(2), pts, "L1"), [0.0, 7.0, 2.0])
        np.testing.assert_allclose(distances(np.zeros(2), pts, "L2"),
                                   [0.0, 5.0, np.sqrt(2.0)], rtol=1e-15)
        # a matrix of rows gets one row of distances per row
        np.testing.assert_array_equal(distances(np.array([[0.0, 0.0], [3.0, 4.0]]), pts, "L1"),
                                      [[0.0, 7.0, 2.0], [7.0, 0.0, 7.0]])

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            distances(np.zeros(2), np.zeros((4, 3)))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distances(np.zeros(2), np.zeros((4, 2)), "Linf")

    @given(coords, coords, coords)
    def test_triangle_inequality(self, a, b, c):
        a, b, c = np.array(a), np.array(b), np.array(c)
        for m in ("L1", "L2"):
            assert dist(a, c, m) <= dist(a, b, m) + dist(b, c, m) + 1e-9


class TestSelectBaseline:
    def test_one_tight_cluster(self):
        rng = np.random.default_rng(0)
        pts = rng.normal([0.5, 0.5], 0.01, size=(100, 2))
        # flat detector scores 0.5 everywhere; epsilon 0.6 admits all points
        ex = select_baseline(pts, flat_detector(), n=5, epsilon=0.6, seed=1)
        assert len(ex) == 5
        assert set(ex.clusters) == {0}

    def test_two_modes_both_represented(self, ex8):
        assert set(ex8.clusters) == {0, 1}
        assert len(ex8) <= 10

    def test_scores_above_threshold(self, ex8, det8):
        assert np.all(ex8.scores > 1.0 - ex8.params["epsilon"])
        rescored = network.forward_batch(det8.model, ex8.points)
        assert np.all(rescored > 1.0 - ex8.params["epsilon"])

    def test_cluster_coverage(self):
        rng = np.random.default_rng(1)
        a = rng.normal([0.2, 0.2], 0.01, size=(50, 2))
        b = rng.normal([0.8, 0.8], 0.01, size=(3, 2))
        ex = select_baseline(np.vstack([a, b]), flat_detector(), n=5,
                             epsilon=0.6, eps=0.1, min_pts=2, seed=2)
        counts = {c: int(np.sum(ex.clusters == c)) for c in set(ex.clusters)}
        assert sorted(counts.values()) == [3, 5]  # min(n, cluster size) each

    def test_empty_baseline(self):
        pts = np.full((10, 2), 0.5)
        with pytest.raises(EmptyBaselineError):
            select_baseline(pts, flat_detector(), n=3, epsilon=0.0001)

    def test_all_noise_falls_back_to_single_cluster(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(size=(30, 2))
        ex = select_baseline(pts, flat_detector(), n=4, epsilon=0.6,
                             eps=1e-6, min_pts=5, seed=0)
        assert ex.params["fallback_single_cluster"] is True
        assert len(ex) == 4

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        pts = rng.normal([0.5, 0.5], 0.02, size=(60, 2))
        a = select_baseline(pts, flat_detector(), n=5, epsilon=0.6, seed=7)
        b = select_baseline(pts, flat_detector(), n=5, epsilon=0.6, seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.clusters, b.clusters)

    def test_json_round_trip(self, tmp_path, ex8):
        save_artifact(ex8, tmp_path / "ex.json")
        clone = ExemplarSet.load(tmp_path / "ex.json")
        np.testing.assert_array_equal(ex8.points, clone.points)
        np.testing.assert_array_equal(ex8.clusters, clone.clusters)
        assert clone.params["epsilon"] == ex8.params["epsilon"]


class TestNaiveBaseline:
    def test_top_scores_selected(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(50, 2))
        det = flat_detector()
        nv = naive_baseline(pts, det, size=10)
        assert len(nv) == 10
        assert nv.params["mode"] == "naive_top_score"


class TestNearestExemplar:
    def two_point_set(self, pts):
        pts = np.asarray(pts, dtype=float)
        return ExemplarSet(pts, np.zeros(len(pts), dtype=int), np.ones(len(pts)))

    def test_basic(self):
        ex = self.two_point_set([[0.0, 0.0], [10.0, 10.0]])
        p, d = nearest_exemplar(np.array([[1.0, 1.0]]), ex, "L2")
        np.testing.assert_array_equal(p, [[0.0, 0.0]])
        assert d[0] == pytest.approx(np.sqrt(2))

    def test_metric_changes_winner(self):
        ex = self.two_point_set([[3.0, 3.0], [0.0, 5.0]])
        x = np.zeros((1, 2))
        p2, d2 = nearest_exemplar(x, ex, "L2")
        np.testing.assert_array_equal(p2, [[3.0, 3.0]])
        assert d2[0] == pytest.approx(np.sqrt(18))
        p1, d1 = nearest_exemplar(x, ex, "L1")
        np.testing.assert_array_equal(p1, [[0.0, 5.0]])
        assert d1[0] == 5.0

    def test_exact_match(self):
        ex = self.two_point_set([[1.0, 2.0], [3.0, 4.0]])
        p, d = nearest_exemplar(np.array([[3.0, 4.0]]), ex, "L2")
        np.testing.assert_array_equal(p, [[3.0, 4.0]])
        assert d[0] == 0.0

    def test_tie_breaks_to_lowest_index(self):
        ex = self.two_point_set([[1.0, 0.0], [-1.0, 0.0]])
        # every row is equidistant from both exemplars
        x = np.zeros((3, 2))
        x[:, 1] = [0.0, 5.0, -2.0]
        p, _ = nearest_exemplar(x, ex, "L2")
        np.testing.assert_array_equal(p, [[1.0, 0.0]] * 3)

    def test_is_global_minimum(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(size=(20, 3))
        ex = ExemplarSet(pts, np.zeros(20, dtype=int), np.ones(20))
        # more rows than one block of network.ROWS row-exemplar pairs
        x = rng.uniform(size=(2 * network.ROWS // len(pts) + 7, 3))
        for m, order in (("L1", 1), ("L2", 2)):
            p, d = nearest_exemplar(x, ex, m)
            for xi, pi, di in zip(x, p, d):
                oracle = [np.linalg.norm(xi - q, ord=order) for q in pts]
                assert di == pytest.approx(min(oracle), rel=1e-12)
                np.testing.assert_array_equal(pi, pts[int(np.argmin(oracle))])

    def test_empty_set(self):
        ex = ExemplarSet(np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0))
        with pytest.raises(EmptyBaselineError):
            nearest_exemplar(np.zeros((1, 2)), ex)
