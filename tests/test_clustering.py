import tracemalloc

import numpy as np
import pytest

from blamekit import clustering
from blamekit.clustering import BLOCK, NOISE, dbscan


def reference_dbscan(points, eps, min_pts):
    """Brute-force DBSCAN: core points joined into connected components,
    numbered by their lowest-index core point; each border point takes the
    lowest component id among the core points within eps of it."""
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=2)
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_pts
    labels = np.full(len(points), NOISE)
    comp = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        labels[i] = comp
        stack = [i]
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(adj[j] & core):
                if labels[k] == NOISE:
                    labels[k] = comp
                    stack.append(k)
        comp += 1
    for i in np.flatnonzero(~core):
        reached = labels[adj[i] & core]
        if len(reached):
            labels[i] = reached.min()
    return labels


def two_clusters_sharing_a_border_point():
    """Two 5-point runs on a line and one point midway, within eps of an end
    point of each run but with only 3 neighbors itself."""
    a = np.column_stack([np.arange(5) * 0.02, np.zeros(5)])
    b = a + [0.92, 0.0]
    return np.vstack([[[0.5, 0.0]], a, b]), 0.43, 5


class TestDbscan:
    def test_shared_border_point_goes_to_lowest_cluster(self):
        pts, eps, min_pts = two_clusters_sharing_a_border_point()
        labels = dbscan(pts, eps, min_pts)
        assert labels.tolist() == [0] + [0] * 5 + [1] * 5
        # with the right-hand run listed first, it is cluster 0 and takes the point
        swapped = np.vstack([pts[:1], pts[6:], pts[1:6]])
        assert dbscan(swapped, eps, min_pts).tolist() == [0] + [0] * 5 + [1] * 5

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_reference(self, seed):
        rng = np.random.default_rng(seed)
        shared, _, _ = two_clusters_sharing_a_border_point()
        blobs = [rng.normal(c, 0.03, size=(rng.integers(5, 40), 2))
                 for c in rng.uniform(0.0, 3.0, size=(4, 2))]
        scatter = rng.uniform(0.0, 3.0, size=(30, 2))
        pts = np.vstack([shared + [5.0, 5.0], *blobs, scatter])
        pts = pts[rng.permutation(len(pts))]
        solid = np.vstack([rng.normal(c, 0.03, size=(rng.integers(5, 40), 3))
                           for c in rng.uniform(0.0, 1.0, size=(3, 3))])
        # empty, one row, n not a multiple of BLOCK, and a 3-D set; the last
        # (eps, min_pts) setting leaves no core point
        for p in (pts, pts[:0], pts[:1], pts[:BLOCK + 1], solid):
            for eps, min_pts in ((0.43, 5), (0.08, 4), (0.2, 8), (0.08, 1000)):
                np.testing.assert_array_equal(dbscan(p, eps, min_pts),
                                              reference_dbscan(p, eps, min_pts))

    def test_dense_blob_queues_each_point_once(self):
        # every point is a core point and a neighbor of every other, so the
        # n x n distance matrix would take 18 MB; the arrays of one call
        # must stay O(BLOCK * n)
        pts = np.random.default_rng(0).uniform(0.0, 0.01, size=(1500, 2))
        tracemalloc.start()
        try:
            labels = dbscan(pts, eps=0.1, min_pts=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(labels == 0)
        assert peak < 2 * 2**20


class TestColumnBlocks:
    """The core test scans COLUMNS points at a time and stops scanning a row
    once it is core; the labels must not depend on where blocks split."""

    @pytest.mark.parametrize("columns", [1, 7, 33])
    def test_reference_cases_under_small_blocks(self, monkeypatch, columns):
        monkeypatch.setattr(clustering, "COLUMNS", columns)
        cases = TestDbscan()
        cases.test_shared_border_point_goes_to_lowest_cluster()
        for seed in range(8):
            cases.test_matches_brute_force_reference(seed)

    def test_neighbour_counts_cross_block_boundaries(self, monkeypatch):
        # blocks of 4 columns, min_pts 4: row 0's neighbours are columns 0, 5,
        # 6 and 7, so its 4th is the last column of the second block; row 8
        # has 3 neighbours, columns 3, 8 and 13, one in each of three blocks
        monkeypatch.setattr(clustering, "COLUMNS", 4)
        x = 10.0 + np.arange(16.0)
        x[[0, 5, 6, 7]] = [0.0, 0.02, 0.04, 0.06]
        x[[3, 8, 13]] = [5.04, 5.0, 4.96]
        pts = np.column_stack([x, np.zeros(16)])
        labels = dbscan(pts, 0.1, 4)
        expected = np.full(16, NOISE)
        expected[[0, 5, 6, 7]] = 0
        np.testing.assert_array_equal(labels, expected)
        np.testing.assert_array_equal(labels, reference_dbscan(pts, 0.1, 4))

    def test_two_mode_8d_set_matches_reference(self, monkeypatch):
        monkeypatch.setattr(clustering, "COLUMNS", 64)
        rng = np.random.default_rng(0)
        idx = np.arange(8)
        modes = [0.25 + 0.1 * (idx % 2), 0.65 + 0.1 * ((idx + 1) % 2)]
        pts = np.vstack([rng.normal(c, 0.06, size=(300, 8)) for c in modes])
        pts = pts[rng.permutation(len(pts))]
        eps, min_pts = clustering.default_eps(8), clustering.default_min_pts(len(pts))
        labels = dbscan(pts, eps, min_pts)
        # two clusters, with border points and noise
        assert set(labels.tolist()) == {NOISE, 0, 1}
        np.testing.assert_array_equal(labels, reference_dbscan(pts, eps, min_pts))
