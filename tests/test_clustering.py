import tracemalloc

import numpy as np
import pytest

from blamekit.clustering import NOISE, dbscan


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
        for eps, min_pts in ((0.43, 5), (0.08, 4), (0.2, 8)):
            np.testing.assert_array_equal(dbscan(pts, eps, min_pts),
                                          reference_dbscan(pts, eps, min_pts))

    def test_dense_blob_queues_each_point_once(self):
        # every point is a core point and a neighbor of every other; a queue
        # that takes each neighbor of each core point holds n^2 entries
        pts = np.random.default_rng(0).uniform(0.0, 0.01, size=(1500, 2))
        tracemalloc.start()
        try:
            labels = dbscan(pts, eps=0.1, min_pts=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.all(labels == 0)
        assert peak < 2 * 2**20
