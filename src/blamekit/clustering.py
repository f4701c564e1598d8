"""Density-based clustering (DBSCAN) under Euclidean distance.

Small from-scratch implementation: neighbor queries are plain
vectorized distance scans instead of a spatial index, so a call takes
O(n^2) time and O(n) memory. Candidate baseline sets grow with the
training data: about 5 000 points on the default 8-D benchmark, about
13 000 at 15 000 normal rows.
"""

from __future__ import annotations

from collections import deque

import numpy as np

NOISE = -1


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster rows of `points`; returns one label per row, -1 for noise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(points)
    labels = np.full(n, NOISE, dtype=int)
    visited = np.zeros(n, dtype=bool)
    eps2 = eps * eps

    def neighbors(i):
        d2 = np.sum((points - points[i]) ** 2, axis=1)
        return np.flatnonzero(d2 <= eps2)

    # a point is labeled when it is enqueued, so none is enqueued twice; a
    # border point keeps the first (lowest-numbered) cluster that reaches it
    def claim(nbrs, cluster, queue):
        new = nbrs[labels[nbrs] == NOISE]
        labels[new] = cluster
        queue.extend(new.tolist())

    cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        seed = neighbors(i)
        if len(seed) < min_pts:
            continue  # stays noise unless later absorbed as a border point
        labels[i] = cluster
        queue = deque()
        claim(seed, cluster, queue)
        while queue:
            j = queue.popleft()
            if visited[j]:
                continue
            visited[j] = True
            nbrs = neighbors(j)
            if len(nbrs) >= min_pts:
                claim(nbrs, cluster, queue)
        cluster += 1
    return labels


def default_eps(dims: int) -> float:
    return 0.05 * np.sqrt(dims)


def default_min_pts(n_candidates: int) -> int:
    return max(5, int(np.ceil(0.01 * n_candidates)))
