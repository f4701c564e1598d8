"""Density-based clustering (DBSCAN) under Euclidean distance.

Computed from the definition (Schubert et al., 2017): a core point has
at least `min_pts` points, itself included, within eps; clusters are the
eps-connected components of the core points, numbered from their lowest
index; a border point joins the lowest cluster among the core points
within eps of it. Distances are taken in blocks of BLOCK rows against up
to all n points, so a call takes O(n^2) time and O(BLOCK * n) memory.
"""

from __future__ import annotations

import numpy as np

NOISE = -1
BLOCK = 32


def _within(points, sq, rows, cols, eps):
    """Yield (block, mask) per BLOCK indices of `rows`: mask[k, j] marks points[block[k]]
    within eps of points[cols[j]]. `sq` holds the squared row norms of `points`."""
    other, other_sq = points[cols], sq[cols]
    for start in range(0, len(rows), BLOCK):
        block = rows[start:start + BLOCK]
        yield block, sq[block, None] + other_sq - 2.0 * (points[block] @ other.T) <= eps * eps


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster rows of `points`; returns one label per row, -1 for noise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sq, every = np.sum(points * points, axis=1), np.arange(len(points))
    core = np.zeros(len(points), dtype=bool)
    for block, mask in _within(points, sq, every, every, eps):
        core[block] = mask.sum(axis=1) >= min_pts

    labels, n_clusters = np.full(len(points), NOISE), 0
    while (todo := np.flatnonzero(core & (labels == NOISE))).size:
        frontier = todo[:1]  # breadth first from the lowest unreached core point
        while frontier.size:
            labels[frontier] = n_clusters
            todo = np.flatnonzero(core & (labels == NOISE))
            reached = np.zeros(len(todo), dtype=bool)
            for _, mask in _within(points, sq, frontier, todo, eps):
                reached |= mask.any(axis=0)
            frontier = todo[reached]
        n_clusters += 1

    cores = np.flatnonzero(core)  # n_clusters below stands for "no core point within eps"
    for block, mask in _within(points, sq, np.flatnonzero(~core), cores, eps):
        labels[block] = np.where(mask, labels[cores], n_clusters).min(axis=1, initial=n_clusters)
    labels[labels == n_clusters] = NOISE
    return labels


def default_eps(dims: int) -> float:
    return 0.05 * np.sqrt(dims)


def default_min_pts(n_candidates: int) -> int:
    return max(5, int(np.ceil(0.01 * n_candidates)))
