"""Density-based clustering (DBSCAN) under Euclidean distance.

Computed from the definition (Schubert et al., 2017): a core point has
at least `min_pts` points, itself included, within eps; clusters are the
eps-connected components of the core points, numbered from their lowest
index; a border point joins the lowest cluster among the core points
within eps of it. Distances are taken in blocks of BLOCK rows. The core
test scans COLUMNS points at a time and stops scanning a row once it has
min_pts neighbours; the BFS and the border pass compare a block against
up to all n points. A call takes O(n^2) time at worst and
O(BLOCK * max(COLUMNS, n)) memory.
"""

from __future__ import annotations

import numpy as np

NOISE = -1
BLOCK = 32
COLUMNS = 1024


def _within(points, sq, rows, cols, eps):
    """Yield (block, mask) per BLOCK indices of `rows`: mask[k, j] marks points[block[k]]
    within eps of points[cols[j]]. `sq` holds the squared row norms of `points`."""
    other, other_sq = points[cols], sq[cols]
    # every block reuses two buffers: fresh ~1 MB temporaries per block page-fault
    # afresh whenever glibc has trimmed the heap top, which doubled a call's time
    prod, d2 = np.empty((2, min(BLOCK, len(rows)), len(cols)))
    for start in range(0, len(rows), BLOCK):
        block = rows[start:start + BLOCK]
        p, d = prod[:len(block)], d2[:len(block)]
        np.matmul(points[block], other.T, out=p)
        np.add(sq[block, None], other_sq, out=d)
        yield block, np.subtract(d, np.multiply(p, 2.0, out=p), out=d) <= eps * eps


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster rows of `points`; returns one label per row, -1 for noise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    sq, every = np.sum(points * points, axis=1), np.arange(len(points))
    count, scan = np.zeros(len(points), dtype=int), every
    for start in range(0, len(points), COLUMNS):
        for block, mask in _within(points, sq, scan, every[start:start + COLUMNS], eps):
            count[block] += np.count_nonzero(mask, axis=1)
        scan = scan[count[scan] < min_pts]  # a row with min_pts neighbours is core already
    core = count >= min_pts

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

    border = np.flatnonzero(~core)  # each border point joins the first cluster that reaches it
    for cluster in range(n_clusters):
        reached = np.zeros(len(points), dtype=bool)
        for block, mask in _within(points, sq, border, np.flatnonzero(labels == cluster), eps):
            reached[block] = mask.any(axis=1)
        labels[reached] = cluster
        border = border[~reached[border]]
    return labels


def default_eps(dims: int) -> float:
    return 0.05 * np.sqrt(dims)


def default_min_pts(n_candidates: int) -> int:
    return max(5, int(np.ceil(0.01 * n_candidates)))
