"""Density-based clustering (DBSCAN) under Euclidean distance.

Computed from the definition (Schubert et al., 2017): a core point has
at least `min_pts` points, itself included, within eps; clusters are the
eps-connected components of the core points, numbered from their lowest
index; a border point joins the lowest cluster among the core points
within eps of it.

Two passes: the core test, then a BFS per cluster in label order that
labels each unlabelled point it reaches and spreads only through core
points, so a border point takes the first cluster to reach it. The
points are sorted by their highest-variance coordinate, the key, and
processed in that order; the labels are mapped back at the end, and each
BFS starts from the unlabelled core point of lowest original index, so
the numbering is the definition's. Distances are taken in blocks of
BLOCK rows, and a block is compared only with the columns whose key lies
within `reach` of the block's keys: a contiguous slice, since rows and
columns stay sorted by key. A pair is skipped only where its computed
squared distance exceeds eps^2 as well (the bound is in `dbscan`), so
pruning pairs that provably lie beyond eps (Gan & Tao, 2015) changes no
label. The core test scans COLUMNS points at a time and stops scanning a
row once it has min_pts neighbours; the BFS compares a frontier block
with up to all n points. A call takes O(n^2) time at worst and
O(BLOCK * n + n * D) memory.
"""

from __future__ import annotations

import numpy as np

NOISE = -1
BLOCK = 32
COLUMNS = 1024


def _within(points, sq, key, reach, rows, cols, eps):
    """Yield (block, window, mask) per BLOCK indices of `rows` with a non-empty
    window: mask[k, j] marks points[block[k]] within eps of points[cols[window][j]].
    `sq` holds the squared row norms of `points`; rows and cols ascend in `key`,
    and the window holds the columns whose key is within `reach` of the block's."""
    other, other_sq, other_key = points[cols], sq[cols], key[cols]
    starts = np.arange(0, len(rows), BLOCK)
    ends = np.minimum(starts + BLOCK, len(rows))
    lo = np.searchsorted(other_key, key[rows[starts]] - reach, "left")
    hi = np.searchsorted(other_key, key[rows[ends - 1]] + reach, "right")
    # every block reuses two buffers: fresh ~1 MB temporaries per block page-fault
    # afresh whenever glibc has trimmed the heap top, which doubled a call's time
    prod, d2 = np.empty((2, min(BLOCK, len(rows)) * int(np.max(hi - lo, initial=0))))
    for start, end, a, b in zip(starts.tolist(), ends.tolist(), lo.tolist(), hi.tolist()):
        if a == b:
            continue
        block = rows[start:end]
        p = prod[:len(block) * (b - a)].reshape(len(block), b - a)
        d = d2[:p.size].reshape(p.shape)
        # (2a).b is exactly 2(a.b), and sq_b + sq_a is sq_a + sq_b
        np.matmul(2.0 * points[block], other[a:b].T, out=p)
        d[:] = other_sq[a:b]
        d += sq[block, None]
        yield block, slice(a, b), np.subtract(d, p, out=d) <= eps * eps


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster rows of `points`; returns one label per row, -1 for noise."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not len(points):
        return np.full(0, NOISE)
    sq = np.sum(points * points, axis=1)
    k = np.argmax(points.var(axis=0))
    order = np.argsort(points[:, k], kind="stable")
    points, sq = points[order], sq[order]
    key = points[:, k]
    # A skipped pair has |key_a - key_b| > reach, so ||a - b||^2 > reach^2. The
    # tile's d^2 = sq_a + sq_b - 2a.b is within (2 gamma_D + 3u)(sq_a + sq_b) <=
    # 4 (D + 2) e max(sq) of ||a - b||^2, with e the machine epsilon, u = e/2 and
    # gamma_D = D u / (1 - D u): gamma_D (sq_a + sq_b) from the two norms, as much
    # from 2a.b (2|a_i b_i| <= a_i^2 + b_i^2), and 3u (sq_a + sq_b) from the add
    # and the subtract. So with reach^2 >= eps^2 + that bound, a skipped pair's
    # d^2 exceeds eps^2 too. The factor 1 + 4e covers the rounding of eps^2 and
    # of reach, and the term 4e max|key| that of key -/+ reach.
    e = np.finfo(float).eps
    bound = 4 * (points.shape[1] + 2) * e * sq.max()
    reach = np.sqrt(eps * eps + bound) * (1 + 4 * e) + 4 * e * np.abs(key).max()
    every = np.arange(len(points))

    count, scan = np.zeros(len(points), dtype=int), every
    for start in range(0, len(points), COLUMNS):
        cols = every[start:start + COLUMNS]
        for block, _, mask in _within(points, sq, key, reach, scan, cols, eps):
            count[block] += np.count_nonzero(mask, axis=1)
        scan = scan[count[scan] < min_pts]  # a row with min_pts neighbours is core already
    core = count >= min_pts

    labels, n_clusters = np.full(len(points), NOISE), 0
    while (todo := np.flatnonzero(core & (labels == NOISE))).size:
        frontier = todo[[np.argmin(order[todo])]]  # the lowest original index starts a cluster
        labels[frontier] = n_clusters
        while frontier.size:
            todo = np.flatnonzero(labels == NOISE)
            reached = np.zeros(len(todo), dtype=bool)
            for _, window, mask in _within(points, sq, key, reach, frontier, todo, eps):
                reached[window] |= mask.any(axis=0)
            # a border point joins the first cluster that reaches it; only cores spread
            labels[todo[reached]] = n_clusters
            frontier = todo[reached & core[todo]]
        n_clusters += 1

    out = np.empty_like(labels)
    out[order] = labels
    return out


def default_eps(dims: int) -> float:
    return 0.05 * np.sqrt(dims)


def default_min_pts(n_candidates: int) -> int:
    return max(5, int(np.ceil(0.01 * n_candidates)))
