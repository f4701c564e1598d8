"""Multimodal baseline (exemplar) selection and nearest-baseline lookup.

The exemplar set is built in three steps: keep training points the
detector scores as nearly normal, cluster them with DBSCAN under L2,
then draw up to n points per cluster at random. The nearest exemplar
(L1 or L2) then serves as the contrastive baseline for an anomaly.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import clustering, network
from .dataio import load_artifact
from .detector import Detector
from .errors import EmptyBaselineError, ShapeError

log = logging.getLogger(__name__)

METRICS = ("L1", "L2")


def distances(x, points, metric: str = "L2") -> np.ndarray:
    """L1 or L2 distance from x to each row of points: (K,) for a vector
    x, (N, K) for a matrix of N rows."""
    x = np.asarray(x, dtype=float)
    points = np.asarray(points, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != points.shape[1]:
        raise ShapeError(f"expected width {points.shape[1]}, got {x.shape}")
    diff = points - x[..., None, :]
    if metric == "L1":
        return np.sum(np.abs(diff), axis=-1)
    if metric == "L2":
        return np.sqrt(np.sum(diff * diff, axis=-1))
    raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")


@dataclass
class ExemplarSet:
    points: np.ndarray        # (K, D), normalized space
    clusters: np.ndarray      # (K,) cluster id per exemplar
    scores: np.ndarray        # (K,) detector score per exemplar
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.clusters = np.asarray(self.clusters, dtype=int)
        self.scores = np.asarray(self.scores, dtype=float)
        if not (len(self.points) == len(self.clusters) == len(self.scores)):
            raise ShapeError("points, clusters and scores must align")

    def __len__(self) -> int:
        return len(self.points)

    def to_dict(self) -> dict:
        return {
            "params": self.params,
            "exemplars": [
                {"x": p.tolist(), "cluster": int(c), "score": float(s)}
                for p, c, s in zip(self.points, self.clusters, self.scores)
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExemplarSet":
        ex = d["exemplars"]
        return cls(
            np.array([e["x"] for e in ex], dtype=float),
            np.array([e["cluster"] for e in ex], dtype=int),
            np.array([e["score"] for e in ex], dtype=float),
            dict(d.get("params", {})),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "ExemplarSet":
        return load_artifact(path, cls.from_dict, "an exemplar-set")


def select_baseline(
    x_norm: np.ndarray,
    det: Detector,
    n: int = 5,
    epsilon: float = 0.1,
    eps: float | None = None,
    min_pts: int | None = None,
    seed: int = 0,
) -> ExemplarSet:
    """Build the exemplar set from normalized training rows.

    Candidates are rows with score > 1 - epsilon; DBSCAN noise points are
    dropped. If every candidate lands in noise the whole candidate set is
    treated as one cluster (logged as a fallback) so the pipeline can
    still produce a baseline.
    """
    x_norm = np.atleast_2d(np.asarray(x_norm, dtype=float))
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")

    scores = network.forward_batch(det.model, x_norm)
    mask = scores > 1.0 - epsilon
    candidates = x_norm[mask]
    cand_scores = scores[mask]
    if len(candidates) == 0:
        raise EmptyBaselineError(
            f"no training point scores above {1.0 - epsilon:.4g}; "
            "the detector rejects everything"
        )

    if eps is None:
        eps = clustering.default_eps(x_norm.shape[1])
    if min_pts is None:
        min_pts = clustering.default_min_pts(len(candidates))

    labels = clustering.dbscan(candidates, eps, min_pts)
    fallback = bool(np.all(labels == clustering.NOISE))
    if fallback:
        log.warning(
            "all %d baseline candidates were DBSCAN noise; "
            "treating them as a single cluster", len(candidates),
        )
        labels = np.zeros(len(candidates), dtype=int)

    rng = np.random.default_rng(seed)
    keep = []
    for cluster in np.unique(labels):
        if cluster == clustering.NOISE:
            continue
        members = np.flatnonzero(labels == cluster)
        if len(members) > n:
            members = rng.choice(members, size=n, replace=False)
        keep.extend(int(i) for i in sorted(members))

    keep = np.array(keep, dtype=int)
    return ExemplarSet(
        candidates[keep],
        labels[keep],
        cand_scores[keep],
        params={
            "n": n,
            "epsilon": epsilon,
            "dbscan_eps": float(eps),
            "dbscan_min_pts": int(min_pts),
            "seed": seed,
            "n_candidates": int(len(candidates)),
            "fallback_single_cluster": fallback,
        },
    )


def naive_baseline(x_norm: np.ndarray, det: Detector, size: int) -> ExemplarSet:
    """Comparison mode: just take the `size` highest-scoring points.

    Kept to show why clustering matters; dense modes crowd out sparse
    ones at matched sample size.
    """
    x_norm = np.atleast_2d(np.asarray(x_norm, dtype=float))
    scores = network.forward_batch(det.model, x_norm)
    top = np.argsort(-scores, kind="stable")[:size]
    return ExemplarSet(
        x_norm[top],
        np.zeros(len(top), dtype=int),
        scores[top],
        params={"mode": "naive_top_score", "size": int(size)},
    )


def nearest_exemplar(x: np.ndarray, ex: ExemplarSet, metric: str = "L2"):
    """Closest exemplar to each row of the (N, D) matrix x under the
    metric; ties break to the lowest index. Returns the (N, D) exemplars
    and their (N,) distances. The (N, K) distance matrix is computed in
    blocks of at most network.ROWS row-exemplar pairs."""
    if len(ex) == 0:
        raise EmptyBaselineError("exemplar set is empty")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ShapeError(f"expected a (N, D) matrix of rows, got shape {x.shape}")
    best = np.empty(len(x), dtype=int)
    dist = np.empty(len(x))
    per = max(1, network.ROWS // len(ex))
    for lo in range(0, len(x), per):
        d = distances(x[lo:lo + per], ex.points, metric)
        best[lo:lo + per] = np.argmin(d, axis=1)  # argmin returns the first minimum
        dist[lo:lo + per] = d.min(axis=1)
    return ex.points[best], dist
