"""Integrated gradients along L1/L2 paths, blame vectors, and audits.

The raw attribution for a dimension is the overall rate of change of
the detector along that dimension over the path from the anomaly to its
baseline, approximated with a midpoint Riemann sum. The blame vector
rescales the positive part of the raw attribution into [0,1]^D with
total mass at most 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import network
from .detector import Detector
from .errors import InputError, ShapeError
from .exemplar import ExemplarSet, nearest_exemplar

PATH_KINDS = ("straight", "axis")

GAP_TOLERANCE = 1e-3
MAX_STEPS = 2 ** 16


@dataclass
class PathSpec:
    kind: str = "straight"   # "straight" = L2 line, "axis" = city-block
    steps: int = 1024

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ValueError(f"path kind must be one of {PATH_KINDS}, got {self.kind!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "m": self.steps}


def _axis_order(diff: np.ndarray) -> np.ndarray:
    # descending |displacement|, index tie-break; stable sort keeps it deterministic
    return np.argsort(-np.abs(diff), kind="stable")


def integrated_gradients(det: Detector, x: np.ndarray, x_base: np.ndarray,
                         path: PathSpec) -> np.ndarray:
    """Midpoint-rule IG of the detector from x to x_base in normalized space."""
    x = np.asarray(x, dtype=float)
    x_base = np.asarray(x_base, dtype=float)
    if x.shape != x_base.shape or x.ndim != 1:
        raise ShapeError("x and baseline must be vectors of equal width")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_base))):
        raise InputError("non-finite endpoint")

    diff = x_base - x
    m = path.steps
    mids = (np.arange(m) + 0.5) / m

    # the straight path moves every dimension at once; the axis path walks
    # one dimension at a time, integrating that dimension's gradient over
    # its own segment
    if path.kind == "straight":
        blocks = [slice(None)]
    else:
        blocks = [slice(d, d + 1) for d in _axis_order(diff) if diff[d] != 0.0]

    raw = np.zeros_like(diff)
    current = x.copy()
    for blk in blocks:
        pts = np.repeat(current[None, :], m, axis=0)
        pts[:, blk] += mids[:, None] * diff[blk]
        grads = network.input_gradient_batch(det.model, pts)
        raw[blk] = diff[blk] * grads[:, blk].mean(axis=0)
        current[blk] += diff[blk]
    return raw


def completeness_gap(det: Detector, x, x_base, raw: np.ndarray) -> float:
    fx = float(network.forward(det.model, np.asarray(x, dtype=float)))
    fb = float(network.forward(det.model, np.asarray(x_base, dtype=float)))
    return abs(float(np.sum(raw)) - (fb - fx))


def blame(raw: np.ndarray) -> np.ndarray:
    """Positive part over total absolute mass; zero vector if raw is zero."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise InputError("raw attribution contains non-finite values")
    total = np.sum(np.abs(raw))
    if total == 0.0:
        return np.zeros_like(raw)
    return np.maximum(raw, 0.0) / total


@dataclass
class Explanation:
    x: np.ndarray
    baseline: np.ndarray
    score: float
    baseline_score: float
    raw: np.ndarray
    blame: np.ndarray
    gap: float
    metric: str
    path: PathSpec
    flags: list[str] = field(default_factory=list)
    timestamp: str | None = None

    def to_dict(self) -> dict:
        d = {
            "x": self.x.tolist(),
            "baseline": self.baseline.tolist(),
            "score": self.score,
            "baseline_score": self.baseline_score,
            "raw": self.raw.tolist(),
            "blame": self.blame.tolist(),
            "gap": self.gap,
            "metric": self.metric,
            "path": self.path.to_dict(),
            "flags": list(self.flags),
        }
        if self.timestamp is not None:
            d["ts"] = self.timestamp
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def explain(det: Detector, ex: ExemplarSet, x_raw, metric: str = "L2",
            path: PathSpec | None = None, timestamp=None) -> Explanation:
    """Full pipeline for one observation: normalize, pick the nearest
    exemplar, integrate gradients, normalize to blame.

    The step count doubles (up to 2^16) until the completeness gap is
    within tolerance; the residual gap is reported either way. A
    near-normal observation is flagged, not rejected.
    """
    if path is None:
        path = PathSpec()
    x = det.normalizer.apply(np.asarray(x_raw, dtype=float))
    x_base, _ = nearest_exemplar(x, ex, metric)

    m = path.steps
    while True:
        p = PathSpec(path.kind, m)
        raw = integrated_gradients(det, x, x_base, p)
        gap = completeness_gap(det, x, x_base, raw)
        if gap <= GAP_TOLERANCE or m >= MAX_STEPS:
            break
        m *= 2

    fx = float(network.forward(det.model, x))
    fb = float(network.forward(det.model, x_base))
    flags = []
    if fx > 0.5:
        flags.append("non_anomalous")
    if gap > GAP_TOLERANCE:
        flags.append("completeness_gap_above_tolerance")

    ts = None
    if timestamp is not None:
        ts = timestamp.isoformat() if hasattr(timestamp, "isoformat") else str(timestamp)
    return Explanation(x, x_base.copy(), fx, fb, raw, blame(raw), gap,
                       metric, PathSpec(path.kind, m), flags, ts)


def check_desiderata(det: Detector, x, x_base, raw: np.ndarray,
                     epsilon: float = 0.1, n_pairs: int = 50,
                     seed: int = 0) -> dict:
    """Report-only audit of the four explanation properties.

    contrastive: baseline scores nearly normal while x scores anomalous.
    completeness: |sum(raw) - (F(x') - F(x))|.
    sensitivity: dimensions with zero attribution should be inert; each
    is probed by nudging the endpoint values by +-0.05.
    proportionality: attribution ordering should match a dense
    (m=16384) integration of per-dimension rate of change.
    """
    x = np.asarray(x, dtype=float)
    x_base = np.asarray(x_base, dtype=float)
    raw = np.asarray(raw, dtype=float)
    fx = network.forward(det.model, x)
    fb = network.forward(det.model, x_base)

    contrastive = fb >= 1.0 - epsilon and fx <= 0.5
    gap = completeness_gap(det, x, x_base, raw)

    sensitivity = {}
    for d in np.flatnonzero(np.abs(raw) < 1e-9):
        inert = True
        for endpoint in (x, x_base):
            for delta in (0.05, -0.05):
                probe = endpoint.copy()
                probe[d] += delta
                if abs(network.forward(det.model, probe) - network.forward(det.model, endpoint)) >= 1e-4:
                    inert = False
        sensitivity[int(d)] = inert

    dense = integrated_gradients(det, x, x_base, PathSpec("straight", 16384))
    rng = np.random.default_rng(seed)
    dims = len(raw)
    agree = tried = 0
    for _ in range(n_pairs):
        u, v = rng.choice(dims, size=2, replace=False)
        if abs(dense[u] - dense[v]) < 1e-6:
            continue  # tied pair, excluded
        tried += 1
        if np.sign(raw[u] - raw[v]) == np.sign(dense[u] - dense[v]):
            agree += 1

    return {
        "contrastive": bool(contrastive),
        "completeness_gap": float(gap),
        "sensitivity": sensitivity,
        "proportionality_pass_ratio": (agree / tried) if tried else 1.0,
        "proportionality_pairs_checked": tried,
    }
