"""Integrated gradients along L1/L2 paths, blame vectors, and audits.

The raw attribution for a dimension is the overall rate of change of
the detector along that dimension over the path from the anomaly to its
baseline: exact on the axis (L1) path, a midpoint Riemann sum on the
straight (L2) path, whose step count `explain` doubles from START_STEPS
until the completeness gap is within tolerance. The blame vector
rescales the positive part of the raw attribution into [0,1]^D with
total mass at most 1.

Everything here takes a matrix of rows, one observation per row, and
hands the network blocks of at most network.ROWS points, so a file costs
one network call per block rather than several per row. A single
observation is a one-row matrix: `explain(det, ex, x[None])[0]`.
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
START_STEPS = 64
MAX_STEPS = 2 ** 16


@dataclass
class PathSpec:
    kind: str = "straight"     # "straight" = L2 line, "axis" = city-block
    steps: int = START_STEPS   # midpoint nodes of the straight path; axis is exact

    def __post_init__(self):
        if self.kind not in PATH_KINDS:
            raise ValueError(f"path kind must be one of {PATH_KINDS}, got {self.kind!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def to_dict(self) -> dict:
        return {"kind": self.kind, "m": self.steps}


def integrated_gradients(det: Detector, x: np.ndarray, x_base: np.ndarray,
                         path: PathSpec) -> np.ndarray:
    """IG of the detector from each row of x to the same row of x_base,
    in normalized space; x and x_base are (N, D) matrices.

    The axis path moves one displaced dimension at a time, largest
    |displacement| first (lower index on ties), so each dimension's
    integral is exactly the score difference across its own segment. The
    straight path uses a midpoint Riemann sum with `path.steps` nodes
    (START_STEPS by default); `explain` doubles them as needed. Path
    points go to the network in blocks of whole rows, at most
    network.ROWS points per call (or one row's points, if more).
    """
    x = np.asarray(x, dtype=float)
    x_base = np.asarray(x_base, dtype=float)
    if x.shape != x_base.shape or x.ndim != 2:
        raise ShapeError("x and baseline must be (N, D) matrices of equal shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_base))):
        raise InputError("non-finite endpoint")

    dims = x.shape[1]
    diff = x_base - x
    raw = np.empty_like(diff)
    if path.kind == "straight":
        mids = (np.arange(path.steps) + 0.5) / path.steps
        per = max(1, network.ROWS // path.steps)
        for lo in range(0, len(x), per):
            d = diff[lo:lo + per]
            points = x[lo:lo + per, None, :] + mids[:, None] * d[:, None, :]
            grads = network.input_gradient_batch(det.model, points.reshape(-1, dims))
            raw[lo:lo + per] = d * grads.reshape(len(d), path.steps, dims).mean(axis=1)
        return raw

    # a stable sort keeps the tie-break, and so the staircase, deterministic;
    # corner j of a row has its first j dimensions in that order moved
    order = np.argsort(-np.abs(diff), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)
    corner = np.arange(dims + 1)[:, None]
    per = max(1, network.ROWS // (dims + 1))
    for lo in range(0, len(x), per):
        rows = slice(lo, lo + per)
        corners = np.where(rank[rows, None, :] < corner, x_base[rows, None, :], x[rows, None, :])
        scores = network.forward_batch(det.model, corners.reshape(-1, dims))
        np.put_along_axis(raw[rows], order[rows],
                          np.diff(scores.reshape(-1, dims + 1), axis=1), axis=1)
    # an unmoved dimension's segment has no length, whatever BLAS rounding says
    raw[diff == 0.0] = 0.0
    return raw


def _gap(raw: np.ndarray, fx: np.ndarray, fb: np.ndarray) -> np.ndarray:
    return np.abs(np.sum(raw, axis=1) - (fb - fx))


def completeness_gap(det: Detector, x, x_base, raw: np.ndarray) -> np.ndarray:
    """|sum(raw) - (F(x') - F(x))| for each row of the (N, D) matrices."""
    return _gap(raw, network.forward_batch(det.model, x),
                network.forward_batch(det.model, x_base))


def blame(raw: np.ndarray) -> np.ndarray:
    """Per row (last axis): positive part over total absolute mass; zero
    where the row is zero."""
    raw = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise InputError("raw attribution contains non-finite values")
    total = np.sum(np.abs(raw), axis=-1, keepdims=True)
    return np.divide(np.maximum(raw, 0.0), total, out=np.zeros_like(raw), where=total > 0.0)


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
            path: str = "straight", timestamps=None) -> list[Explanation]:
    """Full pipeline for each row of the (N, D) matrix x_raw: normalize,
    pick the nearest exemplar, integrate gradients, normalize to blame.

    `path` is a path kind, "straight" or "axis". On the straight path
    every row starts at START_STEPS steps; after each pass the rows whose
    completeness gap is still above tolerance run again at twice the
    steps (up to 2^16). The exact axis path stops after one pass. Each
    row reports the steps it used and its residual gap. A near-normal
    observation is flagged, not rejected. `timestamps`, if given, holds
    one timestamp (or None) per row.
    """
    x = det.normalizer.apply(x_raw)
    x_base, _ = nearest_exemplar(x, ex, metric)
    fx = network.forward_batch(det.model, x)
    fb = network.forward_batch(det.model, x_base)

    raw = np.empty_like(x)
    gap = np.empty(len(x))
    m = np.empty(len(x), dtype=int)
    open_rows = np.arange(len(x))
    steps = START_STEPS
    while len(open_rows):
        raw[open_rows] = integrated_gradients(det, x[open_rows], x_base[open_rows],
                                              PathSpec(path, steps))
        gap[open_rows] = _gap(raw[open_rows], fx[open_rows], fb[open_rows])
        m[open_rows] = steps
        if steps >= MAX_STEPS:
            break
        open_rows = open_rows[gap[open_rows] > GAP_TOLERANCE]
        steps *= 2

    blames = blame(raw)
    if timestamps is None:
        timestamps = [None] * len(x)
    out = []
    for i, ts in zip(range(len(x)), timestamps, strict=True):
        flags = []
        if fx[i] > 0.5:
            flags.append("non_anomalous")
        if gap[i] > GAP_TOLERANCE:
            flags.append("completeness_gap_above_tolerance")
        if ts is not None:
            ts = ts.isoformat() if hasattr(ts, "isoformat") else str(ts)
        out.append(Explanation(x[i], x_base[i], float(fx[i]), float(fb[i]), raw[i], blames[i],
                               float(gap[i]), metric, PathSpec(path, int(m[i])), flags, ts))
    return out


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
    gap = completeness_gap(det, x[None], x_base[None], raw[None])[0]

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

    dense = integrated_gradients(det, x[None], x_base[None], PathSpec("straight", 16384))[0]
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
