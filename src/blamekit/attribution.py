"""Integrated gradients along L1/L2 paths, blame vectors, and audits.

The raw attribution for a dimension is the overall rate of change of
the detector along that dimension over the path from the anomaly to its
baseline: exact on the axis (L1) path, a midpoint Riemann sum on the
straight (L2) path, whose step count `explain` doubles from START_STEPS
until the completeness gap is within tolerance. The blame vector
rescales the positive part of the raw attribution into [0,1]^D with
total mass at most 1.

Everything here takes a matrix of rows, one observation per row, and
hands the network blocks of points, so a file costs one network call per
block rather than several per row. The straight path's points are affine
in the row, so they reach the network as first-layer pre-activations
built from two products per row, in one reused (rows, H1, points) block
(see `network`); the axis path scores its exact corners in input space,
network.ROWS at a time. Results come
back the same way: `explain` returns one `Explanations` of column
arrays, row i of each belonging to input row i, and `Explanations.lines`
encodes them as the text of explanations.jsonl. A single observation is
a one-row matrix: `explain(det, ex, x[None]).blame[0]`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import network
from .detector import Detector
from .errors import InputError, ShapeError
from .exemplar import ExemplarSet, nearest_exemplar

PATH_KINDS = ("straight", "axis")

GAP_TOLERANCE = 1e-3
START_STEPS = 64
MAX_STEPS = 2 ** 16

# a record's "flags" list as JSON text, indexed by (the row scores as
# normal) + 2 * (the row misses the gap tolerance)
_FLAGS = ('[]', '["non_anomalous"]', '["completeness_gap_above_tolerance"]',
          '["non_anomalous", "completeness_gap_above_tolerance"]')


def integrated_gradients(det: Detector, x: np.ndarray, x_base: np.ndarray,
                         kind: str = "straight", steps: int = START_STEPS) -> np.ndarray:
    """IG of the detector from each row of x to the same row of x_base,
    in normalized space; x and x_base are (N, D) matrices.

    `kind` "axis" is the city-block path: it moves one displaced
    dimension at a time, largest |displacement| first (lower index on
    ties), so each dimension's integral is exactly the score difference
    across its own segment, and `steps` is unused. `kind` "straight" is
    the L2 line, integrated by a midpoint Riemann sum with `steps` nodes;
    `explain` doubles them as needed. Its nodes go to the network as
    first-layer pre-activations c + t·e (c = x·W1 + b1, e = (x' - x)·W1),
    and the mean of dF/dz1 over a row's nodes is taken back through W1ᵀ
    once. Nodes go to the network in blocks of whole rows, at most
    network.POINTS per call (or one row's nodes, if more).
    """
    if kind not in PATH_KINDS:
        raise ValueError(f"path kind must be one of {PATH_KINDS}, got {kind!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.asarray(x, dtype=float)
    x_base = np.asarray(x_base, dtype=float)
    if x.shape != x_base.shape or x.ndim != 2:
        raise ShapeError("x and baseline must be (N, D) matrices of equal shape")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(x_base))):
        raise InputError("non-finite endpoint")

    dims = x.shape[1]
    diff = x_base - x
    raw = np.empty_like(diff)
    if kind == "straight":
        w1 = det.model.layers[0].w
        c = network.preactivation(det.model, x)
        e = np.dot(diff, w1)
        mids = (np.arange(steps) + 0.5) / steps
        per = max(1, network.POINTS // steps)
        buf = np.empty((min(per, len(x)), w1.shape[1], steps))
        for lo in range(0, len(x), per):
            rows = slice(lo, lo + per)
            z1 = np.multiply(e[rows, :, None], mids, out=buf[:len(e[rows])])
            z1 += c[rows, :, None]
            raw[rows] = diff[rows] * np.dot(network.grad_pre(det.model, z1), w1.T)
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


def _row_texts(m: np.ndarray) -> list[str]:
    """The JSON text of each row of a non-empty (N, D) float matrix, less its
    brackets. For finite floats str() of a list writes what json.dumps
    does: each float's repr, joined by ", "."""
    return str(m.tolist())[2:-2].split("], [")


@dataclass
class Explanations:
    """Explanations of N rows as column arrays; row i of each is input row i.

    x, baseline, raw and blame are (N, D), in normalized space; baseline
    row i is the exemplar set's point exemplar[i]. score, baseline_score,
    gap and steps are (N,). `steps` is the number of midpoint nodes a
    row's straight path ended at; the exact axis path reports START_STEPS.
    `timestamps` holds one timestamp or None per row, or is None when the
    input had none.
    """

    x: np.ndarray
    baseline: np.ndarray
    exemplar: np.ndarray
    score: np.ndarray
    baseline_score: np.ndarray
    raw: np.ndarray
    blame: np.ndarray
    gap: np.ndarray
    steps: np.ndarray
    metric: str
    path: str
    timestamps: list | None = None

    def __len__(self) -> int:
        return len(self.score)

    def lines(self) -> str:
        """The rows as explanations.jsonl text: per row, the bytes of
        json.dumps of its record and a newline. A record's keys are x,
        baseline, score, baseline_score, raw, blame, gap, metric, path
        {kind, m}, flags, and ts only if the row has a timestamp. A row is
        flagged when it scores as normal or misses the gap tolerance.

        Each matrix is turned into text by one str() call, and each
        exemplar's baseline text is made once and shared by its rows."""
        if len(self) == 0:
            return ""  # str([]) has no rows to split
        ids, first = np.unique(self.exemplar, return_index=True)
        baselines = dict(zip(ids.tolist(), _row_texts(self.baseline[first])))
        codes = ((self.score > 0.5) + 2 * (self.gap > GAP_TOLERANCE)).tolist()
        metric_path = (f'"metric": {json.dumps(self.metric)}, '
                       f'"path": {{"kind": {json.dumps(self.path)}, "m": ')
        ends = ["}\n" if ts is None else
                f', "ts": {json.dumps(ts.isoformat() if hasattr(ts, "isoformat") else str(ts))}}}\n'
                for ts in self.timestamps or [None] * len(self)]
        return "".join(
            f'{{"x": [{x}], "baseline": [{baselines[k]}], "score": {fx}, "baseline_score": {fb}, '
            f'"raw": [{raw}], "blame": [{b}], "gap": {gap}, {metric_path}{m}}}, '
            f'"flags": {_FLAGS[code]}{end}'
            for x, k, fx, fb, raw, b, gap, m, code, end in zip(
                _row_texts(self.x), self.exemplar.tolist(), self.score.tolist(),
                self.baseline_score.tolist(), _row_texts(self.raw), _row_texts(self.blame),
                self.gap.tolist(), self.steps.tolist(), codes, ends, strict=True))


def explain(det: Detector, ex: ExemplarSet, x_raw, metric: str = "L2",
            path: str = "straight", timestamps=None) -> Explanations:
    """Full pipeline for each row of the (N, D) matrix x_raw: normalize,
    pick the nearest exemplar, integrate gradients, normalize to blame.
    Returns one Explanations whose row i explains row i of x_raw.

    `path` is a path kind, "straight" or "axis". On the straight path
    every row starts at START_STEPS steps; after each pass the rows whose
    completeness gap is still above tolerance run again at twice the
    steps (up to 2^16). The exact axis path stops after one pass. Each
    row reports the steps it used and its residual gap. A near-normal
    observation is flagged in its record, not rejected. `timestamps`, if
    given, holds one timestamp (or None) per row.
    """
    x = det.normalizer.apply(x_raw)
    nearest, _ = nearest_exemplar(x, ex, metric)
    x_base = ex.points[nearest]
    fx = network.forward_batch(det.model, x)
    fb = network.forward_batch(det.model, x_base)

    raw = np.empty_like(x)
    gap = np.empty(len(x))
    m = np.empty(len(x), dtype=int)
    open_rows = np.arange(len(x))
    steps = START_STEPS
    while len(open_rows):
        raw[open_rows] = integrated_gradients(det, x[open_rows], x_base[open_rows],
                                              path, steps)
        gap[open_rows] = _gap(raw[open_rows], fx[open_rows], fb[open_rows])
        m[open_rows] = steps
        if steps >= MAX_STEPS:
            break
        open_rows = open_rows[gap[open_rows] > GAP_TOLERANCE]
        steps *= 2
    return Explanations(x, x_base, nearest, fx, fb, raw, blame(raw), gap, m, metric, path,
                        timestamps)


def check_desiderata(det: Detector, x, x_base, raw: np.ndarray) -> dict:
    """Report-only audit of the four explanation properties.

    contrastive: the baseline scores at least 0.9 (nearly normal) while x
    scores at most 0.5 (anomalous).
    completeness: |sum(raw) - (F(x') - F(x))|.
    sensitivity: dimensions with zero attribution should be inert; each
    is probed by nudging the endpoint values by +-0.05.
    proportionality: on 50 random dimension pairs (seed 0), attribution
    ordering should match a dense (m=16384) integration of per-dimension
    rate of change; tied pairs are skipped.
    """
    x, x_base = ends = np.array([x, x_base], dtype=float)
    raw = np.asarray(raw, dtype=float)
    fx, fb = network.forward_batch(det.model, ends)

    contrastive = fb >= 0.9 and fx <= 0.5
    gap = completeness_gap(det, x[None], x_base[None], raw[None])[0]

    sensitivity = {}
    for d in np.flatnonzero(np.abs(raw) < 1e-9):
        probes = np.repeat(ends, 2, axis=0)  # x, x, x', x'
        probes[:, d] += [0.05, -0.05, 0.05, -0.05]
        moved = network.forward_batch(det.model, probes) - np.repeat([fx, fb], 2)
        sensitivity[int(d)] = bool(np.all(np.abs(moved) < 1e-4))

    dense = integrated_gradients(det, x[None], x_base[None], "straight", 16384)[0]
    rng = np.random.default_rng(0)
    dims = len(raw)
    agree = tried = 0
    for _ in range(50):
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
