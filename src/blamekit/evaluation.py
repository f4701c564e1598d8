"""Attribution-quality evaluation: error metric, rank test, comparisons.

The attribution error is the mean absolute difference between a
method's blame vector and the labeled ground-truth vector. Methods are
compared per anomalous row and ranked with a two-sided Mann-Whitney U
test at the 5% level. The same U over P*N is the detector's AUC.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .benchmark import LabeledSet
from .errors import InputError, ShapeError

EXACT_ENUM_LIMIT = 500_000  # max arrangements for exact enumeration


def attribution_error(b: np.ndarray, beta: np.ndarray) -> float | np.ndarray:
    """Mean absolute difference between blame and ground truth: a float
    for two vectors, one error per row for two (N, D) matrices."""
    b = np.asarray(b, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if b.shape != beta.shape or b.ndim not in (1, 2):
        raise ShapeError(f"width mismatch: {b.shape} vs {beta.shape}")
    return np.sum(np.abs(b - beta), axis=-1) / b.shape[-1]


def _midranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks with ties sharing their mean rank, and the tie-group sizes."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    # a group of c tied values ending at rank r shares rank r - (c - 1) / 2
    return (np.cumsum(counts) - 0.5 * (counts - 1))[group], counts


def _u_statistic(ranks_a: np.ndarray, n_a: int) -> float:
    return float(ranks_a.sum() - n_a * (n_a + 1) / 2.0)


def rank_auc(scores_pos, scores_neg) -> float:
    """AUC as the Mann-Whitney U of the positives over P*N (wins + half ties)."""
    pos = np.asarray(scores_pos, dtype=float)
    neg = np.asarray(scores_neg, dtype=float)
    if len(pos) == 0 or len(neg) == 0:
        return float("nan")
    ranks, _ = _midranks(np.concatenate([pos, neg]))
    return _u_statistic(ranks[: len(pos)], len(pos)) / (len(pos) * len(neg))


def mann_whitney_u(errs_a, errs_b) -> tuple[float, float]:
    """Two-sided Mann-Whitney U with midrank ties.

    Small samples (min size < 8, when enumeration is tractable) use exact
    enumeration over all label arrangements; otherwise the normal
    approximation with continuity and tie corrections.
    Returns (U for the first sample, two-sided p).
    """
    a = np.asarray(errs_a, dtype=float)
    b = np.asarray(errs_b, dtype=float)
    if len(a) < 3 or len(b) < 3:
        raise InputError("each sample needs at least 3 observations")
    n_a, n_b = len(a), len(b)
    ranks, counts = _midranks(np.concatenate([a, b]))
    u_a = _u_statistic(ranks[:n_a], n_a)

    if min(n_a, n_b) < 8 and math.comb(n_a + n_b, n_a) <= EXACT_ENUM_LIMIT:
        total = lo = hi = 0
        for idx in combinations(range(n_a + n_b), n_a):
            u = _u_statistic(ranks[list(idx)], n_a)
            total += 1
            lo += u <= u_a
            hi += u >= u_a
        p = min(1.0, 2.0 * min(lo, hi) / total)
        return u_a, p

    n = n_a + n_b
    mu = n_a * n_b / 2.0
    tie_term = float(np.sum(counts ** 3 - counts)) / (n * (n - 1))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    if var == 0.0:
        return u_a, 1.0
    z = (u_a - mu - 0.5 * np.sign(u_a - mu)) / math.sqrt(var)
    p = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(abs(z) / math.sqrt(2.0))))
    return u_a, min(1.0, p)


@dataclass
class MethodReport:
    name: str
    errors: list[float] = field(default_factory=list)
    failed: str | None = None
    p_values: dict[str, float] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return float(np.mean(self.errors)) if self.errors else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.errors)) if self.errors else float("nan")

    def to_dict(self) -> dict:
        return {
            "method": self.name,
            "errors": self.errors,
            "mean": self.mean,
            "std": self.std,
            "failed": self.failed,
            "p_values": self.p_values,
        }


def evaluate_methods(test: LabeledSet, methods: dict) -> list[MethodReport]:
    """Score each attribution method on every anomalous row of `test`.

    `methods` maps a name to a callable that takes the (N, D) matrix of
    raw anomalous observations and returns their (N, D) blame matrix. A
    method that raises, or returns another shape, gets its whole column
    marked failed with the diagnostic; the others continue. Normal rows
    never enter error aggregation.
    """
    x, beta = test.x[test.anomalous], test.beta[test.anomalous]
    if len(x) < 30:
        raise InputError(f"need at least 30 anomalous rows, got {len(x)}")

    reports = []
    for name, fn in methods.items():
        report = MethodReport(name)
        try:
            report.errors = attribution_error(fn(x), beta).tolist()
        except Exception as exc:  # noqa: BLE001 - column-level diagnostic
            report.failed = f"{type(exc).__name__}: {exc}"
        reports.append(report)

    for ra in reports:
        for rb in reports:
            if ra.name == rb.name or ra.failed or rb.failed:
                continue
            _, p = mann_whitney_u(ra.errors, rb.errors)
            ra.p_values[rb.name] = p
    return reports


def reports_to_json(reports: list[MethodReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def format_table(reports: list[MethodReport]) -> str:
    """Aligned plain-text comparison table."""
    headers = ["method", "n", "mean", "std", *("p vs " + r.name for r in reports)]
    rows = []
    for r in reports:
        if r.failed:
            rows.append([r.name, "-", "FAILED", r.failed] + ["-"] * len(reports))
            continue
        cells = [r.name, str(len(r.errors)), f"{r.mean:.4f}", f"{r.std:.4f}"]
        for other in reports:
            p = r.p_values.get(other.name)
            cells.append("-" if p is None else f"{p:.4g}")
        rows.append(cells)
    widths = [max(len(h), *(len(row[i]) if i < len(row) else 0 for row in rows))
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
