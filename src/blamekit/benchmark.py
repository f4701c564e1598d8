"""Synthetic labeled fault benchmark.

Stands in for proprietary device telemetry: normal behavior is a
mixture of axis-aligned Gaussian modes inside the unit cube; faults
shift a few randomly chosen dimensions far outside the generating
mode's 99.9% envelope, clamped to [0,1]. Every fault row carries a
ground-truth attribution vector with equal weight on the shifted
dimensions. The labeled test set is one `LabeledSet` of column arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, load_telemetry
from .errors import ConfigError, ParseError

ENVELOPE_Z = 3.29  # two-sided 99.9% quantile of the standard normal


@dataclass
class Mode:
    center: np.ndarray
    scale: float
    weight: float = 1.0

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        if np.any(self.center < 0) or np.any(self.center > 1):
            raise ConfigError("mode centers must lie inside the unit cube")
        if self.scale <= 0 or self.weight <= 0:
            raise ConfigError("mode scale and weight must be positive")


@dataclass
class BenchmarkConfig:
    dims: int = 8
    modes: list[Mode] = field(default_factory=list)
    n_normal: int = 5000
    n_test_normal: int = 200
    n_faults: int = 400
    fault_dims: tuple[int, ...] = (1,)   # candidate n_A values, drawn per row
    magnitude: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.dims < 1:
            raise ConfigError(f"dims must be >= 1, got {self.dims}")
        for name in ("n_normal", "n_test_normal", "n_faults"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not self.modes:
            self.modes = default_modes(self.dims)
        for mode in self.modes:
            if len(mode.center) != self.dims:
                raise ConfigError("mode center width must match dims")
        if any(k < 1 for k in self.fault_dims):
            raise ConfigError("fault dimension counts must be >= 1")


def default_modes(dims: int) -> list[Mode]:
    # one dense mode, one sparse mode, well separated; the per-dimension
    # zigzag keeps the centers off a shared diagonal
    idx = np.arange(dims)
    low = 0.25 + 0.1 * (idx % 2)
    high = 0.65 + 0.1 * ((idx + 1) % 2)
    return [
        Mode(low, scale=0.03, weight=3.0),
        Mode(high, scale=0.03, weight=1.0),
    ]


def _first_bad_row(label: np.ndarray, beta: np.ndarray) -> tuple[int, str] | None:
    """(index, reason) of the first row whose label is not 0 or 1, or whose
    beta does not sum to 1 on a fault row or is not zero on a normal row."""
    sum_off = ~(np.abs(beta.sum(axis=1) - 1.0) <= 1e-8 + 1e-5)  # np.isclose's test
    faults = [((label != 0) & (label != 1), "label must be 0 or 1"),
              ((label == 1) & sum_off, "anomalous rows need beta summing to 1"),
              ((label == 0) & np.any(beta != 0, axis=1), "normal rows must have all-zero beta")]
    return min(((int(np.argmax(bad)), why) for bad, why in faults if bad.any()), default=None)


@dataclass
class LabeledSet:
    """Labeled test rows as columns: raw observations x (N, D), the fault
    label anomalous (N,) and the ground-truth attribution beta (N, D),
    which sums to 1 on a fault row and is zero on a normal one."""

    x: np.ndarray
    anomalous: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.anomalous = np.asarray(self.anomalous, dtype=bool)
        self.beta = np.asarray(self.beta, dtype=float)
        bad = _first_bad_row(self.anomalous, self.beta)
        if bad is not None:
            raise ConfigError(f"row {bad[0]}: {bad[1]}")

    def __len__(self) -> int:
        return len(self.x)


def _fault_directions(mode: Mode, d: int, magnitude: float) -> list[float]:
    """Signs that push dimension d outside the mode's 99.9% envelope.

    Directions whose shifted value stays strictly inside (0,1) are
    preferred over ones that clamp onto the cube boundary.
    """
    hi = mode.center[d] + ENVELOPE_Z * mode.scale
    lo = mode.center[d] - ENVELOPE_Z * mode.scale
    unclamped, clamped = [], []
    if min(mode.center[d] + magnitude, 1.0) > hi:
        (unclamped if mode.center[d] + magnitude < 1.0 else clamped).append(+1.0)
    if max(mode.center[d] - magnitude, 0.0) < lo:
        (unclamped if mode.center[d] - magnitude > 0.0 else clamped).append(-1.0)
    return unclamped or clamped


def _draw_normals(cfg: BenchmarkConfig, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    weights = np.array([m.weight for m in cfg.modes])
    weights = weights / weights.sum()
    which = rng.choice(len(cfg.modes), size=n, p=weights)
    centers = np.array([m.center for m in cfg.modes])
    scales = np.array([m.scale for m in cfg.modes])
    # one call draws the same stream, row by row, as one call per row
    x = np.clip(rng.normal(centers[which], scales[which, None]), 0.0, 1.0)
    return x, which


def generate_fault_benchmark(cfg: BenchmarkConfig) -> tuple[Dataset, LabeledSet]:
    """Deterministic (per seed) train set and labeled test set: the
    n_test_normal normal rows, then the n_faults fault rows. A config is
    rejected if some mode has fewer dimensions a fault can escape on than
    the largest fault dimension count."""
    # each mode's escape directions per dimension, and the dimensions that have one
    dirs = [[_fault_directions(m, d, cfg.magnitude) for d in range(cfg.dims)]
            for m in cfg.modes]
    feasible = [[d for d, signs in enumerate(ds) if signs] for ds in dirs]
    need = max(cfg.fault_dims, default=1)
    for k, ds in enumerate(feasible):
        if len(ds) < need:
            raise ConfigError(f"mode {k}: a clamped fault escapes the 99.9% envelope on {len(ds)} "
                              f"dimensions, need {need}; increase magnitude or move centers")
    rng = np.random.default_rng(cfg.seed)
    names = [f"dim_{d}" for d in range(cfg.dims)]

    train, _ = _draw_normals(cfg, cfg.n_normal, rng)
    train_ds = Dataset(names, train)

    normals, _ = _draw_normals(cfg, cfg.n_test_normal, rng)
    faults, which = _draw_normals(cfg, cfg.n_faults, rng)
    beta = np.zeros_like(faults)
    for x, b, k in zip(faults, beta, which):  # x and b are views of one row
        n_a = int(rng.choice(cfg.fault_dims))
        for d in rng.choice(feasible[k], size=n_a, replace=False):
            signs = dirs[k][d]
            sign = signs[0] if len(signs) == 1 else float(rng.choice(signs))
            x[d] = np.clip(cfg.modes[k].center[d] + sign * cfg.magnitude, 0.0, 1.0)
            b[d] = 1.0 / n_a
    anomalous = np.arange(len(normals) + len(faults)) >= len(normals)
    test = LabeledSet(np.vstack([normals, faults]), anomalous,
                      np.vstack([np.zeros_like(normals), beta]))
    return train_ds, test


def load_labeled(path, expected: list[str] | None = None) -> LabeledSet:
    """Read a test CSV written by the benchmark command, whose value
    columns (the ones before 'label') must equal `expected` if given. A
    label other than 0 or 1, or a beta that breaks the LabeledSet contract,
    is a ParseError naming the file and the row."""
    ds = load_telemetry(path)
    try:
        label_col = ds.names.index("label")
    except ValueError:
        raise ParseError(f"{path}: missing 'label' column") from None
    dim_names = ds.names[:label_col]
    if expected is not None and dim_names != expected:
        raise ParseError(f"{path}: columns {dim_names} do not match the expected {expected}")
    beta_cols = [f"beta_{n}" for n in dim_names]
    if ds.names[label_col + 1 :] != beta_cols:
        raise ParseError(f"{path}: beta columns must mirror the value columns")
    label, beta = ds.values[:, label_col], ds.values[:, label_col + 1 :]
    bad = _first_bad_row(label, beta)
    if bad is not None:  # data row i is file row i + 2, after the header
        raise ParseError(f"{path}: row {bad[0] + 2}: {bad[1]}")
    return LabeledSet(ds.values[:, :label_col], label == 1, beta)
