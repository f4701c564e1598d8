"""Synthetic labeled fault benchmark.

Stands in for proprietary device telemetry: normal behavior is a
mixture of axis-aligned Gaussian modes inside the unit cube; faults
shift a few randomly chosen dimensions far outside the generating
mode's 99.9% envelope, clamped to [0,1]. Every fault row carries a
ground-truth attribution vector with equal weight on the shifted
dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, load_telemetry, save_telemetry
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


@dataclass
class LabeledAnomaly:
    x: np.ndarray
    anomalous: bool
    beta: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.beta = np.asarray(self.beta, dtype=float)
        if self.anomalous:
            # np.isclose's test written out: it costs ~20 us per call on a scalar
            if not abs(self.beta.sum() - 1.0) <= 1e-8 + 1e-5:
                raise ConfigError("anomalous rows need beta summing to 1")
        elif np.any(self.beta != 0):
            raise ConfigError("normal rows must have all-zero beta")


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


def validate_config(cfg: BenchmarkConfig) -> None:
    for mode in cfg.modes:
        if all(not _fault_directions(mode, d, cfg.magnitude) for d in range(cfg.dims)):
            raise ConfigError(
                "fault magnitude cannot escape the 99.9% envelope on any "
                "dimension after clamping; increase magnitude or move centers"
            )


def _draw_normals(cfg: BenchmarkConfig, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    weights = np.array([m.weight for m in cfg.modes])
    weights = weights / weights.sum()
    which = rng.choice(len(cfg.modes), size=n, p=weights)
    x = np.empty((n, cfg.dims))
    for i, k in enumerate(which):
        mode = cfg.modes[k]
        x[i] = np.clip(rng.normal(mode.center, mode.scale), 0.0, 1.0)
    return x, which


def generate_fault_benchmark(cfg: BenchmarkConfig) -> tuple[Dataset, list[LabeledAnomaly]]:
    """Deterministic (per seed) train set and labeled test set."""
    validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    names = [f"dim_{d}" for d in range(cfg.dims)]

    train, _ = _draw_normals(cfg, cfg.n_normal, rng)
    train_ds = Dataset(names, train)

    test: list[LabeledAnomaly] = []
    normals, _ = _draw_normals(cfg, cfg.n_test_normal, rng)
    for row in normals:
        test.append(LabeledAnomaly(row, False, np.zeros(cfg.dims)))

    bases, which = _draw_normals(cfg, cfg.n_faults, rng)
    for row, k in zip(bases, which):
        mode = cfg.modes[k]
        n_a = int(rng.choice(np.asarray(cfg.fault_dims)))
        feasible = [d for d in range(cfg.dims) if _fault_directions(mode, d, cfg.magnitude)]
        if len(feasible) < n_a:
            raise ConfigError(f"only {len(feasible)} feasible fault dimensions, need {n_a}")
        chosen = rng.choice(feasible, size=n_a, replace=False)
        x = row.copy()
        beta = np.zeros(cfg.dims)
        for d in chosen:
            dirs = _fault_directions(mode, d, cfg.magnitude)
            sign = dirs[0] if len(dirs) == 1 else float(rng.choice(dirs))
            x[d] = np.clip(mode.center[d] + sign * cfg.magnitude, 0.0, 1.0)
            beta[d] = 1.0 / n_a
        test.append(LabeledAnomaly(x, True, beta))
    return train_ds, test


def save_benchmark(train: Dataset, test: list[LabeledAnomaly], train_path, test_path) -> None:
    save_telemetry(train, train_path)
    names = train.names
    test_ds = Dataset(names, np.array([t.x for t in test]).reshape(len(test), len(names)))
    extra_names = ["label"] + [f"beta_{n}" for n in names]
    extra = np.array(
        [[1.0 if t.anomalous else 0.0, *t.beta] for t in test]
    )
    save_telemetry(test_ds, test_path, extra_names=extra_names, extra_values=extra)


def load_labeled(path, expected: list[str] | None = None) -> list[LabeledAnomaly]:
    """Read a test CSV written by save_benchmark, whose value columns (the
    ones before 'label') must equal `expected` if given."""
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
    out = []
    for row in ds.values:
        x = row[:label_col]
        anomalous = bool(row[label_col])
        beta = row[label_col + 1 :]
        out.append(LabeledAnomaly(x, anomalous, beta))
    return out
