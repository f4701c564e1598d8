"""Local linear surrogate attribution (LIME-style comparator).

Fits a distance-weighted linear model to detector scores on Gaussian
perturbations around each observation; the scaled absolute coefficients
then pass through the usual blame normalization. This is the
model-agnostic stand-in the evaluation harness compares IG against.

Every row of a call shares one seeded perturbation draw, so the kernel
weights and the normal matrix are built once per call, the perturbed
points are scored in blocks of at most network.ROWS, and one solve
serves all rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import network
from .attribution import blame
from .detector import Detector
from .errors import InputError, ShapeError


@dataclass
class SurrogateConfig:
    samples: int = 200
    sigma: float = 0.1         # perturbation scale per dimension
    kernel_width: float = 0.5  # exponential kernel over L2 distance
    seed: int = 0


def surrogate_coefficients(det: Detector, x_norm: np.ndarray,
                           cfg: SurrogateConfig) -> np.ndarray:
    """Weighted ridge fit of score vs perturbation around each row of the
    (N, D) matrix x_norm; returns the (N, D) slopes."""
    x_norm = np.asarray(x_norm, dtype=float)
    if x_norm.ndim != 2:
        raise ShapeError(f"expected a (N, D) matrix of rows, got shape {x_norm.shape}")
    dims = x_norm.shape[1]
    if cfg.samples < 10 * dims:
        raise InputError(f"need at least {10 * dims} samples for D={dims}, got {cfg.samples}")

    rng = np.random.default_rng(cfg.seed)
    z = rng.normal(0.0, cfg.sigma, size=(cfg.samples, dims))
    d2 = np.sum(z * z, axis=1)
    w = np.exp(-d2 / (cfg.kernel_width ** 2))

    # weighted ridge solve on the centered design; lambda keeps the
    # system nonsingular even under degenerate sampling
    design = np.hstack([np.ones((cfg.samples, 1)), z])
    a = design.T @ (w[:, None] * design) + 1e-6 * np.eye(dims + 1)
    b = np.empty((dims + 1, len(x_norm)))
    per = max(1, network.ROWS // cfg.samples)
    for lo in range(0, len(x_norm), per):
        points = x_norm[lo:lo + per, None, :] + z
        scores = det.score_normalized(points.reshape(-1, dims)).reshape(-1, cfg.samples)
        b[:, lo:lo + per] = design.T @ (w * scores).T
    return np.linalg.solve(a, b)[1:].T


def surrogate_attribution(det: Detector, x_norm: np.ndarray,
                          cfg: SurrogateConfig | None = None) -> np.ndarray:
    """(N, D) blame matrix from the local surrogate; deterministic per seed."""
    if cfg is None:
        cfg = SurrogateConfig()
    coef = surrogate_coefficients(det, x_norm, cfg)
    return blame(np.abs(coef) * cfg.sigma)
