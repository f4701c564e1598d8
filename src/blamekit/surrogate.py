"""Local linear surrogate attribution (LIME-style comparator).

Fits a distance-weighted linear model to detector scores on Gaussian
perturbations around each observation; the scaled absolute coefficients
then pass through the usual blame normalization. This is the
model-agnostic stand-in the evaluation harness compares IG against.

A call takes only a seed. Its settings are fixed: 25·D perturbations
(SAMPLES_PER_DIM), σ = 0.1 per dimension (SIGMA), and an exponential
kernel of width 0.5 over a perturbation's L2 length (KERNEL_WIDTH).

Every row of a call shares one seeded perturbation cloud z, so the
kernel weights and the normal matrix are built once per call and one
solve serves all rows. The cloud is scored in the first layer's
pre-activation space: z·W1 once per call and x·W1 + b1 once per row, so
row x's point x + z enters the network as (x·W1 + b1) + z·W1, in one
reused (rows, H1, samples) block of at most network.POINTS points.
"""

from __future__ import annotations

import numpy as np

from . import network
from .attribution import blame
from .detector import Detector
from .errors import ShapeError

SAMPLES_PER_DIM = 25
SIGMA = 0.1         # perturbation scale per dimension
KERNEL_WIDTH = 0.5  # exponential kernel over L2 distance


def surrogate_coefficients(det: Detector, x_norm: np.ndarray, seed: int = 0) -> np.ndarray:
    """Weighted ridge fit of score vs perturbation around each row of the
    (N, D) matrix x_norm; returns the (N, D) slopes."""
    x_norm = np.asarray(x_norm, dtype=float)
    if x_norm.ndim != 2:
        raise ShapeError(f"expected a (N, D) matrix of rows, got shape {x_norm.shape}")
    dims = x_norm.shape[1]
    samples = SAMPLES_PER_DIM * dims

    cw = network.preactivation(det.model, x_norm)
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, SIGMA, size=(samples, dims))
    d2 = np.sum(z * z, axis=1)
    w = np.exp(-d2 / (KERNEL_WIDTH ** 2))

    # weighted ridge solve on the centered design; lambda keeps the
    # system nonsingular even under degenerate sampling
    design = np.hstack([np.ones((samples, 1)), z])
    a = design.T @ (w[:, None] * design) + 1e-6 * np.eye(dims + 1)
    b = np.empty((dims + 1, len(x_norm)))
    weighted = design.T * w
    # x + z enters the first (affine) layer as cw[row] + zW, points last
    zw = np.dot(z, det.model.layers[0].w).T.copy()
    per = max(1, network.POINTS // samples)
    buf = np.empty((min(per, len(x_norm)), *zw.shape))
    for lo in range(0, len(x_norm), per):
        rows = slice(lo, lo + per)
        z1 = np.add(cw[rows, :, None], zw, out=buf[:len(cw[rows])])
        b[:, rows] = np.dot(weighted, network.forward_pre(det.model, z1).T)
    return np.linalg.solve(a, b)[1:].T


def surrogate_attribution(det: Detector, x_norm: np.ndarray, seed: int = 0) -> np.ndarray:
    """(N, D) blame matrix from the local surrogate; deterministic per seed."""
    return blame(np.abs(surrogate_coefficients(det, x_norm, seed)) * SIGMA)
