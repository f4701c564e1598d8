"""Anomaly detector trained by negative sampling.

Observed telemetry plays the normal class (label 1); uniform draws from
a slightly inflated unit hypercube play the anomalous class (label 0).
A small smooth network learns to separate them, so its output doubles
as an anomaly score: near 1 normal, near 0 anomalous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import network
from .dataio import Dataset, Normalizer, fit_normalizer
from .errors import InputError, ShapeError
from .evaluation import rank_auc
from .network import NetworkModel, TrainConfig


@dataclass
class NegativeSamplingConfig:
    ratio: float = 3.0       # negatives per positive
    envelope: float = 0.05   # hypercube inflation beyond [0,1]
    seed: int = 0

    def __post_init__(self):
        if self.ratio <= 0:
            raise ValueError("negative ratio must be > 0")
        if not 0.0 <= self.envelope < 1.0:
            raise ValueError("envelope expansion must be in [0, 1)")


@dataclass
class Detector:
    model: NetworkModel
    normalizer: Normalizer
    meta: dict

    def __post_init__(self):
        if self.model.dims != self.normalizer.dims:
            raise ShapeError("model width and normalizer width disagree")

    @property
    def dims(self) -> int:
        return self.model.dims

    def score(self, x_raw) -> float:
        return network.forward(self.model, self.normalizer.apply(x_raw))

    def score_batch(self, x_raw: np.ndarray) -> np.ndarray:
        return network.forward_batch(self.model, self.normalizer.apply(np.atleast_2d(x_raw)))

    def score_normalized(self, x_norm: np.ndarray) -> np.ndarray:
        return network.forward_batch(self.model, np.atleast_2d(x_norm))

    def to_dict(self) -> dict:
        return {
            "model": self.model.to_dict(),
            "normalizer": self.normalizer.to_dict(),
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Detector":
        return cls(
            NetworkModel.from_dict(d["model"]),
            Normalizer.from_dict(d["normalizer"]),
            dict(d["meta"]),
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "Detector":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def sample_negatives(x_norm: np.ndarray, cfg: NegativeSamplingConfig) -> np.ndarray:
    """Uniform draws from [-envelope, 1+envelope]^D, ceil(ratio*N) of them."""
    x_norm = np.atleast_2d(x_norm)
    if len(x_norm) == 0:
        raise InputError("cannot sample negatives for an empty dataset")
    n = int(np.ceil(cfg.ratio * len(x_norm)))
    rng = np.random.default_rng(cfg.seed)
    return rng.uniform(-cfg.envelope, 1.0 + cfg.envelope, size=(n, x_norm.shape[1]))


def fit_detector(
    data: Dataset,
    ns_cfg: NegativeSamplingConfig,
    train_cfg: TrainConfig,
    holdout_fraction: float = 0.2,
) -> Detector:
    """Fit normalizer + negative-sampling classifier; report held-out AUC.

    The AUC in the metadata separates held-out positives from fresh
    negatives; with fewer than 5 rows the split is degenerate and the
    metadata flags it.
    """
    if len(data) == 0:
        raise InputError("cannot fit a detector on an empty dataset")

    normalizer = fit_normalizer(data)
    x_all = normalizer.apply(data.values)

    rng = np.random.default_rng(train_cfg.seed)
    order = rng.permutation(len(x_all))
    n_hold = int(np.floor(holdout_fraction * len(x_all)))
    degenerate = n_hold == 0 or len(x_all) - n_hold == 0
    hold_idx, fit_idx = order[:n_hold], order[n_hold:]
    x_fit = x_all[fit_idx] if not degenerate else x_all

    negatives = sample_negatives(x_fit, ns_cfg)
    x_train = np.vstack([x_fit, negatives])
    y_train = np.concatenate([np.ones(len(x_fit)), np.zeros(len(negatives))])

    init = network.init_network(data.dims, tuple(train_cfg.hidden), train_cfg.seed)
    model = network.train(init, x_train, y_train, train_cfg)

    if degenerate:
        auc = None  # not measurable; flagged below
    else:
        neg_cfg = NegativeSamplingConfig(ns_cfg.ratio, ns_cfg.envelope, ns_cfg.seed + 1)
        fresh_neg = sample_negatives(x_all[hold_idx], neg_cfg)
        auc = rank_auc(
            network.forward_batch(model, x_all[hold_idx]),
            network.forward_batch(model, fresh_neg),
        )

    meta = {
        "n_rows": len(data),
        "n_negatives": len(negatives),
        "negative_ratio": ns_cfg.ratio,
        "envelope": ns_cfg.envelope,
        "seeds": {"sampling": ns_cfg.seed, "training": train_cfg.seed},
        "auc": auc,
        "degenerate_holdout": degenerate,
        "constant_dims": [data.names[i] for i in normalizer.constant_dims],
    }
    return Detector(model, normalizer, meta)
