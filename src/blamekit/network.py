"""Minimal dense feed-forward network with exact input gradients.

The detector is a small fully-connected net with smooth activations
(logistic or tanh) and a single logistic output unit, so the score lies
in (0,1) and the input gradient is defined everywhere. Backprop is
hand-rolled for this fixed architecture; no autodiff framework.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, ShapeError, TrainingError

ACTIVATIONS = ("logistic", "tanh")

# rows per batched call over a file (IG path points, surrogate samples,
# row-exemplar pairs): at widths up to 24 every array stays under glibc's
# 128 KiB mmap threshold; 4 096-row calls page-faulted and ran ~2x slower
ROWS = 512


def logistic(z):
    # clip keeps exp() from overflowing; saturated values round to 0/1-eps anyway
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _act(z, tag):
    if tag == "logistic":
        return logistic(z)
    if tag == "tanh":
        return np.tanh(z)
    raise ValueError(f"unknown activation {tag!r}")


def _act_deriv(a, tag):
    # derivative expressed through the activation value a = act(z)
    if tag == "logistic":
        return a * (1.0 - a)
    if tag == "tanh":
        return 1.0 - a * a
    raise ValueError(f"unknown activation {tag!r}")


@dataclass
class Layer:
    w: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)
    act: str

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.act not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.act!r}")
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ShapeError(f"layer shapes inconsistent: w{self.w.shape} b{self.b.shape}")


@dataclass
class NetworkModel:
    dims: int
    layers: list[Layer]
    seed: int = 0

    def __post_init__(self):
        fan = self.dims
        for i, layer in enumerate(self.layers):
            if layer.w.shape[0] != fan:
                raise ShapeError(
                    f"layer {i} expects {layer.w.shape[0]} inputs, previous width is {fan}"
                )
            fan = layer.w.shape[1]
        if fan != 1:
            raise ShapeError(f"final layer must have a single output unit, got {fan}")
        if self.layers[-1].act != "logistic":
            raise ValueError("final activation must be logistic to score in (0,1)")

    def copy(self) -> "NetworkModel":
        return NetworkModel(
            self.dims,
            [Layer(l.w.copy(), l.b.copy(), l.act) for l in self.layers],
            self.seed,
        )

    def to_dict(self) -> dict:
        return {
            "dims": self.dims,
            "layers": [
                {"w": l.w.tolist(), "b": l.b.tolist(), "act": l.act} for l in self.layers
            ],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkModel":
        layers = [Layer(np.array(l["w"]), np.array(l["b"]), l["act"]) for l in d["layers"]]
        return cls(int(d["dims"]), layers, int(d.get("seed", 0)))


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 64
    hidden: tuple[int, ...] = (16,)
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning rate must be finite and > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ValueError("every hidden width must be >= 1")


def init_network(dims: int, hidden: tuple[int, ...], seed: int) -> NetworkModel:
    """Seeded uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    rng = np.random.default_rng(seed)
    widths = [dims, *hidden, 1]
    layers = []
    for i in range(len(widths) - 1):
        fan_in, fan_out = widths[i], widths[i + 1]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        b = rng.uniform(-bound, bound, size=fan_out)
        act = "logistic" if i == len(widths) - 2 else "tanh"
        layers.append(Layer(w, b, act))
    return NetworkModel(dims, layers, seed)


def _check_input(model: NetworkModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != model.dims:
        raise ShapeError(f"expected width {model.dims}, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise InputError("input contains non-finite values")
    return x


def _activations(model: NetworkModel, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for a (N, D) batch, the input first."""
    acts = [x]
    for layer in model.layers:
        acts.append(_act(acts[-1] @ layer.w + layer.b, layer.act))
    return acts


def forward_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Scores for a (N, D) batch; returns shape (N,)."""
    x = _check_input(model, np.atleast_2d(x))
    return _activations(model, x)[-1][:, 0]


def forward(model: NetworkModel, x) -> float:
    x = _check_input(model, x)
    if x.ndim != 1:
        raise ShapeError("forward expects a single vector; use forward_batch")
    return float(forward_batch(model, x[None, :])[0])


def input_gradient_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """dF/dx for each row of a (N, D) batch, exact reverse mode."""
    x = _check_input(model, np.atleast_2d(x))
    activations = _activations(model, x)
    # backprop dF w.r.t. inputs only (no parameter gradients needed here)
    delta = np.ones((x.shape[0], 1))
    for layer, a in zip(reversed(model.layers), reversed(activations[1:])):
        delta = (delta * _act_deriv(a, layer.act)) @ layer.w.T
    return delta


def mean_bce(model: NetworkModel, x: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(forward_batch(model, x), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _sgd_step(model: NetworkModel, xb: np.ndarray, yb: np.ndarray, lr: float) -> None:
    activations = _activations(model, xb)
    # logistic output + BCE: output delta simplifies to (p - y)
    delta = (activations[-1][:, 0] - yb)[:, None] / len(yb)
    for i in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[i]
        a_in = activations[i]
        gw = a_in.T @ delta
        gb = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ layer.w.T) * _act_deriv(activations[i], layer.act)
        layer.w -= lr * gw
        layer.b -= lr * gb


def train(model: NetworkModel, x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> NetworkModel:
    """Mini-batch SGD on binary cross-entropy; deterministic per seed.

    Returns a new model; the initial model is left untouched.
    """
    x = _check_input(model, np.atleast_2d(x))
    y = np.asarray(y, dtype=float)
    if len(x) == 0:
        raise TrainingError("training data is empty")
    if y.shape != (len(x),):
        raise ShapeError("labels must be one per row")
    if len(np.unique(y)) < 2:
        raise TrainingError("training data contains a single class")

    out = model.copy()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            _sgd_step(out, x[idx], y[idx], cfg.learning_rate)
        # a NaN or inf parameter is what makes the loss non-finite; checking
        # the parameters costs O(weights), not a pass over every row
        if not all(np.all(np.isfinite(l.w)) and np.all(np.isfinite(l.b))
                   for l in out.layers):
            raise NumericError("training loss became non-finite; lower the learning rate")
    return out
