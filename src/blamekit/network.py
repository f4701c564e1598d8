"""Minimal dense feed-forward network with exact input gradients.

The detector is a small fully-connected net with smooth activations
(logistic or tanh) and a single logistic output unit, so the score lies
in (0,1) and the input gradient is defined everywhere. Backprop is
hand-rolled for this fixed architecture; no autodiff framework.

The network is split at the first layer's pre-activation z1 = x·W1 + b1.
`forward_pre` and `grad_pre` score and differentiate from z1, and
`preactivation` validates an input batch and computes its z1.
`forward_batch` and `input_gradient_batch` are the input-space wrappers
over them (the gradient multiplies dF/dz1 by W1ᵀ); a single observation
is a one-row matrix, `forward_batch(model, x[None])[0]`. Because the
first layer is affine, a caller that scores points affine in x (a shared
perturbation cloud, a straight path) can build their z1 from a few
per-row products instead of one per point. `_sgd_step` runs the same
layer loop from z1 and backpropagates through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ShapeError, TrainingError

# rows per batched call over a file (IG path points, surrogate samples,
# row-exemplar pairs): the block arrays are points x first hidden width (or
# x D), and at widths up to 24 each stays under glibc's 128 KiB mmap
# threshold; 4 096-row calls page-faulted and ran ~2x slower
ROWS = 512

# products go through np.dot, not @: bit-identical here, with less per-call
# overhead, and the output layer's (N, 1)·(1, H) product is ~3x faster


def logistic(z):
    # the lower clamp keeps exp() from overflowing; above 500 exp(-z) is far
    # below 1's rounding, so no upper clamp is needed to get exactly 1.0
    return 1.0 / (1.0 + np.exp(-np.maximum(z, -500.0)))


# each activation, and its derivative expressed through its value a = act(z)
_ACT = {"logistic": logistic, "tanh": np.tanh}
_ACT_DERIV = {"logistic": lambda a: a * (1.0 - a), "tanh": lambda a: 1.0 - a * a}
ACTIVATIONS = tuple(_ACT)


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
            raise ConfigError("learning rate must be finite and > 0")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch size must be >= 1")
        if any(h < 1 for h in self.hidden):
            raise ConfigError("every hidden width must be >= 1")


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


def _activations_pre(model: NetworkModel, z1: np.ndarray) -> list[np.ndarray]:
    """Every layer's output from the first layer's (N, H1) pre-activation."""
    acts = [_ACT[model.layers[0].act](z1)]
    for layer in model.layers[1:]:
        acts.append(_ACT[layer.act](np.dot(acts[-1], layer.w) + layer.b))
    return acts


def preactivation(model: NetworkModel, x) -> np.ndarray:
    """z1 = x·W1 + b1 for a validated (N, D) batch."""
    x = _check_input(model, np.atleast_2d(x))
    first = model.layers[0]
    return np.dot(x, first.w) + first.b


def forward_pre(model: NetworkModel, z1: np.ndarray) -> np.ndarray:
    """Scores from the first layer's (N, H1) pre-activation; shape (N,)."""
    return _activations_pre(model, z1)[-1][:, 0]


def grad_pre(model: NetworkModel, z1: np.ndarray) -> np.ndarray:
    """dF/dz1 for each row of the first layer's (N, H1) pre-activation."""
    activations = _activations_pre(model, z1)
    # backprop dF down to z1 (no parameter gradients needed here)
    delta = np.ones((len(z1), 1))
    for i in range(len(model.layers) - 1, 0, -1):
        delta = np.dot(delta * _ACT_DERIV[model.layers[i].act](activations[i]),
                       model.layers[i].w.T)
    return delta * _ACT_DERIV[model.layers[0].act](activations[0])


def forward_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Scores for a (N, D) batch; returns shape (N,)."""
    return forward_pre(model, preactivation(model, x))


def input_gradient_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """dF/dx for each row of a (N, D) batch, exact reverse mode."""
    return np.dot(grad_pre(model, preactivation(model, x)), model.layers[0].w.T)


def mean_bce(model: NetworkModel, x: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(forward_batch(model, x), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _sgd_step(model: NetworkModel, xb: np.ndarray, yb: np.ndarray, lr: float) -> None:
    """One in-place SGD step on the batch's mean binary cross-entropy."""
    layers = model.layers
    # every layer's output, the input first
    activations = [xb, *_activations_pre(model, np.dot(xb, layers[0].w) + layers[0].b)]
    # logistic output + BCE: the output delta is (p - y) / n; folding lr in
    # here scales every gradient below, so no update needs its own lr product
    delta = (activations[-1] - yb[:, None]) * (lr / len(yb))
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        gw = np.dot(activations[i].T, delta)
        gb = delta.sum(axis=0)
        if i > 0:
            # activations[i] is the output of layers[i - 1]: the derivative
            # is that layer's activation's, not this one's
            delta = np.dot(delta, layer.w.T) * _ACT_DERIV[layers[i - 1].act](activations[i])
        layer.w -= gw
        layer.b -= gb


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
    bs, lr = cfg.batch_size, cfg.learning_rate
    # gather whole batches about ROWS rows at a time and step over views of
    # them: the batches of per-step gathers at a fraction of the calls, and
    # no permuted copy of the whole matrix above the mmap threshold
    chunk = bs * max(1, ROWS // bs)
    # the parameter check below reports divergence, so the overflow on the
    # way there stays silent; one errstate per call, not per step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(len(x))
            for start in range(0, len(x), chunk):
                idx = order[start : start + chunk]
                xc, yc = x[idx], y[idx]
                for s in range(0, len(idx), bs):
                    _sgd_step(out, xc[s : s + bs], yc[s : s + bs], lr)
            # a NaN or inf parameter is what makes the loss non-finite; checking
            # the parameters costs O(weights), not a pass over every row
            if not all(np.all(np.isfinite(l.w)) and np.all(np.isfinite(l.b))
                       for l in out.layers):
                raise TrainingError("training loss became non-finite; lower the learning rate")
    return out
