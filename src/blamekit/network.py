"""Minimal dense feed-forward network with exact input gradients.

The detector is a small fully-connected net with smooth activations
(logistic or tanh) and a single logistic output unit, so the score lies
in (0,1) and the input gradient is defined everywhere. Backprop is
hand-rolled for this fixed architecture; no autodiff framework.

The network is split at the first layer's pre-activation z1 = x·W1 + b1.
`forward_pre` and `grad_pre` take z1 as a (k, H1, m) block, points last
(k rows of m points), so each elementwise pass runs along a row's points:
one scores every point, the other gives each row's mean dF/dz1 over its
points. `preactivation` validates an input batch and computes its z1.
`forward_batch` and `input_gradient_batch` are the input-space wrappers,
one row of N points and N rows of one point (the gradient multiplies
dF/dz1 by W1ᵀ); a single observation is a one-row matrix,
`forward_batch(model, x[None])[0]`. Because the first layer is affine, a
caller that scores points affine in x (a shared perturbation cloud, a
straight path) builds their z1 from a few per-row products.

`train` keeps all parameters in one flat vector, each layer a (fan_in +
1, fan_out) view with the bias as its last row; the batch and the hidden
activations carry a ones column, so each product adds its bias and one
subtraction updates everything (15 numpy calls per `_sgd_step` with one
hidden layer). `train` returns `Layer` copies, so inference and the
artifact format do not see this layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import finite_array
from .errors import ConfigError, InputError, ShapeError, TrainingError

# rows per block of `train`'s gather, the axis path's corners and the
# row-exemplar distances: under glibc's 128 KiB mmap threshold at widths up
# to 24 (4 096-row blocks page-faulted and ran ~2x slower; the corners and
# distances also ran slower at 2 048)
ROWS = 512
# points per (rows, H1, points) block on the straight path and in the
# surrogate, one buffer reused per call; 512-point blocks ran ~1.3x slower
POINTS = 2048

# 2-D products go through np.dot, not @: bit-identical here, with less
# per-call overhead, and the output layer's (N, 1)·(1, H) product is ~3x
# faster; a block's layers are batched np.matmul products


def logistic(z, out=None):
    # the lower clamp keeps exp() from overflowing; above 500 exp(-z) is far
    # below 1's rounding, so no upper clamp is needed to get exactly 1.0
    return np.divide(1.0, 1.0 + np.exp(-np.maximum(z, -500.0)), out=out)


# each activation, and its derivative expressed through its value a = act(z)
_ACT = {"logistic": logistic, "tanh": np.tanh}
_ACT_DERIV = {"logistic": lambda a, out=None: np.multiply(a, 1.0 - a, out=out),
              "tanh": lambda a, out=None: np.subtract(1.0, np.multiply(a, a, out=out), out=out)}
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
        """The model of a detector artifact; a weight or bias that is not a
        finite number, or a width or seed that is not an integer, is refused."""
        for key in ("dims", "seed"):
            if type(d.get(key, 0)) is not int:
                raise InputError(f"model.{key}: {d[key]!r} is not an integer")
        at = "model.layers[{}].{}".format
        layers = [Layer(finite_array(l["w"], (None, None), at(i, "w")),
                        finite_array(l["b"], (None,), at(i, "b")), l["act"])
                  for i, l in enumerate(d["layers"])]
        return cls(d["dims"], layers, d.get("seed", 0))


@dataclass
class TrainConfig:
    learning_rate: float = 0.5
    epochs: int = 40
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
    """Every layer's output from a (k, H1, m) block of first-layer
    pre-activations, points last; the first is written over z1."""
    acts = [_ACT[model.layers[0].act](z1, out=z1)]
    for layer in model.layers[1:]:
        z = np.matmul(layer.w.T, acts[-1])
        z += layer.b[:, None]
        acts.append(_ACT[layer.act](z, out=z))
    return acts


def preactivation(model: NetworkModel, x) -> np.ndarray:
    """z1 = x·W1 + b1 for a validated (N, D) batch."""
    x = _check_input(model, np.atleast_2d(x))
    first = model.layers[0]
    return np.dot(x, first.w) + first.b


def forward_pre(model: NetworkModel, z1: np.ndarray) -> np.ndarray:
    """Scores of a (k, H1, m) block of first-layer pre-activations, points
    last; shape (k, m). The block is overwritten."""
    return _activations_pre(model, z1)[-1][:, 0]


def grad_pre(model: NetworkModel, z1: np.ndarray) -> np.ndarray:
    """Per row of a (k, H1, m) block of first-layer pre-activations, points
    last, the mean of dF/dz1 over its m points; shape (k, H1). The block is
    overwritten. The last backward step and the mean are one batched product
    of dF/dz2 (k, H2, m) with the first activation's derivative (k, m, H1),
    contracted with W2, so no (k, H1, m) gradient is formed; a net without
    hidden layers has an identity above its output as W2."""
    acts = _activations_pre(model, z1)
    w, delta = np.ones((1, 1)), np.ones((1, 1, z1.shape[2]))
    for layer, a in zip(model.layers[:0:-1], acts[:0:-1]):
        delta = np.multiply(np.matmul(w, delta), _ACT_DERIV[layer.act](a, out=a), out=a)
        w = layer.w
    deriv = _ACT_DERIV[model.layers[0].act](acts[0], out=acts[0])
    return np.sum(np.matmul(delta, deriv.transpose(0, 2, 1)) * w.T, axis=1) / z1.shape[2]


def forward_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """Scores for a (N, D) batch, as one row of N points; returns shape (N,)."""
    return forward_pre(model, preactivation(model, x).T[None])[0]


def input_gradient_batch(model: NetworkModel, x: np.ndarray) -> np.ndarray:
    """dF/dx for each row of a (N, D) batch, as N rows of one point each,
    exact reverse mode."""
    return np.dot(grad_pre(model, preactivation(model, x)[:, :, None]), model.layers[0].w.T)


def mean_bce(model: NetworkModel, x: np.ndarray, y: np.ndarray) -> float:
    p = np.clip(forward_batch(model, x), 1e-12, 1.0 - 1e-12)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def _sgd_step(theta, grad, layers, xb, hidden, flip, num) -> None:
    """One in-place SGD step on a batch's mean binary cross-entropy.

    `layers` holds per layer (params, grads, weightsᵀ, activation): params
    and grads are (fan_in + 1, fan_out) views of the flat `theta` and
    `grad`, the bias as the last row. `xb` and each `hidden` buffer carry a
    ones column last, so every product adds its bias; `hidden` pairs each
    (m, H + 1) buffer with the view of its first H columns. For labels y
    in {0, 1} and s = 1 - 2y, the output delta p - y is s / (1 + exp(-s z));
    `flip` is the (m, 1) column -s and `num` is s * lr / m.
    """
    a, acts = xb, []
    for (w, _, _, act), (h, values) in zip(layers, hidden):
        # the activation is computed in a contiguous array and copied into
        # the buffer: its derivative below is ~3x faster on the copy than
        # on the strided view
        z = np.dot(a, w)
        _ACT[act](z, out=z)
        values[...] = z
        acts.append(z)
        a = h
    # logistic output + BCE, with lr folded into the output delta so every
    # gradient below is already scaled; no clamp, since the overflow of
    # exp(-s z) gives a delta of exactly 0
    delta = np.dot(a, layers[-1][0])
    delta *= flip
    np.exp(delta, out=delta)
    delta += 1.0
    np.divide(num, delta, out=delta)
    for i in range(len(layers) - 1, 0, -1):
        _, g, w_t, _ = layers[i]
        np.dot(hidden[i - 1][0].T, delta, out=g)
        # acts[i - 1] is the output of layers[i - 1]: the derivative is that
        # layer's activation's, not this one's
        deriv = _ACT_DERIV[layers[i - 1][3]](acts[i - 1])
        delta = np.multiply(np.dot(delta, w_t), deriv, out=deriv)
    np.dot(xb.T, delta, out=layers[0][1])
    theta -= grad


def train(model: NetworkModel, x: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> NetworkModel:
    """Mini-batch SGD on binary cross-entropy with labels in {0, 1};
    deterministic per seed.

    Returns a new model; the initial model is left untouched.
    """
    x = _check_input(model, np.atleast_2d(x))
    y = np.asarray(y, dtype=float)
    if len(x) == 0:
        raise TrainingError("training data is empty")
    if y.shape != (len(x),):
        raise ShapeError("labels must be one per row")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InputError("labels must be 0 or 1")
    if len(np.unique(y)) < 2:
        raise TrainingError("training data contains a single class")

    # layer i is a (fan_in + 1, fan_out) view of theta, its bias the last row
    shapes = [(l.w.shape[0] + 1, l.w.shape[1]) for l in model.layers]
    ends = np.cumsum([r * c for r, c in shapes])
    theta, grad = np.empty(ends[-1]), np.empty(ends[-1])
    layers = []
    for layer, shape, lo, hi in zip(model.layers, shapes, [0, *ends[:-1]], ends):
        w = theta[lo:hi].reshape(shape)
        w[:-1], w[-1] = layer.w, layer.b
        layers.append((w, grad[lo:hi].reshape(shape), w[:-1].T, layer.act))

    rng = np.random.default_rng(cfg.seed)
    n, lr = len(x), cfg.learning_rate
    bs = min(cfg.batch_size, n)  # a larger batch is the whole set
    # gather whole batches about ROWS rows at a time into one buffer with a
    # ones column and step over views of it: the batches of per-step
    # gathers at a fraction of the calls, and no augmented copy of x
    chunk = min(bs * max(1, ROWS // bs), n)
    xbuf = np.ones((chunk, x.shape[1] + 1))
    # per hidden layer a (bs, H + 1) buffer with a ones column last, paired
    # with the view of its first H columns
    bufs = [np.ones((bs, l.w.shape[1] + 1)) for l in model.layers[:-1]]
    full = [(h, h[:, :-1]) for h in bufs]
    short = n % bs  # the last batch of each epoch, if n is no multiple of bs
    tail = [(h[:short], v[:short]) for h, v in full]
    # the parameter check below reports divergence, so the overflow on the
    # way there stays silent; one errstate per call, not per step
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, chunk):
                idx = order[start : start + chunk]
                k = len(idx)
                xbuf[:k, :-1] = x[idx]
                flip = 2.0 * y[idx, None] - 1.0
                num = flip * (-lr / bs)
                for s in range(0, k - bs + 1, bs):
                    _sgd_step(theta, grad, layers, xbuf[s : s + bs], full,
                              flip[s : s + bs], num[s : s + bs])
                if k % bs:
                    s = k - short
                    _sgd_step(theta, grad, layers, xbuf[s:k], tail,
                              flip[s:], flip[s:] * (-lr / short))
            # a NaN or inf parameter is what makes the loss non-finite; checking
            # the parameters costs one call, not a pass over every row
            if not np.isfinite(theta).all():
                raise TrainingError("training loss became non-finite; lower the learning rate")
    return NetworkModel(model.dims, [Layer(w[:-1].copy(), w[-1].copy(), l.act)
                                     for (w, _, _, _), l in zip(layers, model.layers)],
                        model.seed)
