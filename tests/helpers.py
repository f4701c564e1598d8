import json

import numpy as np

from blamekit.cli import _write_all
from blamekit.dataio import Normalizer
from blamekit.detector import Detector
from blamekit.network import Layer, NetworkModel


def save_artifact(obj, path):
    """Write a detector's or exemplar set's JSON artifact as the CLI does."""
    _write_all({path: lambda fh: json.dump(obj.to_dict(), fh)})


def unit_detector(w, b=0.0):
    """Single logistic unit wrapped as a detector with identity scaling."""
    w = np.asarray(w, dtype=float)
    model = NetworkModel(len(w), [Layer(w[:, None], np.array([b]), "logistic")])
    norm = Normalizer(np.zeros(len(w)), np.ones(len(w)), [f"d{i}" for i in range(len(w))])
    return Detector(model, norm, {})


def logistic_unit_ig_closed_form(w, b, x, x_base):
    """Exact straight-path integral for F = logistic(w.x + b)."""
    s0, s1 = w @ x + b, w @ x_base + b
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    if s1 == s0:
        return (x_base - x) * w * sig(s0) * (1 - sig(s0))
    return (x_base - x) * w * (sig(s1) - sig(s0)) / (s1 - s0)


def steepened(det, factor):
    """A copy of det with its first layer's weights and biases scaled by
    factor: every hidden unit's transition is sharper, so the midpoint rule
    needs more straight-path steps to meet the gap tolerance."""
    model = det.model.copy()
    model.layers[0].w *= factor
    model.layers[0].b *= factor
    return Detector(model, det.normalizer, det.meta)
