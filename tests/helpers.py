import copy
import csv
import json
import math
from datetime import datetime, timezone

import numpy as np

from blamekit.cli import _write_all
from blamekit.dataio import Dataset, Normalizer
from blamekit.detector import Detector
from blamekit.errors import ParseError
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
    model = copy.deepcopy(det.model)
    model.layers[0].w *= factor
    model.layers[0].b *= factor
    return Detector(model, det.normalizer, det.meta)


def reference_load_telemetry(path, expected=None):
    """load_telemetry as a per-cell csv/float() loop: the reference for which
    inputs are accepted, their values, and the message of each rejection."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        has_ts = bool(header) and header[0] == "ts"
        names = header[1:] if has_ts else header
        if expected is not None and names != expected:
            raise ParseError(f"{path}: columns {names} do not match the expected {expected}")
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: duplicate column headers")
        if "" in names:
            raise ParseError(f"{path}: empty column header")
        if not names:
            raise ParseError(f"{path}: no value columns")

        rows, stamps = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}")
            if has_ts:
                try:
                    ts = datetime.fromisoformat(cells[0].replace("Z", "+00:00"))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno} column 'ts': bad timestamp {cells[0]!r}") from None
                if ts.tzinfo is None:
                    ts = ts.replace(tzinfo=timezone.utc)
                stamps.append(ts)
                cells = cells[1:]
            vals = []
            for col, cell in zip(names, cells):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno} column {col!r}: not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}: row {lineno} column {col!r}: not finite: {cell!r}")
                vals.append(v)
            rows.append(vals)
    return Dataset(names, np.array(rows, dtype=float).reshape(len(rows), len(names)), stamps)
