"""Telemetry CSV ingestion, min-max normalization, and persistence.

CSV contract: first row is a header; an optional leading column named
"ts" carries ISO 8601 UTC timestamps; every other column is real-valued
with '.' decimal separator. Rows with blanks or non-numeric cells are
rejected with the offending location.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import InputError, ParseError, ShapeError


@dataclass
class Dataset:
    names: list[str]
    values: np.ndarray  # (N, D)
    timestamps: list[datetime | None] = field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ShapeError("values must be a 2-D array")
        if self.values.shape[1] != len(self.names):
            raise ShapeError(
                f"{len(self.names)} dimension names but rows have width {self.values.shape[1]}"
            )
        if len(self.names) < 1:
            raise ShapeError("need at least one dimension")
        if len(set(self.names)) != len(self.names) or any(not n for n in self.names):
            raise ParseError("dimension names must be unique and non-empty")
        if not self.timestamps:
            self.timestamps = [None] * len(self.values)

    @property
    def dims(self) -> int:
        return len(self.names)

    def __len__(self) -> int:
        return len(self.values)


def load_telemetry(path) -> Dataset:
    """Parse a telemetry CSV into a Dataset."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        has_ts = bool(header) and header[0] == "ts"
        names = header[1:] if has_ts else header
        if len(set(names)) != len(names):
            raise ParseError(f"{path}: duplicate column headers")
        if not names:
            raise ParseError(f"{path}: no value columns")

        rows, stamps = [], []
        for lineno, cells in enumerate(reader, start=2):
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: row {lineno} has {len(cells)} cells, expected {len(header)}"
                )
            if has_ts:
                try:
                    ts = datetime.fromisoformat(cells[0].replace("Z", "+00:00"))
                except ValueError:
                    raise ParseError(f"{path}: row {lineno} column 'ts': bad timestamp {cells[0]!r}") from None
                if ts.tzinfo is None:
                    ts = ts.replace(tzinfo=timezone.utc)
                stamps.append(ts)
                cells = cells[1:]
            vals = []
            for col, cell in zip(names, cells):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(f"{path}: row {lineno} column {col!r}: not a number: {cell!r}") from None
            rows.append(vals)
    return Dataset(names, np.array(rows, dtype=float).reshape(len(rows), len(names)), stamps)


def save_telemetry(ds: Dataset, path, extra_names=(), extra_values=None) -> None:
    """Write a Dataset back to CSV; extra columns are appended after the dims."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        has_ts = any(t is not None for t in ds.timestamps)
        header = (["ts"] if has_ts else []) + list(ds.names) + list(extra_names)
        writer.writerow(header)
        for i in range(len(ds)):
            row = []
            if has_ts:
                row.append(ds.timestamps[i].isoformat())
            row.extend(repr(float(v)) for v in ds.values[i])
            if extra_values is not None:
                row.extend(repr(float(v)) for v in np.atleast_1d(extra_values[i]))
            writer.writerow(row)


@dataclass
class Normalizer:
    lo: np.ndarray
    hi: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ShapeError("min/max must be vectors of equal width")
        if np.any(self.lo > self.hi):
            raise InputError("per-dimension min exceeds max")

    @property
    def dims(self) -> int:
        return len(self.lo)

    @property
    def constant_dims(self) -> np.ndarray:
        return np.flatnonzero(self.hi == self.lo)

    def apply(self, x) -> np.ndarray:
        """Map raw values into [0,1]^D, clamping out-of-range entries.

        Constant training columns carry no information and map to 0.5.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dims:
            raise ShapeError(f"expected width {self.dims}, got {x.shape[-1]}")
        if not np.all(np.isfinite(x)):
            raise InputError("input contains non-finite values")
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        y = np.clip((x - self.lo) / safe, 0.0, 1.0)
        return np.where(span > 0, y, 0.5)

    def invert(self, y) -> np.ndarray:
        """Map normalized values back to raw units (for report readability)."""
        y = np.asarray(y, dtype=float)
        if y.shape[-1] != self.dims:
            raise ShapeError(f"expected width {self.dims}, got {y.shape[-1]}")
        return self.lo + y * (self.hi - self.lo)

    def to_dict(self) -> dict:
        return {"min": self.lo.tolist(), "max": self.hi.tolist(), "names": list(self.names)}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        return cls(np.array(d["min"]), np.array(d["max"]), list(d["names"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "Normalizer":
        return cls.from_dict(json.loads(s))


def fit_normalizer(data: Dataset) -> Normalizer:
    """Column-wise extrema of the training data."""
    if len(data) == 0:
        raise InputError("cannot fit a normalizer on an empty dataset")
    return Normalizer(data.values.min(axis=0), data.values.max(axis=0), list(data.names))
