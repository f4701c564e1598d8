"""Telemetry CSV reading and writing, normalization, JSON artifact reading.

CSV contract: first row is a header; an optional leading column named
"ts" carries ISO 8601 UTC timestamps; every other column is real-valued
with '.' decimal separator. Rows with blanks, non-numeric or non-finite
(nan, inf) cells are rejected with the offending location, a file that
is not UTF-8 or has an empty header cell is rejected naming it, and a
leading UTF-8 byte-order mark is skipped.

load_telemetry streams the rows after the header through np.loadtxt,
whose C reader parses each cell with PyOS_string_to_double, the routine
float() uses, so the values are the same bit for bit and no copy of the
text is held. The per-cell csv/float() loop stays the reference for
what is accepted and the one place that locates an error. The rows are
read again through it when loadtxt rejects a cell or finds no row, when
it skips a blank line (the row count differs from the line count), when
the width differs from the header's, when a line holds one of \x1c-\x1f
(numpy strips those four around a cell as whitespace, float() does
not), when a value is not finite, and for every file with a "ts"
column. A quoted cell needs the csv module's quoting; loadtxt is given
no quote character, so it keeps the quote and rejects the cell.
save_telemetry writes to a text handle that its caller opened (in the
CLI, through cli._write_all), not to a path.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import BlamekitError, InputError, ParseError, ShapeError


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


def _stream(fh, width: int) -> np.ndarray | None:
    """The lines left in fh as an (N, width) array parsed by np.loadtxt, or
    None where the per-cell loop must decide (see the module docstring)."""
    lines, loop_only = 0, False

    def counted():
        nonlocal lines, loop_only
        for line in fh:
            lines += 1
            # numpy strips \x1c-\x1f around a cell as whitespace, float() does not
            loop_only = (loop_only or "\x1c" in line or "\x1d" in line
                         or "\x1e" in line or "\x1f" in line)
            yield line

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt warns when it finds no row
            # with no quote character a quoted cell keeps its '"' and fails to parse
            values = np.loadtxt(counted(), delimiter=",", comments=None, quotechar=None,
                                ndmin=2)
    except (ValueError, UserWarning):
        return None
    if loop_only or values.shape != (lines, width) or not np.isfinite(values).all():
        return None
    return values


def load_telemetry(path, expected: list[str] | None = None) -> Dataset:
    """Parse a telemetry CSV into a Dataset, whose names must equal `expected` if given."""
    try:
        return _read(path, expected)
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _read(path, expected) -> Dataset:
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

        if not has_ts and fh.seekable():
            values = _stream(fh, len(names))
            if values is not None:
                return Dataset(names, values)
            fh.seek(0)  # read the rows again through the reference loop
            reader = csv.reader(fh)
            next(reader)

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
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}: row {lineno} column {col!r}: not a number: {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}: row {lineno} column {col!r}: not finite: {cell!r}")
                vals.append(v)
            rows.append(vals)
    return Dataset(names, np.array(rows, dtype=float).reshape(len(rows), len(names)), stamps)


def save_telemetry(ds: Dataset, fh) -> None:
    """Write a Dataset as CSV to the text handle fh, floats as str(float).
    Open fh with newline="" so the csv module's \r\n row ends stay as written."""
    writer = csv.writer(fh)
    has_ts = any(t is not None for t in ds.timestamps)
    writer.writerow((["ts"] if has_ts else []) + list(ds.names))
    rows = ds.values.tolist()
    if has_ts:
        rows = [[t.isoformat(), *row] for t, row in zip(ds.timestamps, rows)]
    writer.writerows(rows)


@dataclass
class Normalizer:
    lo: np.ndarray
    hi: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1 or len(self.names) != len(self.lo):
            raise ShapeError("min/max must be vectors of equal width, one name per dimension")
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

    def to_dict(self) -> dict:
        return {"min": self.lo.tolist(), "max": self.hi.tolist(), "names": list(self.names)}

    @classmethod
    def from_dict(cls, d: dict) -> "Normalizer":
        """The normalizer of a detector artifact; names that are not one
        unique, non-empty string per dimension are refused."""
        lo = finite_array(d["min"], (None,), "normalizer.min")
        names = d["names"]
        if (type(names) is not list or len(names) != len(lo)
                or not all(type(n) is str and n for n in names) or len(set(names)) != len(names)):
            raise InputError(f"normalizer.names: expected {len(lo)} unique non-empty strings, "
                             f"got {json.dumps(names)[:80]}")
        return cls(lo, finite_array(d["max"], (None,), "normalizer.max"), names)


def _finite(text: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float, if finite."""
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"non-finite number {text}")
    return v


def finite_array(value, shape: tuple, where: str) -> np.ndarray:
    """A JSON value as a float array of `shape` (None matches any length).
    null, a boolean, a string, a ragged or mis-shaped list and a value that
    is not finite as a float are refused with an InputError naming the key
    path `where` (and the index of a bad entry)."""
    cells = np.array(value, dtype=object)
    if cells.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, cells.shape)):
        want = " x ".join("N" if n is None else str(n) for n in shape) or "a number"
        raise InputError(f"{where}: expected {want}, got {json.dumps(value)[:80]}")
    for index, cell in np.ndenumerate(cells):
        if type(cell) not in (int, float):  # bool is an int subclass, not a number here
            at = "".join(f"[{i}]" for i in index)
            raise InputError(f"{where}{at}: {json.dumps(cell)[:80]} is not a number")
    try:
        values = cells.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise InputError(f"{where}: a value is beyond the float range") from None
    if not np.isfinite(values).all():
        raise InputError(f"{where}: not every value is finite")
    return values


def load_artifact(path, from_dict, what: str):
    """Read the JSON artifact at path through from_dict. A file that is not
    UTF-8 JSON, a non-finite number (NaN, Infinity, 1e999), an integer too
    large for a float, a missing key, a wrong type or a value from_dict
    rejects is a ParseError naming the file and `what` it should be."""
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh, parse_float=_finite, parse_constant=_finite)
        return from_dict(d)
    except (ValueError, OverflowError, KeyError, TypeError,  # JSON and UTF-8 errors: ValueError
            BlamekitError) as exc:
        raise ParseError(f"{path}: not {what} artifact ({exc!r})") from None


def fit_normalizer(data: Dataset) -> Normalizer:
    """Column-wise extrema of the training data."""
    if len(data) == 0:
        raise InputError("cannot fit a normalizer on an empty dataset")
    return Normalizer(data.values.min(axis=0), data.values.max(axis=0), list(data.names))
