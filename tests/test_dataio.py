import json
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, strategies as st

from blamekit.cli import _write_all
from blamekit.dataio import (
    Dataset,
    Normalizer,
    fit_normalizer,
    load_telemetry,
    save_telemetry,
)
from blamekit.errors import InputError, ParseError, ShapeError


def save(ds, path):
    """Write ds as CSV through the CLI's writer."""
    _write_all({path: lambda fh: save_telemetry(ds, fh)})


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTelemetry:
    def test_well_formed(self, tmp_path):
        ds = load_telemetry(write(tmp_path, "a,b,c\n1,2,3\n4,5,6\n"))
        assert ds.dims == 3
        assert len(ds) == 2
        np.testing.assert_array_equal(ds.values, [[1, 2, 3], [4, 5, 6]])
        assert ds.timestamps == [None, None]

    def test_ragged_row_named(self, tmp_path):
        with pytest.raises(ParseError, match="row 3"):
            load_telemetry(write(tmp_path, "a,b\n1,2\n1\n"))

    def test_non_numeric_cell_located(self, tmp_path):
        with pytest.raises(ParseError, match="row 2.*'b'"):
            load_telemetry(write(tmp_path, "a,b\n1,oops\n"))

    def test_duplicate_headers(self, tmp_path):
        with pytest.raises(ParseError, match="duplicate"):
            load_telemetry(write(tmp_path, "a,a\n1,2\n"))

    def test_timestamp_column(self, tmp_path):
        ds = load_telemetry(write(
            tmp_path, "ts,a,b\n2024-01-01T00:00:00Z,1,2\n2024-01-01T00:05:00Z,3,4\n"))
        assert ds.dims == 2
        assert ds.timestamps[0].year == 2024
        assert ds.timestamps[1].minute == 5

    def test_bad_timestamp(self, tmp_path):
        with pytest.raises(ParseError, match="row 2.*'ts'"):
            load_telemetry(write(tmp_path, "ts,a\nnot-a-time,1\n"))

    def test_round_trip(self, tmp_path):
        ds = Dataset(["a", "b"], np.array([[0.125, -3.5], [7.0, 0.1]]))
        save(ds, tmp_path / "out.csv")
        back = load_telemetry(tmp_path / "out.csv")
        np.testing.assert_array_equal(ds.values, back.values)
        assert back.names == ["a", "b"]

    def test_round_trip_with_timestamps_and_extra_columns(self, tmp_path):
        stamps = [datetime(2024, 1, 2, 3, 4, 5, tzinfo=timezone.utc),
                  datetime(2024, 1, 2, 3, 4, 6, tzinfo=timezone.utc)]
        ds = Dataset(["a", "b", "label"],
                     np.array([[0.1, 1e-20, 1.0], [1e16, -0.0, 0.0]]), stamps)
        save(ds, tmp_path / "out.csv")
        # every float cell is its shortest round-tripping repr
        assert (tmp_path / "out.csv").read_bytes() == (
            b"ts,a,b,label\r\n"
            b"2024-01-02T03:04:05+00:00,0.1,1e-20,1.0\r\n"
            b"2024-01-02T03:04:06+00:00,1e+16,-0.0,0.0\r\n")
        back = load_telemetry(tmp_path / "out.csv")
        assert back.timestamps == stamps
        np.testing.assert_array_equal(back.values, [[0.1, 1e-20, 1.0], [1e16, -0.0, 0.0]])


class TestNormalizer:
    def test_extrema(self):
        ds = Dataset(["a"], np.array([[2.0], [4.0], [6.0]]))
        norm = fit_normalizer(ds)
        assert norm.lo[0] == 2.0 and norm.hi[0] == 6.0

    def test_per_column_independent(self):
        ds = Dataset(["a", "b"], np.array([[1.0, 10.0], [3.0, -10.0]]))
        norm = fit_normalizer(ds)
        np.testing.assert_array_equal(norm.lo, [1.0, -10.0])
        np.testing.assert_array_equal(norm.hi, [3.0, 10.0])

    def test_constant_column_degenerate(self):
        ds = Dataset(["a"], np.array([[5.0], [5.0]]))
        norm = fit_normalizer(ds)
        assert norm.lo[0] == norm.hi[0] == 5.0
        assert norm.apply(np.array([5.0]))[0] == 0.5
        assert norm.apply(np.array([123.0]))[0] == 0.5
        assert list(norm.constant_dims) == [0]

    def test_empty_dataset_rejected(self):
        ds = Dataset(["a"], np.zeros((0, 1)))
        with pytest.raises(InputError):
            fit_normalizer(ds)

    def test_midpoint(self):
        norm = Normalizer(np.array([0.0]), np.array([10.0]), ["a"])
        assert norm.apply(np.array([5.0]))[0] == 0.5

    def test_clamp_above(self):
        norm = Normalizer(np.array([0.0]), np.array([10.0]), ["a"])
        assert norm.apply(np.array([15.0]))[0] == 1.0
        assert norm.apply(np.array([-3.0]))[0] == 0.0

    def test_width_mismatch(self):
        norm = Normalizer(np.zeros(2), np.ones(2), ["a", "b"])
        with pytest.raises(ShapeError):
            norm.apply(np.zeros(3))

    def test_non_finite_rejected(self):
        norm = Normalizer(np.zeros(1), np.ones(1), ["a"])
        with pytest.raises(InputError):
            norm.apply(np.array([np.inf]))

    def test_training_data_lands_in_unit_box(self):
        rng = np.random.default_rng(0)
        ds = Dataset(["a", "b", "c"], rng.normal(size=(50, 3)) * 10)
        norm = fit_normalizer(ds)
        y = norm.apply(ds.values)
        assert np.all((y >= 0.0) & (y <= 1.0))

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2))
    def test_invert_is_identity_in_range(self, y):
        norm = Normalizer(np.array([-3.0, 2.0]), np.array([5.0, 7.0]), ["a", "b"])
        raw = norm.lo + np.array(y) * (norm.hi - norm.lo)
        np.testing.assert_allclose(norm.apply(raw), y, rtol=1e-12, atol=1e-12)

    def test_json_round_trip(self):
        norm = Normalizer(np.array([0.0, 1.0]), np.array([2.0, 3.0]), ["a", "b"])
        clone = Normalizer.from_dict(json.loads(json.dumps(norm.to_dict())))
        np.testing.assert_array_equal(norm.lo, clone.lo)
        np.testing.assert_array_equal(norm.hi, clone.hi)
        assert clone.names == ["a", "b"]
