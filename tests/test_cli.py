import hashlib
import json
from datetime import datetime, timezone
from itertools import takewhile
from pathlib import Path

import numpy as np
import pytest

from blamekit import cli
from blamekit.attribution import explain
from blamekit.benchmark import default_modes
from blamekit.cli import main
from blamekit.detector import Detector
from blamekit.errors import InputError
from blamekit.exemplar import ExemplarSet

# small but non-degenerate pipeline settings for CLI round trips
BENCH_ARGS = ["--dims", "8", "--n-normal", "1200", "--n-test-normal", "40",
              "--n-faults", "60", "--seed", "3"]
TRAIN_ARGS = ["--hidden", "24", "--epochs", "150", "--lr", "0.2", "--seed", "3"]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run the full CLI pipeline once into a shared directory."""
    root = tmp_path_factory.mktemp("pipeline")
    assert main(["benchmark", "--out-dir", str(root), *BENCH_ARGS]) == 0
    det = root / "detector.json"
    assert main(["train", str(root / "train.csv"), "--out", str(det), *TRAIN_ARGS]) == 0
    ex = root / "exemplars.json"
    assert main(["baseline", str(det), str(root / "train.csv"),
                 "--out", str(ex), "--seed", "3"]) == 0
    return root


class TestBenchmarkCommand:
    def test_outputs_exist(self, pipeline):
        assert (pipeline / "train.csv").exists()
        assert (pipeline / "test.csv").exists()
        assert (pipeline / "train.csv.runlog.json").exists()

    def test_deterministic(self, tmp_path):
        for d in ("a", "b"):
            assert main(["benchmark", "--out-dir", str(tmp_path / d),
                         "--dims", "4", "--n-normal", "50", "--n-test-normal", "10",
                         "--n-faults", "20", "--seed", "9"]) == 0
        assert ((tmp_path / "a" / "train.csv").read_bytes()
                == (tmp_path / "b" / "train.csv").read_bytes())
        assert ((tmp_path / "a" / "test.csv").read_bytes()
                == (tmp_path / "b" / "test.csv").read_bytes())

    def test_out_dir_is_a_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.write_text("not a directory")
        assert main(["benchmark", "--out-dir", str(out), "--dims", "4"]) == 2
        assert capsys.readouterr().err.endswith(f"{str(out)!r}\n")
        assert list(tmp_path.iterdir()) == [out]


class TestTrainCommand:
    def test_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["train", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "d.json")])
        assert rc == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_runlog_has_digests(self, pipeline, tmp_path):
        check_runlog(pipeline, tmp_path, "train")

    def test_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "det2.json"
        assert main(["train", str(pipeline / "train.csv"), "--out", str(out),
                     *TRAIN_ARGS]) == 0
        assert out.read_bytes() == (pipeline / "detector.json").read_bytes()

    def test_divergence_exit_3(self, pipeline, tmp_path, capsys):
        """A learning rate that overflows the weights is a training failure:
        exit 3 with one error line and no numpy warning or traceback."""
        out = tmp_path / "d.json"
        assert main(["train", str(pipeline / "train.csv"), "--out", str(out),
                     "--lr", "1e300", "--epochs", "2"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() and not Path(f"{out}.runlog.json").exists()


class TestBaselineCommand:
    def test_empty_baseline_exit_4(self, pipeline, tmp_path):
        rc = main(["baseline", str(pipeline / "detector.json"),
                   str(pipeline / "train.csv"), "--out", str(tmp_path / "ex.json"),
                   "--epsilon", "0.0001"])
        assert rc == 4

    def test_empty_training_file_exit_2(self, pipeline, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        header = (pipeline / "train.csv").read_text(encoding="utf-8").splitlines()[0]
        empty.write_text(header + "\n", encoding="utf-8")
        out = tmp_path / "ex.json"
        rc = main(["baseline", str(pipeline / "detector.json"), str(empty), "--out", str(out)])
        assert rc == 2
        assert "empty dataset" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic(self, pipeline, tmp_path):
        out = tmp_path / "ex2.json"
        assert main(["baseline", str(pipeline / "detector.json"),
                     str(pipeline / "train.csv"), "--out", str(out), "--seed", "3"]) == 0
        assert out.read_bytes() == (pipeline / "exemplars.json").read_bytes()


@pytest.mark.parametrize("seed", range(5))
def test_default_flags_cover_both_modes(tmp_path, seed):
    # every flag at its CLI default: the detector must score the sparse
    # mode high enough that the exemplar set draws from it too
    train_csv, det, ex = tmp_path / "train.csv", tmp_path / "det.json", tmp_path / "ex.json"
    assert main(["benchmark", "--out-dir", str(tmp_path), "--seed", str(seed)]) == 0
    assert main(["train", str(train_csv), "--out", str(det), "--seed", str(seed)]) == 0
    assert main(["baseline", str(det), str(train_csv), "--out", str(ex),
                 "--seed", str(seed)]) == 0
    detector = Detector.load(det)
    assert detector.meta["auc"] >= 0.95
    centers = np.stack([detector.normalizer.apply(m.center) for m in default_modes(8)])
    points = ExemplarSet.load(ex).points
    nearest = np.argmin(np.linalg.norm(points[:, None] - centers[None], axis=2), axis=1)
    assert set(nearest.tolist()) == {0, 1}


def small_input(pipeline, tmp_path, n=12):
    """Telemetry file with a handful of training rows (value columns only)."""
    lines = (pipeline / "train.csv").read_text().splitlines()
    p = tmp_path / "input.csv"
    p.write_text("\n".join(lines[: n + 1]) + "\n")
    return p


class TestExplainCommand:
    def test_line_count_and_flags(self, pipeline, tmp_path):
        inp = small_input(pipeline, tmp_path)
        out = tmp_path / "expl.jsonl"
        rc = main(["explain", str(pipeline / "detector.json"),
                   str(pipeline / "exemplars.json"), str(inp), "--out", str(out)])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 12  # one line per input row, in order
        assert any("non_anomalous" in r["flags"] for r in records)
        assert all(len(r["blame"]) == 8 for r in records)
        assert all(sum(r["blame"]) <= 1.0 + 1e-9 for r in records)
        # a header-only input explains no rows and writes an empty file
        empty = small_input(pipeline, tmp_path, n=0)
        assert main(["explain", str(pipeline / "detector.json"),
                     str(pipeline / "exemplars.json"), str(empty), "--out", str(out)]) == 0
        assert out.read_text() == ""

    def test_deterministic(self, pipeline, tmp_path):
        inp = small_input(pipeline, tmp_path)
        outs = []
        for name in ("e1.jsonl", "e2.jsonl"):
            out = tmp_path / name
            assert main(["explain", str(pipeline / "detector.json"),
                         str(pipeline / "exemplars.json"), str(inp),
                         "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    KEYS = ["x", "baseline", "score", "baseline_score", "raw", "blame", "gap",
            "metric", "path", "flags"]

    def records(self, pipeline, inp, out, *flags):
        assert main(["explain", str(pipeline / "detector.json"), str(pipeline / "exemplars.json"),
                     str(inp), "--out", str(out), *flags]) == 0
        return [json.loads(line) for line in out.read_text().splitlines()]

    def test_record_schema(self, pipeline, tmp_path):
        inp, out = small_input(pipeline, tmp_path), tmp_path / "e.jsonl"
        for r in self.records(pipeline, inp, out):
            assert list(r) == self.KEYS
            assert list(r["path"]) == ["kind", "m"] and r["path"]["kind"] == "straight"
            assert r["metric"] == "L2"
        for r in self.records(pipeline, inp, out, "--path", "axis", "--metric", "L1"):
            assert list(r) == self.KEYS
            assert r["path"] == {"kind": "axis", "m": 64}
            assert r["metric"] == "L1"

    def test_timestamps_round_trip(self, pipeline, tmp_path):
        lines = small_input(pipeline, tmp_path, n=3).read_text().splitlines()
        stamps = ["2024-03-01T12:00:00Z", "2024-03-01T13:00:01+01:00", "2024-03-01T12:00:02"]
        inp = tmp_path / "ts.csv"
        inp.write_text("\n".join(["ts," + lines[0]] + [f"{t},{row}" for t, row in
                                                       zip(stamps, lines[1:])]) + "\n")
        records = self.records(pipeline, inp, tmp_path / "e.jsonl")
        assert [list(r) for r in records] == [self.KEYS + ["ts"]] * 3
        want = [datetime(2024, 3, 1, 12, 0, s, tzinfo=timezone.utc) for s in (0, 1, 2)]
        assert [datetime.fromisoformat(r["ts"]) for r in records] == want
        # the written stamps read back as the same stamps
        inp.write_text("\n".join(["ts," + lines[0]] + [f"{r['ts']},{row}" for r, row in
                                                       zip(records, lines[1:])]) + "\n")
        assert self.records(pipeline, inp, tmp_path / "e2.jsonl") == records

    @pytest.mark.parametrize("artifact", ["detector.json", "exemplars.json"])
    def test_wrong_artifact_exit_2(self, pipeline, tmp_path, capsys, artifact):
        # the same file as both detector and exemplar set: one of the two is wrong
        wrong = pipeline / artifact
        out = tmp_path / "e.jsonl"
        rc = main(["explain", str(wrong), str(wrong), str(small_input(pipeline, tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(wrong) in err
        assert not out.exists()

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe"],
                             ids=["not-json", "not-utf8"])
    @pytest.mark.parametrize("position, what", [(0, "a detector"),
                                                (1, "an exemplar-set")])
    def test_non_json_artifact_exit_2(self, pipeline, tmp_path, capsys, content,
                                      position, what):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        artifacts = [str(pipeline / "detector.json"), str(pipeline / "exemplars.json")]
        artifacts[position] = str(bad)
        out = tmp_path / "e.jsonl"
        rc = main(["explain", *artifacts, str(small_input(pipeline, tmp_path)),
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not {what} artifact")
        assert not out.exists()


def poisoned(path, edit, literal):
    """The JSON artifact at path with edit applied to its dict; the value
    edit stores as "@" is written as the JSON text literal."""
    d = json.loads(path.read_text())
    edit(d)
    return json.dumps(d).replace('"@"', literal)


def set_first_weight(d):
    d["model"]["layers"][0]["w"][0][0] = "@"


def min_above_max(d):
    d["normalizer"]["min"][0] = d["normalizer"]["max"][0] + 1.0


def drop_last_name(d):
    del d["normalizer"]["names"][-1]


def drop_first_layer_row(d):
    del d["model"]["layers"][0]["w"][-1]


def set_first_coordinate(d):
    d["exemplars"][0]["x"][0] = "@"


def no_exemplars(d):
    d["exemplars"] = []


def drop_last_coordinates(d):
    for e in d["exemplars"]:
        del e["x"][-1]


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("artifact, edit, literal", [
    ("detector.json", set_first_weight, "NaN"),
    ("detector.json", set_first_weight, "1e999"),
    ("detector.json", set_first_weight, "1" + "0" * 400),
    ("detector.json", min_above_max, ""),
    ("detector.json", drop_last_name, ""),
    ("detector.json", drop_first_layer_row, ""),
    ("exemplars.json", set_first_coordinate, "NaN"),
    ("exemplars.json", no_exemplars, ""),
], ids=["detector-nan", "detector-1e999", "detector-huge-int", "detector-min-above-max",
        "detector-names-width", "detector-layer-width", "exemplars-nan", "exemplars-empty"])
def test_bad_artifact_exit_2(pipeline, tmp_path, capsys, command, artifact, edit, literal):
    """A non-finite, overflowing or inconsistent detector or exemplar set
    exits 2 naming the file, and nothing is written."""
    bad = tmp_path / artifact
    bad.write_text(poisoned(pipeline / artifact, edit, literal))
    artifacts = {name: str(pipeline / name) for name in ("detector.json", "exemplars.json")}
    artifacts[artifact] = str(bad)
    out = tmp_path / "out"
    data = small_input(pipeline, tmp_path) if command == "explain" else pipeline / "test.csv"
    assert main([command, *artifacts.values(), str(data), "--out", str(out)]) == 2
    what = "a detector" if artifact == "detector.json" else "an exemplar-set"
    assert capsys.readouterr().err.startswith(f"error: {bad}: not {what} artifact")
    assert not out.exists() and not Path(f"{out}.runlog.json").exists()


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_foreign_exemplar_set_exit_2(pipeline, tmp_path, capsys, command):
    """Exemplars one column narrower than the detector exit 2 naming both
    files, and nothing is written."""
    det, narrow = pipeline / "detector.json", tmp_path / "exemplars.json"
    narrow.write_text(poisoned(pipeline / "exemplars.json", drop_last_coordinates, ""))
    out = tmp_path / "out"
    data = small_input(pipeline, tmp_path) if command == "explain" else pipeline / "test.csv"
    assert main([command, str(det), str(narrow), str(data), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(det) in err and str(narrow) in err
    assert not out.exists() and not Path(f"{out}.runlog.json").exists()


class TestBadInput:
    """Bad input exits 2 with its location and leaves no output file."""

    def rewrite(self, path, edit):
        rows = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("\n".join(",".join(r) for r in edit(rows)) + "\n")
        return path

    def run(self, pipeline, command, inp, out):
        if command == "train":
            return main(["train", str(inp), "--out", str(out), "--epochs", "1"])
        args = [str(pipeline / "detector.json")]
        if command in ("explain", "evaluate"):
            args.append(str(pipeline / "exemplars.json"))
        return main([command, *args, str(inp), "--out", str(out)])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["train", "explain"])
    def test_non_finite_cell_located(self, pipeline, tmp_path, capsys, command, cell):
        def poison(rows):
            rows[4][2] = cell  # file row 5, third column
            return rows
        inp = self.rewrite(small_input(pipeline, tmp_path), poison)
        out = tmp_path / "out"
        assert self.run(pipeline, command, inp, out) == 2
        name = inp.read_text().splitlines()[0].split(",")[2]
        assert f"row 5 column {name!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_explain_failure_leaves_no_output(self, pipeline, tmp_path, monkeypatch):
        calls = []

        def failing_after_the_rows(*args, **kwargs):
            # one call explains the whole file; it fails after doing the work
            calls.append(1)
            explain(*args, **kwargs)
            raise InputError("bad row")

        monkeypatch.setattr(cli, "explain", failing_after_the_rows)
        out = tmp_path / "e.jsonl"
        assert self.run(pipeline, "explain", small_input(pipeline, tmp_path), out) == 2
        assert len(calls) == 1
        assert not out.exists()
        assert not Path(str(out) + ".runlog.json").exists()

    def test_value_error_is_a_bug_not_bad_input(self, pipeline, tmp_path, monkeypatch):
        """main catches only OSError and BlamekitError: a ValueError from
        inside a command escapes as a traceback instead of exiting 2."""
        def buggy(*args, **kwargs):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "explain", buggy)
        out = tmp_path / "e.jsonl"
        with pytest.raises(ValueError, match="a bug"):
            self.run(pipeline, "explain", small_input(pipeline, tmp_path), out)
        assert not out.exists()

    def bad_test_csv(self, pipeline, tmp_path, row, col, cell):
        """A copy of the labeled test.csv with one cell of one file row replaced."""
        def poison(rows):
            rows[row - 1][rows[0].index(col)] = cell
            return rows
        inp = tmp_path / "test.csv"
        inp.write_text((pipeline / "test.csv").read_text())
        return self.rewrite(inp, poison)

    def test_label_must_be_0_or_1(self, pipeline, tmp_path, capsys):
        # file row 42 is the first fault row (40 normal rows follow the header)
        inp = self.bad_test_csv(pipeline, tmp_path, 42, "label", "2.0")
        out = tmp_path / "out"
        assert self.run(pipeline, "evaluate", inp, out) == 2
        err = capsys.readouterr().err
        assert f"{inp}: row 42: label must be 0 or 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("row, cell, why", [
        (42, "0.0", "anomalous rows need beta summing to 1"),
        (5, "0.5", "normal rows must have all-zero beta"),
    ])
    def test_bad_beta_row_located(self, pipeline, tmp_path, capsys, row, cell, why):
        lines = (pipeline / "test.csv").read_text().splitlines()
        header, cells = lines[0].split(","), lines[row - 1].split(",")
        # a beta column that is nonzero on the fault row, or any on the normal one
        col = next(c for c, v in zip(header, cells)
                   if c.startswith("beta_") and float(v) != float(cell))
        inp = self.bad_test_csv(pipeline, tmp_path, row, col, cell)
        out = tmp_path / "out"
        assert self.run(pipeline, "evaluate", inp, out) == 2
        assert f"{inp}: row {row}: {why}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit", ["renamed", "swapped"])
    @pytest.mark.parametrize("command", ["baseline", "explain", "evaluate"])
    def test_columns_must_match_detector(self, pipeline, tmp_path, capsys, command, edit):
        # evaluate's beta_ columns follow the edit, so they still mirror
        # the value columns and only the detector's names can catch it
        def renamed(rows):
            rows[0] = [c.replace("dim_", "x_") for c in rows[0]]
            return rows

        def swapped(rows):
            cols = [(rows[0].index(a), rows[0].index(b))
                    for a, b in (("dim_0", "dim_1"), ("beta_dim_0", "beta_dim_1"))
                    if a in rows[0]]
            for r in rows:
                for i, j in cols:
                    r[i], r[j] = r[j], r[i]
            return rows

        if command == "evaluate":
            inp = tmp_path / "test.csv"
            inp.write_text((pipeline / "test.csv").read_text())
        else:
            inp = small_input(pipeline, tmp_path)
        inp = self.rewrite(inp, {"renamed": renamed, "swapped": swapped}[edit])
        out = tmp_path / "out"
        assert self.run(pipeline, command, inp, out) == 2
        err = capsys.readouterr().err
        assert "do not match the expected" in err and str(inp) in err
        expected = [f"dim_{d}" for d in range(8)]
        assert str(expected) in err
        assert str({"renamed": [f"x_{d}" for d in range(8)],
                    "swapped": ["dim_1", "dim_0", *expected[2:]]}[edit]) in err
        assert not out.exists()


class TestEvaluateCommand:
    def test_report_and_table(self, pipeline, tmp_path):
        report = tmp_path / "report.json"
        table = tmp_path / "table.txt"
        rc = main(["evaluate", str(pipeline / "detector.json"),
                   str(pipeline / "exemplars.json"), str(pipeline / "test.csv"),
                   "--out", str(report), "--table", str(table),
                   "--methods", "ig,surrogate", "--seed", "5"])
        assert rc == 0
        data = json.loads(report.read_text())
        names = {r["method"] for r in data}
        assert names == {"ig", "surrogate"}
        assert "method" in table.read_text()

    def test_unwritable_table_leaves_no_output(self, pipeline, tmp_path, capsys):
        report = tmp_path / "report.json"
        table = tmp_path / "missing" / "t.txt"
        rc = main(["evaluate", str(pipeline / "detector.json"),
                   str(pipeline / "exemplars.json"), str(pipeline / "test.csv"),
                   "--out", str(report), "--table", str(table)])
        assert rc == 2
        assert capsys.readouterr().err.endswith(f"{str(table)!r}\n")
        # no report, no run log and no temp file
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("table", ["./r.json", "./r.json.runlog.json"])
    def test_table_on_another_output_exit_2(self, pipeline, tmp_path, monkeypatch, capsys,
                                            table):
        """--table naming the report or its run log, spelled differently,
        is bad input: exit 2 naming both flags, and nothing written."""
        monkeypatch.chdir(tmp_path)
        rc = main(["evaluate", str(pipeline / "detector.json"),
                   str(pipeline / "exemplars.json"), str(pipeline / "test.csv"),
                   "--out", "r.json", "--table", table])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--table" in err and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_method_exit_2(self, pipeline, tmp_path):
        rc = main(["evaluate", str(pipeline / "detector.json"),
                   str(pipeline / "exemplars.json"), str(pipeline / "test.csv"),
                   "--out", str(tmp_path / "r.json"), "--methods", "shap"])
        assert rc == 2


COMMANDS = ["benchmark", "train", "baseline", "explain", "evaluate"]


def command_argv(command, pipeline, inp, out, seed):
    """A short run of command on the pipeline's artifacts and the small
    input inp, writing out (the output directory for benchmark). Every
    output differs between seeds 0 and 1."""
    s, det, ex = str(seed), str(pipeline / "detector.json"), str(pipeline / "exemplars.json")
    return {
        "benchmark": ["benchmark", "--out-dir", str(out), "--dims", "4",
                      "--n-normal", "50", "--n-test-normal", "10",
                      "--n-faults", "20", "--seed", s],
        "train": ["train", str(inp), "--out", str(out), "--epochs", "1", "--seed", s],
        "baseline": ["baseline", det, str(pipeline / "train.csv"), "--out", str(out),
                     "--seed", s],
        "explain": ["explain", det, ex, str(inp), "--out", str(out),
                    "--metric", ("L2", "L1")[seed]],
        "evaluate": ["evaluate", det, ex, str(pipeline / "test.csv"),
                     "--out", str(out), "--table", f"{out}.txt", "--seed", s],
    }[command]


def check_runlog(pipeline, tmp_path, command):
    """The run log sits next to the command's first output and holds its
    name, its flags, its derived seeds and the SHA-256 of exactly its
    positional input files."""
    out = tmp_path / "out"
    argv = command_argv(command, pipeline, small_input(pipeline, tmp_path), out, 0)
    assert main(argv) == 0
    primary = out / "train.csv" if command == "benchmark" else out
    log = json.loads(Path(f"{primary}.runlog.json").read_text())
    assert log["command"] == command
    flags = vars(cli.build_parser().parse_args(argv))
    assert log["flags"] == {k: v for k, v in flags.items() if k not in ("func", "command")}
    assert set(log["seeds"]) == {
        "benchmark": {"seed"}, "train": {"seed", "negative_sampling", "training"},
        "baseline": {"seed", "baseline"}, "explain": set(),
        "evaluate": {"seed", "surrogate"}}[command]
    inputs = takewhile(lambda a: not a.startswith("--"), argv[1:])
    assert log["inputs"] == {p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs}


@pytest.mark.parametrize("command", [c for c in COMMANDS if c != "train"])
def test_runlog_has_digests(pipeline, tmp_path, command):
    # train's case is TestTrainCommand.test_runlog_has_digests
    check_runlog(pipeline, tmp_path, command)


@pytest.mark.parametrize("blocked", ["output", "runlog"])
@pytest.mark.parametrize("command", COMMANDS)
def test_unwritable_path_keeps_earlier_outputs(pipeline, tmp_path, capsys, command, blocked):
    """A command whose output or run-log path cannot be written exits 2
    naming it, and leaves no temp file and every earlier output as it was:
    a successful run, then a rerun whose every output would differ, with
    one output or run-log path turned into a directory."""
    work, inp = tmp_path / "work", small_input(pipeline, tmp_path)
    work.mkdir()
    out = work if command == "benchmark" else work / "out"

    def argv(seed):
        return command_argv(command, pipeline, inp, out, seed)

    assert main(argv(0)) == 0
    primary = work / "train.csv" if command == "benchmark" else out
    target = primary if blocked == "output" else Path(f"{primary}.runlog.json")
    target.unlink()
    target.mkdir()
    earlier = {p: p.read_bytes() for p in work.iterdir() if p.is_file()}
    capsys.readouterr()
    assert main(argv(1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.endswith(f"{str(target)!r}\n")
    assert not list(work.glob("*.tmp"))
    assert {p: p.read_bytes() for p in work.iterdir() if p.is_file()} == earlier


class TestBadNumericFlags:
    """An out-of-range numeric flag is bad input: exit 2, one error line."""

    def check(self, argv, out, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()
        return err

    def test_train_hidden_zero(self, pipeline, tmp_path, capsys):
        out = tmp_path / "d.json"
        self.check(["train", str(pipeline / "train.csv"), "--out", str(out),
                    "--hidden", "0"], out, capsys)

    @pytest.mark.parametrize("hidden", ["16,", "a"])
    def test_train_hidden_not_int_list(self, pipeline, tmp_path, capsys, hidden):
        out = tmp_path / "d.json"
        err = self.check(["train", str(pipeline / "train.csv"), "--out", str(out),
                          "--hidden", hidden], out, capsys)
        assert "--hidden" in err and repr(hidden) in err

    def test_benchmark_fault_dims_not_int_list(self, tmp_path, capsys):
        out = tmp_path / "data"
        err = self.check(["benchmark", "--out-dir", str(out), "--dims", "4",
                          "--fault-dims", "1,"], out, capsys)
        assert "--fault-dims" in err and "'1,'" in err

    @pytest.mark.parametrize("flag, value, field", [
        ("--n-test-normal", "-5", "n_test_normal"), ("--n-normal", "-1", "n_normal"),
        ("--n-faults", "-3", "n_faults"), ("--dims", "0", "dims"), ("--seed", "-1", "seed")])
    def test_benchmark_size_out_of_range(self, tmp_path, capsys, flag, value, field):
        out = tmp_path / "data"
        err = self.check(["benchmark", "--out-dir", str(out), "--dims", "4", flag, value],
                         out, capsys)
        assert f"{field} must be >= " in err and f"got {value}" in err

    def test_baseline_n_zero(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ex.json"
        self.check(["baseline", str(pipeline / "detector.json"),
                    str(pipeline / "train.csv"), "--out", str(out), "--n", "0"],
                   out, capsys)

    def test_train_lr_zero(self, pipeline, tmp_path, capsys):
        out = tmp_path / "d.json"
        self.check(["train", str(pipeline / "train.csv"), "--out", str(out),
                    "--lr", "0"], out, capsys)

    @pytest.mark.parametrize("ratio", ["inf", "nan"])
    def test_train_ratio_not_finite(self, pipeline, tmp_path, capsys, ratio):
        out = tmp_path / "d.json"
        assert "ratio" in self.check(["train", str(pipeline / "train.csv"), "--out", str(out),
                                      "--ratio", ratio], out, capsys)

    @pytest.mark.parametrize("eps", ["-0.2", "0"])
    def test_baseline_eps_not_positive(self, pipeline, tmp_path, capsys, eps):
        out = tmp_path / "ex.json"
        assert "eps" in self.check(["baseline", str(pipeline / "detector.json"),
                                    str(pipeline / "train.csv"), "--out", str(out),
                                    "--eps", eps], out, capsys)

    @pytest.mark.parametrize("minpts", ["0", "-3"])
    def test_baseline_minpts_below_one(self, pipeline, tmp_path, capsys, minpts):
        out = tmp_path / "ex.json"
        assert "min_pts" in self.check(["baseline", str(pipeline / "detector.json"),
                                        str(pipeline / "train.csv"), "--out", str(out),
                                        "--minpts", minpts], out, capsys)
