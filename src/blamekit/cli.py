"""Command-line pipeline: benchmark, train, baseline, explain, evaluate.

Each cmd_* only computes and returns (writers, seeds, inputs, message):
{output path: function writing it to a text handle}, primary output
first; the derived seeds; the input files; the line to print. `main`
writes the outputs and, next to the primary one, a run log (command,
flags, seeds, SHA-256 of each input) all or nothing, so any artifact
can be reproduced exactly. `explain` loads its input, then explains and
encodes it EXPLAIN_BLOCK rows at a time inside its writer, so its
memory is bounded and an error partway through still writes nothing;
`evaluate` runs each method over the same blocks.
Exit codes: 0 ok; 2 bad input, a refused setting (`ConfigError`) or an
unwritable output; 3 training failure, divergence included; 4 empty
baseline. Any other exception is a bug and escapes `main` as a traceback.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .attribution import explain
from .dataio import Dataset, load_telemetry, save_telemetry
from .detector import Detector, NegativeSamplingConfig, fit_detector
from .errors import BlamekitError, ConfigError, EmptyBaselineError, InputError, TrainingError
from .evaluation import evaluate_methods, format_table, reports_to_json
from .exemplar import ExemplarSet, select_baseline
from .network import TrainConfig
from .surrogate import surrogate_attribution

EXIT_CODES = {TrainingError: 3, EmptyBaselineError: 4}  # any other error: 2

# rows `explain` explains and encodes, and `evaluate` runs a method on, at a time
EXPLAIN_BLOCK = 4096


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _fan_out(seed: int, role: str) -> int:
    """Derive a per-role seed from the single --seed flag."""
    digest = hashlib.sha256(f"{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _int_list(flag: str, text: str) -> tuple[int, ...]:
    """The integers of a comma-separated flag value."""
    try:
        return tuple(int(k) for k in text.split(","))
    except ValueError:
        raise ConfigError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _write_all(writers: dict) -> None:
    """Write every output or none: each path's writer gets a temp file next
    to it (UTF-8, newlines untranslated), renamed into place once all are
    written. A failure removes every temp, leaves earlier files as they
    were, and raises an OSError naming the path asked for."""
    temps = []
    try:
        for path, write in writers.items():
            with open(f"{path}.tmp", "w", encoding="utf-8", newline="") as fh:
                temps.append(fh.name)
                write(fh)
        for path in writers:  # a rename cannot replace a directory with a file
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, tmp in zip(writers, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    finally:
        for tmp in temps:  # gone already once renamed
            Path(tmp).unlink(missing_ok=True)


def _load_pair(args) -> tuple[Detector, ExemplarSet]:
    """The detector and exemplar set the command names; an exemplar set of
    another width than the detector is bad input naming both files."""
    det, ex = Detector.load(args.detector), ExemplarSet.load(args.exemplars)
    if ex.points.shape[1] != det.dims:
        raise InputError(f"{args.exemplars}: exemplars of width {ex.points.shape[1]} do not "
                         f"fit the detector {args.detector} of width {det.dims}")
    return det, ex


def cmd_benchmark(args):
    cfg = bench.BenchmarkConfig(
        dims=args.dims,
        n_normal=args.n_normal,
        n_test_normal=args.n_test_normal,
        n_faults=args.n_faults,
        fault_dims=_int_list("--fault-dims", args.fault_dims),
        magnitude=args.magnitude,
        seed=args.seed,
    )
    train_ds, test = bench.generate_fault_benchmark(cfg)

    def write_test(fh):  # value, label and beta columns, built once train.csv is written
        names = train_ds.names
        save_telemetry(Dataset([*names, "label", *(f"beta_{n}" for n in names)],
                               np.hstack([test.x, test.anomalous[:, None], test.beta])), fh)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_path, test_path = out / "train.csv", out / "test.csv"
    return ({train_path: lambda fh: save_telemetry(train_ds, fh), test_path: write_test},
            {"seed": args.seed}, [],
            f"wrote {train_path} ({len(train_ds)} rows) and {test_path} ({len(test)} rows)")


def cmd_train(args):
    data = load_telemetry(args.train_csv)
    ns_seed = _fan_out(args.seed, "negative-sampling")
    train_seed = _fan_out(args.seed, "training")
    ns_cfg = NegativeSamplingConfig(ratio=args.ratio, envelope=args.envelope, seed=ns_seed)
    train_cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        hidden=_int_list("--hidden", args.hidden),
        seed=train_seed,
    )
    det = fit_detector(data, ns_cfg, train_cfg)
    return ({args.out: lambda fh: json.dump(det.to_dict(), fh)},
            {"seed": args.seed, "negative_sampling": ns_seed, "training": train_seed},
            [args.train_csv], f"wrote {args.out} (held-out AUC: {det.meta['auc']})")


def cmd_baseline(args):
    det = Detector.load(args.detector)
    data = load_telemetry(args.train_csv, det.normalizer.names)
    seed = _fan_out(args.seed, "baseline")
    ex = select_baseline(
        det.normalizer.apply(data.values), det,
        n=args.n, epsilon=args.epsilon, eps=args.eps, min_pts=args.minpts, seed=seed,
    )
    return ({args.out: lambda fh: json.dump(ex.to_dict(), fh)},
            {"seed": args.seed, "baseline": seed}, [args.detector, args.train_csv],
            f"wrote {args.out} ({len(ex)} exemplars, {len(np.unique(ex.clusters))} clusters)")


def cmd_explain(args):
    det, ex = _load_pair(args)
    data = load_telemetry(args.input_csv, det.normalizer.names)

    def write(fh):  # one block of rows in memory at a time
        for lo in range(0, len(data), EXPLAIN_BLOCK):
            rows = slice(lo, lo + EXPLAIN_BLOCK)
            fh.write(explain(det, ex, data.values[rows], metric=args.metric, path=args.path,
                             timestamps=data.timestamps[rows]).lines())

    return ({args.out: write}, {}, [args.detector, args.exemplars, args.input_csv],
            f"wrote {args.out} ({len(data)} explanations)")


def cmd_evaluate(args):
    for what, path in (("--out", args.out), ("the run log of --out", f"{args.out}.runlog.json")):
        if args.table and os.path.realpath(args.table) == os.path.realpath(path):
            raise InputError(f"--table {args.table!r} is the same file as {what} ({path!r})")
    det, ex = _load_pair(args)
    test = bench.load_labeled(args.test_csv, det.normalizer.names)
    sur_seed = _fan_out(args.seed, "surrogate")

    available = {
        "ig": lambda x: explain(det, ex, x, metric=args.metric, path=args.path).blame,
        "surrogate": lambda x: surrogate_attribution(det, det.normalizer.apply(x), sur_seed)}
    methods = {}
    for name in args.methods.split(","):
        name = name.strip()
        if name not in available:
            raise InputError(f"unknown method {name!r}; choose from {sorted(available)}")
        if name in methods:
            raise InputError(f"--methods names {name!r} more than once")
        methods[name] = lambda x, method=available[name]: np.concatenate(
            [method(x[lo:lo + EXPLAIN_BLOCK]) for lo in range(0, len(x), EXPLAIN_BLOCK)])

    reports = evaluate_methods(test, methods)
    table = format_table(reports)
    report = reports_to_json(reports)
    writers = {args.out: lambda fh: fh.write(report)}
    if args.table:
        writers[args.table] = lambda fh: fh.write(table + "\n")
    return (writers, {"seed": args.seed, "surrogate": sur_seed},
            [args.detector, args.exemplars, args.test_csv], table)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blamekit",
        description="Anomaly detection with contrastive integrated-gradients explanations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("benchmark", help="generate the synthetic labeled fault benchmark")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dims", type=int, default=8)
    p.add_argument("--n-normal", type=int, default=5000)
    p.add_argument("--n-test-normal", type=int, default=200)
    p.add_argument("--n-faults", type=int, default=400)
    p.add_argument("--fault-dims", default="1,2", help="comma-separated n_A choices")
    p.add_argument("--magnitude", type=float, default=0.45)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_benchmark)

    # the training defaults are the config dataclasses' own
    p = sub.add_parser("train", help="fit the negative-sampling detector")
    p.add_argument("train_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", default=",".join(map(str, TrainConfig.hidden)),
                   help="comma-separated hidden widths")
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--ratio", type=float, default=NegativeSamplingConfig.ratio)
    p.add_argument("--envelope", type=float, default=NegativeSamplingConfig.envelope)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="select the multimodal exemplar baseline set")
    p.add_argument("detector")
    p.add_argument("train_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=None, help="DBSCAN radius")
    p.add_argument("--minpts", type=int, default=None, help="DBSCAN core threshold")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("explain", help="attribute anomalies in a telemetry file")
    p.add_argument("detector")
    p.add_argument("exemplars")
    p.add_argument("input_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--metric", choices=["L1", "L2"], default="L2")
    p.add_argument("--path", choices=["straight", "axis"], default="straight")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="compare attribution methods on a labeled test set")
    p.add_argument("detector")
    p.add_argument("exemplars")
    p.add_argument("test_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--table", default=None, help="also write an aligned text table here")
    p.add_argument("--methods", default="ig,surrogate")
    p.add_argument("--metric", choices=["L1", "L2"], default="L2")
    p.add_argument("--path", choices=["straight", "axis"], default="straight")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    """Run one command, write its outputs and run log all or nothing, and
    print its message; or print the error as one line. Returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        writers, seeds, inputs, message = args.func(args)
        log = json.dumps({
            "command": args.command,
            "flags": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
            "seeds": seeds,
            "inputs": {str(p): _sha256(p) for p in inputs},
        }, indent=2, sort_keys=True)
        _write_all({**writers, f"{next(iter(writers))}.runlog.json": lambda fh: fh.write(log)})
    except (OSError, BlamekitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), 2)
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
