"""Command-line pipeline: benchmark, train, baseline, explain, evaluate.

Every command writes a run log next to its primary output (flags,
derived seeds, SHA-256 digests of inputs) so any artifact can be
reproduced exactly. Exit codes: 0 ok, 2 input/parse error, 3
training/numeric failure, 4 empty baseline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import benchmark as bench
from .attribution import explain
from .dataio import load_telemetry
from .detector import Detector, NegativeSamplingConfig, fit_detector
from .errors import (
    ConfigError,
    EmptyBaselineError,
    InputError,
    NumericError,
    ParseError,
    ShapeError,
    TrainingError,
)
from .evaluation import evaluate_methods, format_table, reports_to_json
from .exemplar import ExemplarSet, select_baseline
from .network import TrainConfig
from .surrogate import SurrogateConfig, surrogate_attribution

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3
EXIT_EMPTY_BASELINE = 4


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


def _write_runlog(out_path, command: str, flags: dict, seeds: dict, inputs: list) -> None:
    log = {
        "command": command,
        "flags": {k: v for k, v in flags.items() if k not in ("func", "command")},
        "seeds": seeds,
        "inputs": {str(p): _sha256(p) for p in inputs},
    }
    Path(str(out_path) + ".runlog.json").write_text(json.dumps(log, indent=2, sort_keys=True))


def cmd_benchmark(args) -> int:
    cfg = bench.BenchmarkConfig(
        dims=args.dims,
        n_normal=args.n_normal,
        n_test_normal=args.n_test_normal,
        n_faults=args.n_faults,
        fault_dims=tuple(int(k) for k in args.fault_dims.split(",")),
        magnitude=args.magnitude,
        seed=args.seed,
    )
    train_ds, test = bench.generate_fault_benchmark(cfg)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    train_path, test_path = out / "train.csv", out / "test.csv"
    bench.save_benchmark(train_ds, test, train_path, test_path)
    _write_runlog(train_path, "benchmark", vars(args), {"seed": args.seed}, [])
    print(f"wrote {train_path} ({len(train_ds)} rows) and {test_path} ({len(test)} rows)")
    return EXIT_OK


def cmd_train(args) -> int:
    data = load_telemetry(args.train_csv)
    ns_seed = _fan_out(args.seed, "negative-sampling")
    train_seed = _fan_out(args.seed, "training")
    ns_cfg = NegativeSamplingConfig(ratio=args.ratio, envelope=args.envelope, seed=ns_seed)
    train_cfg = TrainConfig(
        learning_rate=args.lr,
        epochs=args.epochs,
        batch_size=args.batch_size,
        hidden=tuple(int(h) for h in args.hidden.split(",")),
        seed=train_seed,
    )
    det = fit_detector(data, ns_cfg, train_cfg)
    det.save(args.out)
    _write_runlog(args.out, "train", vars(args),
                  {"seed": args.seed, "negative_sampling": ns_seed, "training": train_seed},
                  [args.train_csv])
    print(f"wrote {args.out} (held-out AUC: {det.meta['auc']})")
    return EXIT_OK


def cmd_baseline(args) -> int:
    det = Detector.load(args.detector)
    data = load_telemetry(args.train_csv, det.normalizer.names)
    seed = _fan_out(args.seed, "baseline")
    ex = select_baseline(
        det.normalizer.apply(data.values), det,
        n=args.n, epsilon=args.epsilon, eps=args.eps, min_pts=args.minpts, seed=seed,
    )
    ex.save(args.out)
    _write_runlog(args.out, "baseline", vars(args), {"seed": args.seed, "baseline": seed},
                  [args.detector, args.train_csv])
    print(f"wrote {args.out} ({len(ex)} exemplars, "
          f"{len(np.unique(ex.clusters))} clusters)")
    return EXIT_OK


def cmd_explain(args) -> int:
    det = Detector.load(args.detector)
    ex = ExemplarSet.load(args.exemplars)
    data = load_telemetry(args.input_csv, det.normalizer.names)
    # build every record first, so a row that fails leaves no partial file
    lines = [e.to_json() + "\n" for e in explain(det, ex, data.values, metric=args.metric,
                                                path=args.path, timestamps=data.timestamps)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    _write_runlog(args.out, "explain", vars(args), {},
                  [args.detector, args.exemplars, args.input_csv])
    print(f"wrote {args.out} ({len(data)} explanations)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    det = Detector.load(args.detector)
    ex = ExemplarSet.load(args.exemplars)
    test = bench.load_labeled(args.test_csv, det.normalizer.names)
    sur_seed = _fan_out(args.seed, "surrogate")

    def ig_method(x_raw):
        return np.array([e.blame for e in explain(det, ex, x_raw, metric=args.metric,
                                                  path=args.path)])

    def surrogate_method(x_raw):
        cfg = SurrogateConfig(samples=25 * det.dims, seed=sur_seed)
        return surrogate_attribution(det, det.normalizer.apply(x_raw), cfg)

    available = {"ig": ig_method, "surrogate": surrogate_method}
    methods = {}
    for name in args.methods.split(","):
        name = name.strip()
        if name not in available:
            raise InputError(f"unknown method {name!r}; choose from {sorted(available)}")
        methods[name] = available[name]

    reports = evaluate_methods(test, methods)
    Path(args.out).write_text(reports_to_json(reports))
    table = format_table(reports)
    if args.table:
        Path(args.table).write_text(table + "\n")
    _write_runlog(args.out, "evaluate", vars(args),
                  {"seed": args.seed, "surrogate": sur_seed},
                  [args.detector, args.exemplars, args.test_csv])
    print(table)
    return EXIT_OK


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

    p = sub.add_parser("train", help="fit the negative-sampling detector")
    p.add_argument("train_csv")
    p.add_argument("--out", required=True)
    p.add_argument("--hidden", default="16", help="comma-separated hidden widths")
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--ratio", type=float, default=3.0)
    p.add_argument("--envelope", type=float, default=0.05)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ParseError, InputError, ConfigError, ShapeError,
            ValueError) as exc:  # the config objects raise ValueError on a bad flag
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (TrainingError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except EmptyBaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_BASELINE


if __name__ == "__main__":
    sys.exit(main())
