#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the blamekit CLI pipeline.

    python3 bench/run.py --workload train-8d --seed 0 --seconds 50 --trace 0

Drives `blamekit.cli.main` in-process, one client in a closed loop: set
up (`blamekit benchmark` and the value-only explain input) seven times,
then run `train -> baseline -> explain -> evaluate` passes for --seconds
(at least one pass), then check the outputs of the last pass with
checks.py. Between passes run extra cycles of the workload's short
commands, so that each command is timed at several moments of the run.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it runs one untraced pass and then traced passes (no extra
cycles), and carries the per-layer metrics. The run's context
(versions, thread pin, calibration loops) is printed on the line before
and written, with the spans, under bench/out/<workload>/.

See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# pin BLAS/OpenMP to one thread before numpy loads them
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import numpy as np  # noqa: E402

import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Seed of the synthetic data, the detector fit and the exemplar draw. At 0,
# 1, 3 and 4 the CLI pipeline hits known faults (see bench/README.md); at 2
# every check passes on every workload. The run's --seed varies the
# order of the explain input rows and the surrogate draw in evaluate.
DATA_SEED = 2
SETUPS = 7
STAGES = ("train", "baseline", "explain", "evaluate")


@dataclass(frozen=True)
class Workload:
    dims: int
    benchmark: tuple[str, ...]
    train: tuple[str, ...] = ()
    explain: tuple[str, ...] = ()
    # commands re-run, on side files, in each extra cycle between passes
    extra: tuple[str, ...] = ()
    extra_cycles: int = 1

    @property
    def metric(self) -> str:
        return "L1" if "L1" in self.explain else "L2"


# A DBSCAN-bound workload (15 000 normal rows) was dropped: after its
# 700 MB DBSCAN, the explain and evaluate rates in the same process spread
# by 0.3-0.5 of the median between runs (see bench/README.md).
# The host's speed wanders over tens of seconds, so a command that takes a
# small share of a pass gets extra runs between passes: otherwise its
# median rests on two or three samples taken at a few moments.
WORKLOADS = {
    "train-8d": Workload(8, ("--n-normal", "5000", "--n-faults", "2000"),
                         train=("--epochs", "300", "--hidden", "24", "--lr", "0.2"),
                         extra=("baseline", "explain", "evaluate")),
    "explain-16d-axis": Workload(16, ("--n-normal", "5000", "--n-faults", "1000"),
                                 explain=("--path", "axis", "--metric", "L1"),
                                 extra=("train", "baseline"), extra_cycles=2),
}


def mode_centers(dims: int) -> np.ndarray:
    """The two generating modes of the default synthetic benchmark, raw units."""
    idx = np.arange(dims)
    return np.array([0.25 + 0.1 * (idx % 2), 0.65 + 0.1 * ((idx + 1) % 2)])


def calibrate() -> dict:
    """Timings of the fixed loops in calibrate.py, run in a child process."""
    child = subprocess.run([sys.executable, str(BENCH_DIR / "calibrate.py")],
                           capture_output=True, text=True, check=True, timeout=120)
    return json.loads(child.stdout)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "blamekit").glob("*.py")))


class Runner:
    """Runs CLI commands for one workload and counts them as operations."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.log: list[str] = []

    def __call__(self, *argv: str) -> float:
        """Run one CLI command; return its wall time, NaN if it failed."""
        out = io.StringIO()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = self.cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # noqa: BLE001 - a crash is a failed operation, reported below
            rc = traceback.format_exc()
        dt = time.perf_counter() - t0
        self.log.append(f"{argv[0]}: exit {rc}: {out.getvalue().strip()}")
        if rc != 0:
            self.failed += 1
            return float("nan")
        return dt

    def path(self, name: str) -> str:
        return str(self.work / name)


def setup(run: Runner, wl: Workload, seed: int) -> tuple[float, np.ndarray]:
    """`blamekit benchmark`, then the explain input: test.csv without its
    label/beta columns, rows shuffled by the run seed. Returns the wall time
    and the shuffle (input row j is test row order[j])."""
    t0 = time.perf_counter()
    run("benchmark", "--out-dir", str(run.work), "--dims", str(wl.dims),
        "--seed", str(DATA_SEED), *wl.benchmark)
    lines = (run.work / "test.csv").read_text(encoding="utf-8").splitlines()
    k = lines[0].split(",").index("label")
    rows = [",".join(line.split(",")[:k]) for line in lines]
    order = np.random.default_rng(seed % 2**32).permutation(len(rows) - 1)
    body = [rows[0]] + [rows[1 + i] for i in order]
    (run.work / "input.csv").write_text("\n".join(body) + "\n", encoding="utf-8")
    return time.perf_counter() - t0, order


OUTPUTS = {"train": "detector.json", "baseline": "exemplars.json",
           "explain": "explanations.jsonl", "evaluate": "report.json"}


def command(run: Runner, wl: Workload, stage: str, seed: int, extra: bool = False) -> float:
    """Run one pipeline command on the pass's files; return its wall time.
    An extra run writes to `extra-*` files, so the files of the last pass
    stay the ones the checks read."""
    out = run.path(("extra-" if extra else "") + OUTPUTS[stage])
    detector, exemplars = run.path("detector.json"), run.path("exemplars.json")
    if stage == "train":
        return run("train", run.path("train.csv"), "--out", out, "--seed", str(DATA_SEED),
                   *wl.train)
    if stage == "baseline":
        return run("baseline", detector, run.path("train.csv"), "--out", out,
                   "--seed", str(DATA_SEED))
    if stage == "explain":
        return run("explain", detector, exemplars, run.path("input.csv"), "--out", out,
                   *wl.explain)
    return run("evaluate", detector, exemplars, run.path("test.csv"), "--out", out,
               "--seed", str(seed), *wl.explain)


def pipeline_pass(run: Runner, wl: Workload, seed: int) -> dict:
    t0 = time.perf_counter()
    times = {f"{stage}_s": command(run, wl, stage, seed) for stage in STAGES}
    return {"pipeline_s": time.perf_counter() - t0, **times}


def timed_loop(run: Runner, wl: Workload, seed: int, seconds: float, extra: tuple,
               tracer=None) -> tuple[list[dict], dict, list[int]]:
    """Passes, each followed by `wl.extra_cycles` cycles of the `extra`
    commands, while the next one is expected to end within `seconds`. When
    a pass no longer fits, extra cycles go on while one fits. Returns the
    passes, every wall time of each command (pass and extra runs), and the
    root span of each traced pass."""
    passes, roots = [], []
    samples = {f"{stage}_s": [] for stage in STAGES}
    due = 0  # extra cycles still to run before the next pass
    t_start = time.perf_counter()
    while not run.failed:
        elapsed = time.perf_counter() - t_start
        if not passes or (due == 0 and elapsed + median(p["pipeline_s"] for p in passes)
                          <= seconds):
            root = tracer.open("bench.pass") if tracer else None
            passes.append(pipeline_pass(run, wl, seed))
            if tracer:
                tracer.close(root)
                roots.append(root)
            for key in samples:
                samples[key].append(passes[-1][key])
            due = wl.extra_cycles if extra else 0
        elif extra and elapsed + sum(median(samples[f"{s}_s"]) for s in extra) <= seconds:
            for stage in extra:
                samples[f"{stage}_s"].append(command(run, wl, stage, seed, extra=True))
            due = max(due - 1, 0)
        else:
            break
    return passes, samples, roots


def median(values) -> float:
    return float(statistics.median(values))


def context(args, wl: Workload, passes: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "data_seed": DATA_SEED,
        "seconds": args.seconds, "trace": args.trace, "passes": passes,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "src_blamekit_lines": src_lines(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    if not (SRC / "blamekit" / "__init__.py").is_file():
        print(f"error: no blamekit sources under {SRC}", file=sys.stderr)
        return 2
    calib_before = calibrate()

    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from blamekit import cli
    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: blamekit imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    run = Runner(cli, work)

    setup_s, generate_s = [], []
    if tracer:
        tracer.install()
    for _ in range(SETUPS):
        root = tracer.open("bench.setup") if tracer else None
        dt, order = setup(run, wl, args.seed)
        setup_s.append(dt)
        if tracer:
            tracer.close(root)
            generate_s.append(tracing.setup_metrics(tracer.spans, root)["benchmark.generate_s"])
    n_test = len(order)
    n_faults = int(np.loadtxt(work / "test.csv", delimiter=",", skiprows=1,
                              usecols=wl.dims).sum())

    untraced = None
    if tracer:
        tracer.uninstall()
        untraced = pipeline_pass(run, wl, args.seed)
        tracer.install()
    passes, samples, roots = timed_loop(run, wl, args.seed, args.seconds,
                                        () if tracer else wl.extra, tracer)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks  # scipy loads here, after the peak resident set is read

    try:
        art = checks.load_artifacts(work, order, wl.metric, mode_centers(wl.dims))
        results = checks.run_checks(art)
    except (OSError, ValueError, KeyError) as exc:
        art, results = None, checks.run_checks(None, f"{type(exc).__name__}: {exc}")
    run.attempted += len(results)
    run.failed += sum(r is not None for r in results.values())

    ctx = context(args, wl, len(passes))
    ctx["samples"] = {key: len(v) for key, v in samples.items()}
    ctx["calibration_s"] = {"before": calib_before, "after": calibrate()}
    ctx["checks"] = {name: r or "pass" for name, r in results.items()}

    if tracer:
        per_pass = [tracing.layer_metrics(tracer.spans, r) for r in roots]
        values = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
        values["benchmark.generate_s"] = median(generate_s)
        values["trace.overhead_s"] = (median(p["pipeline_s"] for p in passes)
                                      - untraced["pipeline_s"])
        metrics = {name: (v, tracing.unit_of(name)) for name, v in values.items()}
        ctx["layer_self_s"] = tracing.layer_self_times(tracer.spans, roots[-1])
        ctx["untraced_pipeline_s"] = untraced["pipeline_s"]
        spans_path = work / f"spans-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "counts"], "spans": tracer.spans}))
        ctx["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (import_s + median(setup_s), "s"),
            "pipeline_s": (median(p["pipeline_s"] for p in passes), "s"),
            "train_s": (median(samples["train_s"]), "s"),
            "baseline_s": (median(samples["baseline_s"]), "s"),
            "explain_rows_per_s": (median(n_test / t for t in samples["explain_s"]), "rows/s"),
            "evaluate_rows_per_s": (median(n_faults / t for t in samples["evaluate_s"]),
                                    "rows/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "holdout_auc": (art["detector"]["meta"]["auc"] if art else float("nan"), "1"),
            "ig_attribution_error": (art["report"]["ig"]["mean"] if art else float("nan"), "1"),
        }
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        # a failed command leaves NaN timings; JSON has no NaN, so they print as null
        "metrics": {name: {"value": value if value is not None and math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {"context": ctx, "result": result, "cli_log": run.log}
    (work / f"run-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, r in results.items():
        if r is not None:
            print(f"check {name} FAILED: {r}")
    print("context " + json.dumps(ctx))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
