"""Golden outputs: the CLI pipeline `benchmark -> train -> baseline ->
explain -> evaluate` at data seed 2, with each bench workload's flags,
writes primary outputs of these exact sha256 digests.

A change that means to alter an output updates the digest here and
records the old and new values, and why, in CHANGES.md. The digests
depend on numpy and the BLAS it runs on, so a failure prints both.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blamekit.cli import main

ROOT = Path(__file__).resolve().parent.parent

# (benchmark, train, explain and evaluate) flags of the two bench workloads
WORKLOADS = {
    "8d": (["--dims", "8", "--n-normal", "5000", "--n-faults", "2000"],
           ["--epochs", "300", "--hidden", "24", "--lr", "0.2"], []),
    "16d": (["--dims", "16", "--n-normal", "5000", "--n-faults", "1000"],
            [], ["--path", "axis", "--metric", "L1"]),
}

OUTPUTS = ("detector.json", "exemplars.json", "explanations.jsonl", "report.json")

GOLDEN = {
    "8d": {
        "detector.json": "96569ee9969cbf8c07ca9c681c110a61e456a421f813a3504f5bb45fc8a09310",
        "exemplars.json": "fe5dcff14526de7722ccb4a9144af0e951b93288473beecd6f495d3a146d22fd",
        "explanations.jsonl": "a966972de76eb5634da6c2f204fe331d0acda2d1448c05e62cd8ed3ab95232a2",
        "report.json": "a8510a08461fca485c63f341479bf662af2704a031c5a4a6d74832b5091693e3",
    },
    "16d": {
        "detector.json": "cd73c4a57883ce7ef74deae4e4aa93a678c621c54ef8de89edb4b9c699c8f405",
        "exemplars.json": "db100285bd15e342613555149f25125e959d479938614f816032013180610809",
        "explanations.jsonl": "7a40f91d05ab59f548c48e4ab6bce80016c52e48d6d53adc0592b31e7d166d7f",
        "report.json": "7595f7e6c7f567337ae09d7f6b92b4831731ac54213afc1dd66e177c76ccd82e",
    },
}


def run_pipeline(out: Path, workload: str) -> dict:
    """Run the workload's pipeline into out; the sha256 of each primary output.
    The explain input is test.csv's value columns; evaluate runs with --seed 5."""
    bench, train, path = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    f = {name: str(out / name) for name in ("train.csv", "test.csv", "input.csv", *OUTPUTS)}
    assert main(["benchmark", "--out-dir", str(out), "--seed", "2", *bench]) == 0
    lines = (out / "test.csv").read_text().splitlines()
    k = lines[0].split(",").index("label")
    (out / "input.csv").write_text("\n".join(",".join(l.split(",")[:k]) for l in lines) + "\n")
    assert main(["train", f["train.csv"], "--out", f["detector.json"], "--seed", "2",
                 *train]) == 0
    assert main(["baseline", f["detector.json"], f["train.csv"], "--out", f["exemplars.json"],
                 "--seed", "2"]) == 0
    assert main(["explain", f["detector.json"], f["exemplars.json"], f["input.csv"],
                 "--out", f["explanations.jsonl"], *path]) == 0
    assert main(["evaluate", f["detector.json"], f["exemplars.json"], f["test.csv"],
                 "--out", f["report.json"], "--seed", "5", *path]) == 0
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


def toolchain() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pipeline_outputs_match_golden(tmp_path, workload):
    assert run_pipeline(tmp_path, workload) == GOLDEN[workload], toolchain()


def test_16d_outputs_match_golden_under_two_blas_threads(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    code = ("import json, sys; from pathlib import Path; from test_golden import run_pipeline; "
            "print(json.dumps(run_pipeline(Path(sys.argv[1]), '16d')))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1]) == GOLDEN["16d"], toolchain()
