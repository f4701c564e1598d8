#!/usr/bin/env python3
"""Shows that every output check in checks.py fires on tampered outputs.

    python3 bench/selftest.py

Runs one small pipeline (8-D, 3 000 normal rows, 300 faults, CLI-default
training) through the CLI, requires the untampered outputs to pass every
check, then applies each tampering below to a copy of the outputs and
requires the named check to fail. Exits 1 if a check stays silent or the
clean outputs fail.
"""

from __future__ import annotations

import copy
import sys

import run  # first: it pins BLAS to one thread before numpy loads

import checks  # noqa: E402
import numpy as np  # noqa: E402


def bump_score(art):
    art["records"][0]["score"] += 1e-6


def shift_x(art):
    art["records"][0]["x"][0] += 1e-3


def scale_raw(art):
    for r in art["records"]:
        r["raw"] = [1.01 * v for v in r["raw"]]


def change_blame(art):
    r = next(r for r in art["records"] if "non_anomalous" not in r["flags"])
    r["blame"][int(np.argmax(r["blame"]))] -= 0.01


def flip_flag(art):
    r = art["records"][0]
    r["flags"] = ([f for f in r["flags"] if f != "non_anomalous"]
                  if "non_anomalous" in r["flags"] else r["flags"] + ["non_anomalous"])


def swap_baseline(art):
    exemplars = np.array([e["x"] for e in art["exemplars"]["exemplars"]])
    train = checks.normalize(art["detector"], art["train"])
    row = next(t for t in train if np.abs(exemplars - t).max(axis=1).min() > 0)
    art["records"][0]["baseline"] = row.tolist()


def drop_mode(art):
    ex = art["exemplars"]["exemplars"]
    dropped = ex[0]["cluster"]
    art["exemplars"]["exemplars"] = [e for e in ex if e["cluster"] != dropped]


def move_exemplar(art):
    art["exemplars"]["exemplars"][0]["x"][0] += 1e-3


def miscount_candidates(art):
    art["exemplars"]["params"]["n_candidates"] += 1


def merge_clusters(art):
    for e in art["exemplars"]["exemplars"]:
        e["cluster"] = 0


def lower_auc(art):
    art["detector"]["meta"]["auc"] = 0.94


def change_ig_error(art):
    art["report"]["ig"]["errors"][0] += 1e-6


def double_p(art):
    art["report"]["ig"]["p_values"]["surrogate"] = 2 * art["report"]["ig"]["p_values"]["surrogate"] + 1e-3


def swap_methods(art):
    ig, sur = art["report"]["ig"], art["report"]["surrogate"]
    ig["errors"], sur["errors"] = sur["errors"], ig["errors"]


TAMPERS = [
    ("one record's score +1e-6", "forward", bump_score),
    ("one record's x shifted", "forward", shift_x),
    ("raw scaled by 1.01", "completeness", scale_raw),
    ("one blame entry changed", "blame", change_blame),
    ("one non_anomalous flag flipped", "flags", flip_flag),
    ("a baseline swapped for a non-exemplar row", "nearest_baseline", swap_baseline),
    ("one mode's exemplars removed", "exemplars", drop_mode),
    ("an exemplar moved off its training row", "exemplars", move_exemplar),
    ("n_candidates off by one", "dbscan_counts", miscount_candidates),
    ("all exemplars relabelled cluster 0", "dbscan_counts", merge_clusters),
    ("held-out AUC set to 0.94", "holdout_auc", lower_auc),
    ("one IG error +1e-6", "ig_errors", change_ig_error),
    ("IG/surrogate p-value changed", "rank_test", double_p),
    ("IG and surrogate errors swapped", "rank_test", swap_methods),
]

SMALL = run.Workload(8, ("--n-normal", "3000", "--n-faults", "300"))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from blamekit import cli

    work = run.OUT / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    runner = run.Runner(cli, work)
    _, order = run.setup(runner, SMALL, seed=0)
    run.pipeline_pass(runner, SMALL, seed=0)
    if runner.failed:
        print("\n".join(runner.log))
        return 1
    clean = checks.load_artifacts(work, order, SMALL.metric, run.mode_centers(SMALL.dims))

    ok = True
    for name, reason in checks.run_checks(clean).items():
        print(f"clean outputs: {name}: {reason or 'pass'}")
        ok &= reason is None
    covered = set()
    for label, target, tamper in TAMPERS:
        art = copy.deepcopy(clean)
        tamper(art)
        reason = checks.run_checks(art)[target]
        print(f"{label:45s} -> {target}: {'FIRED: ' + reason if reason else 'SILENT'}")
        ok &= reason is not None
        covered.add(target)
    missing = set(checks.CHECKS) - covered
    if missing:
        print(f"checks with no tampering: {sorted(missing)}")
    ok &= not missing
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
