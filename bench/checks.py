"""Output checks that do not call blamekit for the quantity they check.

`load_artifacts()` reads one pipeline pass's files into plain dicts and
arrays; each `check_*` function takes that dict and raises `CheckFailed`
with a reason when the outputs are wrong. The forward pass, the
normalization, the distances, the DBSCAN core/component counts and the
rank test are all recomputed here with numpy and scipy.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.stats import mannwhitneyu

SCORE_TOL = 1e-9
GAP_TOL = 1e-3
EXACT_TOL = 1e-12
MIN_AUC = 0.95
ALPHA = 0.05


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, values


def load_artifacts(workdir, order, metric: str, mode_centers: np.ndarray) -> dict:
    """Everything the checks read, from the files of the last pipeline pass.

    `order[j]` is the test.csv row written as row j of the explain input.
    `mode_centers` are the generating modes of the synthetic data, in raw
    units.
    """
    workdir = Path(workdir)
    header, train = _read_csv(workdir / "train.csv")
    header, test = _read_csv(workdir / "test.csv")
    label = header.index("label")
    with open(workdir / "explanations.jsonl", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return {
        "detector": json.loads((workdir / "detector.json").read_text()),
        "exemplars": json.loads((workdir / "exemplars.json").read_text()),
        "report": {r["method"]: r for r in json.loads((workdir / "report.json").read_text())},
        "records": records,
        "train": train,
        "test_x": test[:, :label],
        "test_label": test[:, label],
        "test_beta": test[:, label + 1:],
        "order": np.asarray(order),
        "metric": metric,
        "mode_centers": np.asarray(mode_centers, dtype=float),
    }


# -- independent re-implementations -----------------------------------------


def normalize(det: dict, x_raw: np.ndarray) -> np.ndarray:
    lo = np.array(det["normalizer"]["min"])
    span = np.array(det["normalizer"]["max"]) - lo
    y = np.clip((x_raw - lo) / np.where(span > 0, span, 1.0), 0.0, 1.0)
    return np.where(span > 0, y, 0.5)


def score(det: dict, x_norm: np.ndarray) -> np.ndarray:
    """The detector's forward pass, straight from detector.json."""
    a = np.atleast_2d(x_norm)
    for layer in det["model"]["layers"]:
        z = a @ np.array(layer["w"]) + np.array(layer["b"])
        if layer["act"] == "tanh":
            a = np.tanh(z)
        elif layer["act"] == "logistic":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            raise CheckFailed(f"unknown activation {layer['act']!r}")
    return a[:, 0]


def distances(points: np.ndarray, x: np.ndarray, metric: str) -> np.ndarray:
    diff = points - x
    if metric == "L1":
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def core_components(points: np.ndarray, eps: float, min_pts: int) -> tuple[np.ndarray, np.ndarray]:
    """DBSCAN core points and their eps-connected components.

    Returns (is_core, component id per point, -1 for non-core). Neighbour
    counts come from a k-d tree; components from a breadth-first search
    that compares each frontier block only with still-unreached cores.
    """
    counts = cKDTree(points).query_ball_point(points, eps, return_length=True)
    is_core = counts >= min_pts
    core = np.flatnonzero(is_core)
    comp = np.full(len(points), -1)
    unreached = np.ones(len(core), dtype=bool)
    n_comp = 0
    eps2 = eps * eps
    while unreached.any():
        start = int(np.flatnonzero(unreached)[0])
        unreached[start] = False
        frontier = np.array([start])
        comp[core[start]] = n_comp
        while len(frontier):
            reached = []
            for lo in range(0, len(frontier), 64):
                cand = np.flatnonzero(unreached)
                if not len(cand):
                    break
                block = points[core[frontier[lo:lo + 64]]]
                d2 = ((points[core[cand]][None, :, :] - block[:, None, :]) ** 2).sum(axis=2)
                hit = cand[(d2 <= eps2).any(axis=0)]
                unreached[hit] = False
                reached.append(hit)
            frontier = np.concatenate(reached) if reached else np.array([], dtype=int)
            comp[core[frontier]] = n_comp
        n_comp += 1
    return is_core, comp


# -- checks -------------------------------------------------------------------


def _explained(art: dict):
    """Normalized inputs, own scores of x and of the baseline, per record."""
    records, det = art["records"], art["detector"]
    _require(len(records) == len(art["order"]),
             f"{len(records)} explanations for {len(art['order'])} input rows")
    x = normalize(det, art["test_x"][art["order"]])
    base = np.array([r["baseline"] for r in records])
    return x, score(det, x), score(det, base), base


def check_forward(art: dict) -> None:
    """score and baseline_score match an own forward pass; x is the normalized row."""
    x, fx, fb, _ = _explained(art)
    rec_x = np.array([r["x"] for r in art["records"]])
    _require(np.abs(rec_x - x).max() <= EXACT_TOL, "record x is not the normalized input row")
    err = max(np.abs(np.array([r["score"] for r in art["records"]]) - fx).max(),
              np.abs(np.array([r["baseline_score"] for r in art["records"]]) - fb).max())
    _require(err <= SCORE_TOL, f"score differs from own forward pass by {err:.3g}")


def check_completeness(art: dict) -> None:
    _, fx, fb, _ = _explained(art)
    raw_sum = np.array([sum(r["raw"]) for r in art["records"]])
    gap = np.abs(raw_sum - (fb - fx)).max()
    _require(gap <= GAP_TOL, f"completeness gap {gap:.3g} > {GAP_TOL}")


def check_blame(art: dict) -> None:
    for i, r in enumerate(art["records"]):
        raw, b = np.array(r["raw"]), np.array(r["blame"])
        total = np.abs(raw).sum()
        want = np.maximum(raw, 0.0) / total if total > 0 else np.zeros_like(raw)
        _require(np.abs(b - want).max() <= EXACT_TOL, f"record {i}: blame != max(raw,0)/sum|raw|")
        _require(b.min() >= 0.0 and b.max() <= 1.0 and b.sum() <= 1.0 + EXACT_TOL,
                 f"record {i}: blame outside [0,1] or sums above 1")


def check_flags(art: dict) -> None:
    _, fx, _, _ = _explained(art)
    flagged = np.array(["non_anomalous" in r["flags"] for r in art["records"]])
    bad = np.flatnonzero(flagged != (fx > 0.5))
    _require(not len(bad), f"non_anomalous flag wrong on {len(bad)} records")


def check_nearest_baseline(art: dict) -> None:
    points = np.array([e["x"] for e in art["exemplars"]["exemplars"]])
    x, _, _, base = _explained(art)
    for i in range(len(x)):
        d = distances(points, x[i], art["metric"])
        own = distances(base[i][None, :], x[i], art["metric"])[0]
        is_exemplar = np.abs(points - base[i]).max(axis=1).min() <= EXACT_TOL
        _require(is_exemplar and own <= d.min() + EXACT_TOL,
                 f"record {i}: baseline is not the nearest exemplar under {art['metric']}")


def check_exemplars(art: dict) -> None:
    """Exemplars are high-scoring training rows, at most n per cluster, every mode covered."""
    det, ex = art["detector"], art["exemplars"]
    params = ex["params"]
    points = np.array([e["x"] for e in ex["exemplars"]])
    _require(len(points), "exemplar set is empty")
    train_norm = normalize(det, art["train"])
    dist, _ = cKDTree(train_norm).query(points)
    _require(dist.max() <= EXACT_TOL, "an exemplar is not a normalized training row")
    low = score(det, points).min()
    _require(low > 1.0 - params["epsilon"], f"an exemplar scores {low:.4f} <= 1 - epsilon")
    _, per_cluster = np.unique([e["cluster"] for e in ex["exemplars"]], return_counts=True)
    _require(per_cluster.max() <= params["n"], "a cluster gives more than n exemplars")
    lo = np.array(det["normalizer"]["min"])
    raw = lo + points * (np.array(det["normalizer"]["max"]) - lo)
    centers = art["mode_centers"]
    nearest_mode = np.argmin(((raw[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1)
    missing = sorted(set(range(len(centers))) - set(nearest_mode.tolist()))
    _require(not missing, f"no exemplar from generating mode(s) {missing}")


def check_dbscan_counts(art: dict) -> None:
    """n_candidates and the cluster count match an own core/component count."""
    det, ex = art["detector"], art["exemplars"]
    params = ex["params"]
    train_norm = normalize(det, art["train"])
    candidates = train_norm[score(det, train_norm) > 1.0 - params["epsilon"]]
    _require(params["n_candidates"] == len(candidates),
             f"n_candidates {params['n_candidates']} != own count {len(candidates)}")
    is_core, comp = core_components(candidates, params["dbscan_eps"], params["dbscan_min_pts"])
    n_comp = int(comp.max()) + 1
    labels = sorted({e["cluster"] for e in ex["exemplars"]})
    if n_comp == 0:
        _require(params["fallback_single_cluster"] and labels == [0],
                 "no core points, but no single-cluster fallback")
        return
    _require(labels == list(range(n_comp)),
             f"exemplar clusters {labels}, own component count {n_comp}")
    # exemplars that are core points must be labelled consistently with components
    pairs = set()
    for e in ex["exemplars"]:
        i = int(np.argmin(np.abs(candidates - np.array(e["x"])).max(axis=1)))
        if is_core[i]:
            pairs.add((e["cluster"], int(comp[i])))
    _require(len({c for c, _ in pairs}) == len(pairs) == len({k for _, k in pairs}),
             "exemplar cluster labels split or merge DBSCAN components")


def check_holdout_auc(art: dict) -> None:
    auc = art["detector"]["meta"]["auc"]
    _require(auc is not None and auc >= MIN_AUC, f"held-out AUC {auc} < {MIN_AUC}")


def check_ig_errors(art: dict) -> None:
    """Each per-row IG error equals mean|blame - beta| from the explain output."""
    blame_of_test_row = {int(t): np.array(r["blame"]) for t, r in zip(art["order"], art["records"])}
    anomalous = np.flatnonzero(art["test_label"] == 1.0)
    errors = art["report"]["ig"]["errors"]
    _require(len(errors) == len(anomalous), f"{len(errors)} IG errors for {len(anomalous)} faults")
    want = [np.abs(blame_of_test_row[int(t)] - art["test_beta"][t]).mean() for t in anomalous]
    worst = np.abs(np.array(errors) - np.array(want)).max()
    _require(worst <= EXACT_TOL, f"IG error differs from recomputed value by {worst:.3g}")


def check_rank_test(art: dict) -> None:
    """IG beats the surrogate, and the p-value matches scipy's Mann-Whitney U."""
    ig, sur = art["report"]["ig"], art["report"]["surrogate"]
    _require(np.mean(ig["errors"]) < np.mean(sur["errors"]),
             "IG mean error is not below the surrogate's")
    want = mannwhitneyu(ig["errors"], sur["errors"], use_continuity=True,
                        alternative="two-sided", method="asymptotic").pvalue
    got = ig["p_values"]["surrogate"]
    _require(abs(got - want) <= 1e-9 + 1e-6 * want, f"p-value {got:.6g} != scipy {want:.6g}")
    _require(got < ALPHA, f"p-value {got:.3g} >= {ALPHA}")


CHECKS = {
    "forward": check_forward,
    "completeness": check_completeness,
    "blame": check_blame,
    "flags": check_flags,
    "nearest_baseline": check_nearest_baseline,
    "exemplars": check_exemplars,
    "dbscan_counts": check_dbscan_counts,
    "holdout_auc": check_holdout_auc,
    "ig_errors": check_ig_errors,
    "rank_test": check_rank_test,
}


def run_checks(art: dict | None, load_error: str | None = None) -> dict:
    """Name -> None when the check passed, else the reason it failed."""
    results = {}
    for name, check in CHECKS.items():
        if art is None:
            results[name] = f"artifacts unreadable: {load_error}"
            continue
        try:
            check(art)
            results[name] = None
        except CheckFailed as exc:
            results[name] = str(exc)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            results[name] = f"{type(exc).__name__}: {exc}"
    return results
