"""The batched explain and surrogate against per-row reference loops.

`explain` and `surrogate_attribution` take a matrix of rows and hand the
network blocks of at most `network.ROWS` points, as first-layer
pre-activations on the straight path and in the surrogate. The
references below handle one row at a time with their own input-space
network calls, the way the pipeline did before it was batched. The
inputs span several blocks, so block boundaries are crossed, and one
detector has two hidden layers, so the network's loop over the layers
after the first runs too. The tolerance, 1e-12, allows for BLAS
rounding that depends on where a row sits in a batch; anything
structural (a wrong exemplar, a wrong step count, a row scattered to the
wrong place) is far larger.
"""

import numpy as np
import pytest

from blamekit import TrainConfig, fit_detector, network, select_baseline
from blamekit.attribution import GAP_TOLERANCE, MAX_STEPS, START_STEPS, explain
from blamekit.exemplar import distances
from blamekit import surrogate
from blamekit.surrogate import surrogate_attribution
from conftest import NS_CFG
from helpers import steepened

TOL = 1e-12


def reference_blame(raw):
    total = np.sum(np.abs(raw))
    return np.zeros_like(raw) if total == 0.0 else np.maximum(raw, 0.0) / total


def reference_raw(det, x, x_base, kind, m):
    diff = x_base - x
    if kind == "straight":
        mids = (np.arange(m) + 0.5) / m
        return diff * network.input_gradient_batch(det.model, x + mids[:, None] * diff).mean(axis=0)
    moved = [d for d in np.argsort(-np.abs(diff), kind="stable") if diff[d] != 0.0]
    corners = np.repeat(x[None, :], len(moved) + 1, axis=0)
    for k, d in enumerate(moved):
        corners[k + 1:, d] = x_base[d]
    raw = np.zeros_like(diff)
    raw[moved] = np.diff(network.forward_batch(det.model, corners))
    return raw


def reference_explain(det, ex, x_raw, metric, kind):
    """One row: nearest exemplar, single-row scores, its own doubling."""
    x = det.normalizer.apply(x_raw)
    x_base = ex.points[int(np.argmin(distances(x, ex.points, metric)))]
    fx = network.forward_batch(det.model, x[None])[0]
    fb = network.forward_batch(det.model, x_base[None])[0]
    m = START_STEPS
    while True:
        raw = reference_raw(det, x, x_base, kind, m)
        gap = abs(float(np.sum(raw)) - (fb - fx))
        if gap <= GAP_TOLERANCE or m >= MAX_STEPS:
            break
        m *= 2
    flags = (["non_anomalous"] if fx > 0.5 else []) + (
        ["completeness_gap_above_tolerance"] if gap > GAP_TOLERANCE else [])
    return dict(x=x, baseline=x_base, score=fx, baseline_score=fb, raw=raw,
                blame=reference_blame(raw), gap=gap, m=m, flags=flags)


def reference_surrogate(det, x_norm, seed):
    samples, sigma = surrogate.SAMPLES_PER_DIM * len(x_norm), surrogate.SIGMA
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, sigma, size=(samples, len(x_norm)))
    scores = network.forward_batch(det.model, x_norm + z)
    w = np.exp(-np.sum(z * z, axis=1) / surrogate.KERNEL_WIDTH ** 2)
    design = np.hstack([np.ones((samples, 1)), z])
    a = design.T @ (w[:, None] * design) + 1e-6 * np.eye(len(x_norm) + 1)
    coef = np.linalg.solve(a, design.T @ (w * scores))[1:]
    return reference_blame(np.abs(coef) * sigma)


@pytest.fixture(scope="module")
def deep8(bench8):
    """A briefly trained two-hidden-layer detector on bench8, and its exemplars."""
    _, train, _ = bench8
    det = fit_detector(train, NS_CFG, TrainConfig(learning_rate=0.2, epochs=20,
                                                  batch_size=64, hidden=(12, 7), seed=2))
    return det, select_baseline(det.normalizer.apply(train.values), det,
                                n=5, epsilon=0.1, seed=3)


@pytest.fixture(params=["8d-straight-L2", "8d-deep-straight-L2", "16d-axis-L1"])
def case(request, bench8, det8, ex8, bench16, det16, ex16):
    """bench, detector, exemplars, metric, path kind and the step counts
    the rows end at."""
    if request.param == "8d-straight-L2":
        # det8 meets the gap tolerance at 64 steps on every benchmark row;
        # a steeper copy makes some rows double, so both kinds share a call
        return bench8, steepened(det8, 3.0), ex8, "L2", "straight", {64, 128}
    if request.param == "8d-deep-straight-L2":
        # not steepened: a steeper copy's surrogate blame is too ill-conditioned
        # on some rows for the batched and per-row fits to agree within TOL
        det, ex = request.getfixturevalue("deep8")
        return bench8, det, ex, "L2", "straight", {64}
    return bench16, det16, ex16, "L1", "axis", {START_STEPS}


def test_explain_matches_per_row_loop(case):
    (_, _, test), det, ex, metric, kind, steps_used = case
    x_raw = test.x  # faults and normal rows
    # more rows than one block holds, on the path and in the exemplar lookup
    per_block = network.ROWS // (START_STEPS if kind == "straight" else det.dims + 1)
    assert len(x_raw) > max(per_block, network.ROWS // len(ex))

    batched = explain(det, ex, x_raw, metric=metric, path=kind)
    refs = [reference_explain(det, ex, row, metric, kind) for row in x_raw]
    ref = {key: np.array([r[key] for r in refs]) for key in refs[0] if key != "flags"}
    assert len(batched) == len(x_raw)
    np.testing.assert_array_equal(batched.x, ref["x"])
    np.testing.assert_array_equal(batched.baseline, ref["baseline"])
    assert [r["flags"] for r in batched.records()] == [r["flags"] for r in refs]
    assert batched.path == kind
    np.testing.assert_array_equal(batched.steps, ref["m"])
    for key in ("raw", "blame", "score", "baseline_score", "gap"):
        np.testing.assert_allclose(getattr(batched, key), ref[key], rtol=0, atol=TOL)
    assert set(ref["m"].tolist()) == steps_used


def test_surrogate_matches_per_row_fit(case):
    (_, _, test), det, _, _, _, _ = case
    x_norm = det.normalizer.apply(test.x)
    assert len(x_norm) > network.ROWS // (surrogate.SAMPLES_PER_DIM * det.dims)
    batched = surrogate_attribution(det, x_norm, seed=11)
    assert batched.shape == x_norm.shape
    for b, x in zip(batched, x_norm):
        np.testing.assert_allclose(b, reference_surrogate(det, x, 11), rtol=0, atol=TOL)
