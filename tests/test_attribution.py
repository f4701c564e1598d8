import numpy as np
import pytest
from hypothesis import given, strategies as st

from blamekit.attribution import (
    START_STEPS,
    PathSpec,
    blame,
    check_desiderata,
    completeness_gap,
    explain,
    integrated_gradients,
)
from blamekit import network
from blamekit.errors import InputError, ShapeError
from helpers import logistic_unit_ig_closed_form, unit_detector


class TestIntegratedGradients:
    def test_zero_displacement(self):
        det = unit_detector([1.0, 2.0])
        x = np.array([0.3, 0.4])
        for kind in ("straight", "axis"):
            raw = integrated_gradients(det, x[None], x[None], PathSpec(kind, 64))[0]
            np.testing.assert_array_equal(raw, np.zeros(2))

    @pytest.mark.parametrize("seed", range(5))
    def test_logistic_unit_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        dims = 4
        w = rng.normal(size=dims)
        b = float(rng.normal())
        det = unit_detector(w, b)
        x, xb = rng.uniform(size=dims), rng.uniform(size=dims)
        raw = integrated_gradients(det, x[None], xb[None], PathSpec("straight", 2048))[0]
        np.testing.assert_allclose(raw, logistic_unit_ig_closed_form(w, b, x, xb),
                                   atol=1e-6)

    def test_completeness_gap_shrinks_with_steps(self, det16, ex16, anomalies16):
        x = det16.normalizer.apply(anomalies16[0].x)
        xb = ex16.points[0]
        gaps = []
        for m in (256, 512, 1024, 2048):
            raw = integrated_gradients(det16, x[None], xb[None], PathSpec("straight", m))
            gaps.append(completeness_gap(det16, x[None], xb[None], raw)[0])
        assert gaps[-1] <= 1e-3
        assert gaps[-1] <= gaps[0]

    def test_l1_and_l2_paths_agree_in_linear_regime(self):
        # near-zero weights keep the logistic in its linear range, where
        # the attribution is path independent
        rng = np.random.default_rng(1)
        w = rng.normal(size=5) * 1e-3
        det = unit_detector(w)
        x, xb = rng.uniform(size=5), rng.uniform(size=5)
        straight = integrated_gradients(det, x[None], xb[None], PathSpec("straight", 512))
        axis = integrated_gradients(det, x[None], xb[None], PathSpec("axis", 512))
        np.testing.assert_allclose(straight, axis, atol=1e-6)

    def test_axis_path_is_complete(self, det16, ex16, anomalies16):
        x = det16.normalizer.apply(anomalies16[1].x)
        xb = ex16.points[0]
        raw = integrated_gradients(det16, x[None], xb[None], PathSpec("axis", 2048))
        assert completeness_gap(det16, x[None], xb[None], raw)[0] <= 1e-3

    def test_width_mismatch(self):
        det = unit_detector([1.0, 1.0])
        with pytest.raises(ShapeError):
            integrated_gradients(det, np.zeros((1, 2)), np.zeros((1, 3)), PathSpec())


def staircase_quadrature(det, x, xb, m):
    """Midpoint rule along the axis path, one segment per displaced
    dimension in descending |displacement| order (lower index first)."""
    diff = xb - x
    order = sorted(range(len(x)), key=lambda d: (-abs(diff[d]), d))
    mids = (np.arange(m) + 0.5) / m
    raw = np.zeros_like(x)
    start = x.copy()
    for d in order:
        if diff[d] == 0.0:
            continue
        pts = np.repeat(start[None, :], m, axis=0)
        pts[:, d] += mids * diff[d]
        raw[d] = diff[d] * network.input_gradient_batch(det.model, pts)[:, d].mean()
        start[d] = xb[d]
    return raw


class TestExactAxisPath:
    def pairs(self, det16, ex16, anomalies16, n=20):
        for k, t in enumerate(anomalies16[:n]):
            yield det16.normalizer.apply(t.x), ex16.points[k % len(ex16)]

    def test_matches_dense_quadrature(self, det16, ex16, anomalies16):
        n = 0
        for x, xb in self.pairs(det16, ex16, anomalies16):
            raw = integrated_gradients(det16, x[None], xb[None], PathSpec("axis", 1))[0]
            np.testing.assert_allclose(raw, staircase_quadrature(det16, x, xb, 16384),
                                       rtol=0, atol=1e-6)
            n += 1
        assert n >= 20

    def test_sum_is_score_difference(self, det16, ex16, anomalies16):
        for x, xb in self.pairs(det16, ex16, anomalies16):
            raw = integrated_gradients(det16, x[None], xb[None], PathSpec("axis", 1))[0]
            fx, fb = network.forward(det16.model, x), network.forward(det16.model, xb)
            assert abs(raw.sum() - (fb - fx)) <= 1e-12

    def test_zero_weight_dimension_is_exactly_zero(self, det16, ex16, anomalies16):
        det = unit_detector([1.0, 0.0, -1.0])
        x, xb = np.array([0.1, 0.9, 0.2]), np.array([0.7, 0.1, 0.6])
        raw = integrated_gradients(det, x[None], xb[None], PathSpec("axis", 1))[0]
        assert raw[1] == 0.0
        assert raw[0] != 0.0 and raw[2] != 0.0
        # a dimension a row does not move gets exactly 0.0 too, wherever
        # the row sits in a batch that spans several network calls
        x = det16.normalizer.apply(np.array([a.x for a in anomalies16[:300]]))
        xb = ex16.points[np.arange(300) % len(ex16)]
        x[:, 3] = xb[:, 3]
        raw = integrated_gradients(det16, x, xb, PathSpec("axis", 1))
        assert np.all(raw[:, 3] == 0.0)
        assert np.all(np.abs(raw).sum(axis=1) > 0.0)

    def test_logistic_unit_segments(self):
        w, b = np.array([1.5, -2.0, 0.5]), 0.3
        det = unit_detector(w, b)
        x, xb = np.array([0.1, 0.9, 0.4]), np.array([0.6, 0.2, 0.3])
        # |displacement| is 0.5, 0.7, 0.1: dimension 1 moves first, then 0, then 2
        p0 = np.array([0.1, 0.9, 0.4])
        p1 = np.array([0.1, 0.2, 0.4])
        p2 = np.array([0.6, 0.2, 0.4])
        p3 = np.array([0.6, 0.2, 0.3])
        f = [network.logistic(w @ p + b) for p in (p0, p1, p2, p3)]
        expected = np.array([f[2] - f[1], f[1] - f[0], f[3] - f[2]])
        raw = integrated_gradients(det, x[None], xb[None], PathSpec("axis", 1))[0]
        np.testing.assert_allclose(raw, expected, rtol=0, atol=1e-15)

    def test_explain_stops_at_first_pass(self, det16, ex16, anomalies16):
        e = explain(det16, ex16, anomalies16[0].x[None], metric="L1", path="axis")[0]
        assert e.path.steps == START_STEPS
        assert e.gap <= 1e-12


class TestBlame:
    def test_mixed_signs(self):
        np.testing.assert_allclose(blame(np.array([0.6, -0.2, 0.2])),
                                   [0.6, 0.0, 0.2])

    def test_zero_vector(self):
        np.testing.assert_array_equal(blame(np.zeros(3)), np.zeros(3))

    def test_uniform_positive(self):
        np.testing.assert_allclose(blame(np.array([2.0, 2.0])), [0.5, 0.5])

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            blame(np.array([1.0, np.nan]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=8))
    def test_codomain_constraints(self, raw):
        b = blame(np.array(raw))
        assert np.all(b >= 0.0) and np.all(b <= 1.0)
        assert b.sum() <= 1.0 + 1e-12


class TestExplain:
    def test_fault_dimension_gets_max_blame(self, det16, ex16, anomalies16):
        single = next(t for t in anomalies16 if np.isclose(t.beta.max(), 1.0))
        e = explain(det16, ex16, single.x[None])[0]
        assert single.beta[np.argmax(e.blame)] == 1.0

    def test_observation_equal_to_exemplar(self, det16, ex16, anomalies16):
        # rows equal to an exemplar, between anomalies in the same call
        norm = det16.normalizer
        on_exemplar = norm.lo + ex16.points[[0, 1]] * (norm.hi - norm.lo)
        rows = np.array([anomalies16[0].x, on_exemplar[0], anomalies16[1].x, on_exemplar[1]])
        for metric, path in (("L2", "straight"), ("L1", "axis")):
            es = explain(det16, ex16, rows, metric=metric, path=path)
            for e in (es[1], es[3]):
                np.testing.assert_array_equal(e.blame, np.zeros(det16.dims))
                assert e.gap == 0.0
            assert es[0].blame.sum() > 0.0 and es[2].blame.sum() > 0.0

    def test_non_anomalous_flagged(self, bench16, det16, ex16):
        cfg, _, _ = bench16
        e = explain(det16, ex16, cfg.modes[0].center[None])[0]
        assert "non_anomalous" in e.flags

    def test_adaptive_steps_bound_gap(self, det16, ex16, anomalies16):
        e = explain(det16, ex16, anomalies16[2].x[None])[0]
        assert e.gap <= 1e-3 or e.path.steps >= 2 ** 16

    def test_straight_path_starts_small(self, det16, ex16, anomalies16):
        # the doubling loop meets the tolerance from a small start, so
        # the straight path needs no large user-set step count; one call
        # holds rows that stop at the first pass and rows that double
        es = explain(det16, ex16, np.array([a.x for a in anomalies16[:50]]))
        assert {e.path.steps for e in es} == {64, 128}
        for e in es:
            assert e.gap <= 1e-3

    def test_json_fields(self, det16, ex16, anomalies16):
        e = explain(det16, ex16, anomalies16[0].x[None])[0]
        d = e.to_dict()
        for key in ("x", "baseline", "score", "baseline_score", "raw",
                    "blame", "gap", "metric", "path", "flags"):
            assert key in d
        assert d["path"]["kind"] == "straight"


class TestDesiderata:
    def test_linear_ordering_and_proportionality(self):
        det = unit_detector([2.0, 1.0])
        x, xb = np.array([0.0, 0.0]), np.array([0.5, 0.5])
        raw = integrated_gradients(det, x[None], xb[None], PathSpec("straight", 1024))[0]
        assert raw[0] > raw[1]
        report = check_desiderata(det, x, xb, raw)
        assert report["proportionality_pass_ratio"] >= 0.95

    def test_dummy_dimension(self):
        det = unit_detector([1.0, 0.0, -1.0])
        x, xb = np.array([0.1, 0.9, 0.2]), np.array([0.7, 0.1, 0.6])
        raw = integrated_gradients(det, x[None], xb[None], PathSpec("straight", 1024))[0]
        assert raw[1] == 0.0
        report = check_desiderata(det, x, xb, raw)
        assert report["sensitivity"][1] is True

    def test_zero_path_zero_gap(self):
        det = unit_detector([1.0, 1.0])
        x = np.array([0.4, 0.6])
        raw = integrated_gradients(det, x[None], x[None], PathSpec("straight", 64))[0]
        report = check_desiderata(det, x, x, raw)
        assert report["completeness_gap"] == 0.0

    def test_contrastive_on_fixture(self, det16, ex16, anomalies16):
        single = next(t for t in anomalies16 if np.isclose(t.beta.max(), 1.0))
        e = explain(det16, ex16, single.x[None])[0]
        report = check_desiderata(det16, e.x, e.baseline, e.raw)
        assert report["contrastive"] is True


class TestEquivalentAttributions:
    def test_nearby_baselines_give_close_attributions(self, det16, ex16, anomalies16):
        # small baseline perturbations barely move the attribution vector
        x = det16.normalizer.apply(anomalies16[0].x)
        c = ex16.points[0]
        rng = np.random.default_rng(0)
        base = integrated_gradients(det16, x[None], c[None], PathSpec("straight", 2048))[0]
        diffs = []
        for delta in (0.05, 0.002):
            u = rng.normal(size=len(c))
            u /= np.linalg.norm(u)
            other = integrated_gradients(det16, x[None], (c + delta * u)[None],
                                         PathSpec("straight", 2048))[0]
            diffs.append(np.max(np.abs(base - other)))
        assert diffs[1] < diffs[0]
