import numpy as np
import pytest

from blamekit.attribution import blame
from blamekit.errors import InputError, ShapeError
from blamekit.surrogate import surrogate_attribution, surrogate_coefficients
from helpers import unit_detector


class TestSurrogate:
    def test_linear_model_recovery(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        det = unit_detector(w)
        x = rng.uniform(size=4)
        coef = surrogate_coefficients(det, x[None], seed=1)[0]
        # local slope of logistic(w.x) is sigma'(w.x) * w, colinear with w
        cos = coef @ w / (np.linalg.norm(coef) * np.linalg.norm(w))
        assert cos >= 0.99

    def test_attribution_matches_gradient_blame(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=3)
        det = unit_detector(w)
        x = rng.uniform(size=3)
        b = surrogate_attribution(det, x[None], seed=3)[0]
        expected = blame(np.abs(w))
        np.testing.assert_allclose(b, expected, atol=0.05)

    def test_wrong_width(self):
        det = unit_detector(np.ones(3))
        with pytest.raises(ShapeError):
            surrogate_coefficients(det, np.full((2, 4), 0.5))

    def test_non_finite_row(self):
        det = unit_detector(np.ones(3))
        x = np.full((2, 3), 0.5)
        x[1, 2] = np.inf
        with pytest.raises(InputError):
            surrogate_coefficients(det, x)

    def test_deterministic(self):
        det = unit_detector(np.array([1.0, -2.0]))
        x = np.array([[0.3, 0.7]])
        np.testing.assert_array_equal(surrogate_attribution(det, x, seed=9),
                                      surrogate_attribution(det, x, seed=9))

    def test_codomain(self):
        det = unit_detector(np.array([2.0, -1.0, 0.5]))
        b = surrogate_attribution(det, np.full((1, 3), 0.4), seed=4)
        assert np.all(b >= 0.0) and b.sum() <= 1.0 + 1e-12
