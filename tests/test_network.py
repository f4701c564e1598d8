import json

import numpy as np
import pytest

from blamekit import network
from blamekit.errors import InputError, NumericError, ShapeError, TrainingError
from blamekit.network import (
    Layer,
    NetworkModel,
    TrainConfig,
    forward,
    init_network,
    train,
)


def single_unit(w, b=0.0):
    w = np.asarray(w, dtype=float)
    return NetworkModel(len(w), [Layer(w[:, None], np.array([b]), "logistic")])


def zero_net(dims=3):
    return single_unit(np.zeros(dims))


def finite_diff(model, x, h=1e-5):
    g = np.zeros_like(x)
    for d in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[d] += h
        dn[d] -= h
        g[d] = (forward(model, up) - forward(model, dn)) / (2 * h)
    return g


def input_gradient(model, x):
    return network.input_gradient_batch(model, x[None])[0]


class TestForward:
    def test_zero_network_scores_half(self):
        assert forward(zero_net(), np.array([1.0, -2.0, 7.0])) == 0.5

    def test_single_unit_closed_form(self):
        model = single_unit([1.0, -1.0])
        score = forward(model, np.array([0.3, 0.1]))
        assert score == pytest.approx(1.0 / (1.0 + np.exp(-0.2)), abs=1e-12)
        assert score == pytest.approx(0.549834, abs=1e-6)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            forward(zero_net(3), np.zeros(4))

    def test_non_finite_input(self):
        with pytest.raises(InputError):
            forward(zero_net(3), np.array([0.0, np.nan, 0.0]))

    def test_pure(self):
        model = init_network(4, (8,), seed=9)
        x = np.array([0.1, 0.9, 0.4, 0.2])
        assert forward(model, x) == forward(model, x)

    def test_score_in_open_interval(self):
        model = init_network(4, (8,), seed=9)
        rng = np.random.default_rng(0)
        scores = network.forward_batch(model, rng.uniform(-5, 5, size=(50, 4)))
        assert np.all((scores > 0.0) & (scores < 1.0))


class TestInputGradient:
    def test_zero_network_zero_gradient(self):
        assert np.array_equal(input_gradient(zero_net(), np.array([1.0, 2.0, 3.0])),
                              np.zeros(3))

    def test_single_unit_closed_form(self):
        model = single_unit([1.0, -1.0])
        g = input_gradient(model, np.array([0.3, 0.1]))
        s = 1.0 / (1.0 + np.exp(-0.2))
        expected = s * (1 - s) * np.array([1.0, -1.0])
        np.testing.assert_allclose(g, expected, atol=1e-12)
        np.testing.assert_allclose(g, [0.247517, -0.247517], atol=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        dims = int(rng.integers(2, 9))
        hidden = tuple(rng.integers(3, 12, size=rng.integers(1, 3)))
        model = init_network(dims, hidden, seed=seed)
        x = rng.uniform(-1, 2, size=dims)
        g = input_gradient(model, x)
        fd = finite_diff(model, x)
        for gd, fdd in zip(g, fd):
            if abs(gd) < 1e-3:
                assert abs(gd - fdd) <= 1e-7
            else:
                assert abs(gd - fdd) / abs(gd) <= 1e-4


def blobs(n=200, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal([-1.0, -1.0], 0.3, size=(n // 2, 2))
    b = rng.normal([1.0, 1.0], 0.3, size=(n // 2, 2))
    x = np.vstack([a, b])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return x, y


class TestTrain:
    def test_separable_blobs(self):
        x, y = blobs(200, seed=0)
        x_hold, y_hold = blobs(100, seed=1)
        model = init_network(2, (8,), seed=0)
        fitted = train(model, x, y, TrainConfig(0.5, 100, 32, (8,), seed=0))
        acc = np.mean((network.forward_batch(fitted, x_hold) > 0.5) == y_hold)
        assert acc >= 0.95
        assert network.mean_bce(fitted, x, y) < network.mean_bce(model, x, y)

    def test_zero_epochs_is_identity(self):
        x, y = blobs(40)
        model = init_network(2, (4,), seed=3)
        out = train(model, x, y, TrainConfig(0.1, 0, 16, (4,), seed=3))
        for la, lb in zip(model.layers, out.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_same_seed_bitwise_identical(self):
        x, y = blobs(60)
        cfg = TrainConfig(0.2, 10, 16, (4,), seed=5)
        a = train(init_network(2, (4,), seed=5), x, y, cfg)
        b = train(init_network(2, (4,), seed=5), x, y, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_single_class_rejected(self):
        x, _ = blobs(40)
        with pytest.raises(TrainingError):
            train(init_network(2, (4,), seed=0), x, np.ones(len(x)),
                  TrainConfig(0.1, 5, 16, (4,), seed=0))

    def test_non_finite_loss_raises_numeric_error(self):
        x, y = blobs(40)
        model = init_network(2, (4,), seed=0)
        model.layers[0].w[0, 0] = np.nan
        with pytest.raises(NumericError):
            train(model, x, y, TrainConfig(0.1, 5, 16, (4,), seed=0))

    def test_loss_monotone_full_batch_small_lr(self):
        # fixed batch order (full batch) + small step: loss never goes up
        x, y = blobs(80, seed=2)
        model = init_network(2, (4,), seed=2)
        cfg = TrainConfig(0.01, 1, len(x), (4,), seed=2)
        losses = [network.mean_bce(model, x, y)]
        for _ in range(30):
            model = train(model, x, y, cfg)
            losses.append(network.mean_bce(model, x, y))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestSerialization:
    def test_json_round_trip(self):
        model = init_network(3, (5, 4), seed=7)
        clone = NetworkModel.from_dict(json.loads(json.dumps(model.to_dict())))
        x = np.array([0.2, 0.8, 0.5])
        assert forward(model, x) == forward(clone, x)
        for la, lb in zip(model.layers, clone.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)
            assert la.act == lb.act

    def test_bad_final_activation_rejected(self):
        with pytest.raises(ValueError):
            NetworkModel(2, [Layer(np.zeros((2, 1)), np.zeros(1), "tanh")])

    def test_chained_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            NetworkModel(2, [
                Layer(np.zeros((2, 3)), np.zeros(3), "tanh"),
                Layer(np.zeros((4, 1)), np.zeros(1), "logistic"),
            ])
