import json
import warnings

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

    def test_logistic_matches_clipped_form_bitwise(self):
        # one-sided clamp: above 500, 1 + exp(-z) rounds to exactly 1.0
        z = np.concatenate([np.linspace(-800.0, 800.0, 6401),
                            [-np.inf, -1e3, -500.0, 500.0, 1e3, np.inf, -0.0, 5e-324]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = network.logistic(z)
        assert np.array_equal(got, 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))))

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


def with_hidden_acts(model, acts):
    for layer, act in zip(model.layers, acts):
        layer.act = act
    return model


HIDDEN_CASES = {"tanh": ((5,), ("tanh",)),
                "logistic": ((5,), ("logistic",)),
                "two-layer": ((5, 4), ("tanh", "logistic"))}


class TestParameterGradient:
    @pytest.mark.parametrize("case", HIDDEN_CASES)
    def test_sgd_update_matches_finite_differences(self, case):
        # one step moves each parameter by -lr * dL/dparam, L = mean_bce
        hidden, acts = HIDDEN_CASES[case]
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 2, size=(9, 3))
        y = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0])
        model = with_hidden_acts(init_network(3, hidden, seed=4), acts)
        lr, h = 1e-3, 1e-6
        stepped = model.copy()
        network._sgd_step(stepped, x, y, lr)
        for before, after in zip(model.layers, stepped.layers):
            for name in ("w", "b"):
                param = getattr(before, name)
                grad = (param - getattr(after, name)) / lr
                fd = np.zeros_like(param)
                for k in np.ndindex(param.shape):
                    saved = param[k]
                    param[k] = saved + h
                    up = network.mean_bce(model, x, y)
                    param[k] = saved - h
                    dn = network.mean_bce(model, x, y)
                    param[k] = saved
                    fd[k] = (up - dn) / (2 * h)
                assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(fd))


def reference_train(model, x, y, cfg):
    """Plain mini-batch SGD: a gather per step, the clipped logistic, an
    lr product per update, each hidden delta through the derivative of
    the activation that produced it."""
    model = model.copy()

    def act(z, tag):
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0))) if tag == "logistic" else np.tanh(z)

    def deriv(a, tag):
        return a * (1.0 - a) if tag == "logistic" else 1.0 - a * a

    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(x), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            acts = [xb]
            for layer in model.layers:
                acts.append(act(acts[-1] @ layer.w + layer.b, layer.act))
            delta = (acts[-1][:, 0] - yb)[:, None] / len(yb)
            for i in range(len(model.layers) - 1, -1, -1):
                layer = model.layers[i]
                gw, gb = acts[i].T @ delta, delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ layer.w.T) * deriv(acts[i], model.layers[i - 1].act)
                layer.w -= cfg.learning_rate * gw
                layer.b -= cfg.learning_rate * gb
    return model


class TestTrainParity:
    def test_matches_per_step_reference(self):
        # n is a multiple of neither the batch size nor the gathered chunk
        cfg = TrainConfig(0.3, 3, 48, (6, 5), seed=7)
        n = 1100
        assert n % cfg.batch_size and n % (cfg.batch_size * (network.ROWS // cfg.batch_size))
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(n, 4))
        y = (x[:, 0] + x[:, 1] > 1.0).astype(float)
        x0, y0 = x.copy(), y.copy()
        model = with_hidden_acts(init_network(4, cfg.hidden, seed=7), ("logistic", "tanh"))
        fitted = train(model, x, y, cfg)
        ref = reference_train(model, x, y, cfg)
        assert np.array_equal(x, x0) and np.array_equal(y, y0)
        for got, want in zip(fitted.layers, ref.layers):
            np.testing.assert_allclose(got.w, want.w, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.b, want.b, rtol=0, atol=1e-12)
        assert not np.array_equal(fitted.layers[0].w, model.layers[0].w)


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
