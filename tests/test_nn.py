import copy
import math

import numpy as np
import pytest

from dipmix import (
    Batch,
    ConfigurationError,
    MixConfig,
    NumericError,
    OptimState,
    ShapeError,
    backward,
    forward,
    gen_spirals,
    load_model,
    mlp_init,
    save_model,
    sgd_step,
    softmax_xent,
    train,
)
from dipmix.nn import ModelParams, from_dict, to_dict


def flatten_grads(grads):
    return np.concatenate([g.ravel() for g in grads.weights + grads.biases])


def fd_param_grads(loss_fn, params, eps=1e-5):
    """Central finite differences through every weight and bias entry."""
    out = []
    for arrs in (params.weights, params.biases):
        for arr in arrs:
            g = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + eps
                hi = loss_fn(params)
                arr[idx] = orig - eps
                lo = loss_fn(params)
                arr[idx] = orig
                g[idx] = (hi - lo) / (2 * eps)
            out.append(g)
    return np.concatenate([g.ravel() for g in out])


def max_rel_err(a, b, floor=1e-6):
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)))


class TestInit:
    def test_shapes_and_determinism(self):
        p = mlp_init([2, 8, 2], "relu", seed=42)
        assert [w.shape for w in p.weights] == [(2, 8), (8, 2)]
        assert [b.shape for b in p.biases] == [(8,), (2,)]
        q = mlp_init([2, 8, 2], "relu", seed=42)
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
        assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))

    def test_degenerate_architecture(self):
        with pytest.raises(ConfigurationError):
            mlp_init([2], "relu", seed=0)
        with pytest.raises(ConfigurationError):
            mlp_init([2, 0, 2], "relu", seed=0)
        for sizes in ([2, -1, 2], [2, 2.5, 2]):  # would fail inside the weight draws
            with pytest.raises(ConfigurationError):
                mlp_init(sizes, "relu", seed=0)
        with pytest.raises(ConfigurationError):
            mlp_init([2, 4, 2], "sigmoid", seed=0)

    def test_biases_start_zero(self):
        p = mlp_init([2, 16, 16, 3], "tanh", seed=7)
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_model_params_shape_validation(self):
        with pytest.raises(ShapeError):
            ModelParams([2, 3], [np.zeros((2, 4))], [np.zeros(3)])
        with pytest.raises(NumericError):
            ModelParams([2, 3], [np.full((2, 3), np.nan)], [np.zeros(3)])


class TestForward:
    def test_zero_params_zero_logits(self):
        p = ModelParams([3, 4, 2], [np.zeros((3, 4)), np.zeros((4, 2))],
                        [np.zeros(4), np.zeros(2)], "relu")
        x = np.random.default_rng(0).normal(size=(5, 3))
        assert np.all(forward(p, x) == 0.0)

    def test_hand_computed_relu_net(self):
        # x=(1,0): z1 = (1.5, -2) -> relu (1.5, 0); logits = (1.5, 1*2 + 0*1) + (0,1) = (1.5, 4)
        w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
        b1 = np.array([0.5, -1.0])
        w2 = np.array([[1.0, 2.0], [-1.0, 1.0]])
        b2 = np.array([0.0, 1.0])
        p = ModelParams([2, 2, 2], [w1, w2], [b1, b2], "relu")
        logits = forward(p, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(logits, [[1.5, 4.0]], atol=1e-15)

    def test_purity_identical_rows(self):
        p = mlp_init([3, 6, 4], "relu", seed=2)
        x = np.tile(np.random.default_rng(1).normal(size=(1, 3)), (4, 1))
        logits = forward(p, x)
        assert np.array_equal(logits[0], logits[1])
        assert np.array_equal(logits[0], logits[3])

    def test_dimension_mismatch(self):
        p = mlp_init([3, 4, 2], "relu", seed=0)
        with pytest.raises(ShapeError):
            forward(p, np.zeros((5, 2)))


class TestSoftmaxXent:
    def test_uniform_logits_onehot(self):
        loss, _ = softmax_xent(np.zeros((3, 2)), np.array([[1.0, 0], [0, 1], [1, 0]]))
        assert abs(loss - math.log(2)) < 1e-15

    def test_uniform_logits_soft_label(self):
        loss, _ = softmax_xent(np.zeros((1, 2)), np.array([[0.5, 0.5]]))
        assert abs(loss - math.log(2)) < 1e-15

    def test_linear_in_label_argument(self):
        # ell(z, lam*y + (1-lam)*y') == lam*ell(z,y) + (1-lam)*ell(z,y')
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.normal(size=(4, 3)) * 5
            y = np.eye(3)[rng.integers(0, 3, 4)]
            yp = np.eye(3)[rng.integers(0, 3, 4)]
            lam = rng.random()
            lhs, _ = softmax_xent(z, lam * y + (1 - lam) * yp)
            a, _ = softmax_xent(z, y)
            b, _ = softmax_xent(z, yp)
            assert abs(lhs - (lam * a + (1 - lam) * b)) < 1e-12

    def test_loss_nonnegative_for_onehot(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(50, 4)) * 10
        y = np.eye(4)[rng.integers(0, 4, 50)]
        loss, _ = softmax_xent(z, y)
        assert loss >= 0.0

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            softmax_xent(np.array([[np.nan, 0.0]]), np.array([[1.0, 0.0]]))


class TestBackward:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_finite_differences(self, activation):
        p = mlp_init([2, 5, 3], activation, seed=11)
        rng = np.random.default_rng(4)
        batch = Batch(rng.normal(size=(6, 2)), np.eye(3)[rng.integers(0, 3, 6)])
        _, grads = backward(p, batch)
        analytic = flatten_grads(grads)
        numeric = fd_param_grads(lambda q: backward(q, batch)[0], p)
        assert max_rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_differentiation_at_the_pre_activation(self, activation):
        p = mlp_init([2, 5, 4, 3], activation, seed=11)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 2))
        feats[2] = 0.0  # with the zero initial biases, every pre-activation of this row is 0
        batch = Batch(feats, np.eye(3)[rng.integers(0, 3, 6)])
        _, grads = backward(p, batch)
        # reference: recompute each pre-activation z and differentiate there
        inputs, pre_acts = [batch.features], []
        for w, b in zip(p.weights, p.biases):
            pre_acts.append(inputs[-1] @ w + b)
            inputs.append(np.maximum(pre_acts[-1], 0.0) if activation == "relu"
                          else np.tanh(pre_acts[-1]))
        assert np.all(pre_acts[0][2] == 0.0) and np.all(pre_acts[1][2] == 0.0)
        _, dz = softmax_xent(pre_acts[-1], batch.soft_labels)
        for l in range(len(p.weights) - 1, -1, -1):
            assert np.array_equal(grads.weights[l], inputs[l].T @ dz)
            assert np.array_equal(grads.biases[l], dz.sum(axis=0))
            if l > 0:
                z = pre_acts[l - 1]
                t = np.tanh(z)
                deriv = (z > 0).astype(float) if activation == "relu" else 1.0 - t * t
                dz = (dz @ p.weights[l].T) * deriv

    def test_zero_gradient_at_saturated_minimum(self):
        # linear model, massively separated logits on correctly labeled points
        w = np.array([[50.0, -50.0], [0.0, 0.0]])
        p = ModelParams([2, 2], [w], [np.zeros(2)], "relu")
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grads = backward(p, Batch(feats, labels))
        assert np.linalg.norm(flatten_grads(grads)) < 1e-6

    def test_duplicating_rows_leaves_grads_unchanged(self):
        p = mlp_init([2, 4, 2], "tanh", seed=5)
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(3, 2))
        labels = np.eye(2)[rng.integers(0, 2, 3)]
        _, g1 = backward(p, Batch(feats, labels))
        _, g2 = backward(p, Batch(np.vstack([feats, feats]), np.vstack([labels, labels])))
        np.testing.assert_allclose(flatten_grads(g1), flatten_grads(g2), atol=1e-15)


class TestSgdStep:
    def test_vanilla_delta(self):
        p = mlp_init([2, 3], "relu", seed=0)
        before = [w.copy() for w in p.weights]
        _, grads = backward(p, Batch([[1.0, 2.0]], [[1.0, 0.0, 0.0]]))
        state = OptimState(0.1, momentum=0.0)
        sgd_step(p, grads, state, epoch=0)
        for w0, w1, g in zip(before, p.weights, grads.weights):
            np.testing.assert_allclose(w1 - w0, -0.1 * g, atol=1e-15)

    def test_schedule_semantics(self):
        state = OptimState(1.0, schedule=[(2, 0.1)])
        assert state.lr_at(1) == 1.0
        assert state.lr_at(2) == 0.1
        assert state.lr_at(5) == 0.1

    def test_two_steps_match_hand_unrolled_momentum(self):
        p = mlp_init([2, 2], "relu", seed=9)
        w0 = p.weights[0].copy()
        batch = Batch([[0.3, -1.2]], [[0.0, 1.0]])
        mu, lr = 0.9, 0.05
        state = OptimState(lr, momentum=mu)
        _, g1 = backward(p, batch)
        g1w = g1.weights[0].copy()
        sgd_step(p, g1, state, 0)
        _, g2 = backward(p, batch)
        g2w = g2.weights[0].copy()
        sgd_step(p, g2, state, 0)
        v1 = -lr * g1w
        v2 = mu * v1 - lr * g2w
        np.testing.assert_allclose(p.weights[0], w0 + v1 + v2, atol=1e-12)

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ConfigurationError):
            OptimState(0.0)
        with pytest.raises(ConfigurationError):
            OptimState(-0.1)

    def test_schedule_must_increase(self):
        with pytest.raises(ConfigurationError):
            OptimState(0.1, schedule=[(5, 0.1), (5, 0.1)])
        with pytest.raises(ConfigurationError):
            OptimState(0.1, schedule=[("a", 0.1)])


class TestBatch:
    def test_row_sum_enforced(self):
        with pytest.raises(ConfigurationError):
            Batch([[1.0, 2.0]], [[0.6, 0.6]])

    def test_negative_labels_rejected(self):
        with pytest.raises(ConfigurationError):
            Batch([[1.0, 2.0]], [[1.5, -0.5]])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            Batch(np.zeros((0, 2)), np.zeros((0, 2)))


class TestSerialization:
    def test_round_trip_is_lossless(self, tmp_path):
        p = mlp_init([2, 5, 3], "tanh", seed=13)
        path = tmp_path / "model.json"
        save_model(p, path)
        q = load_model(path)
        assert q.layer_sizes == p.layer_sizes
        assert q.activation == p.activation
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
        assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))

    def test_from_dict_missing_field(self):
        doc = to_dict(mlp_init([2, 3], "relu", seed=0))
        del doc["weights"]
        with pytest.raises(ConfigurationError):
            from_dict(doc)


def test_training_trajectory_deterministic():
    def one_run():
        ds = gen_spirals(30, 0.05, 1.25, seed=2)
        p = mlp_init([2, 8, 2], "relu", seed=2)
        state = OptimState(0.1, 0.9, [(5, 0.1)])
        _, metrics = train(p, ds, MixConfig("label_mixing", 1.0, 1), state, 8, 16,
                           np.random.default_rng([2, 1]))
        return p, metrics

    p1, m1 = one_run()
    p2, m2 = one_run()
    assert m1 == m2
    assert all(np.array_equal(a, b) for a, b in zip(p1.weights, p2.weights))
