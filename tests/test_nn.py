import copy
import math

import numpy as np
import pytest

from dipmix import (
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
from dipmix.nn import ModelParams, Workspace, _forward_cached, from_dict, to_dict


def nan_workspace(params, rows):
    work = Workspace.for_model(params, rows)
    for buf in all_buffers(work):
        buf.fill(np.nan)
    return work


def all_buffers(work):
    return [*work.hidden, *work.deltas, *work.derivs, work.dlogits, *work.grads.weights,
            *work.grads.biases, *work.scaled.weights, *work.scaled.biases]


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
        for sizes in ([2, -1, 2], [2, 2.5, 2], [2, True, 2]):  # would fail in the weight draws
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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_work_buffers_change_nothing(self, activation):
        p = mlp_init([3, 7, 5, 4], activation, seed=2)
        p.biases = [np.full_like(b, 0.1) for b in p.biases]
        x = np.random.default_rng(3).normal(size=(6, 3))
        work = [np.full((6, n), np.nan) for n in (7, 5)]
        logits = forward(p, x, work)
        assert np.array_equal(logits, forward(p, x))
        assert not any(np.shares_memory(logits, buf) for buf in work)
        # each hidden layer was computed into its buffer, not into a fresh array
        _, outputs = _forward_cached(p, x)
        for buf, a in zip(work, outputs[1:]):
            assert np.array_equal(buf, a)


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
        batch = (rng.normal(size=(6, 2)), np.eye(3)[rng.integers(0, 3, 6)])
        _, grads = backward(p, *batch)
        analytic = flatten_grads(grads)
        numeric = fd_param_grads(lambda q: backward(q, *batch)[0], p)
        assert max_rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_differentiation_at_the_pre_activation(self, activation):
        p = mlp_init([2, 5, 4, 3], activation, seed=11)
        rng = np.random.default_rng(4)
        feats = rng.normal(size=(6, 2))
        feats[2] = 0.0  # with the zero initial biases, every pre-activation of this row is 0
        batch = (feats, np.eye(3)[rng.integers(0, 3, 6)])
        _, grads = backward(p, *batch)
        # reference: recompute each pre-activation z and differentiate there
        inputs, pre_acts = [batch[0]], []
        for w, b in zip(p.weights, p.biases):
            pre_acts.append(inputs[-1] @ w + b)
            inputs.append(np.maximum(pre_acts[-1], 0.0) if activation == "relu"
                          else np.tanh(pre_acts[-1]))
        assert np.all(pre_acts[0][2] == 0.0) and np.all(pre_acts[1][2] == 0.0)
        _, dz = softmax_xent(pre_acts[-1], batch[1])
        for l in range(len(p.weights) - 1, -1, -1):
            assert np.array_equal(grads.weights[l], inputs[l].T @ dz)
            assert np.array_equal(grads.biases[l], dz.sum(axis=0))
            if l > 0:
                z = pre_acts[l - 1]
                t = np.tanh(z)
                deriv = (z > 0).astype(float) if activation == "relu" else 1.0 - t * t
                dz = (dz @ p.weights[l].T) * deriv

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_work_buffers_change_nothing(self, activation):
        p = mlp_init([3, 7, 5, 4], activation, seed=2)
        rng = np.random.default_rng(3)
        batch = (rng.normal(size=(6, 3)), np.eye(4)[rng.integers(0, 4, 6)])
        loss, grads = backward(p, *batch)
        work = nan_workspace(p, 6)
        buffers = all_buffers(work)
        work_loss, work_grads = backward(p, *batch, work=work)
        assert work_loss == loss and work_grads is work.grads
        assert np.array_equal(flatten_grads(work_grads), flatten_grads(grads))
        # every stage wrote into its own buffers; only sgd_step's are left untouched
        assert all(a is b for a, b in zip(all_buffers(work), buffers))
        written = [buf for buf in buffers if not np.isnan(buf).any()]
        assert len(written) == len(buffers) - 2 * len(p.weights)

    def test_zero_gradient_at_saturated_minimum(self):
        # linear model, massively separated logits on correctly labeled points
        w = np.array([[50.0, -50.0], [0.0, 0.0]])
        p = ModelParams([2, 2], [w], [np.zeros(2)], "relu")
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grads = backward(p, feats, labels)
        assert np.linalg.norm(flatten_grads(grads)) < 1e-6

    def test_duplicating_rows_leaves_grads_unchanged(self):
        p = mlp_init([2, 4, 2], "tanh", seed=5)
        rng = np.random.default_rng(6)
        feats = rng.normal(size=(3, 2))
        labels = np.eye(2)[rng.integers(0, 2, 3)]
        _, g1 = backward(p, feats, labels)
        _, g2 = backward(p, np.vstack([feats, feats]), np.vstack([labels, labels]))
        np.testing.assert_allclose(flatten_grads(g1), flatten_grads(g2), atol=1e-15)


class TestSgdStep:
    def test_vanilla_delta(self):
        p = mlp_init([2, 3], "relu", seed=0)
        before = [w.copy() for w in p.weights]
        _, grads = backward(p, [[1.0, 2.0]], [[1.0, 0.0, 0.0]])
        state = OptimState(0.1, momentum=0.0)
        sgd_step(p, grads, state, epoch=0)
        for w0, w1, g in zip(before, p.weights, grads.weights):
            np.testing.assert_allclose(w1 - w0, -0.1 * g, atol=1e-15)

    def test_work_buffers_change_nothing(self):
        p = mlp_init([2, 6, 3], "tanh", seed=4)
        batch = ([[0.5, -1.0], [2.0, 0.1]], [[1.0, 0.0, 0.0], [0.0, 0.3, 0.7]])
        _, grads = backward(p, *batch)
        q, states = copy.deepcopy(p), [OptimState(0.2, 0.9), OptimState(0.2, 0.9)]
        work = nan_workspace(p, 2)
        scaled = work.scaled.weights + work.scaled.biases
        for epoch in range(2):
            sgd_step(p, grads, states[0], epoch)
            sgd_step(q, grads, states[1], epoch, work=work)
        assert all(np.array_equal(a, b) for a, b in zip(p.weights + p.biases, q.weights + q.biases))
        assert all(a is b for a, b in zip(work.scaled.weights + work.scaled.biases, scaled))
        assert not any(np.isnan(t).any() for t in scaled)

    def test_schedule_semantics(self):
        state = OptimState(1.0, schedule=[(2, 0.1)])
        assert state.lr_at(1) == 1.0
        assert state.lr_at(2) == 0.1
        assert state.lr_at(5) == 0.1

    def test_two_steps_match_hand_unrolled_momentum(self):
        p = mlp_init([2, 2], "relu", seed=9)
        w0 = p.weights[0].copy()
        batch = ([[0.3, -1.2]], [[0.0, 1.0]])
        mu, lr = 0.9, 0.05
        state = OptimState(lr, momentum=mu)
        _, g1 = backward(p, *batch)
        g1w = g1.weights[0].copy()
        sgd_step(p, g1, state, 0)
        _, g2 = backward(p, *batch)
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


class TestLabelRule:
    """softmax_xent owns the soft-label rule for every loss: at least one row,
    each nonnegative and summing to 1 within 1e-9."""

    def test_row_sum_enforced(self):
        p = mlp_init([2, 2], "relu", seed=0)
        with pytest.raises(ConfigurationError):
            softmax_xent(np.zeros((1, 2)), [[0.6, 0.6]])
        with pytest.raises(ConfigurationError):
            backward(p, [[1.0, 2.0]], [[0.6, 0.6]])
        with pytest.raises(ConfigurationError):
            softmax_xent(np.zeros((1, 2)), [[np.nan, 1.0]])

    def test_negative_labels_rejected(self):
        p = mlp_init([2, 2], "relu", seed=0)
        with pytest.raises(ConfigurationError):
            softmax_xent(np.zeros((1, 2)), [[1.5, -0.5]])
        with pytest.raises(ConfigurationError):
            backward(p, [[1.0, 2.0]], [[1.5, -0.5]])

    def test_empty_rejected(self):
        p = mlp_init([2, 2], "relu", seed=0)
        with pytest.raises(ShapeError):
            softmax_xent(np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ShapeError):
            backward(p, np.zeros((0, 2)), np.zeros((0, 2)))
        with pytest.raises(ShapeError):  # feature and label rows differ
            backward(p, np.zeros((2, 2)), [[1.0, 0.0]])


class TestFlatVector:
    """Weights and biases, weights first, are views of one float64 vector per
    ModelParams or ParamGrads, which sgd_step updates in three ufunc calls."""

    @staticmethod
    def views_of(holder):
        return all(np.shares_memory(a, holder.flat) and a.base is holder.flat
                   for a in holder.weights + holder.biases)

    def test_layout(self):
        p = mlp_init([2, 3, 2], "tanh", seed=1)
        expected = np.concatenate([a.ravel() for a in p.weights + p.biases])
        assert p.flat.dtype == np.float64 and p.flat.flags.c_contiguous
        assert np.array_equal(p.flat, expected)
        p.flat[0] = 7.0
        assert p.weights[0][0, 0] == 7.0

    def test_lists_view_the_flat_vector(self):
        p = mlp_init([2, 5, 4, 3], "relu", seed=3)
        assert self.views_of(p)
        assert self.views_of(from_dict(to_dict(p)))
        q = copy.deepcopy(p)
        assert self.views_of(q) and not np.shares_memory(q.flat, p.flat)
        work = Workspace.for_model(p, 4)
        assert self.views_of(work.grads) and self.views_of(work.scaled)
        assert self.views_of(work.head(2).grads)
        ds = gen_spirals(10, 0.05, 1.25, seed=0)
        q, _ = train(mlp_init([2, 6, 2], "relu", seed=0), ds, MixConfig("label_mixing", 1.0),
                     OptimState(0.1, 0.9), 2, 8, np.random.default_rng(0))
        assert self.views_of(q)

    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    def test_sgd_step_equals_per_array_update(self, momentum):
        p = mlp_init([3, 6, 5, 2], "tanh", seed=4)
        p.biases[0][:] = 0.3  # through the view
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(7, 3)), np.eye(2)[rng.integers(0, 2, 7)]
        state = OptimState(0.05, momentum, [(1, 0.5)])
        arrays = [a.copy() for a in p.weights + p.biases]
        velocity = [np.zeros_like(a) for a in arrays]
        for epoch in range(3):
            _, grads = backward(p, x, y)
            for a, v, g in zip(arrays, velocity, grads.weights + grads.biases):
                v *= momentum
                v -= state.lr_at(epoch) * g
                a += v
            sgd_step(p, grads, state, epoch)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, p.weights + p.biases))
        assert np.array_equal(state.velocity, np.concatenate([v.ravel() for v in velocity]))

    def test_rebound_list_makes_sgd_step_raise(self):
        p = mlp_init([2, 4, 2], "relu", seed=6)
        _, grads = backward(p, [[0.5, -1.0]], [[1.0, 0.0]])
        p.biases = [b.copy() for b in p.biases]
        with pytest.raises(ShapeError):
            sgd_step(p, grads, OptimState(0.1), 0)
        q = mlp_init([2, 4, 2], "relu", seed=6)
        q.weights[1] = q.weights[1] + 0.0
        with pytest.raises(ShapeError):
            sgd_step(q, grads, OptimState(0.1), 0)
        grads.weights = [w.copy() for w in grads.weights]
        with pytest.raises(ShapeError):
            sgd_step(mlp_init([2, 4, 2], "relu", seed=6), grads, OptimState(0.1), 0)


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
