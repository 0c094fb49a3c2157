import math
import os
import subprocess
import sys

import numpy as np
import pytest

import dipmix
from dipmix import (
    BetaParams,
    ConfigurationError,
    Dataset,
    PredictorConfig,
    decision_grid,
    evaluate,
    forward,
    mlp_init,
    predict_batch,
)
from dipmix import predictor
from dipmix.nn import ModelParams
from dipmix.predictor import dip_logits


def linear_net(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=float)
    return ModelParams([w.shape[0], w.shape[1]], [w], [b], "relu")


class TestDipLogits:
    def test_row_is_mean_of_its_mixed_forwards(self):
        m, s = 3, 4
        rng = np.random.default_rng(0)
        params = mlp_init([2, 8, 3], "relu", seed=0)
        x = rng.normal(size=(m, 2))
        partners = rng.normal(size=(m * s, 2))
        lam = rng.uniform(size=m * s)
        logits = dip_logits(params, x, partners, lam)
        for i in range(m):
            j = range(i * s, (i + 1) * s)
            hand = sum(forward(params, (lam[r] * x[i] + (1 - lam[r]) * partners[r])[None])[0]
                       for r in j) / s
            np.testing.assert_allclose(logits[i], hand, rtol=1e-12, atol=1e-12)
        cached, layer_inputs = dip_logits(params, x, partners, lam, with_cache=True)
        assert np.array_equal(cached, logits)
        assert len(layer_inputs) == len(params.weights)
        assert np.array_equal(layer_inputs[0], lam[:, None] * x.repeat(s, axis=0)
                              + (1 - lam[:, None]) * partners)

    def test_cache_holds_the_work_buffers(self):
        m, s = 2, 5
        rng = np.random.default_rng(1)
        params = mlp_init([2, 6, 4, 3], "tanh", seed=1)
        x, partners = rng.normal(size=(m, 2)), rng.normal(size=(m * s, 2))
        lam = rng.uniform(size=m * s)
        work = [np.full((m * s, 6), np.nan), np.full((m * s, 4), np.nan)]
        logits, cache = dip_logits(params, x, partners, lam, with_cache=True, work=work)
        assert np.array_equal(logits, dip_logits(params, x, partners, lam))
        assert not any(np.shares_memory(logits, buf) for buf in work)
        # the mixed rows come first; every hidden layer is computed into its buffer
        assert len(cache) == 3 and all(a is buf for a, buf in zip(cache[1:], work))
        assert not any(np.shares_memory(cache[0], buf) for buf in work)


class TestPredict:
    def test_probabilities_normalized(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        cfg = PredictorConfig("dip", 50, BetaParams(2, 1), train_set.features, seed=0)
        probs = predict_batch(params, test_set.features[:20], cfg)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_degenerate_prior_equals_raw_exactly(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        raw = PredictorConfig("raw", seed=4)
        dip = PredictorConfig("dip", 500, None, train_set.features, seed=4)
        x = test_set.features[7]
        assert np.array_equal(predict_batch(params, x[None], dip)[0],
                              predict_batch(params, x[None], raw)[0])

    def test_self_pool_collapses_to_raw(self, mixup_spirals_model):
        params, _, test_set = mixup_spirals_model
        x = test_set.features[3]
        dip = PredictorConfig("dip", 200, BetaParams(2, 1), x.reshape(1, -1), seed=1)
        raw = PredictorConfig("raw", seed=1)
        np.testing.assert_allclose(predict_batch(params, x[None], dip)[0],
                                   predict_batch(params, x[None], raw)[0], atol=1e-12)

    def test_fixed_seed_deterministic(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        cfg = PredictorConfig("dip", 100, BetaParams(2, 1), train_set.features, seed=9)
        a = predict_batch(params, test_set.features[0][None], cfg)[0]
        b = predict_batch(params, test_set.features[0][None], cfg)[0]
        assert np.array_equal(a, b)

    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            PredictorConfig("dip", 10, BetaParams(2, 1), None, seed=0)

    def test_mc_argmax_stability_across_seeds(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        preds = []
        for seed in (0, 1):
            cfg = PredictorConfig("dip", 500, BetaParams(2, 1), train_set.features, seed=seed)
            preds.append(predict_batch(params, test_set.features, cfg).argmax(axis=1))
        assert (preds[0] == preds[1]).mean() >= 0.99

    def test_every_item_reuses_the_same_work_buffers(self, monkeypatch):
        calls = []

        def spy(params, features, work=None):
            calls.append(work)
            return forward(params, features, work)

        monkeypatch.setattr(predictor, "forward", spy)
        params = mlp_init([2, 9, 5, 2], "relu", seed=0)
        pool = np.random.default_rng(0).normal(size=(30, 2))
        cfg = PredictorConfig("dip", 40, BetaParams(2, 1), pool, seed=0)
        predict_batch(params, pool[:4], cfg)
        assert len(calls) == 4
        assert [buf.shape for buf in calls[0]] == [(40, 9), (40, 5)]
        for work in calls[1:]:
            assert len(work) == 2 and all(a is b for a, b in zip(work, calls[0]))

    @pytest.mark.skipif(sys.platform != "linux", reason="minor-fault counts are Linux rusage")
    def test_prediction_does_not_fault_in_fresh_pages_per_item(self):
        # 200 rows x S=500 through fresh 500x64 arrays faults ~34k pages; reused buffers ~110.
        # A fresh interpreter, because a long-lived one may have raised glibc's mmap threshold.
        script = """if True:
            import resource, numpy as np
            from dipmix import BetaParams, PredictorConfig, mlp_init, predict_batch
            params = mlp_init([2, 64, 64, 2], "relu", seed=0)
            rng = np.random.default_rng(0)
            cfg = PredictorConfig("dip", 500, BetaParams(2, 1), rng.normal(size=(500, 2)), seed=1)
            x = rng.normal(size=(200, 2))
            predict_batch(params, x, cfg)  # warm-up: first calls, allocator arenas
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            predict_batch(params, x, cfg)
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = os.path.dirname(os.path.dirname(dipmix.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                             check=True, capture_output=True, text=True).stdout
        assert int(out) < 1000

    def test_s_test_must_be_a_positive_integer(self):
        for bad in (0, -3, 2.5, True, "5", None):
            with pytest.raises(ConfigurationError, match="s_test"):
                PredictorConfig("raw", bad)
        assert PredictorConfig("raw", np.int64(3)).s_test == 3

    def test_seed_must_be_a_nonnegative_integer(self):
        pool = np.zeros((3, 2))
        for bad in (-1, True, 2.5, None):
            with pytest.raises(ConfigurationError, match="seed"):
                PredictorConfig("dip", 4, BetaParams(2, 1), partner_pool=pool, seed=bad)
        assert PredictorConfig("raw", seed=np.int64(3)).seed == 3

    def test_mc_argmax_stability_in_draw_count(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        out = {}
        for s_test in (500, 5000):
            cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), train_set.features, seed=0)
            out[s_test] = predict_batch(params, test_set.features, cfg).argmax(axis=1)
        assert (out[500] == out[5000]).mean() >= 0.99


class TestEvaluate:
    def test_all_correct_constructed_case(self):
        params = linear_net([[50.0, -50.0], [0.0, 0.0]])
        ds = Dataset(np.array([[1.0, 0.0], [2.0, 1.0], [-1.0, 0.0], [-3.0, 2.0]]),
                     np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=float))
        result = evaluate(params, ds, PredictorConfig("raw"))
        assert result.accuracy == 1.0
        assert result.misclassification_rate == 0.0
        assert result.mean_loss < math.log(2)

    def test_uniform_model_ties_break_to_class_zero(self):
        params = linear_net([[0.0, 0.0], [0.0, 0.0]])
        feats = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.zeros((10, 2))
        labels[:5, 0] = 1.0
        labels[5:, 1] = 1.0
        result = evaluate(params, Dataset(feats, labels), PredictorConfig("raw"))
        assert result.accuracy == 0.5

    def test_hand_scored_ten_samples(self):
        # logits = (x1, x2): predicted class is argmax coordinate, ties to 0
        params = linear_net([[1.0, 0.0], [0.0, 1.0]])
        feats = np.array([
            [2.0, 1.0], [0.5, 1.5], [3.0, -1.0], [-1.0, 2.0], [1.0, 1.0],
            [0.0, 4.0], [5.0, 0.0], [-2.0, -3.0], [2.5, 2.6], [0.1, 0.0],
        ])
        # hand argmax: 0, 1, 0, 1, 0(tie), 1, 0, 0, 1, 0
        labels = np.eye(2)[[0, 1, 0, 0, 1, 1, 0, 1, 1, 0]]
        # agreement by hand: rows 0,1,2,5,6,8,9 correct -> 7/10
        result = evaluate(params, Dataset(feats, labels), PredictorConfig("raw"))
        assert result.accuracy == 0.7
        assert abs(result.misclassification_rate - 0.3) < 1e-15


class TestDecisionGrid:
    def test_resolution_two(self, small_net):
        xs, ys, classes, probs = decision_grid(small_net, PredictorConfig("raw"),
                                               (-1, 1), (-1, 1), 2)
        assert classes.shape == (2, 2) and probs.shape == (2, 2)
        assert set(classes.ravel()) <= {0, 1}
        assert np.all((probs >= 0.5 - 1e-12) & (probs <= 1.0))

    def test_antisymmetric_model_mirrors_grid(self):
        # logits (x1, -x1): reflecting x flips the class everywhere off the axis
        params = linear_net([[1.0, -1.0], [0.0, 0.0]])
        _, _, classes, _ = decision_grid(params, PredictorConfig("raw"),
                                         (-1.5, 1.5), (-1.5, 1.5), 4)
        mirrored = classes[:, ::-1]
        assert np.array_equal(classes + mirrored, np.ones_like(classes))

    def test_raw_and_dip_grids_differ_on_mixup_model(self, mixup_spirals_model):
        params, train_set, _ = mixup_spirals_model
        raw_cfg = PredictorConfig("raw", seed=0)
        dip_cfg = PredictorConfig("dip", 50, BetaParams(2, 1), train_set.features, seed=0)
        box = ((-2.0, 2.0), (-2.0, 2.0))
        _, _, raw_classes, _ = decision_grid(params, raw_cfg, *box, 16)
        _, _, dip_classes, _ = decision_grid(params, dip_cfg, *box, 16)
        assert (raw_classes != dip_classes).sum() > 0

    def test_dip_cells_are_row_major_batch_items(self, mixup_spirals_model):
        params, train_set, _ = mixup_spirals_model
        cfg = PredictorConfig("dip", 30, BetaParams(2, 1), train_set.features, seed=6)
        xs, ys, classes, max_probs = decision_grid(params, cfg, (-2.0, 1.0), (-1.0, 2.0), 5)
        rows = np.array([[xv, yv] for yv in ys for xv in xs])
        probs = predict_batch(params, rows, cfg)
        assert np.array_equal(classes.ravel(), probs.argmax(axis=1))
        assert np.array_equal(max_probs.ravel(), probs.max(axis=1))

    def test_non_planar_model_rejected(self):
        params = mlp_init([3, 4, 2], "relu", seed=0)
        with pytest.raises(ConfigurationError):
            decision_grid(params, PredictorConfig("raw"), (-1, 1), (-1, 1), 4)

    @pytest.mark.parametrize("x_range,y_range,resolution", [
        ((math.nan, 1.0), (-1.0, 1.0), 2),
        ((-1.0, math.inf), (-1.0, 1.0), 2),
        ((-1.0, 1.0), (-math.inf, 1.0), 2),
        ((-1.0, 1.0), (-1.0, True), 2),
        ((-1.0, 1.0), (-1.0, 1.0), 2.5),
        ((-1.0, 1.0), (-1.0, 1.0), True),
        ((-1.0, 1.0), (-1.0, 1.0), 0),
    ], ids=["xmin-nan", "xmax-inf", "ymin-inf", "ymax-bool", "res-float", "res-bool", "res-zero"])
    def test_bad_box_rejected(self, small_net, x_range, y_range, resolution):
        with pytest.raises(ConfigurationError, match="grid bounds|resolution"):
            decision_grid(small_net, PredictorConfig("raw"), x_range, y_range, resolution)


def test_dip_average_runs_over_logits(mixup_spirals_model):
    # averaging after softmax would give a different vector; pin the logit-space choice
    params, train_set, test_set = mixup_spirals_model
    x = test_set.features[11]
    cfg = PredictorConfig("dip", 64, BetaParams(2, 1), train_set.features, seed=5)
    probs = predict_batch(params, x[None], cfg)[0]
    rng = np.random.default_rng([5, 2, 0])
    from dipmix import sample_lambda

    lam = sample_lambda(cfg.prior, rng, size=64)[:, None]
    partners = rng.integers(0, len(train_set.features), size=64)
    mixed = lam * x + (1 - lam) * train_set.features[partners]
    avg_logits = forward(params, mixed).mean(axis=0)
    expected = np.exp(avg_logits - avg_logits.max())
    expected /= expected.sum()
    np.testing.assert_allclose(probs, expected, atol=1e-12)
