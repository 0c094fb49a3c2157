import _ctypes
import glob
import math
import os
import pickle
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import dipmix
from dipmix import (
    BetaParams,
    ConfigurationError,
    Dataset,
    DivergenceError,
    MixConfig,
    NumericError,
    OptimState,
    PredictorConfig,
    decision_grid,
    evaluate,
    forward,
    gen_spirals,
    mix,
    mlp_init,
    predict_batch,
    sample_lambda,
    standardize,
    train,
)
from dipmix import nn, predictor
from dipmix.nn import ModelParams, load_model, log_softmax
from dipmix.predictor import dip_logits


PERFBENCH_MODEL = Path(__file__).resolve().parents[1] / "perfbench" / "model" / "mixup_model.json"


def linear_net(w, b=None):
    w = np.asarray(w, dtype=float)
    b = np.zeros(w.shape[1]) if b is None else np.asarray(b, dtype=float)
    return ModelParams([w.shape[0], w.shape[1]], [w], [b], "relu")


def margins(params, train_set, test_set, s_test, seed):
    """log p1 - log p0 of dip prediction at S = s_test."""
    cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), train_set.features, seed=seed)
    log_probs = np.log(predict_batch(params, test_set.features, cfg))
    return log_probs[:, 1] - log_probs[:, 0]


def block_draws(features, cfg):
    """Each block of rows with its ratio column and partners, from the block's stream."""
    s = cfg.s_test
    block = max(1, predictor._BLOCK_ROWS // s)
    for start in range(0, len(features), block):
        rows = features[start:start + block]
        rng = np.random.default_rng([cfg.seed, 2, start // block])
        lam = sample_lambda(cfg.prior, rng, size=len(rows) * s)[:, None]
        yield rows, lam, cfg.partner_pool[rng.integers(0, len(cfg.partner_pool),
                                                       size=len(rows) * s)]


def hand_dip_probs(params, features, cfg):
    """Dip probabilities row by row, from the draws of each row's block stream."""
    s = cfg.s_test
    probs = []
    for rows, lam, partners in block_draws(features, cfg):
        for i, x in enumerate(rows):
            j = slice(i * s, (i + 1) * s)
            avg_logits = forward(params, lam[j] * x + (1 - lam[j]) * partners[j]).mean(axis=0)
            p = np.exp(avg_logits - avg_logits.max())
            probs.append(p / p.sum())
    return np.array(probs)


def broadcast_forward(params, x):
    """Logits with each bias row broadcast over its layer, as numpy does unasked."""
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = x @ w + b
        x = np.maximum(z, 0.0) if params.activation == "relu" else np.tanh(z)
    return x @ params.weights[-1] + params.biases[-1]


def reference_dip_probs(params, features, cfg):
    """Dip probabilities from each row's S mixed rows sent through
    broadcast_forward, on the draws of each row's block stream, and reduced as
    dip_logits reduces them, so that predict_batch must match it bit for bit."""
    s = cfg.s_test
    logits = []
    for rows, lam, partners in block_draws(features, cfg):
        out = np.concatenate([broadcast_forward(params, mix(np.repeat(x[None], s, axis=0),
                                                            partners[i * s:(i + 1) * s],
                                                            lam[i * s:(i + 1) * s]))
                              for i, x in enumerate(rows)])
        logits.append(out if s == 1 else out.reshape(len(rows), s, -1).sum(axis=1) / s)
    return np.exp(log_softmax(np.concatenate(logits)))


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
        work = [np.full((m * s + 3, 6), np.nan), np.full((m * s + 3, 4), np.nan)]
        logits, cache = dip_logits(params, x, partners, lam, with_cache=True, work=work)
        assert np.array_equal(logits, dip_logits(params, x, partners, lam))
        assert not any(np.shares_memory(logits, buf) for buf in work)
        # the mixed rows come first; every hidden layer is computed into its buffer's
        # leading rows, and the rest stay as they were
        assert len(cache) == 3
        for a, buf in zip(cache[1:], work):
            assert a.shape == (m * s, buf.shape[1]) and np.shares_memory(a, buf[:m * s])
            assert np.isnan(buf[m * s:]).all()
        assert not any(np.shares_memory(cache[0], buf) for buf in work)
        # without the cache, each row's s = 5 mixed rows go forward as one piece
        pieces = []

        def spy(p, rows, work, bias_rows):
            pieces.append(rows)
            return forward(p, rows, work, bias_rows)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictor, "forward", spy)
            by_row = dip_logits(params, x, partners, lam, work=[np.empty((s, 6)), np.empty((s, 4))])
        assert [len(rows) for rows in pieces] == [s] * m
        assert np.array_equal(np.concatenate(pieces), cache[0])
        np.testing.assert_allclose(by_row, logits, rtol=1e-12, atol=1e-12)


class TestPredict:
    def test_probabilities_normalized(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        cfg = PredictorConfig("dip", 50, BetaParams(2, 1), train_set.features, seed=0)
        probs = predict_batch(params, test_set.features[:20], cfg)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_degenerate_prior_equals_raw_exactly(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        models = [params, mlp_init([2, 48, 9, 3], "tanh", seed=4), mlp_init([2, 5, 2], seed=1),
                  linear_net([[1.0, -2.0], [0.5, 3.0]], [0.1, -0.2])]
        for i, model in enumerate(models[1:]):
            model.flat[:] = np.random.default_rng(i).normal(size=model.flat.size)
        for model in models:
            for seed in (0, 4, 9):
                raw = PredictorConfig("raw", seed=seed)
                dip = PredictorConfig("dip", 500, None, train_set.features, seed=seed)
                x = test_set.features[seed:seed + 20]
                assert np.array_equal(predict_batch(model, x, dip), predict_batch(model, x, raw))

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

    def test_mc_margin_stable_across_seeds(self, mixup_spirals_model):
        # RMS 0.07-0.09 over seeds 0-15 at S = 500, 0.24-0.29 at S = 50
        params, train_set, test_set = mixup_spirals_model
        m0, m1 = (margins(params, train_set, test_set, 500, seed) for seed in (0, 1))
        assert np.sqrt(np.mean((m0 - m1) ** 2)) <= 0.11

    def test_every_item_reuses_the_same_work_buffers(self, monkeypatch):
        calls = []

        def spy(params, features, work=None, bias_rows=None):
            calls.append((work, bias_rows))
            for rows in bias_rows:  # built before the first item: every item only reads them
                rows.flags.writeable = False
            return forward(params, features, work, bias_rows)

        monkeypatch.setattr(predictor, "forward", spy)
        params = mlp_init([2, 9, 5, 2], "relu", seed=0)
        params.flat[:] = np.random.default_rng(1).normal(size=params.flat.size)
        pool = np.random.default_rng(0).normal(size=(30, 2))
        cfg = PredictorConfig("dip", 40, BetaParams(2, 1), pool, seed=0)
        predict_batch(params, pool[:4], cfg)
        assert len(calls) == 4
        work, bias_rows = calls[0]
        assert [buf.shape for buf in work] == [(40, 9), (40, 5)]
        # one S-row tile of each hidden bias per call, shared by every item
        assert len(bias_rows) == 2
        for bias, rows in zip(params.biases, bias_rows):
            assert np.array_equal(rows, np.tile(bias, (40, 1)))
        for later_work, later_rows in calls[1:]:
            assert len(later_work) == 2 and all(a is b for a, b in zip(later_work, work))
            assert later_rows is bias_rows
        predict_batch(params, pool[:1], cfg)
        assert not any(a is b for a, b in zip(calls[-1][1], bias_rows))

    def test_prediction_leaves_the_model_as_it_found_it(self):
        params = mlp_init([2, 64, 64, 2], "relu", seed=3)  # tiles of 500 rows at S = 500
        rng = np.random.default_rng(3)
        params.flat[:] = rng.normal(size=params.flat.size)
        pool, x = rng.normal(size=(50, 2)), rng.normal(size=(3, 2))
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=3)
        names, flat, state = sorted(vars(params)), params.flat.tobytes(), pickle.dumps(params)
        predict_batch(params, x, cfg)
        assert sorted(vars(params)) == names and params.flat.tobytes() == flat
        assert pickle.dumps(params) == state  # no field written, not even in place
        # new parameters in place between calls: the next call uses them
        params.flat[:] = rng.normal(size=params.flat.size)
        assert np.array_equal(predict_batch(params, x, cfg), reference_dip_probs(params, x, cfg))

    @pytest.mark.parametrize("s_test", [1, 7, 500])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_probabilities_equal_a_broadcast_forward_bit_for_bit(self, mixup_spirals_model,
                                                                 activation, s_test):
        params, train_set, test_set = mixup_spirals_model  # 64-wide bias tiles
        if activation == "tanh":
            params = mlp_init([2, 48, 9, 3], "tanh", seed=4)
            params.flat[:] = np.random.default_rng(4).normal(size=params.flat.size)
        cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), train_set.features, seed=6)
        x = test_set.features[:20]  # three blocks at S = 500
        assert np.array_equal(predict_batch(params, x, cfg), reference_dip_probs(params, x, cfg))

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

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown predictor mode 'blend'"):
            PredictorConfig(mode="blend")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        params = mlp_init([2, 4, 2], seed=0)
        pool = np.zeros((3, 2))
        x = np.array([[0.0, 0.0], [1.0, bad]])
        for cfg in (PredictorConfig("raw"), PredictorConfig("dip", 5, BetaParams(2, 1), pool)):
            with pytest.raises(NumericError, match="features"):
                predict_batch(params, x, cfg)
        cfg = PredictorConfig("dip", 5, BetaParams(2, 1), np.vstack([pool, x]))
        with pytest.raises(NumericError, match="partner_pool"):
            predict_batch(params, pool, cfg)

    def test_pool_is_checked_when_it_is_read(self):
        params = mlp_init([2, 4, 2], seed=0)
        pool = np.zeros((3, 2))
        cfg = PredictorConfig("dip", 5, BetaParams(2, 1), pool)
        pool[1, 0] = np.nan  # the caller still owns the array the config holds
        with pytest.raises(NumericError, match="partner_pool"):
            predict_batch(params, np.ones((2, 2)), cfg)

    def test_pool_may_be_any_array_like(self):
        params = mlp_init([2, 4, 2], seed=0)
        pool = [[0.5, -1.0], [2.0, 0.25], [-0.5, 1.0]]
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        as_list = PredictorConfig("dip", 7, BetaParams(2, 1), pool, seed=2)
        as_array = PredictorConfig("dip", 7, BetaParams(2, 1), np.array(pool), seed=2)
        assert as_list.partner_pool is pool  # kept as given, converted per call
        assert np.array_equal(predict_batch(params, x, as_list), predict_batch(params, x, as_array))

    def test_mc_margin_converges_in_draw_count(self, mixup_spirals_model):
        # RMS 0.05-0.07 over seeds 0-15 at S = 500, 0.17-0.20 at S = 50; a row whose
        # S = 5000 margin is at least 0.25 from the boundary keeps its class
        params, train_set, test_set = mixup_spirals_model
        m500, m5000 = (margins(params, train_set, test_set, s, 0) for s in (500, 5000))
        assert np.sqrt(np.mean((m500 - m5000) ** 2)) <= 0.08
        clear = np.abs(m5000) >= 0.25
        assert clear.sum() > 200
        assert np.array_equal(m500[clear] > 0, m5000[clear] > 0)

    def test_rows_do_not_depend_on_each_other_across_a_block_boundary(self, mixup_spirals_model):
        relu, train_set, _ = mixup_spirals_model
        tanh = mlp_init([2, 48, 9, 3], "tanh", seed=4)
        tanh.flat[:] = np.random.default_rng(4).normal(size=tanh.flat.size)
        rng = np.random.default_rng(2)
        for params in (relu, tanh):
            for s in (1, 7, 33, 500, 5000):  # blocks of 4096, 585, 124, 8 and 1 rows
                cfg = PredictorConfig("dip", s, BetaParams(2, 1), train_set.features, seed=2)
                block = max(1, predictor._BLOCK_ROWS // s)
                rows = rng.normal(size=(2 * block, 2))
                before = predict_batch(params, rows, cfg)
                for j in (block - 1, block):  # the last row of block 0, the first of block 1
                    changed = rows.copy()
                    changed[j] = [3.0, -2.0]
                    after = predict_batch(params, changed, cfg)
                    others = np.arange(len(rows)) != j
                    assert np.array_equal(after[others], before[others])
                    assert not np.array_equal(after[j], before[j])

    def test_ten_rows_match_a_hand_computation_by_block(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), train_set.features, seed=5)
        x = test_set.features[:10]
        np.testing.assert_allclose(predict_batch(params, x, cfg),
                                   hand_dip_probs(params, x, cfg), atol=1e-12)

    def test_one_generator_per_block(self, monkeypatch):
        made = []
        default_rng = np.random.default_rng

        def spy(seed=None):
            made.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        params = mlp_init([2, 5, 2], "relu", seed=0)
        pool = default_rng(0).normal(size=(30, 2))
        for s_test, n in ((500, 20), (500, 16), (30, 20), (5000, 3)):
            made.clear()
            cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), pool, seed=4)
            predict_batch(params, default_rng(1).normal(size=(n, 2)), cfg)
            block = max(1, predictor._BLOCK_ROWS // s_test)
            # workers make their blocks' generators in no fixed order
            assert sorted(made) == [[4, 2, b] for b in range(-(-n // block))]

    def test_model_without_hidden_layers(self):
        params = linear_net([[1.0, -2.0], [0.5, 3.0]], [0.1, -0.2])
        rng = np.random.default_rng(0)
        pool, x = rng.normal(size=(40, 2)), rng.normal(size=(10, 2))
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=3)
        probs = predict_batch(params, x, cfg)
        np.testing.assert_allclose(probs, hand_dip_probs(params, x, cfg), atol=1e-12)


def threaded_model(kind):
    """A ReLU net with 2 outputs or a tanh net with 3, random parameters."""
    sizes, activation = ([2, 64, 64, 2], "relu") if kind == "relu" else ([2, 48, 9, 3], "tanh")
    params = mlp_init(sizes, activation, seed=8)
    params.flat[:] = np.random.default_rng(8).normal(size=params.flat.size)
    return params


class TestWorkers:
    @pytest.mark.parametrize("kind", ["relu", "tanh"])
    @pytest.mark.parametrize("s_test, n", [(500, 20), (33, 250), (5000, 7), (1, 4101)],
                             ids=["s500", "s33", "s5000", "s1"])
    def test_every_worker_count_gives_the_same_bits(self, monkeypatch, kind, s_test, n):
        # n is no multiple of the block: 8-, 124-, 1- and 4096-row blocks
        params = threaded_model(kind)
        rng = np.random.default_rng(n)
        pool, x = rng.normal(size=(40, 2)), rng.normal(size=(n, 2))
        cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), pool, seed=3)
        threads = set()

        def spy(*args):
            threads.add(threading.get_ident())
            return forward(*args)

        monkeypatch.setattr(predictor, "forward", spy)
        by_count, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # the workers switch often, so a shared write would show
        try:
            for cpus in (1, os.cpu_count()):  # never more workers than the host has CPUs
                monkeypatch.setattr(predictor, "_usable_cpus", lambda: cpus)
                threads.clear()
                by_count[cpus] = predict_batch(params, x, cfg)
                blocks = -(-n // max(1, predictor._BLOCK_ROWS // s_test))
                assert len(threads) == (min(blocks, cpus) if predictor._blas_pin() else 1)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(by_count[1], by_count[os.cpu_count()])
        np.testing.assert_allclose(by_count[1], hand_dip_probs(params, x, cfg), atol=1e-12)

    @pytest.mark.parametrize("s_test, n", [(1, 130), (64, 5), (150, 5)])
    def test_no_forward_takes_more_than_a_block_of_rows(self, monkeypatch, s_test, n):
        # work buffers and bias tiles of min(S, _BLOCK_ROWS) rows, so memory is bounded in S
        monkeypatch.setattr(predictor, "_BLOCK_ROWS", 64)
        pieces = []

        def spy(params, rows, work, bias_rows):
            pieces.append((len(rows), [len(buf) for buf in (*work, *bias_rows)]))
            return forward(params, rows, work, bias_rows)

        monkeypatch.setattr(predictor, "forward", spy)
        rng = np.random.default_rng(s_test)
        pool, x = rng.normal(size=(40, 2)), rng.normal(size=(n, 2))
        cfg = PredictorConfig("dip", s_test, BetaParams(2, 1), pool, seed=3)
        per_item = [min(64, s_test - start) for start in range(0, s_test, 64)]
        for kind in ("relu", "tanh"):
            params, by_count = threaded_model(kind), {}
            for cpus in (1, 2):
                monkeypatch.setattr(predictor, "_usable_cpus", lambda: cpus)
                pieces.clear()
                by_count[cpus] = predict_batch(params, x, cfg)
                assert sorted(rows for rows, _ in pieces) == sorted(per_item * n)
                assert all(bufs == [min(s_test, 64)] * 4 for _, bufs in pieces)
            assert np.array_equal(by_count[1], by_count[2])
            np.testing.assert_allclose(by_count[1], hand_dip_probs(params, x, cfg), atol=1e-12)

    def test_without_an_affinity_mask_every_cpu_is_usable(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((3, 3), (None, 1)):
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert predictor._usable_cpus() == usable

    def test_a_library_without_the_pin_is_skipped(self, monkeypatch, tmp_path):
        # a file no loader takes (OSError), then a library without the symbol (AttributeError)
        (tmp_path / "libopenblas_not_a_library.so").write_text("not a shared object\n")
        paths = [str(tmp_path / "libopenblas_not_a_library.so"), _ctypes.__file__]
        monkeypatch.setattr(glob, "glob", lambda pattern: paths)
        assert predictor._blas_pin.__wrapped__() is None

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_an_error_reaches_the_caller_after_every_thread_ends(self, monkeypatch, where):
        if predictor._blas_pin() is None or os.cpu_count() < 2:
            pytest.skip("dip prediction runs on one thread here")
        caller = threading.get_ident()

        def failing(*args):
            if (threading.get_ident() == caller) == (where == "caller"):
                raise ZeroDivisionError(f"forward failed on the {where}")
            return forward(*args)

        monkeypatch.setattr(predictor, "forward", failing)
        monkeypatch.setattr(predictor, "_usable_cpus", lambda: 2)
        params = threaded_model("relu")
        pool = np.random.default_rng(0).normal(size=(30, 2))
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=0)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError, match=where):
            predict_batch(params, pool[:20], cfg)
        assert threading.active_count() == before

    def test_the_blas_thread_count_is_restored(self):
        pin = predictor._blas_pin()
        if pin is None:
            pytest.skip("numpy ships no openblas_set_num_threads_local here")
        params = threaded_model("relu")
        pool = np.random.default_rng(0).normal(size=(30, 2))
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=0)
        original = pin(1)
        try:
            for count in sorted({1, min(2, os.cpu_count())}):
                pin(count)
                predict_batch(params, pool[:20], cfg)
                assert pin(count) == count
        finally:
            pin(original)

    @pytest.mark.parametrize("n", [5000, 50000])
    def test_the_blas_thread_count_changes_no_raw_bit(self, n):
        # prediction holds one BLAS thread, so nn.forward is run at each count directly
        pin = predictor._blas_pin()
        if pin is None:
            pytest.skip("numpy ships no openblas_set_num_threads_local here")
        params = threaded_model("relu")
        x = np.random.default_rng(2).normal(size=(n, 2))
        logits = []
        original = pin(1)
        try:
            for count in (1, 2):
                pin(count)
                logits.append(forward(params, x).tobytes())
        finally:
            pin(original)
        assert logits[0] == logits[1]

    def test_without_the_pin_no_thread_starts(self, monkeypatch):
        params = threaded_model("tanh")
        pool = np.random.default_rng(0).normal(size=(30, 2))
        cfg = PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=0)
        x = np.random.default_rng(1).normal(size=(20, 2))
        threaded = predict_batch(params, x, cfg)

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(predictor, "_blas_pin", lambda: None)
        monkeypatch.setattr(threading, "Thread", no_thread)
        assert np.array_equal(predict_batch(params, x, cfg), threaded)

    @pytest.mark.parametrize("pinned", [True, False], ids=["pin", "no_pin"])
    def test_zero_rows_give_zero_rows_on_the_calling_thread(self, monkeypatch, pinned):
        # dip prediction runs at least one worker, however few blocks a call has
        if pinned and predictor._blas_pin() is None:
            pytest.skip("numpy ships no openblas_set_num_threads_local here")
        params = threaded_model("tanh")
        pool = np.random.default_rng(0).normal(size=(30, 2))

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        if not pinned:
            monkeypatch.setattr(predictor, "_blas_pin", lambda: None)
        monkeypatch.setattr(threading, "Thread", no_thread)
        for cfg in (PredictorConfig("raw"),
                    PredictorConfig("dip", 500, BetaParams(2, 1), pool, seed=0)):
            probs = predict_batch(params, np.empty((0, 2)), cfg)
            assert probs.shape == (0, params.n_outputs)


def blas_threads(pin) -> int:
    """The process's BLAS thread count, read by setting one and putting it back."""
    count = pin(1)
    pin(count)
    return count


@pytest.fixture
def caller_count():
    """The pin, with the BLAS thread count set to 2 for the test and the earlier
    count restored after it, and that count."""
    pin = predictor._blas_pin()
    if pin is None:
        pytest.skip("numpy ships no openblas_set_num_threads_local here")
    original = pin(2)
    try:
        if blas_threads(pin) != 2:
            pytest.skip("numpy's OpenBLAS runs one thread here")
        yield pin, 2
    finally:
        pin(original)


def count_forwards(monkeypatch, pin):
    """The BLAS thread count at every forward from now on, training's included."""
    seen = []
    for module in (nn, predictor):  # dip_logits calls the forward it imported

        def counted(*args, real=module._forward_cached):
            seen.append(blas_threads(pin))
            return real(*args)

        monkeypatch.setattr(module, "_forward_cached", counted)
    return seen


def train_spirals(mode, seed=0, learning_rate=0.1):
    ds, _ = standardize(gen_spirals(50, 0.05, 1.25, seed=0))
    return train(mlp_init([2, 16, 2], "relu", seed=seed), ds, MixConfig(mode, 1.0, 2),
                 OptimState(learning_rate, 0.9), 3, 32, np.random.default_rng(seed))


def predict_calls():
    """predict_batch calls of raw, one-block dip and many-block dip prediction."""
    params = threaded_model("relu")
    pool = np.random.default_rng(0).normal(size=(30, 2))
    return [lambda cfg=cfg, n=n: predict_batch(params, pool[:n], cfg) for cfg, n in (
        (PredictorConfig("raw"), 30), (PredictorConfig("dip", 7, BetaParams(2, 1), pool), 5),
        (PredictorConfig("dip", 500, BetaParams(2, 1), pool), 30))]


class TestOneBlasThread:
    """Training and prediction compute on one BLAS thread and give the caller
    back the count it had, however they end and however many run at once."""

    @pytest.mark.parametrize("call", ["none", "label_mixing", "label_preserving", "raw",
                                      "dip-one-block", "dip-many-blocks"])
    def test_every_forward_runs_on_one_blas_thread(self, monkeypatch, caller_count, call):
        pin, count = caller_count
        seen = count_forwards(monkeypatch, pin)
        calls = dict(zip(["raw", "dip-one-block", "dip-many-blocks"], predict_calls()))
        calls.get(call, lambda: train_spirals(call))()
        assert seen and set(seen) == {1}
        assert blas_threads(pin) == count

    def test_the_callers_count_is_restored_after_an_error(self, caller_count):
        pin, count = caller_count
        with pytest.raises(DivergenceError):
            train_spirals("none", learning_rate=1000.0)
        assert blas_threads(pin) == count
        nan, pool = np.full((3, 2), np.nan), np.random.default_rng(0).normal(size=(30, 2))
        for features, cfg in ((nan, PredictorConfig("raw")),
                              (nan, PredictorConfig("dip", 500, BetaParams(2, 1), pool)),
                              (pool, PredictorConfig("dip", 500, BetaParams(2, 1), pool * np.inf))):
            with pytest.raises(NumericError):
                predict_batch(threaded_model("relu"), features, cfg)
            assert blas_threads(pin) == count

    def test_concurrent_calls_do_not_wait_and_the_last_one_out_restores(self, monkeypatch,
                                                                        caller_count):
        pin, count = caller_count
        sequential = [train_spirals("label_preserving", seed) for seed in (0, 1)]
        met, barrier, first_done = set(), threading.Barrier(2, timeout=30), threading.Event()
        real = predictor._forward_cached

        def meeting(*args):
            name = threading.current_thread().name
            if name not in met:
                met.add(name)
                barrier.wait()  # both calls are inside at once: neither waits for the other
                if name == "seed1":
                    assert first_done.wait(timeout=30)  # held until seed 0 has returned
            return real(*args)

        monkeypatch.setattr(predictor, "_forward_cached", meeting)
        results, errors, after_first = {}, [], []

        def run(seed):
            try:
                results[seed] = train_spirals("label_preserving", seed)
                if seed == 0:
                    after_first.append(blas_threads(pin))
                    first_done.set()
            except BaseException as exc:
                errors.append(exc)
                first_done.set()

        threads = [threading.Thread(target=run, args=(seed,), name=f"seed{seed}")
                   for seed in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert after_first == [1]  # seed 1 still held one thread when seed 0 left
        assert blas_threads(pin) == count
        for seed, (params, metrics) in enumerate(sequential):
            assert results[seed][0].flat.tobytes() == params.flat.tobytes()
            assert results[seed][1] == metrics

    def test_many_holders_at_once_keep_one_thread(self, caller_count):
        # more holders than CPUs, switching often, so a lost update to the holder list would
        # leave the count pinned, or restore it while a holder is still inside
        pin, count = caller_count
        inside, interval = [], sys.getswitchinterval()

        def hold():
            for _ in range(200):
                with predictor._one_blas_thread():
                    inside.append(blas_threads(pin))

        threads = [threading.Thread(target=hold) for _ in range(4 * (os.cpu_count() or 1))]
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(inside) == 200 * len(threads) and set(inside) == {1}
        assert predictor._holders == [] and blas_threads(pin) == count

    def test_without_the_pin_nothing_is_pinned(self, monkeypatch, caller_count):
        pin, count = caller_count
        monkeypatch.setattr(predictor, "_blas_pin", lambda: None)
        seen = count_forwards(monkeypatch, pin)
        train_spirals("label_preserving")
        for call in predict_calls():
            call()
        assert seen and set(seen) == {count}


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

    def test_loss_is_exact_far_from_the_data(self):
        # rows far outside the spirals, where the softmax of the true class underflows
        params = load_model(PERFBENCH_MODEL)
        x = np.array([[60.0, -80.0], [200.0, 300.0], [-500.0, 40.0]])
        ds = Dataset(x, np.eye(2)[[0, 0, 0]])
        result = evaluate(params, ds, PredictorConfig("raw"))
        exact = -log_softmax(forward(params, x))[np.arange(3), [0, 0, 0]].mean()
        assert result.mean_loss == exact
        assert abs(result.mean_loss - 984.21) < 0.01  # no row's loss is capped
        assert result.accuracy == float((predict_batch(params, x, PredictorConfig("raw"))
                                         .argmax(axis=1) == 0).mean())

    def test_dip_scores_come_from_the_logits_predict_batch_uses(self, mixup_spirals_model):
        params, train_set, test_set = mixup_spirals_model
        cfg = PredictorConfig("dip", 50, BetaParams(2, 1), train_set.features, seed=3)
        result = evaluate(params, test_set, cfg)
        log_probs = log_softmax(predictor._logits(params, test_set.features, cfg))
        ids = test_set.class_ids()
        assert np.array_equal(np.exp(log_probs), predict_batch(params, test_set.features, cfg))
        assert result.mean_loss == -log_probs[np.arange(test_set.n), ids].mean()
        assert result.accuracy == float((log_probs.argmax(axis=1) == ids).mean())

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
        ((1.0, -1.0), (-1.0, 1.0), 2),
        ((-1.0, 1.0), (0.5, 0.5), 2),
    ], ids=["xmin-nan", "xmax-inf", "ymin-inf", "ymax-bool", "res-float", "res-bool", "res-zero",
            "x-reversed", "y-equal"])
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
    lam = sample_lambda(cfg.prior, rng, size=64)[:, None]
    partners = rng.integers(0, len(train_set.features), size=64)
    mixed = lam * x + (1 - lam) * train_set.features[partners]
    avg_logits = forward(params, mixed).mean(axis=0)
    expected = np.exp(avg_logits - avg_logits.max())
    expected /= expected.sum()
    np.testing.assert_allclose(probs, expected, atol=1e-12)
