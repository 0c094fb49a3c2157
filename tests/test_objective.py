import copy
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
    DivergenceError,
    DomainError,
    EpochMetrics,
    MixConfig,
    OptimState,
    backward,
    beta_rule,
    dip_loss_preserving_grad,
    forward,
    gen_spirals,
    mix,
    mixup_loss_grad,
    mlp_init,
    sample_lambda,
    sgd_step,
    standardize,
    train,
)
from dipmix import nn, objective
from dipmix.nn import ModelParams, Workspace
from dipmix.predictor import _blas_pin

from oracles import QUAD_NODES, _xent_rows, jensen_check, prop1_check
from test_nn import fd_param_grads, flatten_grads, max_rel_err


def zero_net(d, k, sizes=None):
    sizes = sizes or [d, k]
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return ModelParams(sizes, weights, biases, "relu")


@pytest.fixture
def tiny_batch(tiny_spirals):
    """(features, soft labels) of the tiny spirals set."""
    return (tiny_spirals.features, tiny_spirals.labels)


class TestPlainLoss:
    def test_zero_net_gives_log2(self, tiny_batch):
        assert abs(backward(zero_net(2, 2), *tiny_batch)[0] - math.log(2)) < 1e-15

    def test_equals_dip_with_mode_none(self, small_net, tiny_batch):
        rng = np.random.default_rng(0)
        dip = dip_loss_preserving_grad(small_net, *tiny_batch, MixConfig("none", 0.0, 1), rng)[0]
        assert dip == backward(small_net, *tiny_batch)[0]

    def test_hand_computed_two_sample_batch(self):
        # one linear layer: logits = x @ w + b, worked through by hand below
        w = np.array([[1.0, -1.0], [0.5, 2.0]])
        b = np.array([0.1, -0.2])
        p = ModelParams([2, 2], [w], [b], "relu")
        feats = np.array([[1.0, 2.0], [-1.0, 0.5]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = 0.0
        for x, y in zip(feats, labels):
            z = [x[0] * w[0, 0] + x[1] * w[1, 0] + b[0], x[0] * w[0, 1] + x[1] * w[1, 1] + b[1]]
            m = max(z)
            logsum = m + math.log(math.exp(z[0] - m) + math.exp(z[1] - m))
            expected += -(y[0] * (z[0] - logsum) + y[1] * (z[1] - logsum))
        expected /= 2
        assert abs(backward(p, feats, labels)[0] - expected) < 1e-12


class TestDipLossPreserving:
    def test_forced_lambda_one_equals_plain(self, small_net, tiny_batch):
        m = len(tiny_batch[0])
        cfg = MixConfig("label_preserving", 1.0, 1)
        loss = dip_loss_preserving_grad(small_net, *tiny_batch, cfg, None, lam=np.ones((m, 1)),
                                        partners=np.zeros((m, 1), dtype=int))[0]
        assert loss == backward(small_net, *tiny_batch)[0]

    def test_single_draw_matches_manual_mix_step(self, small_net, tiny_batch):
        # S=1 with the labels kept is one label-preserving mix step
        m = len(tiny_batch[0])
        rng = np.random.default_rng(5)
        lam = sample_lambda(BetaParams(2.0, 1.0), rng, size=m)
        partners = rng.permutation(m)
        cfg = MixConfig("label_preserving", 1.0, 1)
        loss = dip_loss_preserving_grad(small_net, *tiny_batch, cfg, None, lam=lam.reshape(m, 1),
                                        partners=partners.reshape(m, 1))[0]
        x = tiny_batch[0]
        mixed = lam[:, None] * x + (1 - lam[:, None]) * x[partners]
        manual = float(_xent_rows(forward(small_net, mixed), tiny_batch[1]).mean())
        assert abs(loss - manual) < 1e-14

    def test_large_s_converges_to_quadrature_marginal_risk(self, tiny_spirals):
        # oracle: marginalized logits by the 32-node Gauss-Jacobi rule of Beta(2,1)
        p = mlp_init([2, 8, 2], "tanh", seed=1)
        x, y = tiny_spirals.features, tiny_spirals.labels
        n = tiny_spirals.n
        f_logits = np.zeros((n, 2))
        for lam, w in zip(*beta_rule(BetaParams(2.0, 1.0), 32)):
            mixed = lam * np.repeat(x, n, axis=0) + (1 - lam) * np.tile(x, (n, 1))
            f_logits += (w / n) * forward(p, mixed).reshape(n, n, 2).sum(axis=1)
        marginal_risk = float(_xent_rows(f_logits, y).mean())

        cfg = MixConfig("label_preserving", 1.0, 256)
        batch = (x, y)
        rng = np.random.default_rng(99)
        draws = np.array([dip_loss_preserving_grad(p, *batch, cfg, rng)[0] for _ in range(48)])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - marginal_risk) < 3 * se

    def test_out_of_range_ratio_rejected(self, small_net, tiny_batch):
        m = len(tiny_batch[0])
        lam = np.ones((m, 1))
        lam[3] = 1.5
        with pytest.raises(DomainError):
            dip_loss_preserving_grad(small_net, *tiny_batch, MixConfig("label_preserving", 1.0, 1),
                                     None, lam=lam, partners=np.zeros((m, 1), dtype=int))

    def test_label_mixing_mode_rejected(self, small_net, tiny_batch):
        with pytest.raises(ConfigurationError):
            dip_loss_preserving_grad(small_net, *tiny_batch, MixConfig("label_mixing", 1.0, 1),
                                     np.random.default_rng(0))


class TestMixupLoss:
    def test_forced_lambda_one_equals_plain(self, small_net, tiny_batch):
        m = len(tiny_batch[0])
        loss = mixup_loss_grad(small_net, *tiny_batch, 1.0, None,
                               lam=np.ones(m), partners=np.arange(m))[0]
        assert loss == backward(small_net, *tiny_batch)[0]

    def test_out_of_range_ratio_rejected(self, small_net, tiny_batch):
        m = len(tiny_batch[0])
        lam = np.full(m, 0.5)
        lam[0] = -0.25
        with pytest.raises(DomainError):
            mixup_loss_grad(small_net, *tiny_batch, 1.0, None, lam=lam, partners=np.arange(m))

    def test_self_mix_is_fixed_point(self, small_net, tiny_batch):
        m = len(tiny_batch[0])
        loss = mixup_loss_grad(small_net, *tiny_batch, 1.0, None,
                               lam=np.full(m, 0.5), partners=np.arange(m))[0]
        assert abs(loss - backward(small_net, *tiny_batch)[0]) < 1e-12

    def test_matches_label_preserving_in_expectation(self, tiny_spirals):
        # the two estimators share their expectation when ratios follow
        # Beta(a, a) on the mixing side and Beta(a+1, a) on the preserving side
        p = mlp_init([2, 8, 2], "tanh", seed=2)
        batch = (tiny_spirals.features, tiny_spirals.labels)
        cfg = MixConfig("label_preserving", 1.0, 1)
        rng = np.random.default_rng(31)
        reps = 10_000
        mix_vals = np.array([mixup_loss_grad(p, *batch, 1.0, rng)[0] for _ in range(reps)])
        pres_vals = np.array([dip_loss_preserving_grad(p, *batch, cfg, rng)[0]
                              for _ in range(reps)])
        se = np.sqrt(mix_vals.var(ddof=1) / reps + pres_vals.var(ddof=1) / reps)
        assert abs(mix_vals.mean() - pres_vals.mean()) < 3 * se

    def test_invalid_alpha(self, small_net, tiny_batch):
        with pytest.raises(ConfigurationError):
            mixup_loss_grad(small_net, *tiny_batch, 0.0, np.random.default_rng(0))


class TestGradients:
    """Finite differences through the full mixed pipelines, draws frozen by
    reseeding the generator identically for every loss evaluation."""

    def test_mixup_grad_matches_fd(self):
        p = mlp_init([2, 5, 3], "tanh", seed=7)
        rng = np.random.default_rng(5)
        batch = (rng.normal(size=(6, 2)), np.eye(3)[rng.integers(0, 3, 6)])
        _, grads = mixup_loss_grad(p, *batch, 1.0, np.random.default_rng(11))
        numeric = fd_param_grads(
            lambda q: mixup_loss_grad(q, *batch, 1.0, np.random.default_rng(11))[0], p
        )
        assert max_rel_err(flatten_grads(grads), numeric) < 1e-4

    @pytest.mark.parametrize("s", [1, 4])
    def test_dip_grad_matches_fd(self, s):
        p = mlp_init([2, 5, 3], "tanh", seed=8)
        rng = np.random.default_rng(6)
        batch = (rng.normal(size=(5, 2)), np.eye(3)[rng.integers(0, 3, 5)])
        cfg = MixConfig("label_preserving", 1.0, s)
        _, grads = dip_loss_preserving_grad(p, *batch, cfg, np.random.default_rng(13))
        numeric = fd_param_grads(
            lambda q: dip_loss_preserving_grad(q, *batch, cfg, np.random.default_rng(13))[0], p
        )
        assert max_rel_err(flatten_grads(grads), numeric) < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("mode,s", [("none", 1), ("label_mixing", 1), ("none", 2),
                                        ("label_preserving", 3)])
    def test_workspace_leaves_the_callers_rows_unchanged(self, activation, mode, s):
        # backprop overwrites each cached hidden output with its activation derivative,
        # but not the cache's first entry, which for backward is the caller's x itself
        p = mlp_init([2, 6, 5, 3], activation, seed=8)
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=(5, 2)), np.eye(3)[rng.integers(0, 3, 5)]
        x_before, y_before = x.copy(), y.copy()
        cfg = MixConfig(mode, 0.0 if mode == "none" else 1.0, s)

        def step(work):
            if mode == "label_mixing":
                return mixup_loss_grad(p, x, y, cfg.alpha, np.random.default_rng(1), work=work)
            if s == 1:  # plain risk
                return backward(p, x, y, work=work)
            return dip_loss_preserving_grad(p, x, y, cfg, np.random.default_rng(1), work=work)

        loss, grads = step(Workspace.for_model(p, 5 * s))
        assert np.array_equal(x, x_before) and np.array_equal(y, y_before)
        expected_loss, expected = step(None)
        assert loss == expected_loss
        assert np.array_equal(flatten_grads(grads), flatten_grads(expected))


class TestProp1Check:
    @pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 2.0, 4.0])
    def test_equality_for_linear_loss(self, alpha):
        ds = gen_spirals(4, 0.05, 1.25, seed=3)
        p = mlp_init([2, 8, 2], "relu", seed=4)
        lhs, rhs, diff = prop1_check(p, ds, alpha)
        assert diff <= 1e-12

    def test_single_sample_self_pairs(self, small_net):
        ds = Dataset(np.array([[0.3, -0.7]]), np.array([[1.0, 0.0]]))
        lhs, rhs, diff = prop1_check(small_net, ds, 1.0, quad_nodes=2)
        assert diff < 1e-12

    def test_nonlinear_loss_breaks_equality(self, small_net):
        ds = gen_spirals(4, 0.05, 1.25, seed=3)

        def squared_error_rows(logits, labels):
            shifted = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(shifted)
            probs /= probs.sum(axis=1, keepdims=True)
            return ((probs - labels) ** 2).sum(axis=1)

        _, _, diff = prop1_check(small_net, ds, 1.0, quad_nodes=128,
                                 loss_rows=squared_error_rows)
        assert diff > 1e-3

    def test_refuses_few_nodes_and_small_alpha(self, small_net, tiny_spirals):
        for alpha in (0, -1.0, math.nan, math.inf, True):
            with pytest.raises(ConfigurationError, match="Beta shape parameters must be finite"):
                prop1_check(small_net, tiny_spirals, alpha)


@pytest.fixture(scope="module")
def confident_net():
    """Briefly trained unmixed net: confident logits give a visible Jensen gap."""
    full = gen_spirals(32, 0.05, 1.25, seed=9)
    ds, _ = standardize(full)
    p = mlp_init([2, 16, 16, 2], "relu", seed=9)
    p, _ = train(p, ds, MixConfig("none"), OptimState(0.1, 0.9), 60, 16,
                 np.random.default_rng([9, 1]))
    return p, ds


class TestJensenCheck:
    def test_monotone_ordering(self, confident_net):
        p, ds = confident_net
        ests, limit = jensen_check(p, ds, 1.0, [1, 2, 4, 16], 1000,
                                   np.random.default_rng(17))
        for hi, lo in zip(ests, ests[1:]):
            comb = math.hypot(hi.std_error, lo.std_error)
            assert lo.value <= hi.value + 2 * comb
        # every surrogate estimate stays above the common limit, S = 16 visibly
        assert all(e.value >= limit - 3 * e.std_error for e in ests)
        assert ests[-1].value - limit > 3 * ests[-1].std_error

    def test_limit_is_deterministic_and_exact_for_linear_functionals(self, confident_net):
        p, ds = confident_net
        _, limit = jensen_check(p, ds, 1.0, [1], 1000, np.random.default_rng(1))
        assert isinstance(limit, float)
        assert jensen_check(p, ds, 1.0, [1], 1000, np.random.default_rng(2))[1] == limit
        # a linear functional of the logits commutes with the expectation: the
        # limit is its mean over every (row, partner) pair under the rule
        w = np.array([0.7, -1.3])
        _, linear = jensen_check(p, ds, 1.0, [1], 1000, np.random.default_rng(1),
                                 loss_rows=lambda logits, labels: logits @ w)
        x, n = ds.features, ds.n
        rows, partners = np.repeat(x, n, axis=0), np.tile(x, (n, 1))
        direct = 0.0
        for lam, weight in zip(*beta_rule(BetaParams(2.0, 1.0), QUAD_NODES)):
            direct += weight * float((forward(p, mix(rows, partners, lam)) @ w).mean())
        assert abs(linear - direct) < 1e-12

    def test_first_gap_strictly_positive(self, confident_net):
        p, ds = confident_net
        ests, _ = jensen_check(p, ds, 1.0, [1, 2], 1000, np.random.default_rng(23))
        comb = math.hypot(ests[0].std_error, ests[1].std_error)
        assert ests[0].value - ests[1].value > 2 * comb

    def test_linear_functional_collapses_ordering(self, confident_net):
        p, ds = confident_net
        w = np.array([0.7, -1.3])
        linear_rows = lambda logits, labels: logits @ w
        ests, _ = jensen_check(p, ds, 1.0, [1, 2, 8], 1000,
                               np.random.default_rng(29), loss_rows=linear_rows)
        for a in ests:
            for b in ests:
                comb = math.hypot(a.std_error, b.std_error)
                assert abs(a.value - b.value) <= 3 * comb + 1e-12


def reference_train(params, ds, cfg, optim, epochs, batch_size, rng):
    """train's loop through the public allocating calls, none given a workspace."""
    x, y = ds.features, ds.labels
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(ds.n)
        total = 0.0
        for start in range(0, ds.n, batch_size):
            idx = order[start:start + batch_size]
            if cfg.mode == "label_mixing":
                loss, grads = mixup_loss_grad(params, x[idx], y[idx], cfg.alpha, rng)
            elif cfg.mode == "label_preserving":
                loss, grads = dip_loss_preserving_grad(params, x[idx], y[idx], cfg, rng)
            else:
                loss, grads = backward(params, x[idx], y[idx])
            sgd_step(params, grads, optim, epoch)
            total += loss * len(idx)
        acc = float((forward(params, x).argmax(axis=1) == ds.class_ids()).mean())
        metrics.append(EpochMetrics(epoch, total / ds.n, acc, optim.lr_at(epoch)))
    return params, metrics


class TestTrain:
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("mode", ["none", "label_mixing", "label_preserving"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_workspace_equals_allocating_calls(self, activation, mode, momentum):
        ds, _ = standardize(gen_spirals(25, 0.1, 1.25, seed=2))  # 50 rows: batches 16, 16, 16, 2
        cfg = MixConfig(mode, 0.0 if mode == "none" else 1.0, 3)
        runs = []
        for loop in (train, reference_train):
            params = mlp_init([2, 12, 8, 2], activation, seed=2)
            runs.append(loop(params, ds, cfg, OptimState(0.2, momentum, [(3, 0.5)]), 5, 16,
                             np.random.default_rng(5)))
        (p, metrics), (q, expected) = runs
        assert all(np.array_equal(a, b) for a, b in zip(p.weights + p.biases, q.weights + q.biases))
        assert np.array_equal(np.array(metrics), np.array(expected))

    @pytest.mark.parametrize("mode,step_name", [("none", "backward"),
                                                ("label_mixing", "mixup_loss_grad"),
                                                ("label_preserving", "dip_loss_preserving_grad")])
    def test_every_step_reuses_the_same_buffers(self, monkeypatch, mode, step_name):
        steps, updates, evals, caches = [], [], [], []

        def spy(module, name, log, record):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                log.append(record(*args, **kwargs))
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        def stale(*a, work=None, **k):  # delta rows a step must neither read nor leave unwritten
            for buf in work.deltas:
                buf.fill(np.nan)
            return len(a[1]), work

        spy(objective, step_name, steps, stale)
        spy(objective, "sgd_step", updates, lambda p, grads, state, epoch: (
            grads, state, [np.isnan(buf).all(axis=1) for buf in steps[-1][1].deltas]))
        spy(objective, "forward", evals, lambda p, x, work=None: work)
        for module in (nn, objective):  # backward calls nn's, the mixed steps objective's
            spy(module, "_backprop", caches, lambda p, outputs, dlogits, work: outputs[1:])
        ds = gen_spirals(25, 0.1, 1.25, seed=2)  # 50 rows: batches 16, 16, 16, 2
        branches = 3 if mode == "label_preserving" else 1
        train(mlp_init([2, 12, 8, 2], "relu", seed=2), ds,
              MixConfig(mode, 0.0 if mode == "none" else 1.0, 3), OptimState(0.1, 0.9), 3, 16,
              np.random.default_rng(0))
        assert [m for m, _ in steps] == [16, 16, 16, 2] * 3 and len(caches) == len(steps)
        work = steps[0][1]
        for name in ("hidden", "deltas"):
            assert [buf.shape for buf in getattr(work, name)] == [(16 * branches, 12),
                                                                  (16 * branches, 8)]
        for (m, step_work), (grads, state, unwritten), hidden in zip(steps, updates, caches):
            assert step_work is work and grads is work.grads and state is updates[0][1]
            rows = m * branches  # the short last batch takes the leading rows
            for a, buf in zip(hidden, work.hidden):
                assert a.shape == (rows, buf.shape[1])
                assert np.shares_memory(a, buf[:rows]) and not np.shares_memory(a, buf[rows:])
            for mask in unwritten:
                assert np.array_equal(mask, np.arange(16 * branches) >= rows)
        assert len(evals) == 3 and [buf.shape for buf in evals[0]] == [(50, 12), (50, 8)]
        assert all(all(a is b for a, b in zip(work, evals[0])) for work in evals)

    @pytest.mark.skipif(sys.platform != "linux", reason="minor-fault counts are Linux rusage")
    def test_training_does_not_fault_in_fresh_pages_per_step(self):
        # The benchmark's label-preserving S=4 recipe, 40 epochs of 8 steps. Fresh 256-row
        # arrays every step fault ~28k pages; the reused workspace ~120.
        # A fresh interpreter, because a long-lived one may have raised glibc's mmap threshold.
        script = """if True:
            import resource, numpy as np
            from dipmix import (MixConfig, OptimState, gen_spirals, mlp_init, split,
                                standardize, train)
            train_set, _ = split(gen_spirals(500, 0.05, 1.25, seed=0), 0.5, seed=0)
            train_set, _ = standardize(train_set)

            def run():
                train(mlp_init([2, 64, 64, 2], "relu", seed=0), train_set,
                      MixConfig("label_preserving", 1.0, 4),
                      OptimState(0.1, 0.9, [(100, 0.1), (150, 0.1)]), 40, 64,
                      np.random.default_rng(0))

            run()  # warm-up: first calls, allocator arenas
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            run()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = os.path.dirname(os.path.dirname(dipmix.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                             check=True, capture_output=True, text=True).stdout
        assert int(out) < 1000

    @pytest.mark.skipif(_blas_pin() is None, reason="numpy's BLAS has no per-call thread count")
    def test_the_blas_thread_count_changes_no_bit(self):
        # train holds one BLAS thread, so nn.backward is run at each count directly, on the
        # 256 rows of a batch of 64 at S = 4 and on the 500 of an epoch's accuracy forward
        ds, _ = standardize(gen_spirals(250, 0.05, 1.25, seed=0))
        params = mlp_init([2, 64, 64, 2], "relu", seed=0)
        params.flat[:] = np.random.default_rng(0).normal(size=params.flat.size)
        pin = _blas_pin()
        runs = []
        original = pin(1)
        try:
            for count in (1, 2):
                pin(count)
                runs.append([(loss, grads.flat.tobytes()) for loss, grads in (
                    backward(params, x, y) for x, y in ((ds.features[:256], ds.labels[:256]),
                                                        (ds.features, ds.labels)))])
        finally:
            pin(original)
        assert runs[0] == runs[1]

    def test_separable_sanity(self):
        full = gen_spirals(100, 0.0, 1.25, seed=1)
        ds, _ = standardize(full)
        p = mlp_init([2, 64, 64, 2], "relu", seed=1)
        optim = OptimState(0.1, 0.9, [(100, 0.1), (150, 0.1)])
        p, metrics = train(p, ds, MixConfig("none"), optim, 200, 64,
                           np.random.default_rng([1, 1]))
        assert metrics[-1].train_acc >= 0.99

    def test_deterministic_metrics(self):
        def one():
            ds = gen_spirals(40, 0.05, 1.25, seed=6)
            p = mlp_init([2, 8, 2], "relu", seed=6)
            _, m = train(p, ds, MixConfig("label_preserving", 1.0, 2),
                         OptimState(0.1, 0.9), 5, 20, np.random.default_rng([6, 1]))
            return m

        assert one() == one()

    def test_label_mixing_semantics_reproducible_from_stream(self):
        # one full-batch epoch: shuffle, then per-example ratios, then one permutation
        ds = gen_spirals(10, 0.05, 1.25, seed=8)
        n = ds.n
        p = mlp_init([2, 6, 2], "relu", seed=8)
        frozen = copy.deepcopy(p)
        _, metrics = train(p, ds, MixConfig("label_mixing", 1.0, 1),
                           OptimState(0.1, 0.0), 1, n, np.random.default_rng(77))
        rng = np.random.default_rng(77)
        order = rng.permutation(n)
        lam = sample_lambda(BetaParams(1.0, 1.0), rng, size=n)
        partners = rng.permutation(n)
        batch = (ds.features[order], ds.labels[order])
        expected = mixup_loss_grad(frozen, *batch, 1.0, None, lam=lam, partners=partners)[0]
        assert metrics[0].train_loss == expected

    def test_collapse_to_one_class_raises(self):
        # at learning rate 5 every relu unit dies: the logits no longer depend on the input
        ds, _ = standardize(gen_spirals(30, 0.05, 1.25, seed=0))
        with pytest.raises(DivergenceError, match="training collapsed: after epoch 4"):
            train(mlp_init([2, 16, 16, 2], "relu", seed=0), ds, MixConfig("label_mixing", 1.0),
                  OptimState(5.0, 0.9), 5, 16, np.random.default_rng(0))

    def test_one_class_while_still_learning_is_no_collapse(self):
        # five epochs in, this run predicts one class at about the uniform loss, but its
        # logits still vary with the input
        ds, _ = standardize(gen_spirals(25, 0.1, 1.25, seed=2))
        p, metrics = train(mlp_init([2, 12, 8, 2], "relu", seed=2), ds, MixConfig("none"),
                           OptimState(0.2, 0.9, [(3, 0.5)]), 5, 16, np.random.default_rng(5))
        logits = forward(p, ds.features)
        assert np.all(logits.argmax(axis=1) == 1) and metrics[-1].train_acc == 0.5
        assert not np.all(logits == logits[0])

    def test_config_errors_before_any_update(self, small_net):
        ds = gen_spirals(10, 0.05, 1.25, seed=0)
        before = [w.copy() for w in small_net.weights]
        for epochs, batch_size in ((5, 100), (True, 4), (5, True)):
            with pytest.raises(ConfigurationError):
                train(small_net, ds, MixConfig("none"), OptimState(0.1), epochs, batch_size,
                      np.random.default_rng(0))
        assert all(np.array_equal(a, b) for a, b in zip(before, small_net.weights))
