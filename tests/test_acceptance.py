"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins.
"""

import json
import math
import time

import numpy as np
import pytest

from dipmix import (
    BetaParams,
    Dataset,
    MixConfig,
    OptimState,
    PredictorConfig,
    apply_stats,
    backward,
    beta_rule,
    c_lambda_closed,
    dip_loss_preserving_grad,
    evaluate,
    gen_spirals,
    mixup_loss_grad,
    mlp_init,
    predict_batch,
    rademacher_bracket,
    sample_lambda,
    split,
    standardize,
    train,
)
from dipmix.cli import main as cli_main

from oracles import jensen_check, prop1_check
from test_nn import fd_param_grads, flatten_grads, max_rel_err


def report(name, detail=""):
    print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())


def test_criterion_1_label_mixing_equivalence_oracle():
    start = time.perf_counter()
    full = gen_spirals(4, 0.05, 1.25, seed=12)  # n = 8
    params = mlp_init([2, 16, 2], "relu", seed=21)
    worst = 0.0
    for alpha in (0.05, 0.5, 1.0, 2.0, 4.0):
        _, _, diff = prop1_check(params, full, alpha)
        worst = max(worst, diff)
        assert diff <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("1 (pairing-identity oracle)", f"worst |lhs-rhs| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_mixing_constant_formula():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for alpha in (0.5, 1.0, 2.0, 8.0):
        expected = (alpha + 1) / (2 * alpha + 1)
        prior = BetaParams(alpha + 1, alpha)
        assert abs(c_lambda_closed(prior) - expected) < 1e-12
        lam, w = beta_rule(prior, 2)  # exact for the degree-2 integrand
        assert abs(float(w @ (lam**2 + (1 - lam) ** 2)) - expected) < 1e-14
        lam = sample_lambda(prior, rng, size=1_000_000)
        vals = lam**2 + (1 - lam) ** 2
        assert abs(vals.mean() - expected) < 3 * vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(c_lambda_closed(BetaParams(2, 1)) - 2 / 3) < 1e-12
    assert abs(c_lambda_closed(BetaParams(3, 2)) - 3 / 5) < 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("2 (mixing-constant closed form vs quadrature and MC)", f"{elapsed:.2f}s")


def test_criterion_3_jensen_surrogate_ordering():
    start = time.perf_counter()
    full = gen_spirals(32, 0.05, 1.25, seed=9)
    train_set, _ = split(full, 0.5, seed=9)
    train_set, _ = standardize(train_set)
    params = mlp_init([2, 32, 32, 2], "relu", seed=9)
    params, _ = train(params, train_set, MixConfig("none"), OptimState(0.1, 0.9),
                      60, 16, np.random.default_rng([9, 1]))
    s_list = [1, 2, 4, 16]
    estimates, limit = jensen_check(params, train_set, 1.0, s_list, 2000,
                                    np.random.default_rng(17))
    for hi, lo in zip(estimates, estimates[1:]):
        combined = math.hypot(hi.std_error, lo.std_error)
        assert lo.value <= hi.value + 2 * combined
    assert all(e.value >= limit - 3 * e.std_error for e in estimates)
    values = ", ".join(f"S={s}:{e.value:.4f}" for s, e in zip(s_list, estimates))
    values += f", limit:{limit:.4f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("3 (surrogate monotone in draw count)", f"{values}, {elapsed:.1f}s")


def test_criterion_4_gradient_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(40)
    feats = rng.normal(size=(6, 2))
    labels = np.eye(3)[rng.integers(0, 3, 6)]
    batch = (feats, labels)
    worst = 0.0

    params = mlp_init([2, 5, 3], "tanh", seed=41)
    _, grads = backward(params, *batch)
    numeric = fd_param_grads(lambda q: backward(q, *batch)[0], params)
    worst = max(worst, max_rel_err(flatten_grads(grads), numeric))

    params = mlp_init([2, 5, 3], "tanh", seed=42)
    _, grads = mixup_loss_grad(params, *batch, 1.0, np.random.default_rng(7))
    numeric = fd_param_grads(
        lambda q: mixup_loss_grad(q, *batch, 1.0, np.random.default_rng(7))[0], params)
    worst = max(worst, max_rel_err(flatten_grads(grads), numeric))

    params = mlp_init([2, 5, 3], "tanh", seed=43)
    cfg = MixConfig("label_preserving", 1.0, 4)
    _, grads = dip_loss_preserving_grad(params, *batch, cfg, np.random.default_rng(8))
    numeric = fd_param_grads(
        lambda q: dip_loss_preserving_grad(q, *batch, cfg, np.random.default_rng(8))[0], params)
    worst = max(worst, max_rel_err(flatten_grads(grads), numeric))

    assert worst < 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report("4 (gradients vs finite differences)", f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_complexity_bracket():
    start = time.perf_counter()
    ds, _ = standardize(gen_spirals(500, 0.05, 1.25, seed=5))
    b23, _, _ = rademacher_bracket(ds.features, 2 / 3)
    b1, _, _ = rademacher_bracket(ds.features, 1.0)
    ratio = b23 / b1
    assert abs(ratio - math.sqrt(2 / 3)) < 1e-3
    rng = np.random.default_rng(55)
    for _ in range(100):
        n = int(rng.integers(1, 60))
        d = int(rng.integers(1, 8))
        x = rng.normal(size=(n, d)) * rng.uniform(0.1, 4) + rng.normal(size=d)
        _, msn, snm = rademacher_bracket(x, 0.5)
        assert msn >= snm - 1e-12 * max(1.0, msn)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("5 (data bracket and moment inequality)",
           f"ratio {ratio:.6f} vs {math.sqrt(2/3):.6f}, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def spirals_experiment():
    """Default generator and model, five seeds: unmixed and label-mixing runs."""
    runs = {}
    for seed in range(5):
        full = gen_spirals(seed=seed)  # library defaults
        train_set, test_set = split(full, 0.5, seed=seed)
        train_set, stats = standardize(train_set)
        test_set = apply_stats(test_set, stats)
        optim = OptimState(0.1, 0.9, [(100, 0.1), (150, 0.1)])
        for tag, cfg in (("none", MixConfig("none")),
                         ("mix1", MixConfig("label_mixing", 1.0, 1))):
            params = mlp_init([2, 64, 64, 2], "relu", seed=seed)
            params, _ = train(params, train_set, cfg, optim, 200, 64,
                              np.random.default_rng([seed, 1]))
            runs[(seed, tag)] = (params, train_set, test_set)
    return runs


def test_criterion_6_spirals_recovery(spirals_experiment):
    start = time.perf_counter()
    nomix, mixup_acc, dip_acc = [], [], []
    for seed in range(5):
        params, train_set, test_set = spirals_experiment[(seed, "none")]
        nomix.append(evaluate(params, test_set, PredictorConfig("raw", seed=seed)).accuracy)
        params, train_set, test_set = spirals_experiment[(seed, "mix1")]
        mixup_acc.append(evaluate(params, test_set, PredictorConfig("raw", seed=seed)).accuracy)
        dip_cfg = PredictorConfig("dip", 500, BetaParams(2, 1), train_set.features, seed=seed)
        dip_acc.append(evaluate(params, test_set, dip_cfg).accuracy)

    def mean_se(vals):
        v = np.asarray(vals)
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))

    dip_mean, dip_se = mean_se(dip_acc)
    mix_mean, mix_se = mean_se(mixup_acc)
    nomix_mean, _ = mean_se(nomix)
    combined = math.hypot(dip_se, mix_se)
    assert dip_mean - mix_mean > combined, (
        f"marginalized prediction must beat raw beyond noise: "
        f"{dip_mean:.4f} vs {mix_mean:.4f} (combined SE {combined:.4f})"
    )
    assert abs(nomix_mean - dip_mean) <= 0.02, (
        f"marginalized prediction must sit within 2 points of the unmixed baseline: "
        f"{nomix_mean:.4f} vs {dip_mean:.4f}"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report("6 (spirals recovery)",
           f"dip {dip_mean:.4f} > mixup {mix_mean:.4f} (combined SE {combined:.4f}); "
           f"no-mix {nomix_mean:.4f} within 2 points; {elapsed:.1f}s")


def test_criterion_7_gap_trend(tmp_path):
    start = time.perf_counter()
    config = {
        "dataset": {
            "generator": {"n_per_class": 100, "noise_std": 0.15, "turns": 1.25, "seed": 0},
            "test_fraction": 0.5,
            "split_seed": 0,
            "standardize": True,
        },
        "model": {"layer_sizes": [2, 64, 64, 2], "activation": "relu"},
        "mix": {"mode": "label_mixing", "alpha": 1.0, "s": 1},
        "optim": {"learning_rate": 0.1, "momentum": 0.9,
                  "schedule": [[200, 0.1], [300, 0.1]]},
        "epochs": 400,
        "batch_size": 64,
        "predictor": {"mode": "raw", "s_test": 500, "alpha": None},
        "seeds": [0, 1, 2, 3, 4],
        "output_dir": str(tmp_path / "sweep"),
    }
    cfg_path = tmp_path / "sweep_config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["sweep", str(cfg_path), "--alphas", "0,1,2",
                     "--s-values", "1"]) == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    agg = {}
    for line in lines:
        cells = line.split(",")
        if cells[3] == "mean":
            agg[float(cells[0])] = (float(cells[6]), float(cells[9]))
    assert set(agg) == {0.0, 1.0, 2.0}
    gaps = [agg[a] for a in (0.0, 1.0, 2.0)]
    for (hi, hi_se), (lo, lo_se) in zip(gaps, gaps[1:]):
        combined = math.hypot(hi_se, lo_se)
        assert lo <= hi + combined, (
            f"gap must be nonincreasing in alpha up to one combined SE: "
            f"{hi:.4f} -> {lo:.4f} (SE {combined:.4f})"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 1200.0
    trend = " -> ".join(f"{g:.4f}" for g, _ in gaps)
    report("7 (gap trend over alpha)", f"gaps {trend}; {elapsed:.1f}s")


def test_criterion_8_degenerate_collapses():
    start = time.perf_counter()
    ds, _ = standardize(gen_spirals(16, 0.05, 1.25, seed=2))
    params = mlp_init([2, 16, 2], "relu", seed=3)
    batch = (ds.features, ds.labels)
    reference = backward(params, *batch)[0]
    m = len(batch[0])

    rng = np.random.default_rng(0)
    assert dip_loss_preserving_grad(params, *batch, MixConfig("none"), rng)[0] == reference
    assert dip_loss_preserving_grad(params, *batch, MixConfig("none", 0.0, 4), rng)[0] == reference
    assert mixup_loss_grad(params, *batch, 1.0, None,
                           lam=np.ones(m), partners=rng.permutation(m))[0] == reference

    raw_cfg = PredictorConfig("raw", seed=0)
    dip_cfg = PredictorConfig("dip", 500, None, ds.features, seed=0)
    for x in ds.features[:4]:
        assert np.array_equal(predict_batch(params, x[None], dip_cfg)[0],
                              predict_batch(params, x[None], raw_cfg)[0])
    raw_eval = evaluate(params, ds, raw_cfg)
    dip_eval = evaluate(params, ds, dip_cfg)
    assert raw_eval == dip_eval
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("8 (degenerate-prior collapses)", f"exact equality, {elapsed:.2f}s")


def test_criterion_9_manifest_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "dataset": {
            "generator": {"n_per_class": 250, "noise_std": 0.05, "turns": 1.25, "seed": 0},
            "test_fraction": 0.5,
            "split_seed": 0,
            "standardize": True,
        },
        "mix": {"mode": "label_mixing", "alpha": 1.0, "s": 1},
        "seeds": [3],
        "output_dir": str(tmp_path / "first"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["train", str(cfg_path)]) == 0
    manifest = tmp_path / "first" / "manifest.json"
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    assert cli_main(["train", str(manifest),
                     "--output-dir", str(tmp_path / "second")]) == 0
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert first == second
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("9 (manifest determinism)",
           f"metrics byte-identical across reruns, {elapsed:.1f}s")
