"""Each correctness check passes the program's output and rejects a wrong one.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402

import dipmix as dm  # noqa: E402

ROWS = 40


@pytest.fixture(scope="module")
def setting():
    params, stats = run.load_shipped_model(dm)
    train_set, test_set, _ = run.make_split(dm, run.item_seed(3, 0), stats)
    return params, train_set.features, test_set.features[:ROWS]


def dip_probs(params, x, pool, prior):
    cfg = dm.PredictorConfig("dip", run.S_TEST, prior, partner_pool=pool, seed=5)
    return dm.predict_batch(params, x, cfg)


def reference(params, x, pool, prior=run.PRIOR):
    return checks.dip_reference(params.weights, params.biases, params.activation, x, pool,
                                *prior, run.REF_DRAWS, np.random.default_rng(11))


def test_raw_check_accepts_program_and_rejects_perturbed_weights(setting):
    params, _, x = setting
    raw = dm.predict_batch(params, x, dm.PredictorConfig("raw"))
    assert checks.check_raw(params.weights, params.biases, params.activation, x, raw) == []
    perturbed = [w + 1e-3 for w in params.weights]
    assert checks.check_raw(perturbed, params.biases, params.activation, x, raw)


def test_dip_check_accepts_program_output(setting):
    params, pool, x = setting
    probs = dip_probs(params, x, pool, dm.BetaParams(*run.PRIOR))
    mean, sd = reference(params, x, pool)
    assert checks.check_dip(mean, sd, run.REF_DRAWS, probs, run.S_TEST) == []


def test_dip_check_rejects_raw_probabilities(setting):
    params, pool, x = setting
    raw = dm.predict_batch(params, x, dm.PredictorConfig("raw"))
    mean, sd = reference(params, x, pool)
    assert checks.check_dip(mean, sd, run.REF_DRAWS, raw, run.S_TEST)


def test_dip_check_rejects_swapped_prior(setting):
    params, pool, x = setting
    swapped = dip_probs(params, x, pool, dm.BetaParams(run.PRIOR[1], run.PRIOR[0]))
    mean, sd = reference(params, x, pool)
    assert checks.check_dip(mean, sd, run.REF_DRAWS, swapped, run.S_TEST)


def test_dip_check_rejects_a_small_bias(setting):
    params, pool, x = setting
    probs = dip_probs(params, x, pool, dm.BetaParams(*run.PRIOR))
    mean, sd = reference(params, x, pool)
    se = sd[:, 1] * np.sqrt(1.0 / run.REF_DRAWS + 1.0 / run.S_TEST)
    shift = 2.0 * se[:, None] * np.array([-1.0, 1.0])  # each row alone stays within ROW_Z
    biased = checks.softmax(np.log(probs) + shift)
    assert checks.check_dip(mean, sd, run.REF_DRAWS, biased, run.S_TEST)


def test_simplex_check():
    assert checks.check_simplex(np.array([[0.25, 0.75], [1.0, 0.0]])) == []
    assert checks.check_simplex(np.array([[0.25, 0.76]]))
    assert checks.check_simplex(np.array([[-0.1, 1.1]]))
    assert checks.check_simplex(np.array([[np.nan, 1.0]]))


def test_loss_curve_check():
    assert checks.check_loss_curve([0.7, 0.3, 0.1]) == []
    assert checks.check_loss_curve([0.7, 0.3, 0.9])
    assert checks.check_loss_curve([0.7, 0.3, float("nan")])


def test_runner_flags_wrong_outputs():
    dm_, inputs, _ = run.set_up("predict_dip", 3)
    runner = run.Runner(dm_, "predict_dip", inputs)
    assert runner.run(0) is not None
    assert runner.problems == [] and runner.attempted == 1 and runner.failed == 0
    _, train_set, test_set = inputs["items"][0]
    reordered = runner.outputs[0][::-1].copy()
    runner.check(0, inputs["model"], train_set, test_set, reordered, None)
    assert any("repeated operation" in p for p in runner.problems)
    assert any("reference" in p for p in runner.problems)


def test_runner_flags_rising_loss_and_high_test_error():
    dm_, inputs, _ = run.set_up("train_plain", 3)
    runner = run.Runner(dm_, "train_plain", inputs)
    params, _ = run.load_shipped_model(dm_)
    _, train_set, test_set = inputs["items"][0]
    runner.check(0, params, train_set, test_set, None, [0.5, 0.6])
    assert any("final training loss" in p for p in runner.problems)
    runner.problems.clear()
    runner.errors = {0: 0.5}
    runner.test_err()
    assert any("exceeds the ceiling" in p for p in runner.problems)
