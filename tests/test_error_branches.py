"""Bad inputs that no other test reaches, one test each, matched by message:
the shape checks of ``Dataset``, ``apply_stats``, ``ModelParams``,
``sgd_step`` and the two mixing objectives, ``load_csv``'s empty-file and
no-rows errors (and the blank line it skips), and the real rule's answer to an
integer beyond float range."""

import numpy as np
import pytest

from dipmix import (ConfigurationError, Dataset, MixConfig, ModelParams, OptimState, ParseError,
                    ShapeError, StandardizeStats, apply_stats, backward, dip_loss_preserving_grad,
                    load_csv, mixup_loss_grad, mlp_init, sgd_step)
from dipmix.errors import check_real


def test_dataset_features_must_be_2d():
    with pytest.raises(ShapeError, match="features and labels must be 2-D"):
        Dataset(np.zeros(3), np.eye(3))


def test_dataset_row_counts_must_agree():
    with pytest.raises(ShapeError, match="^3 feature rows vs 2 label rows$"):
        Dataset(np.zeros((3, 2)), np.eye(2))


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError, match="^line 1: file is empty$") as info:
        load_csv(path)
    assert info.value.line == 1


def test_load_csv_header_and_blank_line_has_no_rows(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("x1,x2,label\n\n")
    with pytest.raises(ParseError, match="^line 2: no data rows$") as info:
        load_csv(path)
    assert info.value.line == 2


def test_load_csv_skips_a_blank_line_between_rows(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("x1,x2,label\n0.5,-1,0\n\n2,3,1\n")
    ds = load_csv(path)
    np.testing.assert_array_equal(ds.features, [[0.5, -1.0], [2.0, 3.0]])
    np.testing.assert_array_equal(ds.labels, np.eye(2))


def test_apply_stats_dimension_must_match():
    ds = Dataset(np.zeros((2, 2)), np.eye(2))
    stats = StandardizeStats(np.zeros(3), np.ones(3))
    with pytest.raises(ShapeError, match="^stats are 3-dimensional, dataset is 2-dimensional$"):
        apply_stats(ds, stats)


def test_real_rule_rejects_an_integer_beyond_float_range():
    with pytest.raises(ConfigurationError, match="^x must be a finite number >= 0, got 1000"):
        check_real("x", 10**400, ">= 0")


def test_model_params_need_one_weight_bias_pair_per_layer():
    w, b = np.zeros((2, 3)), np.zeros(3)
    with pytest.raises(ShapeError, match="^expected 2 weight/bias pairs, got 1/1$"):
        ModelParams((2, 3, 2), (w,), (b,))


def test_sgd_step_rejects_another_models_gradient():
    params, other = mlp_init([2, 4, 2], seed=0), mlp_init([2, 3, 2], seed=0)
    _, grads = backward(other, np.zeros((1, 2)), np.eye(2)[:1])
    with pytest.raises(ShapeError, match=f"^gradient has {other.flat.size} entries, "
                                         f"the model {params.flat.size}$"):
        sgd_step(params, grads, OptimState(0.1, 0.9), epoch=0)


def test_mixup_needs_one_label_row_per_feature_row():
    params = mlp_init([2, 4, 2], seed=0)
    with pytest.raises(ShapeError, match="^3 feature rows but 2 label rows$"):
        mixup_loss_grad(params, np.zeros((3, 2)), np.eye(2), 1.0, np.random.default_rng(0))


def test_mixup_lam_needs_one_entry_per_example():
    params = mlp_init([2, 4, 2], seed=0)
    x, y = np.zeros((3, 2)), np.eye(2)[[0, 1, 0]]
    with pytest.raises(ShapeError, match=r"^lam must have one entry per example, got shape \(2,\)$"):
        mixup_loss_grad(params, x, y, 1.0, np.random.default_rng(0), lam=np.full(2, 0.5))


def test_dip_surrogate_overrides_lam_and_partners_together():
    params = mlp_init([2, 4, 2], seed=0)
    x, y = np.zeros((3, 2)), np.eye(2)[[0, 1, 0]]
    cfg = MixConfig("label_preserving", 1.0, s=2)
    with pytest.raises(ConfigurationError, match="^lam and partners must be overridden together$"):
        dip_loss_preserving_grad(params, x, y, cfg, np.random.default_rng(0), lam=np.ones(6))
