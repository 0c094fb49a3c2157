"""Prediction for the marginalized classifier and the raw baseline.

The marginalized ("dip") mode scores a point by drawing S (ratio, partner)
pairs, averaging the network outputs of the mixed inputs in logit space, and
applying softmax; the raw mode is softmax of the unmixed logits. Each scored
item derives its own random stream from (seed, item position), so batched
evaluation is independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, ShapeError, is_int, is_real, is_seed
from .mixing import BetaParams, mix, sample_lambda
from .nn import ModelParams, _forward_cached, _hidden_buffers, forward, log_softmax

PREDICT_MODES = ("raw", "dip")
_STREAM_TAG = 2  # keeps prediction streams disjoint from training streams


@dataclass
class PredictorConfig:
    """Test-stage settings.

    prior None pins the mixing ratio at 1, collapsing dip onto raw.
    partner_pool must hold features in the same (post-standardization) space
    the model was trained on.
    """

    mode: str = "raw"
    s_test: int = 500
    prior: BetaParams | None = None
    partner_pool: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.mode not in PREDICT_MODES:
            raise ConfigurationError(f"unknown predictor mode {self.mode!r}")
        if not (is_int(self.s_test) and self.s_test >= 1):
            raise ConfigurationError(f"s_test must be a positive integer, got {self.s_test!r}")
        if not is_seed(self.seed):
            raise ConfigurationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.partner_pool is not None:
            self.partner_pool = np.asarray(self.partner_pool, dtype=float)
        if self.mode == "dip" and (self.partner_pool is None or len(self.partner_pool) == 0):
            raise ConfigurationError("dip prediction requires a nonempty partner_pool")


class EvalMetrics(NamedTuple):
    accuracy: float
    misclassification_rate: float
    mean_loss: float


def dip_logits(params: ModelParams, x, partners, lam, *, with_cache: bool = False,
               work=None):
    """Logits of the mixed classifier estimated from s draws per row.

    Row i of x is mixed with partners[i*s:(i+1)*s] at ratios
    lam[i*s:(i+1)*s], where s = len(lam) // len(x); the network outputs of
    the mixed rows are averaged over s. Training, prediction and the Jensen
    check all estimate the marginalized classifier through this one step.
    With ``with_cache`` the forward cache of the len(x)*s mixed rows (their
    layer inputs, the mixed rows first) is returned too, as (logits, cache),
    for backpropagation through every branch. ``work`` is passed to the
    forward pass as its hidden-layer buffers, so the cache's hidden entries
    are those buffers; the logits never alias them.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1, 1)
    s = len(lam) // len(x)
    mixed = mix(x if s == 1 else x.repeat(s, axis=0), partners, lam)
    if with_cache:
        out, cache = _forward_cached(params, mixed, work)
    else:
        out = forward(params, mixed, work)
    # what mean() computes, with less overhead; one draw is its own mean
    avg = out if s == 1 else out.reshape(len(x), s, -1).sum(axis=1) / s
    return (avg, cache) if with_cache else avg


def predict_batch(params: ModelParams, features, cfg: PredictorConfig) -> np.ndarray:
    """Probabilities for each row, one derived stream per row position."""
    features = np.asarray(features, dtype=float)
    if cfg.mode == "raw" or cfg.prior is None:
        # the degenerate prior marginalizes over nothing: f == h exactly
        logits = forward(params, features)
    else:
        pool = cfg.partner_pool
        if features.shape[1:] != (params.n_inputs,) or pool.shape[1:] != (params.n_inputs,):
            raise ShapeError(f"model takes {params.n_inputs} features, got points of shape "
                             f"{features.shape} and a partner pool of shape {pool.shape}")
        logits = np.empty((len(features), params.n_outputs))
        work = _hidden_buffers(params, cfg.s_test)  # shared by all items
        for item, x in enumerate(features):
            rng = np.random.default_rng([cfg.seed, _STREAM_TAG, item])
            lam = sample_lambda(cfg.prior, rng, size=cfg.s_test)
            partners = pool[rng.integers(0, len(pool), size=cfg.s_test)]
            logits[item] = dip_logits(params, x[None], partners, lam, work=work)[0]
    return np.exp(log_softmax(logits))


def evaluate(params: ModelParams, dataset: Dataset, cfg: PredictorConfig) -> EvalMetrics:
    """Accuracy, misclassification rate, and mean cross-entropy of the
    predicted probability vectors; argmax ties break to the lowest index."""
    probs = predict_batch(params, dataset.features, cfg)
    preds = probs.argmax(axis=1)
    accuracy = float((preds == dataset.class_ids()).mean())
    losses = -np.log(np.clip((probs * dataset.labels).sum(axis=1), 1e-300, None))
    return EvalMetrics(accuracy, 1.0 - accuracy, float(losses.mean()))


def decision_grid(params: ModelParams, cfg: PredictorConfig, x_range, y_range,
                  resolution: int):
    """Score a row-major grid over the box; top row is the largest y.

    Returns (xs ascending, ys descending, classes, max_probs) with the two
    matrices shaped (resolution, resolution). Only 2-D models and finite
    boxes are supported.
    """
    if params.n_inputs != 2:
        raise ConfigurationError(
            f"decision grids need a 2-dimensional model, got d={params.n_inputs}"
        )
    if not all(is_real(v) for v in (*x_range, *y_range)):
        raise ConfigurationError(f"grid bounds must be finite numbers, got x {tuple(x_range)} "
                                 f"and y {tuple(y_range)}")
    if not (is_int(resolution) and resolution >= 1):
        raise ConfigurationError(f"resolution must be an integer >= 1, got {resolution!r}")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[1], y_range[0], resolution)
    gx, gy = np.meshgrid(xs, ys)
    # row-major cells: cell (r, c) is item r * resolution + c of the batch
    probs = predict_batch(params, np.column_stack([gx.ravel(), gy.ravel()]), cfg)
    classes = probs.argmax(axis=1).reshape(resolution, resolution)
    max_probs = probs.max(axis=1).reshape(resolution, resolution)
    return xs, ys, classes, max_probs
