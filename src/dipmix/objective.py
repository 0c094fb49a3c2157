"""Training objectives for mixed and unmixed classifiers.

The label-mixing (Mixup-style) loss, the S-draw label-preserving Jensen
surrogate whose inner average runs over logits, a training loop that also
runs plain empirical risk through nn.backward and stops on divergence, and
two verification oracles: a quadrature check of the label-mixing /
label-preserving equivalence, and a Monte-Carlo check that the surrogate is
monotone nonincreasing in the number of draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, DivergenceError, NumericError, ShapeError, is_int
from .mixing import (BetaParams, MixConfig, beta_pdf, lambda_prior, mix, sample_lambda,
                     sample_partners)
from .nn import (
    ModelParams,
    OptimState,
    Workspace,
    _backprop,
    _hidden_buffers,
    backward,
    forward,
    log_softmax,
    sgd_step,
    softmax_xent,
)
from .predictor import dip_logits

DIVERGENCE_FACTOR = 10.0  # healthy default-config runs peak near 1.1 x log(2), the uniform loss


@dataclass(frozen=True)
class LossEstimate:
    """A Monte-Carlo loss estimate with its standard error."""

    value: float
    std_error: float
    n_reps: int

    def __post_init__(self):
        if self.std_error < 0 or self.n_reps < 1:
            raise ConfigurationError("std_error must be >= 0 and n_reps >= 1")


class EpochMetrics(NamedTuple):
    epoch: int
    train_loss: float
    train_acc: float
    lr: float


def _xent_rows(logits: np.ndarray, soft_labels: np.ndarray) -> np.ndarray:
    """Per-row softmax cross-entropy."""
    return -(soft_labels * log_softmax(logits)).sum(axis=1)


def mixup_loss_grad(params: ModelParams, x, y, alpha: float, rng, *,
                    lam=None, partners=None, work=None):
    """Label-mixing loss and its analytic parameter gradients, as (loss, grads),
    on features ``x`` with soft labels ``y``.

    One Beta(alpha, alpha) ratio per example, partner by in-batch
    permutation, loss on mixed features with mixed soft labels. ``lam`` and
    ``partners`` override the random draws when given. A Workspace ``work``
    of len(x) rows takes the forward and backward arrays, as in backward.
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
    loss, dlogits = softmax_xent(logits, mix(y, y[partners], lam[:, None]),
                                 None if work is None else work.dlogits)
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
    A Workspace ``work`` of m * s rows takes the forward and backward arrays.
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


def prop1_check(params: ModelParams, dataset: Dataset, alpha: float,
                quad_nodes: int = 128, loss_rows=None):
    """Brute-force check that label-mixing under Beta(alpha, alpha) equals
    label-preserving under Beta(alpha+1, alpha) for losses linear in the label.

    Both sides average over all n^2 ordered pairs and integrate the ratio with
    Gauss-Legendre quadrature on [0, 1], the Beta density folded into the
    integrand and both integrals sharing one node set. Returns
    (lhs, rhs, abs_diff); a label-linear loss makes abs_diff vanish.

    ``loss_rows(logits, labels) -> per-row losses`` replaces the default
    cross-entropy, e.g. to demonstrate that a label-nonlinear loss breaks the
    equality.
    """
    n = dataset.n
    if n > 32:
        raise ConfigurationError(f"pair enumeration is quadratic; need n <= 32, got {n}")
    if quad_nodes < 64:
        raise ConfigurationError(f"need at least 64 quadrature nodes, got {quad_nodes}")
    if alpha < 0.5:
        raise ConfigurationError(
            f"alpha must be >= 0.5 (the ratio density is unbounded below that), got {alpha}"
        )
    if loss_rows is None:
        loss_rows = _xent_rows
    x, y = dataset.features, dataset.labels
    first = np.repeat(np.arange(n), n)
    second = np.tile(np.arange(n), n)
    xi, xk = x[first], x[second]
    yi, yk = y[first], y[second]
    nodes, weights = np.polynomial.legendre.leggauss(quad_nodes)
    lam_nodes = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    pdf_mixing = beta_pdf(lam_nodes, alpha, alpha)
    pdf_preserving = beta_pdf(lam_nodes, alpha + 1.0, alpha)
    lhs = 0.0
    rhs = 0.0
    for q in range(quad_nodes):
        lam = lam_nodes[q]
        logits = forward(params, mix(xi, xk, lam))
        mixed_labels = mix(yi, yk, lam)
        lhs += w[q] * pdf_mixing[q] * float(loss_rows(logits, mixed_labels).mean())
        rhs += w[q] * pdf_preserving[q] * float(loss_rows(logits, yi).mean())
    return lhs, rhs, abs(lhs - rhs)


def jensen_check(params: ModelParams, dataset: Dataset, alpha: float, s_list,
                 reps: int, rng, *, s_proxy: int = 256, proxy_reps: int = 64,
                 loss_rows=None):
    """Monte-Carlo estimates of the Jensen surrogate for each draw count in
    s_list, on frozen params, plus a large-draw proxy for the marginalized
    risk itself.

    Ratios follow Beta(alpha+1, alpha); partners are i.i.d. uniform over the
    dataset. Returns (estimates aligned with s_list, proxy estimate); the
    estimates are monotone nonincreasing in s up to Monte-Carlo noise and the
    proxy is their common limit. ``loss_rows`` replaces the cross-entropy with
    another per-row functional of the averaged logits (a linear functional
    collapses the ordering to equality).
    """
    if reps < 1000:
        raise ConfigurationError(f"need reps >= 1000 for stable standard errors, got {reps}")
    if loss_rows is None:
        loss_rows = _xent_rows
    prior = BetaParams(alpha + 1.0, alpha)
    x, y = dataset.features, dataset.labels
    n = dataset.n

    def estimate(s: int, n_reps: int) -> LossEstimate:
        vals = np.empty(n_reps)
        chunk = max(1, 200_000 // (n * s))
        done = 0
        while done < n_reps:
            r = min(chunk, n_reps - done)
            rows = r * n * s
            lam = sample_lambda(prior, rng, size=rows)
            partners = rng.integers(0, n, size=rows)
            avg_logits = dip_logits(params, np.tile(x, (r, 1)), x[partners], lam)
            losses = loss_rows(avg_logits, np.tile(y, (r, 1)))
            vals[done:done + r] = losses.reshape(r, n).mean(axis=1)
            done += r
        return LossEstimate(float(vals.mean()),
                            float(vals.std(ddof=1) / np.sqrt(n_reps)) if n_reps > 1 else 0.0,
                            n_reps)

    estimates = [estimate(int(s), reps) for s in s_list]
    proxy = estimate(s_proxy, proxy_reps)
    return estimates, proxy


def _check_count(name: str, value):
    if not (is_int(value) and value >= 1):
        raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")


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
    raises DivergenceError naming it. So does a final model that gives every
    training row the same logits, and so predicts one class, when the rows
    hold at least two.
    """
    _check_count("epochs", epochs)
    _check_count("batch_size", batch_size)
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
    tail = work.head(n % batch_size * branches)  # the short last batch, if any
    eval_hidden = _hidden_buffers(params, n)
    metrics = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        try:
            for start in range(0, n, batch_size):
                idx = order[start:start + batch_size]
                xb, yb = x[idx], y[idx]
                step = work if len(idx) == batch_size else tail
                # x stays positional and cfg goes by keyword: the benchmark's tracer reads them so
                if cfg.mode == "label_mixing":
                    loss, grads = mixup_loss_grad(params, xb, yb, cfg.alpha, rng, work=step)
                elif cfg.mode == "label_preserving":
                    loss, grads = dip_loss_preserving_grad(params, xb, yb, cfg=cfg, rng=rng,
                                                           work=step)
                else:
                    loss, grads = backward(params, xb, yb, work=step)
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
    # a model still learning may predict one class too; a collapsed one ignores its input
    if (logits == logits[0]).all() and not (ids == ids[0]).all():
        raise DivergenceError(f"training collapsed: after epoch {epochs - 1} the model gives all "
                              f"{n} training rows the same logits, class {logits[0].argmax()}")
    return params, metrics
