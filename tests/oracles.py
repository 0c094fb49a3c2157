"""Test oracles for two identities of the marginalized classifier.

``prop1_check`` integrates both sides of the label-mixing / label-preserving
equivalence on one Gauss-Jacobi rule; ``jensen_check`` estimates the S-draw
surrogate by Monte Carlo and returns it with its exact S -> infinity limit.
"""

from typing import NamedTuple

import numpy as np

from dipmix import BetaParams, beta_rule, forward, mix, sample_lambda
from dipmix.nn import log_softmax
from dipmix.predictor import dip_logits

QUAD_NODES = 32  # ratio nodes of both oracles; a trained net's Jensen limit moves < 1e-6 at 128


class LossEstimate(NamedTuple):
    """A Monte-Carlo loss estimate with its standard error."""

    value: float
    std_error: float
    n_reps: int


def _xent_rows(logits, soft_labels):
    """Per-row softmax cross-entropy."""
    return -(soft_labels * log_softmax(logits)).sum(axis=1)


def prop1_check(params, dataset, alpha, quad_nodes=QUAD_NODES, loss_rows=None):
    """(lhs, rhs, |lhs - rhs|) of label-mixing under Beta(alpha, alpha) and
    label-preserving under Beta(alpha+1, alpha), over all n^2 ordered pairs.

    Both sides share one Beta(alpha, alpha) rule; the preserving side weights
    each node by 2 * lam, the density ratio, so a label-linear ``loss_rows``
    makes them agree to rounding.
    """
    n = dataset.n
    nodes, weights = beta_rule(BetaParams(alpha, alpha), quad_nodes)
    loss_rows = loss_rows or _xent_rows
    x, y = dataset.features, dataset.labels
    xi, xk = np.repeat(x, n, axis=0), np.tile(x, (n, 1))  # pair (i, k) is row i * n + k
    yi, yk = np.repeat(y, n, axis=0), np.tile(y, (n, 1))
    lhs = rhs = 0.0
    for lam, w in zip(nodes, weights):
        logits = forward(params, mix(xi, xk, lam))
        lhs += w * float(loss_rows(logits, mix(yi, yk, lam)).mean())
        rhs += w * 2.0 * lam * float(loss_rows(logits, yi).mean())
    return lhs, rhs, abs(lhs - rhs)


def jensen_check(params, dataset, alpha, s_list, reps, rng, *, loss_rows=None):
    """(estimates aligned with s_list, limit) of the Jensen surrogate on frozen
    params, ratios from Beta(alpha+1, alpha) and partners i.i.d. over the data.

    ``limit`` is the loss of the marginalized logits: the QUAD_NODES-node rule
    summed over every dataset partner, with no randomness.
    """
    loss_rows = loss_rows or _xent_rows
    prior = BetaParams(alpha + 1.0, alpha)
    x, y = dataset.features, dataset.labels
    n = dataset.n

    def estimate(s):
        vals = np.empty(reps)
        chunk = max(1, 200_000 // (n * s))
        for done in range(0, reps, chunk):
            r = min(chunk, reps - done)
            rows = r * n * s
            lam = sample_lambda(prior, rng, size=rows)
            partners = rng.integers(0, n, size=rows)
            avg_logits = dip_logits(params, np.tile(x, (r, 1)), x[partners], lam)
            losses = loss_rows(avg_logits, np.tile(y, (r, 1)))
            vals[done:done + r] = losses.reshape(r, n).mean(axis=1)
        return LossEstimate(float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(reps)), reps)

    estimates = [estimate(s) for s in s_list]
    everyone = np.tile(x, (n, 1))  # row i's n partners are the whole dataset
    marginal = sum(w * dip_logits(params, x, everyone, np.full(n * n, lam))
                   for lam, w in zip(*beta_rule(prior, QUAD_NODES)))
    return estimates, float(loss_rows(marginal, y).mean())
