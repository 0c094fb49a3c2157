"""Complexity diagnostics for mixed classifiers.

The mixing prior's second-moment constant E[lam^2 + (1-lam)^2], the
data-dependent complexity bracket sqrt(C * mean ||x||^2 + (1-C) * ||mean x||^2)
it scales, and the assembled generalization-bound terms. The Lipschitz
constant, hypothesis-class constant, and loss bound are user inputs:
comparative use cancels them.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, check_real
from .mixing import BetaParams


@dataclass
class BoundReport:
    """All terms of the assembled bound, with the inputs echoed for provenance."""

    c_lambda: float
    mean_sq_norm: float
    sq_norm_mean: float
    bracket: float
    rho: float
    c_h: float
    n: int
    rad_bound: float
    delta: float
    confidence_term: float
    loss_bound: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def c_lambda_closed(prior: BetaParams | None) -> float:
    """E[lam^2 + (1-lam)^2] under a Beta(a, b) prior: 1 - 2ab/((a+b)(a+b+1)).

    Specializes to (alpha+1)/(2*alpha+1) for both Beta(alpha+1, alpha) and
    Beta(alpha, alpha). The degenerate prior gives 1 (no mixing, no shrink).
    """
    if prior is None:
        return 1.0
    a, b = prior.a, prior.b
    return 1.0 - 2.0 * a * b / ((a + b) * (a + b + 1.0))


def rademacher_bracket(features, c_lambda: float):
    """The data bracket sqrt(C * mean||x||^2 + (1-C) * ||mean x||^2).

    Returns (bracket, mean_sq_norm, sq_norm_mean). Their difference is the
    mean squared deviation, so the bracket is nondecreasing in C.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or not np.isfinite(x).all():
        raise ConfigurationError("features must be a nonempty 2-D matrix of finite numbers")
    check_real("c_lambda", c_lambda, "in [0, 1]")
    sq_norms = (x * x).sum(axis=1)
    mean_sq_norm = float(sq_norms.mean())
    mean_vec = x.mean(axis=0)
    sq_norm_mean = float(mean_vec @ mean_vec)
    bracket = math.sqrt(c_lambda * mean_sq_norm + (1.0 - c_lambda) * sq_norm_mean)
    return bracket, mean_sq_norm, sq_norm_mean


def bound_report(features, prior: BetaParams | None, rho: float = 1.0, c_h: float = 1.0,
                 loss_bound: float = 10.0, delta: float = 0.05) -> BoundReport:
    """Assemble the complexity and confidence terms for a dataset and prior.

    rad_bound = rho * c_h / sqrt(n) * bracket and
    confidence_term = 3 * loss_bound * sqrt(log(2/delta) / (2n)). The loss
    bound is a stated cap: cross-entropy itself is unbounded, so treat the
    term as comparative rather than certified.
    """
    for name, value in (("rho", rho), ("c_h", c_h), ("loss_bound", loss_bound)):
        check_real(name, value, "> 0")
    check_real("delta", delta, "in (0, 1)")
    c_lam = c_lambda_closed(prior)
    bracket, mean_sq_norm, sq_norm_mean = rademacher_bracket(features, c_lam)
    n = int(np.asarray(features).shape[0])
    rad_bound = rho * c_h / math.sqrt(n) * bracket
    confidence_term = 3.0 * loss_bound * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return BoundReport(
        c_lambda=c_lam,
        mean_sq_norm=mean_sq_norm,
        sq_norm_mean=sq_norm_mean,
        bracket=bracket,
        rho=rho,
        c_h=c_h,
        n=n,
        rad_bound=rad_bound,
        delta=delta,
        confidence_term=confidence_term,
        loss_bound=loss_bound,
    )
