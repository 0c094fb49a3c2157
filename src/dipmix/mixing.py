"""Sample-mixing primitives.

The convex-combination map between two feature vectors, Beta priors over the
mixing ratio, draws from those priors, and in-batch partner draws. A prior of
``None`` stands everywhere for the degenerate distribution with all mass at
ratio 1, i.e. no mixing at all; under it a mixed classifier collapses to its
base network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError, check_count, is_real

MODES = ("none", "label_mixing", "label_preserving")


@dataclass(frozen=True)
class BetaParams:
    """Shape pair (a, b) of a Beta prior on the mixing ratio."""

    a: float
    b: float

    def __post_init__(self):
        if not (is_real(self.a) and is_real(self.b) and self.a > 0 and self.b > 0):
            raise ConfigurationError(f"Beta shape parameters must be finite positive numbers, "
                                     f"got ({self.a}, {self.b})")


@dataclass
class MixConfig:
    """How mixing enters training: mode, ratio prior and draw count.

    ``s`` is the number of mix draws averaged inside the loss for
    label-preserving training; each draw pairs the batch by its own in-batch
    permutation. label_mixing pairs by one in-batch permutation and ignores
    ``s``.
    """

    mode: str = "none"
    alpha: float = 0.0
    s: int = 1

    def __post_init__(self):
        if not (is_real(self.alpha) and self.alpha >= 0):
            raise ConfigurationError(f"alpha must be a finite number >= 0, got {self.alpha!r}")
        check_count("s", self.s)
        lambda_prior(self.mode, self.alpha)  # owns the mode and its alpha > 0 rule


def mix(x, x_prime, lam) -> np.ndarray:
    """Convex combination lam * x + (1 - lam) * x_prime.

    ``lam`` is a scalar or an array that broadcasts against the operands
    without enlarging them, e.g. a column holding one ratio per row. Endpoints
    are exact: lam=1 returns x, lam=0 returns x_prime.
    """
    x = np.asarray(x, dtype=float)
    x_prime = np.asarray(x_prime, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if x.shape != x_prime.shape:
        raise ShapeError(f"mix operands differ in shape: {x.shape} vs {x_prime.shape}")
    # min/max rather than an elementwise mask: this runs on every training step
    if lam.size and not (lam.min() >= 0.0 and lam.max() <= 1.0):
        raise DomainError(f"mixing ratios must lie in [0, 1], got [{lam.min()}, {lam.max()}]")
    mixed = lam * x + (1.0 - lam) * x_prime
    if mixed.shape != x.shape:
        raise ShapeError(f"ratios of shape {lam.shape} do not fit operands of shape {x.shape}")
    return mixed


def lambda_prior(mode: str, alpha: float) -> BetaParams | None:
    """Ratio prior for a training mode.

    label_preserving -> Beta(alpha+1, alpha); label_mixing -> Beta(alpha, alpha);
    none -> None, the point mass at 1.
    """
    if mode == "none":
        return None
    if mode not in MODES:
        raise ConfigurationError(f"unknown mix mode {mode!r}, expected one of {MODES}")
    if not (is_real(alpha) and alpha > 0):
        raise ConfigurationError(f"mode {mode!r} requires a finite alpha > 0, got {alpha}")
    if mode == "label_mixing":
        return BetaParams(alpha, alpha)
    return BetaParams(alpha + 1.0, alpha)


def sample_lambda(prior: BetaParams | None, rng: np.random.Generator, size=None):
    """Draw mixing ratios from the prior with numpy's ``Generator.beta``.

    The degenerate prior (None) yields exactly 1 and consumes no randomness.
    With ``size=None`` returns a scalar, otherwise an array of that length.
    """
    scalar = size is None
    n = 1 if scalar else int(size)
    lam = np.ones(n) if prior is None else rng.beta(prior.a, prior.b, size=n)
    return float(lam[0]) if scalar else lam


def sample_partners(m: int, rng: np.random.Generator) -> np.ndarray:
    """Mix partners for a batch of m rows: a uniform random permutation of 0..m-1."""
    if m < 1:
        raise ConfigurationError(f"need at least one row to pair, got m={m}")
    return rng.permutation(m)


def beta_pdf(lam, a: float, b: float) -> np.ndarray:
    """Beta(a, b) density evaluated at interior points of (0, 1)."""
    lam = np.asarray(lam, dtype=float)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return np.exp((a - 1.0) * np.log(lam) + (b - 1.0) * np.log1p(-lam) - log_norm)
