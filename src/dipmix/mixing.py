"""Sample-mixing primitives.

The convex-combination map between two feature vectors, Beta priors over the
mixing ratio, draws from those priors, the Gauss-Jacobi rule that integrates
against them, and in-batch partner draws. A prior of ``None`` stands
everywhere for the degenerate distribution with all mass at ratio 1, i.e. no
mixing at all; under it a mixed classifier collapses to its base network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, ShapeError, check_int, check_real, is_real

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


@dataclass(frozen=True)
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
        check_real("alpha", self.alpha, ">= 0")
        check_int("s", self.s, "> 0")
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


def sample_lambda(prior: BetaParams | None, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` mixing ratios from the prior with numpy's ``Generator.beta``.

    The degenerate prior (None) yields exactly 1 and consumes no randomness.
    """
    check_int("size", size, "> 0")
    return np.ones(size) if prior is None else rng.beta(prior.a, prior.b, size=size)


def sample_partners(m: int, rng: np.random.Generator) -> np.ndarray:
    """Mix partners for a batch of m rows: a uniform random permutation of 0..m-1."""
    check_int("m", m, "> 0")
    return rng.permutation(m)


def beta_rule(prior: BetaParams | None, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q-node Gauss-Jacobi rule of the prior on [0, 1], as (nodes, weights).

    The weights are positive and sum to 1, and the rule integrates every
    polynomial in the ratio of degree below 2q exactly against the prior.
    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    Jacobi polynomials with (alpha, beta) = (b - 1, a - 1), mapped from
    [-1, 1] by lam = (1 + x) / 2, and each weight is the squared first
    component of its unit eigenvector. The degenerate prior (None) gives the
    node 1 with weight 1, whatever q.
    """
    check_int("q", q, "> 0")
    if prior is None:
        return np.ones(1), np.ones(1)
    al, be = prior.b - 1.0, prior.a - 1.0
    ab = al + be
    k = np.arange(1, q)
    t = 2.0 * k + ab
    # k = 0 on the diagonal and k = 1 off it take their closed forms: the general
    # terms are 0/0 at a + b = 2 and at a + b = 1
    diag = np.concatenate([[(be - al) / (ab + 2.0)], (be * be - al * al) / (t * (t + 2.0))])
    off_sq = np.empty(q - 1)
    off_sq[:1] = 4.0 * (1.0 + al) * (1.0 + be) / ((ab + 2.0) ** 2 * (ab + 3.0))
    k, t = k[1:], t[1:]
    off_sq[1:] = 4.0 * k * (k + al) * (k + be) * (k + ab) / (t * t * (t + 1.0) * (t - 1.0))
    off = np.sqrt(off_sq)
    x, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (1.0 + x) / 2.0, vectors[0] ** 2
