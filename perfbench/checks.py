"""Reference computations that the benchmark checks dipmix's outputs against.

Everything here is plain numpy and takes weights and arrays, not dipmix
objects, so a fault in the program cannot hide in its own check. Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

RAW_TOL = 1e-10  # a forward pass of the same arithmetic, reordered at most by BLAS
SIMPLEX_TOL = 1e-12
ROW_Z = 7.0  # one row's Monte-Carlo estimate off by more standard errors than this fails
MEAN_Z = 6.0  # the bias of all rows together, in standard errors of their mean
MIN_ARGMAX_AGREEMENT = 0.9


def mlp_logits(weights, biases, activation: str, x) -> np.ndarray:
    """Logits of a dense network: affine layers, activation between them."""
    a = np.asarray(x, dtype=float)
    last = len(weights) - 1
    for layer, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        if layer == last:
            a = z
        elif activation == "relu":
            a = np.maximum(z, 0.0)
        else:
            a = np.tanh(z)
    return a


def softmax(z) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def check_raw(weights, biases, activation, x, probs) -> list:
    """The program's raw probabilities match a plain numpy forward pass."""
    ref = softmax(mlp_logits(weights, biases, activation, x))
    if ref.shape != np.shape(probs):
        return [f"raw probabilities have shape {np.shape(probs)}, expected {ref.shape}"]
    err = float(np.max(np.abs(ref - probs)))
    if not err <= RAW_TOL:
        return [f"raw probabilities differ from a plain numpy forward by {err:.3g}"]
    return []


def check_simplex(probs) -> list:
    """Every row is a probability vector."""
    probs = np.asarray(probs)
    if not np.isfinite(probs).all():
        return ["probabilities contain non-finite entries"]
    if probs.min() < 0:
        return [f"negative probability {probs.min():.3g}"]
    err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if err > SIMPLEX_TOL:
        return [f"probability rows sum to 1 only within {err:.3g}"]
    return []


def check_loss_curve(losses) -> list:
    """Training ended with a finite loss below that of its first epoch."""
    first, last = float(losses[0]), float(losses[-1])
    if not math.isfinite(last):
        return [f"final training loss is {last}"]
    if not last < first:
        return [f"final training loss {last:.6g} is not below the first epoch's {first:.6g}"]
    return []


def dip_reference(weights, biases, activation, x, pool, a: float, b: float, draws: int,
                  rng: np.random.Generator, chunk: int = 2):
    """Monte-Carlo marginalized logits with numpy's own Beta sampler.

    For each row, ``draws`` pairs (ratio ~ Beta(a, b), partner uniform over
    ``pool``) mix the row, and the network's logits are averaged. Logits are
    centred per draw, which softmax ignores, so the result compares with the
    log of any probability vector. Returns (mean, sd) per row and class,
    where sd is the spread of a single draw. ``chunk`` rows are mixed at a
    time, so the reference never holds more rows than the program does.
    """
    x = np.asarray(x, dtype=float)
    pool = np.asarray(pool, dtype=float)
    n, d = x.shape
    k = len(biases[-1])
    mean = np.empty((n, k))
    sd = np.empty((n, k))
    for start in range(0, n, chunk):
        rows = x[start:start + chunk]
        r = len(rows)
        lam = rng.beta(a, b, size=(r, draws, 1))
        partners = pool[rng.integers(0, len(pool), size=(r, draws))]
        mixed = lam * rows[:, None, :] + (1.0 - lam) * partners
        z = mlp_logits(weights, biases, activation, mixed.reshape(r * draws, d)).reshape(r, draws, k)
        z -= z.mean(axis=2, keepdims=True)
        mean[start:start + r] = z.mean(axis=1)
        sd[start:start + r] = z.std(axis=1, ddof=1)
    return mean, sd


def check_dip(ref_mean, ref_sd, ref_draws: int, probs, draws: int) -> list:
    """The program's marginalized probabilities agree with the reference.

    Both are Monte-Carlo estimates of the same averaged logits, so each row
    must agree within ROW_Z combined standard errors, the rows together must
    show no bias beyond MEAN_Z standard errors of their mean, and most rows
    must share the argmax.
    """
    probs = np.asarray(probs, dtype=float)
    if probs.shape != ref_mean.shape:
        return [f"dip probabilities have shape {probs.shape}, expected {ref_mean.shape}"]
    with np.errstate(divide="ignore"):
        log_p = np.log(probs)
    prog = log_p - log_p.mean(axis=1, keepdims=True)
    se = np.maximum(ref_sd * math.sqrt(1.0 / ref_draws + 1.0 / draws), 1e-12)
    z = (prog - ref_mean) / se
    problems = []
    if not np.isfinite(z).all():
        return ["dip log-probabilities are not finite"]
    far = int((np.abs(z).max(axis=1) > ROW_Z).sum())
    if far:
        problems.append(f"{far} of {len(z)} rows lie beyond {ROW_Z} standard errors "
                        f"of the reference (largest {np.abs(z).max():.1f})")
    bias = float(np.abs(z.mean(axis=0)).max() * math.sqrt(len(z)))
    if bias > MEAN_Z:
        problems.append(f"rows are biased against the reference by {bias:.1f} standard errors")
    agree = float((probs.argmax(axis=1) == ref_mean.argmax(axis=1)).mean())
    if agree < MIN_ARGMAX_AGREEMENT:
        problems.append(f"only {agree:.3f} of rows share the reference argmax")
    return problems
