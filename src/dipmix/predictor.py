"""Prediction for the marginalized classifier and the raw baseline.

The marginalized ("dip") mode scores a point by drawing S (ratio, partner)
pairs, averaging the network outputs of the mixed inputs in logit space, and
applying softmax; the raw mode is softmax of the unmixed logits. A batch is
scored in blocks of consecutive rows, each drawing its ratios and partners
from one stream derived from (seed, block position); the block length depends
only on S, so a row's draws depend only on (seed, S, row position) and batched
evaluation is independent of execution order.

So block b of a call runs on worker b % workers, the calling thread being
worker 0, with the same bits. workers = min(blocks, CPUs this process may
use), which ``taskset`` restricts. ``objective.train`` and ``_logits`` hold one
BLAS thread through ``_one_blas_thread``; numpy's pthreads OpenBLAS applies that
count to the whole process, so workers inherit it. Without its
``openblas_set_num_threads_local`` nothing is pinned and every block runs here.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import ConfigurationError, NumericError, ShapeError, check_int, is_real
from .mixing import BetaParams, mix, sample_lambda
from .nn import ModelParams, _forward_cached, _hidden_buffers, forward, log_softmax

PREDICT_MODES = ("raw", "dip")
_STREAM_TAG = 2  # keeps prediction streams disjoint from training streams
# Mixed rows drawn per stream, and the most one forward takes. A block's arrays (4096 x 2
# float64 = 64 KiB) stay below glibc's 128 KiB mmap threshold, so they reuse heap pages
# rather than being mapped afresh.
_BLOCK_ROWS = 4096
_HOLDERS_LOCK = threading.Lock()  # guards _holders; OpenBLAS has one thread count per process
_holders = []  # per call now holding one BLAS thread, the count the first of them replaced


def _check_settings(mode, s_test) -> None:
    """The mode and draw-count rule; resolve_config applies it to a section without a pool."""
    if mode not in PREDICT_MODES:
        raise ConfigurationError(f"unknown predictor mode {mode!r}")
    check_int("s_test", s_test, "> 0")


@dataclass(frozen=True, eq=False)
class PredictorConfig:
    """Test-stage settings.

    prior None pins the mixing ratio at 1, collapsing dip onto raw.
    partner_pool must hold finite features in the same (post-standardization)
    space the model was trained on.
    """

    mode: str = "raw"
    s_test: int = 500
    prior: BetaParams | None = None
    partner_pool: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        _check_settings(self.mode, self.s_test)
        check_int("seed", self.seed, ">= 0")
        if self.mode == "dip" and (self.partner_pool is None or len(self.partner_pool) == 0):
            raise ConfigurationError("dip prediction requires a nonempty partner_pool")


class EvalMetrics(NamedTuple):
    accuracy: float
    misclassification_rate: float
    mean_loss: float


def dip_logits(params: ModelParams, x, partners, lam, *, with_cache: bool = False,
               work=None, bias_rows=None):
    """Logits of the mixed classifier estimated from s draws per row.

    Row i of x is mixed with partners[i*s:(i+1)*s] at ratios
    lam[i*s:(i+1)*s], where s = len(lam) // len(x); the network outputs of
    the mixed rows are averaged over s. Training and prediction both
    estimate the marginalized classifier through this one step. With
    ``with_cache`` the forward cache of the len(x)*s mixed rows (their layer
    inputs, the mixed rows first) is returned too, as (logits, cache), for
    backpropagation through every branch. ``work`` is passed to the forward
    pass as its hidden-layer buffers, so the cache's hidden entries are those
    buffers' leading rows; the logits never alias them. ``bias_rows`` is
    passed on too. Without the cache, the mixed rows go forward through
    ``work`` in pieces of len(work[0]) rows, or all at once if work is empty.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float).reshape(-1, 1)
    s = len(lam) // len(x)
    mixed = mix(x if s == 1 else x.repeat(s, axis=0), partners, lam)
    if with_cache:
        out, cache = _forward_cached(params, mixed, work, bias_rows)
    else:
        piece = len(work[0]) if work else len(mixed)
        out = np.empty((len(mixed), params.n_outputs))
        for start in range(0, len(mixed), piece):
            out[start:start + piece] = forward(params, mixed[start:start + piece], work,
                                               bias_rows)
    # what mean() computes, with less overhead; one draw is its own mean
    avg = out if s == 1 else out.reshape(len(x), s, -1).sum(axis=1) / s
    return (avg, cache) if with_cache else avg


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread while the block runs: the first of concurrent
    holders sets it, the last one out restores the caller's count; none waits for another."""
    pin = _blas_pin() or (lambda count: count)  # where _blas_pin() is None, pin nothing
    with _HOLDERS_LOCK:
        _holders.append(_holders[0] if _holders else pin(1))
    try:
        yield
    finally:
        with _HOLDERS_LOCK:
            before = _holders.pop()
            if not _holders:
                pin(before)


@_one_blas_thread()
def _logits(params: ModelParams, features, cfg: PredictorConfig) -> np.ndarray:
    """Logits for each row of finite features, one derived stream per block of rows."""
    features = np.asarray(features, dtype=float)
    if not np.isfinite(features).all():
        raise NumericError("features contain NaN or Inf")
    if cfg.mode == "raw" or cfg.prior is None:
        # the degenerate prior marginalizes over nothing: f == h exactly
        return forward(params, features)
    pool = np.asarray(cfg.partner_pool, dtype=float)
    if not np.isfinite(pool).all():
        raise NumericError("partner_pool contains NaN or Inf")
    if features.shape[1:] != (params.n_inputs,) or pool.shape[1:] != (params.n_inputs,):
        raise ShapeError(f"model takes {params.n_inputs} features, got points of shape "
                         f"{features.shape} and a partner pool of shape {pool.shape}")
    s = cfg.s_test
    block = max(1, _BLOCK_ROWS // s)
    rows = min(s, _BLOCK_ROWS)  # the most one forward takes: one item, or a piece of one
    starts = range(0, len(features), block)
    logits = np.empty((len(features), params.n_outputs))
    # the biases are fixed for the call, so every forward adds them from the same rows
    bias_rows = [np.tile(b, (rows, 1)) for b in params.biases[:-1]]
    workers = max(1, min(len(starts), _usable_cpus())) if _blas_pin() else 1

    def run(part):
        work = _hidden_buffers(params, rows)  # every forward of this worker goes through these
        for start in starts[part::workers]:
            x = features[start:start + block]
            rng = np.random.default_rng([cfg.seed, _STREAM_TAG, start // block])
            lam = sample_lambda(cfg.prior, rng, size=len(x) * s)
            partners = pool.take(rng.integers(0, len(pool), size=len(x) * s), axis=0)
            logits[start:start + block] = dip_logits(params, x, partners, lam, work=work,
                                                     bias_rows=bias_rows)

    _run_parts(run, workers)
    return logits


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_pin():
    """``openblas_set_num_threads_local`` of the OpenBLAS in numpy.libs (OpenBLAS
    >= 0.3.27), which sets a BLAS thread count and returns the one it replaced,
    or None where numpy ships no such library."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            pin = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        pin.argtypes, pin.restype = [ctypes.c_int], ctypes.c_int
        return pin
    return None


def _run_parts(run, workers: int) -> None:
    """run(part) for each part < workers, part 0 on this thread and each other on
    its own; once every part has ended, raises the first error one raised."""
    errors = []

    def guarded(part):
        try:
            run(part)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(part,)) for part in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        guarded(0)
    finally:  # a failed start ends the call too, once the threads it started have ended
        for thread in (thread for thread in threads if thread.is_alive()):
            thread.join()
    if errors:
        raise errors[0]


def predict_batch(params: ModelParams, features, cfg: PredictorConfig) -> np.ndarray:
    """Probabilities for each row of finite features: softmax of _logits."""
    return np.exp(log_softmax(_logits(params, features, cfg)))


def evaluate(params: ModelParams, dataset: Dataset, cfg: PredictorConfig) -> EvalMetrics:
    """Accuracy, misclassification rate and mean cross-entropy, each row scored
    by its log-probability at its class id; argmax ties break to the lowest index."""
    if dataset.k > params.n_outputs:
        raise ShapeError(f"class id {dataset.k - 1} has no output in a {params.n_outputs}-output model")
    log_probs = log_softmax(_logits(params, dataset.features, cfg))
    ids = dataset.class_ids()
    accuracy = float((log_probs.argmax(axis=1) == ids).mean())
    return EvalMetrics(accuracy, 1.0 - accuracy,
                       float(-log_probs[np.arange(dataset.n), ids].mean()))


def decision_grid(params: ModelParams, cfg: PredictorConfig, x_range, y_range,
                  resolution: int):
    """Score a row-major grid over the box; top row is the largest y.

    Returns (xs ascending, ys descending, classes, max_probs) with the two
    matrices shaped (resolution, resolution). Only 2-D models and finite
    boxes, each range given as (min, max) with min < max, are supported.
    """
    if params.n_inputs != 2:
        raise ConfigurationError(
            f"decision grids need a 2-dimensional model, got d={params.n_inputs}"
        )
    if not (all(is_real(v) for v in (*x_range, *y_range))
            and x_range[0] < x_range[1] and y_range[0] < y_range[1]):
        raise ConfigurationError(f"grid bounds must be finite numbers with min < max, got "
                                 f"x {tuple(x_range)} and y {tuple(y_range)}")
    check_int("resolution", resolution, "> 0")
    xs = np.linspace(x_range[0], x_range[1], resolution)
    ys = np.linspace(y_range[1], y_range[0], resolution)
    gx, gy = np.meshgrid(xs, ys)
    # row-major cells: cell (r, c) is item r * resolution + c of the batch
    probs = predict_batch(params, np.column_stack([gx.ravel(), gy.ravel()]), cfg)
    classes = probs.argmax(axis=1).reshape(resolution, resolution)
    max_probs = probs.max(axis=1).reshape(resolution, resolution)
    return xs, ys, classes, max_probs
