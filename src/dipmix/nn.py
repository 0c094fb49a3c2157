"""Dense feed-forward classifier with manual backpropagation.

Plain numpy MLP: seeded initialization, forward pass, numerically stable
softmax cross-entropy (exactly linear in the label argument), analytic
gradients, and momentum SGD with a stepwise learning-rate schedule. All
arithmetic is float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .data import read_json, write_file
from .errors import ConfigurationError, NumericError, ShapeError, check_int, check_real, is_int, is_real

ACTIVATIONS = ("relu", "tanh")


def _pack(holder, **fixed) -> None:
    """Copy the frozen ``holder``'s weights, then its biases, in layer order
    into one contiguous float64 vector ``holder.flat``, and fix both fields as
    tuples of views of it, so that one ufunc call on ``flat`` updates every
    array. Neither field can then be rebound, nor an item of it replaced.
    Each of ``fixed`` is set as given too."""
    arrays = [*holder.weights, *holder.biases]
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    views, start = [], 0
    for a in arrays:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    n = len(holder.weights)
    for name, value in (("flat", flat), ("weights", tuple(views[:n])),
                        ("biases", tuple(views[n:])), *fixed.items()):
        object.__setattr__(holder, name, value)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights and biases of a dense multilayer classifier.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]) and biases[l]
    length layer_sizes[l+1]; all entries finite. Construction copies the sizes
    into a tuple and the arrays into ``flat`` (see _pack), each a view of it.
    """

    layer_sizes: tuple
    weights: tuple
    biases: tuple
    activation: str = "relu"
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_architecture(self.layer_sizes, self.activation)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        if len(self.weights) != len(pairs) or len(self.biases) != len(pairs):
            raise ShapeError(f"expected {len(pairs)} weight/bias pairs, got "
                             f"{len(self.weights)}/{len(self.biases)}")
        for l, (fan_in, fan_out) in enumerate(pairs):
            for name, a, shape in (("weights", self.weights[l], (fan_in, fan_out)),
                                   ("biases", self.biases[l], (fan_out,))):
                if a.shape != shape:
                    raise ShapeError(f"{name}[{l}] has shape {a.shape}, expected {shape}")
        _pack(self, layer_sizes=tuple(self.layer_sizes))
        if not np.isfinite(self.flat).all():
            raise NumericError("model parameters contain non-finite entries")

    def __deepcopy__(self, memo):
        return ModelParams(self.layer_sizes, self.weights, self.biases, self.activation)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True, eq=False)
class ParamGrads:
    """Gradient arrays, shape-congruent with the ModelParams they differentiate,
    packed like them into one ``flat`` vector."""

    weights: tuple
    biases: tuple
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _pack(self)


def _hidden_buffers(params: ModelParams, rows: int) -> list:
    """One uninitialized (rows, width) float64 array per hidden layer."""
    return [np.empty((rows, n)) for n in params.layer_sizes[1:-1]]


@dataclass(eq=False)
class Workspace:
    """Buffers one training step writes into instead of allocating.

    For hidden layer l, of width layer_sizes[l+1], ``hidden[l]`` takes its
    forward output, which backprop then overwrites with its activation
    derivative, and ``deltas[l]`` backprop's gradient in that output, each
    (rows, width) float64; a step of at most ``rows`` rows uses their leading
    rows. ``grads`` takes the parameter gradients.
    """

    hidden: list
    deltas: list
    grads: ParamGrads

    @classmethod
    def for_model(cls, params: ModelParams, rows: int) -> Workspace:
        return cls(_hidden_buffers(params, rows), _hidden_buffers(params, rows),
                   ParamGrads([np.empty_like(w) for w in params.weights],
                              [np.empty_like(b) for b in params.biases]))


@dataclass(eq=False)
class OptimState:
    """Momentum-SGD state with a stepwise learning-rate schedule.

    ``schedule`` holds (epoch, multiplier) pairs with strictly increasing
    epochs; from each listed epoch onward the base rate is multiplied by
    that factor. ``velocity``, laid out like ModelParams.flat, is allocated on
    the first step.
    """

    learning_rate: float
    momentum: float = 0.0
    schedule: list = field(default_factory=list)
    velocity: np.ndarray = field(default=None, init=False)

    def __post_init__(self):
        check_real("learning_rate", self.learning_rate, "> 0")
        check_real("momentum", self.momentum, "in [0, 1)")
        if not (isinstance(self.schedule, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2 and all(is_real(v) for v in e)
                for e in self.schedule)):
            raise ConfigurationError(f"schedule must be a list of [epoch, multiplier] finite "
                                     f"number pairs, got {self.schedule!r}")
        epochs = [e for e, _ in self.schedule]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise ConfigurationError(f"schedule epochs must be strictly increasing: {epochs}")

    def lr_at(self, epoch: int) -> float:
        lr = self.learning_rate
        for start, mult in self.schedule:
            if epoch >= start:
                lr *= mult
        return lr


def _check_architecture(layer_sizes, activation):
    if not (isinstance(layer_sizes, (list, tuple)) and len(layer_sizes) >= 2
            and all(is_int(s) and s > 0 for s in layer_sizes)):
        raise ConfigurationError(f"layer_sizes must be a list of >= 2 positive integers, "
                                 f"got {layer_sizes!r}")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> ModelParams:
    """Fresh parameters: zero-mean weights scaled by 1/sqrt(fan_in), zero biases.

    Deterministic per seed.
    """
    _check_architecture(layer_sizes, activation)  # before the draws, which fail less clearly
    check_int("seed", seed, ">= 0")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return ModelParams(layer_sizes, weights, biases, activation)


def forward(params: ModelParams, features, work=None, bias_rows=None) -> np.ndarray:
    """Logits for a feature matrix; pure function of (params, features).
    ``work`` and ``bias_rows`` are optional, as for _forward_cached."""
    logits, _ = _forward_cached(params, features, work, bias_rows)
    return logits


def _forward_cached(params: ModelParams, features, work=None, bias_rows=None):
    """Logits and the cache _backprop needs: each layer's input, that is the
    features followed by every hidden layer's activation output. Hidden layer l
    of the m rows is computed into work[l][:m], the leading rows of a float64
    array of layer_sizes[l+1] columns, when ``work`` is given; the cache then
    aliases them, the logits never do. Hidden bias l is broadcast, or with
    ``bias_rows`` added from bias_rows[l][:m], leading rows of an array whose
    rows each hold that bias: numpy adds same-shape operands faster, with the
    same result bits. _backprop overwrites every hidden entry of the cache."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_inputs:
        raise ShapeError(f"features must be (m, {params.n_inputs}), got {x.shape}")
    outputs = [x]
    for l, w in enumerate(params.weights[:-1]):
        z = np.matmul(outputs[-1], w, out=None if work is None else work[l][:len(x)])
        np.add(z, params.biases[l] if bias_rows is None else bias_rows[l][:len(z)], out=z)
        outputs.append(np.maximum(z, 0.0, out=z) if params.activation == "relu"
                       else np.tanh(z, out=z))
    return outputs[-1] @ params.weights[-1] + params.biases[-1], outputs


def _backprop(params: ModelParams, outputs, dlogits: np.ndarray, work=None) -> ParamGrads:
    """Chain rule back through the cached forward pass for a given output gradient.

    Each hidden activation's derivative overwrites its cached output a once
    the weight gradient has read a: relu'(z) is a > 0 and tanh'(z) is 1 - a^2,
    the values the pre-activation z gives. The first cache entry, the
    caller's rows, is never written. Every other array goes into the leading
    rows of the Workspace ``work``, a fresh one when None; the gradients
    returned are ``work.grads``.
    """
    if work is None:
        work = Workspace.for_model(params, len(dlogits))
    dz = dlogits
    for l in range(len(params.weights) - 1, -1, -1):
        a = outputs[l]
        np.matmul(a.T, dz, out=work.grads.weights[l])
        np.add.reduce(dz, axis=0, out=work.grads.biases[l])  # np.sum, less call overhead
        if l > 0:
            if params.activation == "relu":
                np.greater(a, 0.0, out=a)  # the mask as 1.0/0.0, as d * (a > 0) casts it
            else:
                np.subtract(1.0, np.multiply(a, a, out=a), out=a)
            delta = work.deltas[l - 1][:len(dz)]
            dz = np.multiply(np.matmul(dz, params.weights[l].T, out=delta), a, out=delta)
    return work.grads


def log_softmax(logits) -> np.ndarray:
    """Log-softmax along the last axis, max-shift stabilized."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def softmax_xent(logits, soft_labels):
    """Mean softmax cross-entropy and its gradient in the logits.

    loss = mean over rows of -sum_k y_k * log softmax(z)_k, computed with
    max-shift stabilization; dlogits = (softmax(z) - y) / m. The loss is
    exactly linear in the soft-label argument.
    This is where every loss checks its labels: at least one row, each
    nonnegative and summing to 1 within 1e-9.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(soft_labels, dtype=float)
    if z.ndim != 2 or z.shape != y.shape:
        raise ShapeError(f"logits {z.shape} and soft_labels {y.shape} must match and be 2-D")
    m = z.shape[0]
    if m == 0:
        raise ShapeError("batch is empty")
    if not np.isfinite(z).all():
        raise NumericError("softmax_xent received non-finite logits")
    if not y.min() >= 0.0:  # also true for NaN
        raise ConfigurationError("soft labels must be nonnegative")
    if not abs(y.sum(axis=1) - 1.0).max() <= 1e-9:
        raise ConfigurationError("each soft-label row must sum to 1 within 1e-9")
    log_probs = log_softmax(z)
    dlogits = np.exp(log_probs)
    dlogits -= y
    dlogits /= m
    loss = -np.multiply(y, log_probs, out=log_probs).sum() / m
    return float(loss), dlogits


def backward(params: ModelParams, x, y, *, work=None):
    """Loss and exact analytic parameter gradients of softmax_xent(forward(.))
    on features ``x`` with soft labels ``y``.

    With a Workspace ``work`` of at least len(x) rows, the forward and
    backward passes write into it and the gradients returned are ``work.grads``.
    """
    logits, cache = _forward_cached(params, x, None if work is None else work.hidden)
    loss, dlogits = softmax_xent(logits, y)
    return loss, _backprop(params, cache, dlogits, work)


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimState, epoch: int):
    """One momentum-SGD update, in place, on the flat vectors.

    velocity <- momentum * velocity - lr(epoch) * grad; params <- params + velocity.
    Returns the mutated (params, state) pair.
    """
    p, g = params.flat, grads.flat
    if g.shape != p.shape:
        raise ShapeError(f"gradient has {g.size} entries, the model {p.size}")
    if state.velocity is None:
        state.velocity = np.zeros_like(p)
    v = state.velocity
    v *= state.momentum
    v -= state.lr_at(epoch) * g
    p += v
    return params, state


def to_dict(params: ModelParams) -> dict:
    return {
        "layer_sizes": [int(s) for s in params.layer_sizes],
        "activation": params.activation,
        "weights": [w.tolist() for w in params.weights],
        "biases": [b.tolist() for b in params.biases],
    }


def from_dict(doc: dict) -> ModelParams:
    if not isinstance(doc, dict):
        raise ConfigurationError(f"model document must be a JSON object, got {type(doc).__name__}")
    try:
        layer_sizes = list(doc["layer_sizes"])
        weights = [np.asarray(w, dtype=float) for w in doc["weights"]]
        biases = [np.asarray(b, dtype=float) for b in doc["biases"]]
    except KeyError as exc:
        raise ConfigurationError(f"model document is missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"model layer_sizes, weights and biases must be lists of "
                                 f"numbers, each layer rectangular: {exc}") from None
    return ModelParams(layer_sizes, weights, biases, doc.get("activation", "relu"))


def save_model(params: ModelParams, path) -> None:
    """Write the model as JSON, atomically; float repr keeps the round trip lossless."""
    write_file(path, json.dumps(to_dict(params)) + "\n")


def load_model(path) -> ModelParams:
    return from_dict(read_json(path, "model file"))
