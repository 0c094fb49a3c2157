"""Dense feed-forward classifier with manual backpropagation.

Plain numpy MLP: seeded initialization, forward pass, numerically stable
softmax cross-entropy (exactly linear in the label argument), analytic
gradients, and momentum SGD with a stepwise learning-rate schedule. All
arithmetic is float64.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import read_json, write_file
from .errors import ConfigurationError, NumericError, ShapeError, is_int

ACTIVATIONS = ("relu", "tanh")


def _pack(holder) -> None:
    """Copy ``holder``'s weights, then its biases, in layer order into one
    contiguous float64 vector ``holder.flat``, and rebind both lists to views
    of it, so that one ufunc call on ``flat`` updates every array."""
    arrays = [*holder.weights, *holder.biases]
    holder.flat = np.concatenate([np.ravel(a) for a in arrays], dtype=float)
    views, start = [], 0
    for a in arrays:
        views.append(holder.flat[start:start + a.size].reshape(a.shape))
        start += a.size
    holder.weights, holder.biases = views[:len(holder.weights)], views[len(holder.weights):]


def _flat(holder) -> np.ndarray:
    """``holder.flat``, once every weight and bias array is checked to view it."""
    if not all(a.base is holder.flat for a in (*holder.weights, *holder.biases)):
        raise ShapeError(f"{type(holder).__name__} weights and biases no longer view its flat "
                         f"vector; build a new one from the arrays")
    return holder.flat


@dataclass
class ModelParams:
    """Weights and biases of a dense multilayer classifier.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]) and biases[l]
    length layer_sizes[l+1]; all entries finite. Construction copies them into
    ``flat`` (see _pack), so each list entry is a view of that vector.
    """

    layer_sizes: list
    weights: list
    biases: list
    activation: str = "relu"
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        _pack(self)
        if not np.isfinite(self.flat).all():
            raise NumericError("model parameters contain non-finite entries")

    def __deepcopy__(self, memo):
        return ModelParams(list(self.layer_sizes), self.weights, self.biases, self.activation)

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ParamGrads:
    """Gradient arrays, shape-congruent with the ModelParams they differentiate,
    packed like them into one ``flat`` vector."""

    weights: list
    biases: list
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _pack(self)


def _empty_like(params: ModelParams) -> ParamGrads:
    return ParamGrads([np.empty_like(w) for w in params.weights],
                      [np.empty_like(b) for b in params.biases])


def _hidden_buffers(params: ModelParams, rows: int) -> list:
    """One uninitialized (rows, width) float64 array per hidden layer."""
    return [np.empty((rows, n)) for n in params.layer_sizes[1:-1]]


@dataclass
class Workspace:
    """Buffers one training step writes into instead of allocating.

    For hidden layer l, of width layer_sizes[l+1], ``hidden[l]`` takes its
    forward output, ``deltas[l]`` backprop's gradient in that output and
    ``derivs[l]`` its activation derivative, each (rows, width) float64.
    ``dlogits`` (rows, k) takes softmax_xent's gradient in the logits when
    the loss has one row per forward row (plain and label-mixing steps),
    ``grads`` the parameter gradients and ``scaled`` sgd_step's lr * grad. A
    step of fewer rows uses ``head(rows)``, whose row buffers are leading-row
    views.
    """

    hidden: list
    deltas: list
    derivs: list
    dlogits: np.ndarray
    grads: ParamGrads
    scaled: ParamGrads

    @classmethod
    def for_model(cls, params: ModelParams, rows: int) -> Workspace:
        return cls(_hidden_buffers(params, rows), _hidden_buffers(params, rows),
                   _hidden_buffers(params, rows), np.empty((rows, params.n_outputs)),
                   _empty_like(params), _empty_like(params))

    def head(self, rows: int) -> Workspace:
        def lead(bufs):
            return [buf[:rows] for buf in bufs]

        return Workspace(lead(self.hidden), lead(self.deltas), lead(self.derivs),
                         self.dlogits[:rows], self.grads, self.scaled)


@dataclass
class OptimState:
    """Momentum-SGD state with a stepwise learning-rate schedule.

    ``schedule`` holds (epoch, multiplier) pairs with strictly increasing
    epochs; from each listed epoch onward the base rate is multiplied by
    that factor. ``velocity``, laid out like ModelParams.flat, is allocated
    on the first step.
    """

    learning_rate: float
    momentum: float = 0.0
    schedule: list = field(default_factory=list)
    velocity: np.ndarray = field(default=None, init=False)

    def __post_init__(self):
        if not (isinstance(self.learning_rate, numbers.Real) and self.learning_rate > 0):
            raise ConfigurationError(f"learning_rate must be a positive number, "
                                     f"got {self.learning_rate!r}")
        if not (isinstance(self.momentum, numbers.Real) and 0.0 <= self.momentum < 1.0):
            raise ConfigurationError(f"momentum must be a number in [0, 1), got {self.momentum!r}")
        if not (isinstance(self.schedule, (list, tuple)) and all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and all(isinstance(v, numbers.Real) for v in e) for e in self.schedule)):
            raise ConfigurationError(f"schedule must be a list of [epoch, multiplier] number "
                                     f"pairs, got {self.schedule!r}")
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
            and all(is_int(s) and s >= 1 for s in layer_sizes)):
        raise ConfigurationError(f"layer_sizes must be a list of >= 2 positive integers, "
                                 f"got {layer_sizes!r}")
    if activation not in ACTIVATIONS:
        raise ConfigurationError(f"unknown activation {activation!r}, expected one of {ACTIVATIONS}")


def mlp_init(layer_sizes, activation: str = "relu", seed: int = 0) -> ModelParams:
    """Fresh parameters: zero-mean weights scaled by 1/sqrt(fan_in), zero biases.

    Deterministic per seed.
    """
    _check_architecture(layer_sizes, activation)  # before the draws, which fail less clearly
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return ModelParams(list(layer_sizes), weights, biases, activation)


def forward(params: ModelParams, features, work=None) -> np.ndarray:
    """Logits for a feature matrix; pure function of (params, features).
    ``work`` holds optional hidden-layer buffers, as for _forward_cached."""
    logits, _ = _forward_cached(params, features, work)
    return logits


def _forward_cached(params: ModelParams, features, work=None):
    """Logits and the cache _backprop needs: each layer's input, that is the
    features followed by every hidden layer's activation output. Hidden layer l
    is computed into work[l], an (m, layer_sizes[l+1]) float64 array, when
    ``work`` is given; the cache then aliases it, the logits never do."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_inputs:
        raise ShapeError(f"features must be (m, {params.n_inputs}), got {x.shape}")
    outputs = [x]
    for l, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        buf = None if work is None else work[l]
        z = np.add(np.matmul(outputs[-1], w, out=buf), b, out=buf)
        outputs.append(np.maximum(z, 0.0, out=buf) if params.activation == "relu"
                       else np.tanh(z, out=buf))
    return outputs[-1] @ params.weights[-1] + params.biases[-1], outputs


def _backprop(params: ModelParams, outputs, dlogits: np.ndarray, work=None) -> ParamGrads:
    """Chain rule back through the cached forward pass for a given output gradient.

    Each activation's derivative is read from its cached output a: relu'(z) is
    a > 0 and tanh'(z) is 1 - a^2, the same values the pre-activation z gives.
    Every array is written into the Workspace ``work``, a fresh one when None;
    the returned gradients are ``work.grads``.
    """
    if work is None:
        work = Workspace.for_model(params, len(dlogits))
    dz = dlogits
    for l in range(len(params.weights) - 1, -1, -1):
        a = outputs[l]
        np.matmul(a.T, dz, out=work.grads.weights[l])
        np.add.reduce(dz, axis=0, out=work.grads.biases[l])  # np.sum, less call overhead
        if l > 0:
            deriv = work.derivs[l - 1]
            if params.activation == "relu":
                np.greater(a, 0.0, out=deriv)  # the mask as 1.0/0.0, as d * (a > 0) casts it
            else:
                np.subtract(1.0, np.multiply(a, a, out=deriv), out=deriv)
            dz = np.multiply(np.matmul(dz, params.weights[l].T, out=work.deltas[l - 1]), deriv,
                             out=work.deltas[l - 1])
    return work.grads


def log_softmax(logits) -> np.ndarray:
    """Log-softmax along the last axis, max-shift stabilized."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    shifted -= np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted


def softmax_xent(logits, soft_labels, out=None):
    """Mean softmax cross-entropy and its gradient in the logits.

    loss = mean over rows of -sum_k y_k * log softmax(z)_k, computed with
    max-shift stabilization; dlogits = (softmax(z) - y) / m, written into
    ``out`` when given. The loss is exactly linear in the soft-label argument.
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
    dlogits = np.exp(log_probs, out=out)
    dlogits -= y
    dlogits /= m
    loss = -np.multiply(y, log_probs, out=log_probs).sum() / m
    return float(loss), dlogits


def backward(params: ModelParams, x, y, *, work=None):
    """Loss and exact analytic parameter gradients of softmax_xent(forward(.))
    on features ``x`` with soft labels ``y``.

    With a Workspace ``work`` of len(x) rows, the forward and backward
    passes write into it and the gradients returned are ``work.grads``.
    """
    logits, cache = _forward_cached(params, x, None if work is None else work.hidden)
    loss, dlogits = softmax_xent(logits, y, None if work is None else work.dlogits)
    return loss, _backprop(params, cache, dlogits, work)


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimState, epoch: int, *,
             work=None):
    """One momentum-SGD update, in place, on the flat vectors.

    velocity <- momentum * velocity - lr(epoch) * grad; params <- params + velocity.
    lr * grad is computed into ``work.scaled`` when a Workspace is given.
    Raises ShapeError when the parameter or gradient lists no longer view
    their flat vector, rather than update a copy the model does not use.
    Returns the mutated (params, state) pair.
    """
    p, g = _flat(params), _flat(grads)
    if g.shape != p.shape:
        raise ShapeError(f"gradient has {g.size} entries, the model {p.size}")
    if state.velocity is None:
        state.velocity = np.zeros_like(p)
    v = state.velocity
    v *= state.momentum
    v -= np.multiply(state.lr_at(epoch), g, out=None if work is None else work.scaled.flat)
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
