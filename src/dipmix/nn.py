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
from .errors import ConfigurationError, NumericError, ShapeError

ACTIVATIONS = ("relu", "tanh")


@dataclass
class ModelParams:
    """Weights and biases of a dense multilayer classifier.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]) and biases[l]
    length layer_sizes[l+1]; all entries finite.
    """

    layer_sizes: list
    weights: list
    biases: list
    activation: str = "relu"

    def __post_init__(self):
        _check_architecture(self.layer_sizes, self.activation)
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        if len(self.weights) != len(pairs) or len(self.biases) != len(pairs):
            raise ShapeError(
                f"expected {len(pairs)} weight/bias pairs, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        for l, (fan_in, fan_out) in enumerate(pairs):
            if self.weights[l].shape != (fan_in, fan_out):
                raise ShapeError(
                    f"weights[{l}] has shape {self.weights[l].shape}, expected {(fan_in, fan_out)}"
                )
            if self.biases[l].shape != (fan_out,):
                raise ShapeError(
                    f"biases[{l}] has shape {self.biases[l].shape}, expected {(fan_out,)}"
                )
        if not all(np.isfinite(w).all() for w in self.weights) or not all(
            np.isfinite(b).all() for b in self.biases
        ):
            raise NumericError("model parameters contain non-finite entries")

    @property
    def n_inputs(self) -> int:
        return self.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_sizes[-1]


@dataclass
class ParamGrads:
    """Gradient arrays, shape-congruent with the ModelParams they differentiate."""

    weights: list
    biases: list


@dataclass
class Batch:
    """A feature matrix with soft labels whose rows each sum to 1."""

    features: np.ndarray
    soft_labels: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.soft_labels = np.asarray(self.soft_labels, dtype=float)
        if self.features.ndim != 2 or self.soft_labels.ndim != 2:
            raise ShapeError("batch features and soft_labels must be 2-D")
        if self.features.shape[0] != self.soft_labels.shape[0]:
            raise ShapeError(
                f"batch size mismatch: {self.features.shape[0]} features rows vs "
                f"{self.soft_labels.shape[0]} label rows"
            )
        if self.features.shape[0] == 0:
            raise ShapeError("batch is empty")
        if np.any(self.soft_labels < 0):
            raise ConfigurationError("soft labels must be nonnegative")
        row_sums = self.soft_labels.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > 1e-9):
            raise ConfigurationError("each soft-label row must sum to 1 within 1e-9")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class OptimState:
    """Momentum-SGD state with a stepwise learning-rate schedule.

    ``schedule`` holds (epoch, multiplier) pairs with strictly increasing
    epochs; from each listed epoch onward the base rate is multiplied by
    that factor. Velocity buffers are allocated on the first step.
    """

    learning_rate: float
    momentum: float = 0.0
    schedule: list = field(default_factory=list)
    velocity_weights: list = field(default=None, init=False)
    velocity_biases: list = field(default=None, init=False)

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
            and all(isinstance(s, numbers.Integral) and s >= 1 for s in layer_sizes)):
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
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in))
        biases.append(np.zeros(fan_out))
    return ModelParams(list(layer_sizes), weights, biases, activation)


def forward(params: ModelParams, features) -> np.ndarray:
    """Logits for a feature matrix; pure function of (params, features)."""
    logits, _ = _forward_cached(params, features)
    return logits


def _forward_cached(params: ModelParams, features):
    """Logits and the cache _backprop needs: each layer's input, that is the
    features followed by every hidden layer's activation output."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.n_inputs:
        raise ShapeError(
            f"features must be (m, {params.n_inputs}), got {x.shape}"
        )
    outputs = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = outputs[-1] @ w + b
        outputs.append(np.maximum(z, 0.0) if params.activation == "relu" else np.tanh(z))
    return outputs[-1] @ params.weights[-1] + params.biases[-1], outputs


def _backprop(params: ModelParams, outputs, dlogits: np.ndarray) -> ParamGrads:
    """Chain rule back through the cached forward pass for a given output gradient.

    Each activation's derivative is read from its cached output a: relu'(z) is
    a > 0 and tanh'(z) is 1 - a^2, the same values the pre-activation z gives.
    """
    n_layers = len(params.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    dz = dlogits
    for l in range(n_layers - 1, -1, -1):
        a = outputs[l]
        grads_w[l] = a.T @ dz
        grads_b[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ params.weights[l].T) * (a > 0 if params.activation == "relu" else 1 - a * a)
    return ParamGrads(grads_w, grads_b)


def log_softmax(logits) -> np.ndarray:
    """Log-softmax along the last axis, max-shift stabilized."""
    z = np.asarray(logits, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_xent(logits, soft_labels):
    """Mean softmax cross-entropy and its gradient in the logits.

    loss = mean over rows of -sum_k y_k * log softmax(z)_k, computed with
    max-shift stabilization; dlogits = (softmax(z) - y) / m. The loss is
    exactly linear in the soft-label argument.
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(soft_labels, dtype=float)
    if z.ndim != 2 or z.shape != y.shape:
        raise ShapeError(f"logits {z.shape} and soft_labels {y.shape} must match and be 2-D")
    if not np.isfinite(z).all() or not np.isfinite(y).all():
        raise NumericError("softmax_xent received non-finite input")
    log_probs = log_softmax(z)
    m = z.shape[0]
    loss = -(y * log_probs).sum() / m
    dlogits = (np.exp(log_probs) - y) / m
    return float(loss), dlogits


def backward(params: ModelParams, batch: Batch):
    """Loss and exact analytic parameter gradients of softmax_xent(forward(.))."""
    logits, cache = _forward_cached(params, batch.features)
    loss, dlogits = softmax_xent(logits, batch.soft_labels)
    return loss, _backprop(params, cache, dlogits)


def sgd_step(params: ModelParams, grads: ParamGrads, state: OptimState, epoch: int):
    """One momentum-SGD update, in place.

    velocity <- momentum * velocity - lr(epoch) * grad; params <- params + velocity.
    Returns the mutated (params, state) pair.
    """
    if len(grads.weights) != len(params.weights):
        raise ShapeError("gradient layer count does not match the model")
    for g, w in zip(grads.weights, params.weights):
        if g.shape != w.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match weights {w.shape}")
    if state.velocity_weights is None:
        state.velocity_weights = [np.zeros_like(w) for w in params.weights]
        state.velocity_biases = [np.zeros_like(b) for b in params.biases]
    lr = state.lr_at(epoch)
    for w, g, v in zip(params.weights, grads.weights, state.velocity_weights):
        v *= state.momentum
        v -= lr * g
        w += v
    for b, g, v in zip(params.biases, grads.biases, state.velocity_biases):
        v *= state.momentum
        v -= lr * g
        b += v
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
