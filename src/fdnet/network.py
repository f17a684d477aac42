"""Feedforward ReLU network with shift activations and a softmax head.

A network with L hidden layers is parameterized by L+1 weight matrices and
L shift vectors and computes

    softmax( W_L relu(z_L - v_L) ... W_1 relu(z_1 - v_1) )   with z_1 = W_0 x.

Shifts enter with a minus sign, i.e. they are the negated biases of a
conventional layer; they are stored as shifts (not biases) on purpose, and
every consumer in this package sticks to that sign convention.  The final
weight matrix maps to K class logits.

`NetworkParams` is the one representation of these parameters: the
architecture and one contiguous float64 vector theta of length
`param_count`, laid out as W_0..W_L then v_1..v_L, each row-major.  Writes
through the per-layer views land in theta, so one elementwise operation
updates every weight and shift; gradients and model files share the
layout.  A `ParamStack` holds G networks of one architecture for training
in lockstep: a (G, P) array whose row g is network g's theta, with
per-layer views that carry a leading G axis.

Every entry point takes a batch: inputs are (n, J) arrays, and a 1-D
input raises DomainError.  Labels take one encoding, the one-hot (n, K)
matrix that `one_hot` builds from classes in {1..K}.  One generator,
`_hidden_layers`, computes the hidden layers for both inference and
training, of one network or of a stack.  Inference (`forward`,
`classify`) consumes it one activation at a time and raises NumericError
at the first non-finite layer; training (`loss_and_gradient`, also behind
`backward`) keeps every activation, and reads the ReLU derivative of the
gradient pass from it.  A stack's batch is (G, b, J), one (b, J) batch per
network, and its products are stacked matmuls, whose every (b, .) slice
has the bits of the same product for one network.  `predicted_class`
is the one classification rule: the argmax of each row of class
probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, as_count, as_list, check_array_size

PROB_FLOOR = 1e-12  # floor inside log() when training; keeps CE finite


@dataclass(frozen=True)
class Architecture:
    """Shape of the network: input width, hidden widths p_1..p_L, classes K."""

    input_dim: int
    hidden_widths: tuple
    n_classes: int

    def __post_init__(self):
        object.__setattr__(self, "input_dim", as_count(self.input_dim, "input_dim"))
        object.__setattr__(self, "hidden_widths", as_list(self.hidden_widths, "hidden_widths", as_count))
        object.__setattr__(self, "n_classes", as_count(self.n_classes, "n_classes"))
        if not self.hidden_widths:
            raise DomainError("need at least one hidden layer")
        if self.n_classes < 2:
            raise DomainError(f"need at least 2 classes, got {self.n_classes}")
        check_array_size(self.param_count, f"{self.param_count} parameters")

    @property
    def depth(self) -> int:
        return len(self.hidden_widths)

    def layer_widths(self) -> tuple:
        return (self.input_dim, *self.hidden_widths, self.n_classes)

    def param_shapes(self) -> list:
        """Shapes of W_0..W_L followed by v_1..v_L."""
        widths = self.layer_widths()
        weights = [(widths[i + 1], widths[i]) for i in range(len(widths) - 1)]
        return weights + [(p,) for p in self.hidden_widths]

    @property
    def param_count(self) -> int:
        return sum(math.prod(shape) for shape in self.param_shapes())


@dataclass(frozen=True, eq=False)
class NetworkParams:
    """Weights and shifts of one network, held in one flat vector.

    `flat` is laid out as in the module docstring; `weights[l]`, shape
    (p_{l+1}, p_l), and `shifts[l]`, length p_{l+1}, are views into it.
    """

    architecture: Architecture
    flat: np.ndarray

    def __post_init__(self):
        arch, flat = self.architecture, self.flat
        size = arch.param_count
        if flat.shape != (size,) or flat.dtype != np.float64 or not flat.flags.c_contiguous:
            raise DomainError(f"need a contiguous float64 vector of length {size}")
        if not np.all(np.isfinite(flat)):
            raise DomainError("network parameters must be finite")
        _set_layer_views(self)

    def __reduce__(self):
        # a pickled or copied network rebuilds its views over its own vector
        return NetworkParams, (self.architecture, self.flat)


@dataclass(frozen=True, eq=False)
class ParamStack:
    """G networks of one architecture, trained in lockstep.

    Row g of the C-contiguous (G, P) float64 `flat` is network g's vector,
    laid out as `NetworkParams.flat`.  `weights[l]`, (G, p_{l+1}, p_l), and
    `shifts[l]`, (G, 1, p_{l+1}), are views into it; the shifts' middle
    axis broadcasts over a (G, b, p) batch.
    """

    architecture: Architecture
    flat: np.ndarray

    def __post_init__(self):
        _set_layer_views(self)


def _set_layer_views(params) -> None:
    """Give `params` its `weights` and `shifts`: views of W_0..W_L and
    v_1..v_L in its vector, or in each row of its (G, P) stack."""
    arch, flat = params.architecture, params.flat
    lead = flat.shape[:-1]
    views, start = [], 0
    for shape in arch.param_shapes():
        end = start + math.prod(shape)
        if lead and len(shape) == 1:
            shape = (1, *shape)
        views.append(flat[..., start:end].reshape(*lead, *shape))
        start = end
    object.__setattr__(params, "weights", views[: arch.depth + 1])
    object.__setattr__(params, "shifts", views[arch.depth + 1 :])


def initial_params(
    arch: Architecture, rng: np.random.Generator, flat: np.ndarray | None = None
) -> NetworkParams:
    """Symmetric uniform init scaled by 1/sqrt(fan-in); shifts start at zero.

    Given `flat`, a zeroed contiguous vector of `param_count` values (a row
    of a `ParamStack`, say), the network is drawn into it."""
    params = NetworkParams(arch, np.zeros(arch.param_count) if flat is None else flat)
    for w in params.weights:
        bound = 1.0 / np.sqrt(w.shape[1])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-logit subtraction for overflow safety."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(x: np.ndarray, input_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise DomainError(f"input has shape {x.shape}, network expects a batch (n, {input_dim})")
    return x


def _hidden_layers(params: NetworkParams | ParamStack, x: np.ndarray, masks=None):
    """Yield the activation of each hidden layer of a batch, first to last:
    of one network (`NetworkParams`, x of shape (b, J)) or of a stack
    (`ParamStack`, x of shape (G, b, J)).

    Each layer is computed in place in a fresh array: relu(a W^T - v), times
    `masks[l]` when masks are given.  The masks are per-hidden-layer
    multiplicative factors (0 or 1/(1-s)) with the batch shape; they
    implement inverted dropout.
    """
    a = x
    for l, (w, v) in enumerate(zip(params.weights, params.shifts)):
        # the transpose of each network's matrix (`.mT` would need numpy 2)
        a = a @ w.swapaxes(-1, -2)
        a -= v
        np.maximum(a, 0.0, out=a)
        if masks is not None:
            a *= masks[l]
        yield a


def _logits(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """The inference logits: one activation alive at a time, each layer
    checked as it is computed."""
    # the checks below report overflow as NumericError; numpy's warning would
    # reach the caller first (or instead, under `-W error`)
    with np.errstate(over="ignore", invalid="ignore"):
        for l, a in enumerate(_hidden_layers(params, x), start=1):
            if not np.all(np.isfinite(a)):
                raise NumericError(f"non-finite values after hidden layer {l}")
        logits = a @ params.weights[-1].T
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite values in the output logits")
    return logits


def forward(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Class probabilities (n, K) of a batch (n, J).

    Raises NumericError naming the first layer that produced non-finite
    values.
    """
    return softmax(_logits(params, _as_batch(x, params.architecture.input_dim)))


def predicted_class(probs: np.ndarray) -> np.ndarray:
    """The classification rule: the argmax of each row of (n, K) class
    probabilities as a class in {1..K}, ties to the smallest."""
    return np.argmax(probs, axis=1).astype(np.int64) + 1


def classify(params: NetworkParams, scores: np.ndarray) -> np.ndarray:
    """Predicted classes in {1..K} of a batch (n, J) of score vectors:
    `predicted_class` of the forward probabilities."""
    return predicted_class(forward(params, scores))


def one_hot(labels, n_classes: int) -> np.ndarray:
    """The (n, K) one-hot matrix of integer class labels in {1..K}."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu" or (
        labels.size and (labels.min() < 1 or labels.max() > n_classes)
    ):
        raise DomainError(f"labels must be a vector of integer classes in 1..{n_classes}")
    y = np.zeros((labels.size, n_classes))
    y[np.arange(labels.size), labels - 1] = 1.0
    return y


def loss_and_gradient(params: NetworkParams | ParamStack, x, y, masks=None, grad=None):
    """Mean floored cross-entropy -log max(p_true, PROB_FLOOR) of a batch
    (x, one-hot y) under dropout `masks`; non-finite once training diverges.

    `params` is one network (`NetworkParams`, x (b, J), y (b, K)), whose
    loss is a float, or a `ParamStack` of G networks (x (G, b, J), y
    (G, b, K)), whose losses are a (G,) array.  Given `grad` (of the same
    kind and architecture), also writes the mean gradient into its views,
    and so into `grad.flat`.
    """
    # divergence surfaces as a non-finite loss; silence its overflow warnings
    with np.errstate(over="ignore", invalid="ignore"):
        activations = [x, *_hidden_layers(params, x, masks)]
        probs = softmax(activations[-1] @ params.weights[-1].swapaxes(-1, -2))
        n = probs.shape[-2]
        # the mean's own sum and division, without its Python wrapper
        loss = np.add.reduce(-np.log(np.maximum((probs * y).sum(axis=-1), PROB_FLOOR)), axis=-1) / n
    if grad is None:
        return loss
    grad_w, grad_v = grad.weights, grad.shifts
    delta = (probs - y) / n
    np.matmul(delta.swapaxes(-1, -2), activations[-1], out=grad_w[-1])
    upstream = delta @ params.weights[-1]
    for l in range(len(params.shifts) - 1, -1, -1):
        if masks is not None:
            upstream *= masks[l]
        # with a nonzero mask, relu(h) * mask > 0 exactly when h > 0; where
        # the mask is 0, upstream is already 0 (or NaN) either way
        upstream *= activations[l + 1] > 0.0
        # a stack's (G, 1, p) shift views keep the summed batch axis
        np.add.reduce(upstream, axis=-2, keepdims=upstream.ndim > 2, out=grad_v[l])
        np.negative(grad_v[l], out=grad_v[l])
        np.matmul(upstream.swapaxes(-1, -2), activations[l], out=grad_w[l])
        if l > 0:
            upstream = upstream @ params.weights[l]
    return loss


def backward(params: NetworkParams, x: np.ndarray, y: np.ndarray) -> NetworkParams:
    """Exact mean gradient of the CE loss of a batch (n, J) with one-hot
    labels (n, K), for every weight and shift.

    The result reuses the NetworkParams container, gradients laid out
    exactly like the parameters; a non-finite gradient raises NumericError.
    """
    arch = params.architecture
    xb = _as_batch(x, arch.input_dim)
    if np.shape(y) != (xb.shape[0], arch.n_classes):
        raise DomainError("labels must be a one-hot (n, K) matrix matching the batch")
    grad = NetworkParams(arch, np.zeros(arch.param_count))
    loss_and_gradient(params, xb, np.asarray(y, dtype=float), grad=grad)
    if not np.all(np.isfinite(grad.flat)):
        raise NumericError("non-finite gradient")
    return grad
