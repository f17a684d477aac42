"""Minibatch training under cross-entropy and data-split model selection.

`train` fits one network with the adaptive-moment (Adam) update and
inverted dropout on hidden units.  `select` runs the full hyperparameter
procedure: extract scores once at the largest candidate J, split 70/30
stratified by class, train every candidate cell on the training fold,
score it by 0-1 error on the validation fold (through `network.classify`,
the same streaming inference loop and argmax rule every prediction uses),
pick the argmin (ties falling to the lexicographically smallest candidate
tuple) and retrain on all data.

Inside `select`, score coordinates are standardized (zero mean, unit
scale) before training; raw score scales span orders of magnitude and
slow the optimizer badly.  The affine transform is folded exactly into
the first weight matrix and shift vector of the final model, so the
returned parameters consume raw scores and the hypothesis class is
unchanged.

All randomness derives from the integer seed in TrainConfig through
deterministically ordered SeedSequence spawns: one stream for the split,
one per grid cell, one for the final retrain.  Results are therefore
bit-reproducible and independent of any execution schedule.

One training step works on flat vectors.  The parameters are one
`NetworkParams`, whose weights and shifts are views into one contiguous
float64 vector.  `network.loss_and_gradient` runs the training forward
loop, which keeps every activation, and writes the gradient into a second
`NetworkParams` of the same layout; Adam then updates the parameter
vector with a fixed sequence of in-place ufuncs, run over one cache-sized
slice of the vector at a time.  The dropout masks of a step come from one
uniform draw, sliced layer by layer.  Each elementwise operation is the
one the per-array formulas perform, in the same order, so the result
depends neither on the layout nor on where the slices fall.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisOrder
from .errors import DomainError, NumericError
from .network import (
    Architecture,
    NetworkParams,
    classify,
    initial_params,
    loss_and_gradient,
    one_hot,
)
from .projection import Dataset, project_batch
from .rng import as_seed_sequence

# moment decay rates and denominator guard of the adaptive-moment update
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# float64 values per slice of the adaptive-moment update (128 KiB per
# vector): the slice's moments, gradient, parameters and scratch stay in
# cache across the update's ufunc sequence instead of streaming the whole
# vector from memory once per ufunc
ADAM_SLICE = 16384


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer schedule; `seed` drives initialization, shuffling and dropout.

    Gradients come from the cross-entropy with probabilities floored at
    1e-12 inside the log.  The adaptive-moment update uses the fixed
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    """

    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        # learning_rate 0 is allowed as an explicit no-op schedule; NaN fails too
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise DomainError(f"learning_rate must be a finite number >= 0, got {self.learning_rate}")
        if not 0.0 <= self.dropout < 1.0:
            raise DomainError(f"dropout must lie in [0, 1), got {self.dropout}")


def train(
    scores: np.ndarray,
    labels: np.ndarray,
    arch: Architecture,
    cfg: TrainConfig,
    *,
    rng: np.random.Generator | None = None,
    on_epoch_end=None,
) -> NetworkParams:
    """Fit a network on (scores, labels); labels are class indices in {1..K}.

    Score vectors longer than the architecture's input width are truncated.
    Every class 1..K must occur at least once.  `on_epoch_end(epoch, loss)`
    receives the full-training-set floored CE after each epoch.  Raises
    NumericError with the epoch and batch index if the loss becomes
    non-finite.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.ndim != 2 or scores.shape[0] != labels.shape[0]:
        raise DomainError("scores must be (n, >=J) with one label per row")
    n, width = scores.shape
    if width < arch.input_dim:
        raise DomainError(f"score vectors have length {width}, network expects >= {arch.input_dim}")
    if cfg.batch_size > n:
        raise DomainError(f"batch_size {cfg.batch_size} exceeds the {n} training samples")
    y = one_hot(labels, arch.n_classes)
    present = y.sum(axis=0)
    if np.any(present == 0):
        missing = [i + 1 for i in np.flatnonzero(present == 0)]
        raise DomainError(f"training data has no samples for class(es) {missing}")

    x = np.ascontiguousarray(scores[:, : arch.input_dim])

    if rng is None:
        rng = np.random.default_rng(as_seed_sequence(cfg.seed))
    params = initial_params(arch, rng)
    grad = NetworkParams(arch, np.zeros(arch.param_count))
    state = _OptState(arch.param_count, cfg.learning_rate)
    keep = 1.0 - cfg.dropout
    mask_cols = list(itertools.accumulate(arch.hidden_widths, initial=0))

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            masks = None
            if cfg.dropout > 0.0:
                b = xb.shape[0]
                # one draw per step; layer l takes the next b * p_l values,
                # exactly the numbers a per-layer draw would give it
                factors = (rng.random(b * mask_cols[-1]) < keep) / keep
                masks = [
                    factors[b * lo : b * hi].reshape(b, hi - lo)
                    for lo, hi in zip(mask_cols, mask_cols[1:])
                ]
            loss = loss_and_gradient(params, xb, yb, masks, grad)
            if not np.isfinite(loss):
                raise NumericError(
                    f"training loss became non-finite at epoch {epoch + 1}, "
                    f"batch {start // cfg.batch_size + 1}"
                )
            state.step(params.flat, grad.flat)
        if on_epoch_end is not None:
            on_epoch_end(epoch, loss_and_gradient(params, x, y))
    return params


class _OptState:
    """Bias-corrected adaptive-moment update of one flat parameter vector.

    `step(flat, grad)` updates `flat` in place and overwrites `grad`: once
    the gradient has entered the moments its buffer is the second scratch
    vector.  The state is the two moments, each the size of `flat`, and one
    scratch vector of ADAM_SLICE values; the ufunc sequence runs over
    consecutive slices of ADAM_SLICE values (the last one shorter).  Every
    operation is elementwise, so slicing changes only which values are in
    cache, not their bits: the ufunc sequence evaluates the textbook
    per-element formulas in their usual order, and every parameter gets the
    bits it would get from updating one array at a time.
    """

    def __init__(self, size: int, learning_rate: float):
        self.lr = learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.scratch = np.empty(min(size, ADAM_SLICE))

    def step(self, flat: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1**self.t
        bc2 = 1.0 - ADAM_BETA2**self.t
        for lo in range(0, flat.size, ADAM_SLICE):
            hi = lo + ADAM_SLICE
            p, g, m, v = flat[lo:hi], grad[lo:hi], self.m[lo:hi], self.v[lo:hi]
            s = self.scratch[: p.size]
            # m = beta1 m + (1 - beta1) g
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            # v = beta2 v + (1 - beta2) g^2; g is spent after this
            v *= ADAM_BETA2
            np.square(g, out=g)
            g *= 1.0 - ADAM_BETA2
            v += g
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=s)
            s *= self.lr
            np.divide(v, bc2, out=g)
            np.sqrt(g, out=g)
            g += ADAM_EPS
            s /= g
            p -= s


def split_70_30(labels: np.ndarray, seed):
    """Stratified 70/30 split; returns (train_indices, validation_indices).

    The training part has exactly floor(0.7 n) indices; the remainder
    (including the leftover index when floor(0.7 n) + floor(0.3 n) < n)
    goes to validation.  Per-class training counts are the largest-remainder
    apportionment of 0.7 per class, so the split is stratified.  Every
    class needs at least 2 samples.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if n < 10:
        raise DomainError(f"need at least 10 samples to split, got {n}")
    classes, counts = np.unique(labels, return_counts=True)
    if np.any(counts < 2):
        small = classes[counts < 2].tolist()
        raise DomainError(f"class(es) {small} have fewer than 2 samples")

    n_train = (7 * n) // 10
    base = (7 * counts) // 10
    remainder = n_train - int(base.sum())
    # distribute leftovers by largest fractional part, ties to earlier class
    order = np.lexsort((np.arange(len(classes)), -((7 * counts) % 10)))
    take = base.copy()
    for i in order[:remainder]:
        take[i] += 1

    rng = np.random.default_rng(as_seed_sequence(seed))
    train_parts, val_parts = [], []
    for cls, t in zip(classes, take):
        idx = np.flatnonzero(labels == cls)
        perm = rng.permutation(idx.shape[0])
        train_parts.append(idx[perm[:t]])
        val_parts.append(idx[perm[t:]])
    train_idx = np.sort(np.concatenate(train_parts))
    val_idx = np.sort(np.concatenate(val_parts))
    return train_idx, val_idx


@dataclass(frozen=True)
class HyperGrid:
    """Candidate sets for the selection procedure."""

    n_scores: tuple
    depths: tuple
    widths: tuple
    dropouts: tuple

    def __post_init__(self):
        for name in ("n_scores", "depths", "widths", "dropouts"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not all((self.n_scores, self.depths, self.widths, self.dropouts)):
            raise DomainError("every candidate list must be nonempty")
        if any(j < 1 for j in self.n_scores) or any(l < 1 for l in self.depths):
            raise DomainError("score counts and depths must be positive")
        if any(w < 1 for w in self.widths):
            raise DomainError("widths must be positive")
        if any(not 0.0 <= s < 1.0 for s in self.dropouts):
            raise DomainError("dropout rates must lie in [0, 1)")

    def cells(self):
        return itertools.product(self.n_scores, self.depths, self.widths, self.dropouts)

    @property
    def n_cells(self) -> int:
        return len(self.n_scores) * len(self.depths) * len(self.widths) * len(self.dropouts)


@dataclass(frozen=True)
class Chosen:
    """The winning candidate tuple."""

    n_scores: int
    depth: int
    width: int
    dropout: float

    def as_tuple(self):
        return (self.n_scores, self.depth, self.width, self.dropout)


@dataclass
class SelectionResult:
    """Outcome of the selection procedure.

    `validation_errors` is indexed [i_J, i_L, i_width, i_dropout] in the
    order of the candidate lists; `chosen` attains its minimum.
    """

    chosen: Chosen
    validation_errors: np.ndarray
    final_params: NetworkParams


def _standardization(scores: np.ndarray):
    mu = scores.mean(axis=0)
    sd = scores.std(axis=0)
    sd[sd == 0.0] = 1.0  # constant coordinates are passed through unscaled
    return mu, sd


def _absorb_input_affine(params: NetworkParams, mu: np.ndarray, sd: np.ndarray) -> NetworkParams:
    """Rewrite a network trained on (x - mu) / sd to consume raw x.

    W0' = W0 / sd and V1' = V1 + W0' mu reproduce the trained map exactly:
    relu(W0 (x - mu)/sd - V1) = relu(W0' x - (V1 + W0' mu)).
    """
    out = NetworkParams(params.architecture, params.flat.copy())
    out.weights[0] /= sd[None, :]
    out.shifts[0] += out.weights[0] @ mu
    return out


def select(
    dataset: Dataset,
    order: BasisOrder,
    grid: HyperGrid,
    cfg: TrainConfig,
) -> SelectionResult:
    """Full data-splitting selection over the candidate grid.

    Scores are extracted once at max(n_scores) and truncated per cell.
    Every cell trains on the 70% fold and is scored by 0-1 error on the
    30% fold; the final model retrains on all samples with the winning
    tuple.
    """
    labels = dataset.labels
    if labels.min() < 1:
        raise DomainError("selection needs fully labeled data")
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2 or np.any(counts < 2):
        raise DomainError("selection needs >= 2 classes with >= 2 samples each")
    k = dataset.n_classes

    j_max = max(grid.n_scores)
    raw_scores = project_batch(dataset.values, dataset.grid, order, j_max)

    streams = as_seed_sequence(cfg.seed).spawn(grid.n_cells + 2)
    train_idx, val_idx = split_70_30(labels, streams[0])

    mu, sd = _standardization(raw_scores[train_idx])
    scores = (raw_scores - mu) / sd

    shape = (len(grid.n_scores), len(grid.depths), len(grid.widths), len(grid.dropouts))
    errors = np.empty(shape)
    best = None
    for ci, (flat, cell) in enumerate(zip(np.ndindex(shape), grid.cells())):
        j_c, l_c, w_c, s_c = cell
        arch = Architecture(input_dim=j_c, hidden_widths=(w_c,) * l_c, n_classes=k)
        cfg_cell = replace(cfg, dropout=s_c)
        rng = np.random.default_rng(streams[1 + ci])
        params = train(scores[train_idx], labels[train_idx], arch, cfg_cell, rng=rng)
        err = float(np.mean(classify(params, scores[val_idx, :j_c]) != labels[val_idx]))
        errors[flat] = err
        key = (err, cell)
        if best is None or key < best[0]:
            best = (key, cell)

    chosen_cell = best[1]
    j_c, l_c, w_c, s_c = chosen_cell
    arch = Architecture(input_dim=j_c, hidden_widths=(w_c,) * l_c, n_classes=k)
    rng = np.random.default_rng(streams[-1])
    mu_all, sd_all = _standardization(raw_scores)
    final = train((raw_scores - mu_all) / sd_all, labels, arch, replace(cfg, dropout=s_c), rng=rng)
    final = _absorb_input_affine(final, mu_all[:j_c], sd_all[:j_c])
    return SelectionResult(
        chosen=Chosen(j_c, l_c, w_c, s_c),
        validation_errors=errors,
        final_params=final,
    )
