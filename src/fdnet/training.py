"""Minibatch training under cross-entropy and data-split model selection.

`train` fits one network with the adaptive-moment (Adam) update and
inverted dropout on hidden units.  `select(dataset, cfg, grid, seed)` runs
the full hyperparameter procedure over the candidate `HyperGrid`: extract
scores at the largest candidate J by row blocks through `projected_blocks`
(as prediction does), on the basis of the dataset's dimension (the basis
order depends on nothing else), split 70/30 stratified by class, train
every candidate cell on the training fold (through `parallel.ordered_map`,
on a pool where its rule allows), score it by 0-1 error on the validation
fold (through `network.classify`, the same streaming inference loop and
argmax rule every prediction uses), pick the argmin (ties falling to the
lexicographically smallest candidate tuple) and retrain on all data.  A
grid of one candidate is its own argmin, so that candidate skips the fold
and trains once, on all data.  The fitted model is a `Classifier`: the
final network and the grid shape of its training data, whose length is
the dimension of the data the model accepts.

Every network `select` trains, validated or final, comes from one fit,
`_fit`: it standardizes the score coordinates of its rows (zero mean,
unit scale; raw score scales span orders of magnitude and slow the
optimizer badly), trains, and folds the affine map exactly into the first
weight matrix and shift vector.  Every such network consumes raw scores,
the validation fold's as well as the caller's, and the hypothesis class
is unchanged.

All randomness of `select` derives from its integer seed through
deterministically ordered SeedSequence spawns: one stream for the split,
one per grid cell, one for the final retrain.  `train` draws from the
Generator its caller passes.  Results are therefore bit-reproducible and
independent of any execution schedule.

One training step works on flat vectors.  The parameters are one
`NetworkParams`, whose weights and shifts are views into one contiguous
float64 vector.  `network.loss_and_gradient` keeps every activation of
the hidden-layer loop that inference also runs, and writes the gradient
into a second `NetworkParams` of the same layout; Adam then updates the
parameter vector with a fixed sequence of in-place ufuncs, run over one
cache-sized slice of the vector at a time.  The dropout masks of a step come from one
uniform draw, sliced layer by layer.  Each elementwise operation is the
one the per-array formulas perform, in the same order, so the result
depends neither on the layout nor on where the slices fall.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .basis import Grid
from .errors import DomainError, NumericError, as_count, as_list, as_rate, as_real, check_array_size
from .network import (
    Architecture,
    NetworkParams,
    classify,
    initial_params,
    loss_and_gradient,
    one_hot,
)
from .parallel import ordered_map
from .projection import projected_blocks
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
    """Optimizer schedule: epochs, minibatch size and learning rate.

    Gradients come from the cross-entropy with probabilities floored at
    1e-12 inside the log.  The adaptive-moment update uses the fixed
    ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.
    """

    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        object.__setattr__(self, "learning_rate", as_real(self.learning_rate, "learning_rate"))
        # learning_rate 0 is allowed as an explicit no-op schedule; NaN fails too
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise DomainError(f"learning_rate must be a finite number >= 0, got {self.learning_rate}")


def train(
    scores: np.ndarray,
    labels: np.ndarray,
    arch: Architecture,
    cfg: TrainConfig,
    *,
    dropout: float = 0.0,
    rng: np.random.Generator,
) -> NetworkParams:
    """Fit a network on (scores, labels); labels are class indices in {1..K}.

    Score vectors longer than the architecture's input width are truncated.
    Every class 1..K must occur at least once.  `dropout` in [0, 1) is the
    drop rate of every hidden unit; `rng` draws the initialization, the
    minibatch order and the dropout masks.  Raises NumericError with the
    epoch and batch index if the loss becomes non-finite.
    """
    dropout = as_rate(dropout, "dropout")
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
        missing = [int(i) + 1 for i in np.flatnonzero(present == 0)]
        raise DomainError(f"training data has no samples for class(es) {missing}")

    x = np.ascontiguousarray(scores[:, : arch.input_dim])

    params = initial_params(arch, rng)
    grad = NetworkParams(arch, np.zeros(arch.param_count))
    state = _OptState(arch.param_count, cfg.learning_rate)
    keep = 1.0 - dropout
    mask_cols = list(itertools.accumulate(arch.hidden_widths, initial=0))

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            masks = None
            if dropout > 0.0:
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
        for name, entry in (("n_scores", as_count), ("depths", as_count), ("widths", as_count),
                            ("dropouts", as_rate)):
            object.__setattr__(self, name, as_list(getattr(self, name), name, entry))
        if not all((self.n_scores, self.depths, self.widths, self.dropouts)):
            raise DomainError("every candidate list must be nonempty")

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


@dataclass(frozen=True)
class Classifier:
    """A fitted network and the grid shape of the data it was trained on.

    The network reads the first `params.architecture.input_dim` scores on
    the d-dimensional basis, d = len(grid_shape).  It accepts data on any
    grid over [0,1]^d and refuses data of another dimension.  `grid_shape`
    follows the rule of `basis.Grid`: 1 to 3 positive integers.
    """

    params: NetworkParams
    grid_shape: tuple

    def __post_init__(self):
        if not isinstance(self.params, NetworkParams):
            raise DomainError(f"params must be NetworkParams, got {type(self.params).__name__}")
        object.__setattr__(self, "grid_shape", Grid(self.grid_shape).shape)


@dataclass
class SelectionResult:
    """Outcome of the selection procedure.

    `validation_errors` is indexed [i_J, i_L, i_width, i_dropout] in the
    order of the candidate lists; `chosen` attains its minimum.  A grid of
    one candidate is not validated, and its (1, 1, 1, 1) array holds NaN.
    `classifier` is the winner retrained on all samples.
    """

    chosen: Chosen
    validation_errors: np.ndarray
    classifier: Classifier


def _param_count(j: int, depth: int, width: int, k: int) -> int:
    """`Architecture(j, (width,) * depth, k).param_count` by arithmetic,
    without building the depth-long tuple."""
    return width * (j + (depth - 1) * width + depth + k)


def _fit(raw, labels, cell, k: int, cfg: TrainConfig, stream) -> NetworkParams:
    """Train `cell` = (J, L, width, dropout) on raw score rows (n, >= J),
    standardized, then fold the standardization into the first layer in
    place: relu(W0 (x - mu) / sd - V1) = relu(W0' x - V1') with W0' = W0 / sd
    and V1' = V1 + W0' mu, so the network consumes raw scores.  Raises
    NumericError when a mean or spread is not finite."""
    j_c, l_c, w_c, s_c = cell
    arch = Architecture(input_dim=j_c, hidden_widths=(w_c,) * l_c, n_classes=k)
    # reduce over every column, then cut to J: numpy sums a lone column
    # pairwise but the columns of a wider matrix row by row, so the bits
    # would depend on how many columns the rows carry
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = raw.mean(axis=0)[:j_c], raw.std(axis=0)[:j_c]
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sd))):
        raise NumericError("the mean or spread of a score overflows; the sample values are too large")
    sd[sd == 0.0] = 1.0  # constant coordinates are passed through unscaled
    x = raw[:, :j_c] - mu
    x /= sd
    params = train(x, labels, arch, cfg, dropout=s_c, rng=np.random.default_rng(stream))
    params.weights[0] /= sd
    params.shifts[0] += params.weights[0] @ mu
    return params


def select(dataset, cfg: TrainConfig, grid: HyperGrid, seed) -> SelectionResult:
    """Full data-splitting selection over the candidate grid.

    `dataset` is a `Dataset` or a `dataio.DatasetReader`, as for `predict`.
    Scores are projected by row blocks at max(n_scores), then truncated.
    Every cell is fit by `_fit` on the 70% fold under its own dropout rate
    and scored by 0-1 error on the raw scores of the 30% fold; the winner
    is fit by `_fit` again on all samples and keeps the dataset's grid
    shape.  A one-cell grid skips the fold fit and its validation (its
    error stays NaN), so its cell trains once; the split still runs, so
    the refusals and the final fit's stream are those of a larger grid.
    `seed` (a non-negative int or a SeedSequence) drives every stream.

    The fold fits run through `parallel.ordered_map` at its default
    worker count.  The networks come back in grid order and are validated
    here once every fit is done, so `select` holds every fold network
    until then: n_cells * P * 8 bytes for P parameters per network
    (0.6 MB for the README's 16-cell grid on 3 classes, 20 MB per cell at
    J=500, L=3, width 1000 on 10 classes).  The first failing cell in grid
    order raises its error.  The winner's final fit runs here.  A grid
    whose largest cell has more parameters than one numpy array can hold
    is refused before any projection, pool or fit.
    """
    if len(dataset) == 0:
        raise DomainError("selection data has no samples")
    j_max = max(grid.n_scores)
    check_array_size(len(dataset) * j_max, f"{len(dataset)} samples of {j_max} scores")
    k = dataset.n_classes
    # the count grows with J, L and width: the largest cell bounds every cell
    largest = _param_count(j_max, max(grid.depths), max(grid.widths), k)
    check_array_size(largest, f"{largest} parameters")
    streams = as_seed_sequence(seed).spawn(grid.n_cells + 2)
    raw_scores = np.empty((len(dataset), j_max))
    for lo, hi, _, block in projected_blocks(dataset, j_max):
        raw_scores[lo:hi] = block
    del block  # not kept alive through training

    # a reader fills its labels as it reads the blocks
    labels = dataset.labels
    if labels.min() < 1:
        raise DomainError("selection needs fully labeled data")
    classes, counts = np.unique(labels, return_counts=True)
    if len(classes) < 2 or np.any(counts < 2):
        raise DomainError("selection needs >= 2 classes with >= 2 samples each")

    train_idx, val_idx = split_70_30(labels, streams[0])
    shape = (len(grid.n_scores), len(grid.depths), len(grid.widths), len(grid.dropouts))
    errors = np.full(shape, np.nan)
    if grid.n_cells > 1:  # one candidate is the argmin without validation
        cells = list(grid.cells())
        tasks = [(cell, k, cfg, streams[1 + ci]) for ci, cell in enumerate(cells)]
        nets = ordered_map(_fit, tasks, shared=(raw_scores[train_idx], labels[train_idx]))
        # validated here, once every fit is done: a validation pass is large
        # enough to wake BLAS helper threads, which would take a core from
        # a fit still running
        for ci, (cell, net) in enumerate(zip(cells, nets)):
            errors.flat[ci] = np.mean(classify(net, raw_scores[val_idx, : cell[0]]) != labels[val_idx])
        del nets, net  # the fold networks are not kept alive through the final fit

    chosen = min(zip(errors.flat, grid.cells()))[1]
    final = _fit(raw_scores, labels, chosen, k, cfg, streams[-1])
    return SelectionResult(
        chosen=Chosen(*chosen),
        validation_errors=errors,
        classifier=Classifier(final, dataset.grid.shape),
    )
