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

One training step works on one (G, P) buffer for G networks of P
parameters.  `select` trains the cells that differ only in dropout, which
are consecutive in `HyperGrid.cells()`, as one group in lockstep, of at
most GROUP_FLOATS values; `train` is the group of one.  The parameters are
a `ParamStack`: row g of one contiguous float64 (G, P) array is network
g's `NetworkParams` vector, and its per-layer views carry a leading G axis.
`network.loss_and_gradient` runs the hidden-layer loop that inference also
runs, as stacked matmuls on (G, b, .) batches, keeps every activation, and
writes the gradient into a second `ParamStack`; Adam then updates all G P
values with a fixed sequence of in-place ufuncs, run over one cache-sized
slice at a time.  Network g draws from its own Generator, in the order a
lone fit does; the dropout masks of its step come from one uniform draw,
sliced layer by layer.  Each elementwise operation is the one the
per-array formulas perform, in the same order, and each (b, .) slice of a
stacked matmul has the bits of the same product for one network, so every
network gets the bits it gets alone, whatever the group, the layout or
where the slices fall.
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
    ParamStack,
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
# parameter values (G * P) of the largest group `select` trains in
# lockstep (2 MiB per buffer): grouping saves per-step overhead, which a
# network this large no longer has, and multiplies a worker's training
# state by G; a cell of more parameters trains alone
GROUP_FLOATS = 2**18


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
    return _train_group(scores, labels, arch, cfg, (dropout,), (rng,))[0]


def _train_group(scores, labels, arch: Architecture, cfg: TrainConfig, dropouts, rngs) -> list:
    """`[train(scores, labels, arch, cfg, dropout=s, rng=r) for s, r in
    zip(dropouts, rngs)]`, the G networks trained in lockstep, each with
    the bits it gets alone.

    Network g draws from `rngs[g]` what `train` draws, in the same order:
    its initialization, each epoch's permutation and, when `dropouts[g]` is
    not 0, each step's masks; a network without dropout takes factors of
    exactly 1.0.  A network whose loss becomes non-finite keeps its NaNs in
    its own row while the others go on stepping (the group stops once every
    network has); then the NumericError of the first such network, with its
    own epoch and batch, is raised.
    """
    dropouts = [as_rate(s, "dropout") for s in dropouts]
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

    networks = len(rngs)
    params = ParamStack(arch, np.zeros((networks, arch.param_count)))
    for row, rng in zip(params.flat, rngs):
        initial_params(arch, rng, row)
    grad = ParamStack(arch, np.zeros_like(params.flat))
    # one update over all G * P values: every operation is elementwise
    flat_params, flat_grad = params.flat.reshape(-1), grad.flat.reshape(-1)
    state = _OptState(flat_params.size, cfg.learning_rate)
    mask_cols = list(itertools.accumulate(arch.hidden_widths, initial=0))
    dropping = [g for g, s in enumerate(dropouts) if s > 0.0]
    factors = np.ones((networks, cfg.batch_size * mask_cols[-1])) if dropping else None
    perms = np.empty((networks, n), dtype=np.intp)
    failed = [None] * networks

    # a diverged network's row keeps computing, on NaNs, without warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch, batch, idx in _minibatches(perms, rngs, cfg):
            masks = None
            if dropping:
                b = idx.shape[1]
                draw = b * mask_cols[-1]
                for g in dropping:
                    keep = 1.0 - dropouts[g]
                    # one draw per step; layer l takes the next b * p_l values,
                    # exactly the numbers a per-layer draw would give it
                    np.divide(rngs[g].random(draw) < keep, keep, out=factors[g, :draw])
                masks = [
                    factors[:, b * lo : b * hi].reshape(networks, b, hi - lo)
                    for lo, hi in zip(mask_cols, mask_cols[1:])
                ]
            losses = loss_and_gradient(params, x[idx], y[idx], masks, grad)
            finite = np.isfinite(losses)
            if not finite.all():
                for g in np.flatnonzero(~finite):
                    failed[g] = failed[g] or NumericError(
                        f"training loss became non-finite at epoch {epoch + 1}, batch {batch + 1}"
                    )
                if all(failed):
                    break
            state.step(flat_params, flat_grad)
    for error in failed:
        if error is not None:
            raise error
    return [NetworkParams(arch, row) for row in params.flat]


def _minibatches(perms: np.ndarray, rngs, cfg: TrainConfig):
    """Yield (epoch, batch, indices) of every step: the indices are (G, b),
    row g the next minibatch of network g.  Each epoch first draws every
    network's permutation of the n rows into `perms` (G, n)."""
    n = perms.shape[1]
    for epoch in range(cfg.epochs):
        for row, rng in zip(perms, rngs):
            row[:] = rng.permutation(n)
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            yield epoch, batch, perms[:, start : start + cfg.batch_size]


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


def _fit(raw, labels, cells, k: int, cfg: TrainConfig, streams, *, overwrite=False) -> list:
    """Train `cells`, (J, L, width, dropout) tuples that differ only in
    dropout, as one group on raw score rows (n, >= J), standardized, cell i
    drawing from `streams[i]`; then fold the standardization into each
    network's first layer in place: relu(W0 (x - mu) / sd - V1) =
    relu(W0' x - V1') with W0' = W0 / sd and V1' = V1 + W0' mu, so the
    networks consume raw scores.  `overwrite` (the final fit) standardizes
    raw in place, after moving its first J columns to the front of its
    buffer; fold fits, sharing their rows, copy theirs.  Raises
    NumericError when a mean or spread is not finite."""
    j_c, l_c, w_c, _ = cells[0]
    arch = Architecture(input_dim=j_c, hidden_widths=(w_c,) * l_c, n_classes=k)
    # reduce over every column, then cut to J: numpy sums a lone column
    # pairwise but the columns of a wider matrix row by row, so the bits
    # would depend on how many columns the rows carry
    with np.errstate(over="ignore", invalid="ignore"):
        mu, sd = raw.mean(axis=0)[:j_c], raw.std(axis=0)[:j_c]
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sd))):
        raise NumericError("the mean or spread of a score overflows; the sample values are too large")
    sd[sd == 0.0] = 1.0  # constant coordinates are passed through unscaled
    if overwrite:
        x = _front_columns(raw, j_c)
        x -= mu
    else:
        x = raw[:, :j_c] - mu
    x /= sd
    nets = _train_group(x, labels, arch, cfg, [cell[3] for cell in cells],
                        [np.random.default_rng(stream) for stream in streams])
    for params in nets:
        params.weights[0] /= sd
        params.shifts[0] += params.weights[0] @ mu
    return nets


def _front_columns(raw: np.ndarray, j: int) -> np.ndarray:
    """The first j columns of the C-contiguous (n, >= j) `raw` as one
    contiguous (n, j) array at the front of its buffer, moved there in
    place.  Row i moves from offset i * width to i * j, never later, so
    copying blocks of rows in order overwrites only rows already moved.
    numpy copies a block whose source and destination overlap through a
    buffer, so a block holds at most ADAM_SLICE values (or one row)."""
    n, width = raw.shape
    if width == j:
        return raw
    front = raw.reshape(-1)[: n * j].reshape(n, j)
    rows = max(ADAM_SLICE // j, 1)
    for lo in range(0, n, rows):
        front[lo : lo + rows] = raw[lo : lo + rows, :j]
    return front


def _groups(cells, k: int) -> list:
    """The index lists of the groups `select` trains in lockstep: each run
    of consecutive cells that differ only in dropout, cut into groups of at
    most GROUP_FLOATS parameter values (one cell at the least)."""
    groups = []
    for shape, run in itertools.groupby(range(len(cells)), key=lambda ci: cells[ci][:3]):
        run = list(run)
        size = max(GROUP_FLOATS // _param_count(*shape, k), 1)
        groups += [run[lo : lo + size] for lo in range(0, len(run), size)]
    return groups


def select(dataset, cfg: TrainConfig, grid: HyperGrid, seed) -> SelectionResult:
    """Full data-splitting selection over the candidate grid.

    `dataset` is a `Dataset`, `dataio.DatasetReader` or `idx.IdxImages`.
    Scores are projected by row blocks at max(n_scores), then truncated.
    Every cell is fit by `_fit` on the 70% fold under its own dropout rate
    and scored by 0-1 error on the raw scores of the 30% fold; the winner
    is fit by `_fit` again on all samples and keeps the dataset's grid
    shape.  That final fit overwrites `select`'s own score matrix with its
    standardization, while fold fits copy theirs.  A one-cell grid skips
    the fold fit and its validation (its error stays NaN), so its cell
    trains once; the split still runs, so the refusals and the final fit's
    stream are those of a larger grid.
    `seed` (a non-negative int or a SeedSequence) drives every stream.

    The fold fits run as groups through `parallel.ordered_map` at its
    default worker count: each run of cells that differ only in dropout,
    cut into groups of at most GROUP_FLOATS parameter values, is one task,
    and the pool starts the largest groups (G * P values) first.  A worker
    holds one group's training state, parameters, gradient and two Adam
    moments: 4 G P floats, at most 8 MiB unless one cell trains alone.  The networks come back in grid
    order and are validated here once every fit is done, so `select` holds
    every fold network until then: n_cells * P * 8 bytes for P parameters
    per network (0.6 MB for the README's 16-cell grid on 3 classes, 20 MB
    per cell at J=500, L=3, width 1000 on 10 classes).  The first failing
    cell in grid order raises its error.  The winner's final fit runs
    here.  A grid with more cells, or whose largest cell has more
    parameters, than one numpy array can hold is refused before any
    projection, pool or fit.
    """
    if len(dataset) == 0:
        raise DomainError("selection data has no samples")
    j_max = max(grid.n_scores)
    check_array_size(len(dataset) * j_max, f"{len(dataset)} samples of {j_max} scores")
    k = dataset.n_classes
    # the count grows with J, L and width: the largest cell bounds every cell
    largest = _param_count(j_max, max(grid.depths), max(grid.widths), k)
    check_array_size(largest, f"{largest} parameters")
    check_array_size(grid.n_cells, f"{grid.n_cells} grid cells")  # the validation errors
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
        tasks = [([cells[ci] for ci in group], k, cfg, [streams[1 + ci] for ci in group])
                 for group in _groups(cells, k)]
        # every fold fit takes the same number of steps, so a group's cost
        # is its parameter count
        fits = ordered_map(_fit, tasks, shared=(raw_scores[train_idx], labels[train_idx]),
                           cost=lambda task: len(task[0]) * _param_count(*task[0][0][:3], k))
        nets = [net for group in fits for net in group]
        # validated here, once every fit is done: a validation pass is large
        # enough to wake BLAS helper threads, which would take a core from
        # a fit still running
        for ci, (cell, net) in enumerate(zip(cells, nets)):
            errors.flat[ci] = np.mean(classify(net, raw_scores[val_idx, : cell[0]]) != labels[val_idx])
        del fits, nets, net  # the fold networks are not kept alive through the final fit

    chosen = min(zip(errors.flat, grid.cells()))[1]
    [final] = _fit(raw_scores, labels, [chosen], k, cfg, [streams[-1]], overwrite=True)
    return SelectionResult(
        chosen=Chosen(*chosen),
        validation_errors=errors,
        classifier=Classifier(final, dataset.grid.shape),
    )
