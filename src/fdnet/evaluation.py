"""Dataset-level prediction, the confusion matrix, truncated KL risk, and
the Monte-Carlo benchmark harness.

`predict` and `evaluate` take a fitted `training.Classifier` and refuse
data of a dimension other than that of its grid shape (another grid of
the same dimension is scored).  `predict` is the one scoring loop: for
each block of `projection.projected_blocks` at the network's input width
(the scores `select` trains on), it runs `network.forward`, and at the end
takes the classes from `network.predicted_class`, the only argmax rule.
The data is an in-memory `Dataset`, whose blocks are views of its rows, or
a `dataio.DatasetReader`, which reads each block from the file, so memory
is one block plus the (n, K) probabilities and the n classes.  Blocks of
at least `BLOCK_ROWS` rows give the bits of one call over all rows (see
`projection.BLOCK_ROWS` for the one exception measured).  `evaluate` is
`predict` plus the confusion matrix of its classes, and also returns the
probabilities, so the KL risk of a replicate or the CLI's truncated
cross-entropy needs no second pass.

The benchmark runs R independent replicates: each draws fresh training and
test data, runs the full selection procedure, and evaluates on the test
set.  Replicates use seeds derived from the master seed in replicate
order, so results are bit-identical whether replicates run serially or on
the pool of `parallel.ordered_map`, whose rule keeps each replicate's
`select` serial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_count, as_real, check_array_size
from .network import forward, predicted_class
from .parallel import ordered_map
from .projection import projected_blocks
from .rng import as_seed_sequence, seed_to_int
from .simulation import SimModel, bayes_posterior, dataset_grid, default_test_size, generate_dataset
from .training import Classifier, HyperGrid, TrainConfig, select


def confusion_matrix(predictions, labels, n_classes: int) -> np.ndarray:
    """(K, K) counts; rows are true classes, columns predicted classes,
    each an integer class in 1..K (a float or bool array is refused, not
    truncated)."""
    predictions, labels = np.asarray(predictions), np.asarray(labels)
    if predictions.dtype.kind not in "iu" or labels.dtype.kind not in "iu":
        raise DomainError("predictions and labels must be arrays of integer classes")
    if predictions.shape != labels.shape or predictions.size == 0:
        raise DomainError("predictions and labels must be nonempty and equal length")
    if min(predictions.min(), labels.min()) < 1 or max(predictions.max(), labels.max()) > n_classes:
        raise DomainError(f"predictions and labels must be classes in 1..{n_classes}")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (labels - 1, predictions - 1), 1)
    return out


def truncated_kl_risk(true_posteriors, estimated_posteriors, c0: float = 2.0) -> float:
    """Average over samples of sum_k pi_k * min(c0, log(pi_k / pihat_k)).

    Only the log-ratio is capped from above, so individual summands may be
    negative; a zero estimated probability contributes pi_k * c0 rather
    than infinity.  Zero true probabilities contribute nothing.  `c0`
    must be finite and at least 2.  Both arguments are (n, K) arrays, one
    row per sample.
    """
    c0 = as_real(c0, "c0")
    # written so that NaN fails too
    if not (math.isfinite(c0) and c0 >= 2.0):
        raise DomainError(f"truncation constant must be a finite number >= 2, got {c0}")
    p = np.asarray(true_posteriors, dtype=float)
    q = np.asarray(estimated_posteriors, dtype=float)
    if p.ndim != 2 or p.shape != q.shape:
        raise DomainError(f"posteriors must be two (n, K) arrays, got shapes {p.shape} and {q.shape}")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(p) - np.log(q)
        capped = np.minimum(ratio, c0)
        terms = np.where(p > 0.0, p * capped, 0.0)
    return float(terms.sum(axis=1).mean())


@dataclass
class EvalReport:
    """Aggregated benchmark outcome.

    `sd` is the across-replicate sample standard deviation (the figure
    comparable with published tables); `se` = sd / sqrt(replicates).  Both
    are None with a single replicate.  `confusion` sums counts over all
    replicates.  `kl_risk` entries are present only for all-Gaussian
    models, where exact posteriors exist.
    """

    model_id: str
    n_per_class: int
    m: int
    errors: np.ndarray
    confusion: np.ndarray
    chosen: list
    kl_risks: list | None = None

    @property
    def replicates(self) -> int:
        return len(self.errors)

    @property
    def mean_error(self) -> float:
        return float(self.errors.mean())

    @property
    def sd(self) -> float | None:
        return float(np.std(self.errors, ddof=1)) if self.replicates >= 2 else None

    @property
    def se(self) -> float | None:
        return float(self.sd / np.sqrt(self.replicates)) if self.replicates >= 2 else None

    @property
    def kl_mean(self) -> float | None:
        if not self.kl_risks:
            return None
        return float(np.mean(self.kl_risks))


def predict(model: Classifier, data):
    """(classes, probs) of a fitted classifier on every sample of `data`,
    a `Dataset` or a `dataio.DatasetReader` of the model's dimension.  Data
    of another dimension raises DomainError before any block is read."""
    d, j = len(model.grid_shape), model.params.architecture.input_dim
    if data.grid.d != d:
        raise DomainError(f"the model was trained on {d}-D data, but the data is {data.grid.d}-D")
    probs = np.empty((len(data), model.params.architecture.n_classes))
    for lo, hi, _, scores in projected_blocks(data, j):
        probs[lo:hi] = forward(model.params, scores)
        del scores  # held across the next block's read, it fragments the heap (+5 MB RSS)
    return predicted_class(probs), probs


def evaluate(model: Classifier, data):
    """(error_rate, confusion, probs) of a fitted classifier on nonempty,
    fully labeled data of its dimension, with the network's number of
    classes: a `Dataset` or a `dataio.DatasetReader`, whose unlabeled
    samples are refused once every block has been read."""
    n, k = len(data), model.params.architecture.n_classes
    if n == 0:
        raise DomainError("evaluation data has no samples")
    if data.n_classes != k:
        raise DomainError(f"the model has {k} classes, but the data has {data.n_classes}")
    classes, probs = predict(model, data)
    if data.labels.min() < 1:
        raise DomainError("evaluation data contains unlabeled samples")
    confusion = confusion_matrix(classes, data.labels, k)
    # the mismatch count over n: the bits of the mean of the mismatches
    return float((n - np.trace(confusion)) / n), confusion, probs


def _run_replicate(model, n_k, m, grid, cfg, test_nk, rep_ss):
    data_ss, select_ss = rep_ss.spawn(2)
    train_ds = generate_dataset(model, n_k, m=m, seed=data_ss, subset="train")
    test_ds = generate_dataset(model, test_nk, m=m, seed=data_ss, subset="test")
    result = select(train_ds, cfg, grid, seed_to_int(select_ss))
    err, conf, probs = evaluate(result.classifier, test_ds)

    kl = None
    if model.is_gaussian:
        kl = truncated_kl_risk(bayes_posterior(model, test_ds.latent), probs)
    return err, result.chosen, conf, kl


def benchmark(
    model: SimModel,
    n_per_class: int,
    m: int,
    grid: HyperGrid,
    cfg: TrainConfig,
    *,
    replicates: int,
    seed,
    test_per_class: int | None = None,
    workers: int | None = None,
) -> EvalReport:
    """Replicated end-to-end benchmark of one model configuration.

    Each of the `replicates` replicates generates independent train and
    test data, runs the selection procedure, and scores the chosen model on
    the test set; `seed` is the master seed of every replicate's streams.
    The KL risk uses `truncated_kl_risk`'s default truncation constant.
    The replicates run through `parallel.ordered_map` on `workers`
    processes (by default the usable CPUs), at most one per replicate.
    """
    reps = as_count(replicates, "replicates")
    n_per_class, m = as_count(n_per_class, "n_per_class"), as_count(m, "m")
    if test_per_class is None:
        test_nk = default_test_size(n_per_class)
    else:
        test_nk = as_count(test_per_class, "test_per_class")
    for nk in (n_per_class, test_nk):  # refused before any replicate starts
        dataset_grid(model, nk, m)
    check_array_size(reps * model.n_classes**2, f"{reps} replicates")  # the (reps, K, K) confusions
    rep_streams = as_seed_sequence(seed).spawn(reps)
    shared = (model, n_per_class, m, grid, cfg, test_nk)
    results = ordered_map(_run_replicate, [(ss,) for ss in rep_streams], workers, shared=shared)

    errors, chosen, confusions, kls = zip(*results)
    return EvalReport(
        model_id=model.model_id,
        n_per_class=n_per_class,
        m=m,
        errors=np.array(errors),
        confusion=np.sum(confusions, axis=0),
        chosen=list(chosen),
        kl_risks=None if None in kls else list(kls),
    )
