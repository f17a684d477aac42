"""Dataset-level prediction, misclassification metrics, truncated KL risk,
and the Monte-Carlo benchmark harness.

`predict` projects a dataset at the network's input width and runs
`network.forward` once; classes come from `network.predicted_class`, the
only argmax rule.  `evaluate` also returns the probabilities, so the KL
risk of a replicate or the CLI's truncated cross-entropy needs no second pass.

The benchmark runs R independent replicates: each draws fresh training and
test data, runs the full selection procedure, and evaluates on the test
set.  Replicates use seeds derived from the master seed in replicate
order, so results are bit-identical whether replicates run serially or on
a process pool.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisOrder
from .errors import DomainError
from .network import NetworkParams, forward, predicted_class
from .projection import Dataset, project_batch
from .rng import as_seed_sequence, seed_to_int
from .simulation import SimModel, bayes_posterior, default_test_size, generate_dataset
from .training import HyperGrid, TrainConfig, select


def misclassification_rate(predictions, labels) -> float:
    """Fraction of mismatches between two equal-length label sequences."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise DomainError("predictions and labels must have equal length")
    if predictions.size == 0:
        raise DomainError("cannot compute an error rate on empty input")
    return float(np.mean(predictions != labels))


def confusion_matrix(predictions, labels, n_classes: int) -> np.ndarray:
    """(K, K) counts; rows are true classes, columns predicted classes."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.size == 0:
        raise DomainError("predictions and labels must be nonempty and equal length")
    out = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(out, (labels - 1, predictions - 1), 1)
    return out


def truncated_kl_risk(true_posteriors, estimated_posteriors, c0: float = 2.0) -> float:
    """Average over samples of sum_k pi_k * min(c0, log(pi_k / pihat_k)).

    Only the log-ratio is capped from above, so individual summands may be
    negative; a zero estimated probability contributes pi_k * c0 rather
    than infinity.  Zero true probabilities contribute nothing.  `c0`
    must be finite and at least 2.
    """
    _check_truncation(c0)
    p = np.atleast_2d(np.asarray(true_posteriors, dtype=float))
    q = np.atleast_2d(np.asarray(estimated_posteriors, dtype=float))
    if p.shape != q.shape:
        raise DomainError("posterior lists must have matching shapes")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log(p) - np.log(q)
        capped = np.minimum(ratio, c0)
        terms = np.where(p > 0.0, p * capped, 0.0)
    return float(terms.sum(axis=1).mean())


def _check_truncation(c0: float) -> None:
    # written so that NaN fails too
    if not (math.isfinite(c0) and c0 >= 2.0):
        raise DomainError(f"truncation constant must be a finite number >= 2, got {c0}")


@dataclass(frozen=True)
class EvalConfig:
    """Risk-reporting settings: truncation constant, replicates, master seed."""

    c0: float = 2.0
    replicates: int = 1
    seed: int = 0

    def __post_init__(self):
        _check_truncation(self.c0)
        if self.replicates < 1:
            raise DomainError(f"replicates must be >= 1, got {self.replicates}")


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
    replicates: int
    errors: np.ndarray
    mean_error: float
    sd: float | None
    se: float | None
    confusion: np.ndarray
    chosen: list
    kl_risks: list | None = None

    @property
    def kl_mean(self) -> float | None:
        if not self.kl_risks:
            return None
        return float(np.mean(self.kl_risks))


def predict(params: NetworkParams, dataset: Dataset):
    """(classes, probs) of a fitted network on every sample of `dataset`,
    projected onto the dataset's d-dimensional basis at the input width."""
    order = BasisOrder(dataset.grid.d)
    scores = project_batch(dataset.values, dataset.grid, order, params.architecture.input_dim)
    probs = forward(params, scores)
    return predicted_class(probs), probs


def evaluate(params: NetworkParams, dataset: Dataset):
    """(error_rate, confusion, probs) of a fitted network on a labeled
    dataset with the network's number of classes."""
    if dataset.n_classes != params.architecture.n_classes:
        k = params.architecture.n_classes
        raise DomainError(f"the model has {k} classes, but the data has {dataset.n_classes}")
    pred, probs = predict(params, dataset)
    err = misclassification_rate(pred, dataset.labels)
    return err, confusion_matrix(pred, dataset.labels, dataset.n_classes), probs


def _run_replicate(args):
    (model, n_k, m, grid, cfg, rep_ss, test_nk, c0) = args
    data_ss, select_ss = rep_ss.spawn(2)
    train_ds = generate_dataset(model, n_k, m=m, seed=data_ss, subset="train")
    test_ds = generate_dataset(model, test_nk, m=m, seed=data_ss, subset="test")
    cfg_rep = replace(cfg, seed=seed_to_int(select_ss))
    result = select(train_ds, BasisOrder(model.d), grid, cfg_rep)
    err, conf, probs = evaluate(result.final_params, test_ds)

    kl = None
    if model.is_gaussian:
        kl = truncated_kl_risk(bayes_posterior(model, test_ds.latent), probs, c0)
    return err, result.chosen, conf, kl


def benchmark(
    model: SimModel,
    n_per_class: int,
    m: int,
    grid: HyperGrid,
    train_cfg: TrainConfig,
    eval_cfg: EvalConfig,
    *,
    test_per_class: int | None = None,
    workers: int = 1,
) -> EvalReport:
    """Replicated end-to-end benchmark of one model configuration.

    Each replicate generates independent train and test data, runs the
    selection procedure, and scores the chosen model on the test set.
    `workers` > 1 distributes replicates over processes without changing
    any result.
    """
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    reps = eval_cfg.replicates
    test_nk = test_per_class if test_per_class is not None else default_test_size(n_per_class)
    rep_streams = as_seed_sequence(eval_cfg.seed).spawn(reps)
    arglist = [
        (model, n_per_class, m, grid, train_cfg, rep_streams[r], test_nk, eval_cfg.c0)
        for r in range(reps)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_replicate, arglist))
    else:
        results = [_run_replicate(a) for a in arglist]

    errors = np.array([r[0] for r in results])
    chosen = [r[1] for r in results]
    confusion = np.sum([r[2] for r in results], axis=0)
    kls = [r[3] for r in results]
    kl_risks = None if any(k is None for k in kls) else kls
    sd = float(np.std(errors, ddof=1)) if reps >= 2 else None
    return EvalReport(
        model_id=model.model_id,
        n_per_class=n_per_class,
        m=m,
        replicates=reps,
        errors=errors,
        mean_error=float(errors.mean()),
        sd=sd,
        se=float(sd / np.sqrt(reps)) if sd is not None else None,
        confusion=confusion,
        chosen=chosen,
        kl_risks=kl_risks,
    )
