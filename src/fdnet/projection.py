"""Projection of grid-observed functional samples onto score vectors.

Two routes are provided.  The default is fixed-basis integration: the
sample is integrated against the first J tensor Fourier elements with the
grid's quadrature weights.  The second route estimates a data-driven basis
from the sample covariance (a discrete Karhunen-Loeve decomposition, solved
by `np.linalg.eigh` under one relative zero tolerance) and projects onto
its leading eigenfunctions.  The benchmark pipeline uses the fixed-basis
route throughout; the covariance route is provided for exploratory use,
against the pooled covariance when classes are mixed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import BasisOrder, Grid, design_matrix
from .errors import AliasingWarning, DomainError, NumericError


@dataclass
class FunctionalSample:
    """One observation on a grid: `values` flattened row-major, length m.

    `label` is a class index in {1..K}, or None when unlabeled.
    """

    values: np.ndarray
    grid: Grid
    label: int | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.shape[0] != self.grid.m:
            raise DomainError(
                f"sample has {self.values.shape[0]} values, grid has {self.grid.m} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("sample values must be finite")
        if self.label is not None and self.label < 1:
            raise DomainError(f"class labels are 1-based, got {self.label}")


@dataclass
class Dataset:
    """A batch of samples sharing one grid.

    `values` is (n, m) row-major, `labels` is (n,) with entries in
    {1..n_classes} or 0 for unlabeled.  `latent` optionally carries the
    generator's score vectors for synthetic data (never serialized).
    """

    values: np.ndarray
    grid: Grid
    labels: np.ndarray
    n_classes: int
    latent: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.m:
            raise DomainError("dataset values must be (n, m) matching the grid")
        if self.labels.shape != (self.values.shape[0],):
            raise DomainError("labels must be one per sample")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > self.n_classes):
            raise DomainError(f"labels must lie in 0..{self.n_classes}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("dataset values must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]


def _check_aliasing(J: int, grid: Grid) -> None:
    if J > grid.m:
        warnings.warn(
            f"projecting onto J={J} basis elements from only m={grid.m} grid "
            "points; scores beyond the grid resolution are aliased",
            AliasingWarning,
            stacklevel=3,
        )


def project(sample: FunctionalSample, order: BasisOrder, J: int) -> np.ndarray:
    """Scores of one sample against the first J basis elements.

    score_j = sum over nodes of weight * value * phi_j(node).
    """
    return project_batch(sample.values[None, :], sample.grid, order, J)[0]


def project_batch(values: np.ndarray, grid: Grid, order: BasisOrder, J: int) -> np.ndarray:
    """Scores for an (n, m) batch of samples, returned as (n, J)."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.m:
        raise DomainError("values must be (n, m) matching the grid")
    _check_aliasing(J, grid)
    phi = design_matrix(order, J, grid)
    return (values * grid.node_weights()[None, :]) @ phi


@dataclass
class EmpiricalCovariance:
    """Discretized sample covariance of one class on a grid.

    `matrix` is the (m, m) pointwise covariance of the values (quadrature
    weights are applied later, in the eigenproblem); `mean` is the
    pointwise class mean.
    """

    matrix: np.ndarray
    mean: np.ndarray
    grid: Grid
    label: int | None = None


def class_covariance(samples) -> EmpiricalCovariance:
    """Sample covariance of a list of same-class, same-grid samples.

    Uses the 1/n normalization: entry (a, b) is the average over samples of
    (X(a) - mean(a)) (X(b) - mean(b)).  Requires at least two samples; a
    single observation carries no covariance information and is refused.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError(f"covariance estimation needs >= 2 samples, got {len(samples)}")
    grid = samples[0].grid
    label = samples[0].label
    for s in samples[1:]:
        if not grid.matches(s.grid):
            raise DomainError("all samples must share one grid")
        if s.label != label:
            raise DomainError("all samples must belong to one class")
    values = np.stack([s.values for s in samples], axis=0)
    return _covariance(values, grid, label)


def pooled_covariance(dataset: Dataset) -> EmpiricalCovariance:
    """Covariance of all samples pooled across classes, centered at the
    pooled mean."""
    if len(dataset) < 2:
        raise DomainError(f"covariance estimation needs >= 2 samples, got {len(dataset)}")
    return _covariance(dataset.values, dataset.grid, None)


def _covariance(values: np.ndarray, grid: Grid, label) -> EmpiricalCovariance:
    mean = values.mean(axis=0)
    centered = values - mean
    mat = centered.T @ centered / values.shape[0]
    mat = 0.5 * (mat + mat.T)
    np.fill_diagonal(mat, np.maximum(mat.diagonal(), 0.0))
    return EmpiricalCovariance(matrix=mat, mean=mean, grid=grid, label=label)


@dataclass
class FpcaResult:
    """Leading eigenpairs of a covariance under the grid inner product.

    `eigenfunctions` has one grid function per row, orthonormal with
    respect to sum(w * f * g); `eigenvalues` are nonincreasing and
    nonnegative.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    mean: np.ndarray
    grid: Grid


def empirical_fpca(cov: EmpiricalCovariance, J: int) -> FpcaResult:
    """First J eigenpairs of the weighted covariance operator.

    Solves the symmetric eigenproblem of D^(1/2) C D^(1/2) (D = diagonal
    quadrature weights) with one `np.linalg.eigh` call, mapping eigenvectors
    back so that eigenfunctions are orthonormal under the grid inner
    product.  One relative tolerance, zero = 1e-9 times the largest
    eigenvalue, applies to the whole spectrum: eigenvalues at or below it
    are reported as exact zeros (they are roundoff in double precision),
    and a smallest eigenvalue below -zero raises NumericError, because the
    matrix is then not a covariance.  Eigenfunction signs are arbitrary.
    """
    m = cov.matrix.shape[0]
    if not 1 <= J <= m:
        raise DomainError(f"J must lie in 1..{m}, got {J}")
    sw = np.sqrt(cov.grid.node_weights())
    b = sw[:, None] * cov.matrix * sw[None, :]
    eigvals, vecs = np.linalg.eigh(0.5 * (b + b.T))
    zero = 1e-9 * eigvals[-1]
    if eigvals[0] < -zero:
        raise NumericError(
            f"covariance has eigenvalue {eigvals[0]:.3e}, below the tolerance -{zero:.3e}"
        )
    eigvals = eigvals[::-1][:J]
    funcs = vecs[:, ::-1][:, :J].T / sw
    return FpcaResult(
        eigenvalues=np.where(eigvals > zero, eigvals, 0.0),
        eigenfunctions=funcs,
        mean=cov.mean,
        grid=cov.grid,
    )


def fpc_scores(sample: FunctionalSample, fpca: FpcaResult, J: int | None = None) -> np.ndarray:
    """Scores of one sample against the empirical eigenfunctions.

    score_j = grid inner product of (sample - mean) with eigenfunction j.
    """
    if not sample.grid.matches(fpca.grid):
        raise DomainError("sample grid does not match the grid of the decomposition")
    available = fpca.eigenvalues.shape[0]
    if J is None:
        J = available
    if not 1 <= J <= available:
        raise DomainError(f"J must lie in 1..{available}, got {J}")
    w = fpca.grid.node_weights()
    centered = sample.values - fpca.mean
    return fpca.eigenfunctions[:J] @ (w * centered)
