"""Projection of grid-observed functional samples onto score vectors.

Each sample is integrated against the first J elements of the tensor
Fourier basis with the grid's quadrature weights; the resulting score
vectors are what the network consumes.  The grid fixes everything else:
its shape gives the nodes and weights, and its dimension the basis order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Grid, design_matrix
from .errors import AliasingWarning, DomainError


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


def project_batch(values: np.ndarray, grid: Grid, J: int) -> np.ndarray:
    """Scores for an (n, m) batch of samples, returned as (n, J).

    score_j = sum over nodes of weight * value * phi_j(node).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.m:
        raise DomainError("values must be (n, m) matching the grid")
    _check_aliasing(J, grid)
    phi = design_matrix(J, grid)
    return (values * grid.node_weights()[None, :]) @ phi
