"""Projection of grid-observed functional samples onto score vectors.

Each sample is integrated against the first J elements of the tensor
Fourier basis with the grid's quadrature weights; the resulting score
vectors are what the network consumes.  The grid fixes everything else:
its shape gives the nodes and weights, and its dimension the basis order.
Training, inference and dataset reading all go by `row_blocks`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import Grid, design_matrix
from .errors import AliasingWarning, DomainError, as_count


# rows per block of every dataset projection, training's and inference's
# alike, and of dataset reading.  A short last block joins the one before
# it: with OpenBLAS, a matmul over a few hundred rows takes another kernel,
# which changes the last bits of its rows, while blocks of BLOCK_ROWS or more
# rows give the bits of one call over all rows.  One measured exception: on
# a 28x28 grid at J=500, a few dozen rows of a multi-block projection differ
# from one call in the last bit or two
BLOCK_ROWS = 4096


def row_blocks(n: int) -> list:
    """(lo, hi) bounds of the row blocks of n rows: each block holds
    BLOCK_ROWS to 2 * BLOCK_ROWS - 1 rows, or all n rows when
    0 < n < BLOCK_ROWS; there is no block when n = 0."""
    starts = range(0, n, BLOCK_ROWS)[: max(n // BLOCK_ROWS, 1)]
    return list(zip(starts, [*starts[1:], n]))


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
        self.n_classes = as_count(self.n_classes, "n_classes")
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

    def blocks(self):
        """(lo, hi, values, labels) of each of `row_blocks(len(self))`, the
        values and labels being views of those rows."""
        for lo, hi in row_blocks(len(self)):
            yield lo, hi, self.values[lo:hi], self.labels[lo:hi]


def _design_matrix(J: int, grid: Grid) -> np.ndarray:
    if as_count(J, "J") > grid.m:
        warnings.warn(f"projecting onto J={J} basis elements from only m={grid.m} grid points; "
                      "scores beyond the grid resolution are aliased",
                      AliasingWarning, stacklevel=3)
    return design_matrix(J, grid)


def project_batch(
    values: np.ndarray, grid: Grid, J: int, *, phi: np.ndarray | None = None
) -> np.ndarray:
    """Scores for an (n, m) batch of samples, returned as (n, J).

    score_j = sum over nodes of weight * value * phi_j(node).  `phi` is
    `design_matrix(J, grid)`, built here, with an AliasingWarning when J
    exceeds the grid's m, unless the caller passes the one it built.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != grid.m:
        raise DomainError("values must be (n, m) matching the grid")
    if phi is None:
        phi = _design_matrix(J, grid)
    elif phi.shape != (grid.m, J):
        raise DomainError(f"design matrix must be (m, J) = {(grid.m, J)}, got {phi.shape}")
    return (values * grid.node_weights()[None, :]) @ phi


def projected_blocks(data, J: int):
    """(lo, hi, labels, scores) of each of `data.blocks()`, where data is a
    `Dataset`, a `dataio.DatasetReader` or an `idx.IdxImages` and scores is
    the block's (hi - lo, J) `project_batch`.  The design matrix is built
    once, with the first block (empty data builds none), with its AliasingWarning."""
    phi = None
    for lo, hi, values, labels in data.blocks():
        if phi is None:
            phi = _design_matrix(J, data.grid)
        yield lo, hi, labels, project_batch(values, data.grid, J, phi=phi)
