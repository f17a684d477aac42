"""Orthonormal tensor Fourier basis on the unit cube, with grid quadrature.

The univariate family is indexed from 1:

    1        -> constant 1
    2k       -> sqrt(2) * cos(2 pi k t)
    2k + 1   -> sqrt(2) * sin(2 pi k t)

and is orthonormal in L2[0, 1].  Multivariate elements are products of one
univariate element per axis.  Ranks enumerate the d-tuples of univariate
indices graded by their maximum entry, ties broken lexicographically, so
rank 1 is always the all-constant element and low frequencies come first.
The enumeration, `multi_indices(d, J)`, depends only on the dimension and
is stable across runs; every basis function takes d from the grid.

Integrals against grid-observed data use the midpoint rule: an m-point axis
carries nodes (2i - 1) / (2m) with equal weights 1/m, so a `Grid` is fixed
by its shape alone.  Samples arrive only at grid nodes, so no higher-order
rule is applicable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, as_count

SQRT2 = math.sqrt(2.0)


def univariate_fourier(index: int, t):
    """Evaluate the 1-D orthonormal Fourier element `index` at `t`.

    `t` may be a scalar or an array; all entries must lie in [0, 1].
    Returns a float for scalar input, an array otherwise.
    """
    index = as_count(index, "Fourier index")
    arr = np.asarray(t, dtype=float)
    if arr.size and (arr.min() < 0.0 or arr.max() > 1.0):
        raise DomainError("evaluation points must lie in [0, 1]")
    if index == 1:
        out = np.ones_like(arr)
    elif index % 2 == 0:
        k = index // 2
        out = SQRT2 * np.cos(2.0 * np.pi * k * arr)
    else:
        k = index // 2
        out = SQRT2 * np.sin(2.0 * np.pi * k * arr)
    return float(out) if out.ndim == 0 else out


def _shell(d: int, g: int) -> list:
    """The d-tuples over 1..g whose maximum is g, in lexicographic order:
    a head below g needs g in the rest, a head of g takes any rest."""
    if d == 1:
        return [(g,)]
    rest = _shell(d - 1, g)
    out = [(i, *t) for i in range(1, g) for t in rest]
    out += [(g, *t) for t in itertools.product(range(1, g + 1), repeat=d - 1)]
    return out


def multi_indices(d: int, J: int) -> np.ndarray:
    """The d-dimensional multi-indices of ranks 1..J as a (J, d) integer
    array: a bijection from ranks to distinct d-tuples of univariate
    indices, graded by their maximum entry and ordered lexicographically
    within a grade."""
    J = as_count(J, "J")
    out, grade = [], 0
    while len(out) < J:
        grade += 1
        out += _shell(d, grade)
    return np.array(out[:J], dtype=np.int64)


@dataclass(frozen=True)
class Grid:
    """Midpoint grid on [0, 1]^d, fixed by its shape: 1 to 3 positive integers.

    Axis `a` has nodes (2i - 1) / (2 s_a) for i = 1..s_a, each weighted
    1 / s_a.  The weight of a full grid node is the product of its per-axis
    weights, and the weights sum to 1 (the volume of the unit cube).
    Flattened node order is row-major: axis 0 slowest.
    """

    shape: tuple

    def __post_init__(self):
        shape = self.shape
        if isinstance(shape, (tuple, list)):
            shape = tuple(as_count(s, "a grid_shape entry") for s in shape)
        if not (isinstance(shape, tuple) and 1 <= len(shape) <= 3):
            raise DomainError(f"grid_shape must hold 1 to 3 positive integers, got {shape!r}")
        object.__setattr__(self, "shape", shape)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def m(self) -> int:
        return math.prod(self.shape)

    @property
    def axes(self) -> tuple:
        """The node coordinates of each axis."""
        return tuple((2.0 * np.arange(1, s + 1) - 1.0) / (2.0 * s) for s in self.shape)

    def node_matrix(self) -> np.ndarray:
        """All grid nodes as an (m, d) array in row-major order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([c.ravel() for c in mesh], axis=1)

    def node_weights(self) -> np.ndarray:
        """Quadrature weight of every node, flattened row-major, shape (m,).

        A product of per-axis weights, not 1 / m: the two differ in the last
        bit, (1/5)**3 != 1/125 in float64."""
        w = np.array([1.0])
        for s in self.shape:
            w = np.multiply.outer(w, np.full(s, 1.0 / s)).ravel()
        return w


def design_matrix(J: int, grid: Grid) -> np.ndarray:
    """Values of the first `J` basis elements at every grid node, shape (m, J).

    Exploits the tensor structure: univariate values are tabulated once per
    axis and combined by indexing, so the cost is O(m * J) multiplications.
    """
    mi = multi_indices(grid.d, J)
    flat_axis_pos = np.indices(grid.shape).reshape(grid.d, -1)
    phi = np.ones((grid.m, J))
    for a, nodes in enumerate(grid.axes):
        max_idx = int(mi[:, a].max())
        table = np.empty((grid.shape[a], max_idx))
        for idx in range(1, max_idx + 1):
            table[:, idx - 1] = univariate_fourier(idx, nodes)
        phi *= table[flat_axis_pos[a][:, None], mi[None, :, a] - 1]
    return phi


def gram_matrix(J: int, grid: Grid) -> np.ndarray:
    """Quadrature Gram matrix G[a, b] = sum_nodes w * phi_a * phi_b, shape (J, J).

    Equals the identity up to quadrature error when the grid resolves the
    first J elements; a coarse grid under-resolves and the deviation grows.
    """
    phi = design_matrix(J, grid)
    w = grid.node_weights()
    g = phi.T @ (phi * w[:, None])
    return 0.5 * (g + g.T)
