"""Orthonormal tensor Fourier basis on the unit cube, with grid quadrature.

The univariate family is indexed from 1:

    1        -> constant 1
    2k       -> sqrt(2) * cos(2 pi k t)
    2k + 1   -> sqrt(2) * sin(2 pi k t)

and is orthonormal in L2[0, 1].  Multivariate elements are products of one
univariate element per axis.  Ranks enumerate the d-tuples of univariate
indices graded by their maximum entry, ties broken lexicographically, so
rank 1 is always the all-constant element and low frequencies come first.
The enumeration depends only on the dimension and is stable across runs.

Integrals against grid-observed data use the midpoint rule: an m-point axis
carries nodes (2i - 1) / (2m) with equal weights 1/m.  Samples arrive only
at grid nodes, so no higher-order rule is applicable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

SQRT2 = math.sqrt(2.0)


def univariate_fourier(index: int, t):
    """Evaluate the 1-D orthonormal Fourier element `index` at `t`.

    `t` may be a scalar or an array; all entries must lie in [0, 1].
    Returns a float for scalar input, an array otherwise.
    """
    if index < 1:
        raise DomainError(f"Fourier index must be >= 1, got {index}")
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


@dataclass
class BasisOrder:
    """Deterministic rank -> multi-index enumeration for a tensor basis.

    The enumeration is a bijection from ranks 1, 2, ... to distinct
    d-tuples of univariate indices: tuples are graded by their maximum
    entry and ordered lexicographically within a grade.
    """

    d: int
    _cache: list = field(default_factory=list, repr=False, compare=False)
    _grade: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.d <= 3:
            raise DomainError(f"spatial dimension must be 1, 2 or 3, got {self.d}")

    def _extend_to(self, J: int) -> None:
        while len(self._cache) < J:
            self._grade += 1
            self._cache.extend(_shell(self.d, self._grade))

    def multi_index(self, rank: int) -> tuple:
        """The d-tuple of univariate indices assigned to `rank` (1-based)."""
        if rank < 1:
            raise DomainError(f"rank must be >= 1, got {rank}")
        self._extend_to(rank)
        return self._cache[rank - 1]

    def multi_indices(self, J: int) -> np.ndarray:
        """The first `J` multi-indices as a (J, d) integer array."""
        if J < 1:
            raise DomainError(f"J must be >= 1, got {J}")
        self._extend_to(J)
        return np.array(self._cache[:J], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Grid:
    """Rectangular quadrature grid on [0, 1]^d.

    `axes[a]` holds the node coordinates of axis `a` and `axis_weights[a]`
    the matching quadrature weights.  The weight of a full grid node is the
    product of its per-axis weights, and the weights sum to 1 (the volume
    of the unit cube).  Flattened node order is row-major: axis 0 slowest.
    """

    axes: tuple
    axis_weights: tuple

    def __post_init__(self):
        if not 1 <= len(self.axes) <= 3:
            raise DomainError(f"grid dimension must be 1, 2 or 3, got {len(self.axes)}")
        if len(self.axis_weights) != len(self.axes):
            raise DomainError("axes and axis_weights must have equal length")
        total = 1.0
        for nodes, w in zip(self.axes, self.axis_weights):
            if len(nodes) != len(w) or len(nodes) == 0:
                raise DomainError("each axis needs matching, nonempty nodes and weights")
            if not np.all(np.isfinite(nodes)) or nodes.min() < 0.0 or nodes.max() > 1.0:
                raise DomainError("grid nodes must lie in [0, 1]")
            if not np.all(np.isfinite(w)) or w.min() <= 0.0:
                raise DomainError("quadrature weights must be positive")
            total *= float(np.sum(w))
        if abs(total - 1.0) > 1e-9:
            raise DomainError(f"quadrature weights must sum to 1, got {total!r}")

    @property
    def d(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self.axes)

    @property
    def m(self) -> int:
        return int(np.prod(self.shape))

    def node_matrix(self) -> np.ndarray:
        """All grid nodes as an (m, d) array in row-major order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([c.ravel() for c in mesh], axis=1)

    def node_weights(self) -> np.ndarray:
        """Quadrature weight of every node, flattened row-major, shape (m,)."""
        w = np.array([1.0])
        for aw in self.axis_weights:
            w = np.multiply.outer(w, aw).ravel()
        return w


def midpoint_grid(shape) -> Grid:
    """Midpoint-rule grid: axis with m points has nodes (2i-1)/(2m), weights 1/m."""
    if isinstance(shape, int):
        shape = (shape,)
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise DomainError(f"grid shape entries must be >= 1, got {shape}")
    axes = tuple((2.0 * np.arange(1, s + 1) - 1.0) / (2.0 * s) for s in shape)
    weights = tuple(np.full(s, 1.0 / s) for s in shape)
    return Grid(axes=axes, axis_weights=weights)


def design_matrix(order: BasisOrder, J: int, grid: Grid) -> np.ndarray:
    """Values of the first `J` basis elements at every grid node, shape (m, J).

    Exploits the tensor structure: univariate values are tabulated once per
    axis and combined by indexing, so the cost is O(m * J) multiplications.
    """
    if J < 1:
        raise DomainError(f"J must be >= 1, got {J}")
    if grid.d != order.d:
        raise DomainError(f"grid dimension {grid.d} does not match basis dimension {order.d}")
    mi = order.multi_indices(J)
    flat_axis_pos = np.indices(grid.shape).reshape(grid.d, -1)
    phi = np.ones((grid.m, J))
    for a in range(grid.d):
        max_idx = int(mi[:, a].max())
        table = np.empty((grid.shape[a], max_idx))
        for idx in range(1, max_idx + 1):
            table[:, idx - 1] = univariate_fourier(idx, grid.axes[a])
        phi *= table[flat_axis_pos[a][:, None], mi[None, :, a] - 1]
    return phi


def gram_matrix(order: BasisOrder, J: int, grid: Grid) -> np.ndarray:
    """Quadrature Gram matrix G[a, b] = sum_nodes w * phi_a * phi_b, shape (J, J).

    Equals the identity up to quadrature error when the grid resolves the
    first J elements; a coarse grid under-resolves and the deviation grows.
    """
    phi = design_matrix(order, J, grid)
    w = grid.node_weights()
    g = phi.T @ (phi * w[:, None])
    return 0.5 * (g + g.T)
