import itertools
import math

import numpy as np
import pytest

from fdnet import BasisOrder, DomainError, Grid, gram_matrix, midpoint_grid, univariate_fourier
from fdnet.basis import design_matrix

SQRT2 = math.sqrt(2.0)


def tensor_basis_eval(order: BasisOrder, rank: int, point) -> float:
    """Pointwise oracle: the tensor element of `rank` at one d-vector, as a
    product of univariate elements."""
    value = 1.0
    for idx, coord in zip(order.multi_index(rank), point):
        value *= univariate_fourier(idx, float(coord))
    return value


def design_at(order: BasisOrder, rank: int, point) -> float:
    """`design_matrix` on the one-node grid at `point`, column `rank`."""
    grid = Grid(
        axes=tuple(np.array([c], dtype=float) for c in point),
        axis_weights=tuple(np.ones(1) for _ in point),
    )
    return float(design_matrix(order, rank, grid)[0, rank - 1])


class TestUnivariate:
    def test_constant_element(self):
        assert univariate_fourier(1, 0.37) == 1.0

    def test_cosine_at_zero(self):
        assert univariate_fourier(2, 0.0) == pytest.approx(SQRT2, abs=1e-15)

    def test_sine_quarter(self):
        # sqrt(2) * sin(pi / 2)
        assert univariate_fourier(3, 0.25) == pytest.approx(SQRT2, abs=1e-12)

    def test_array_input(self):
        t = np.linspace(0, 1, 7)
        np.testing.assert_allclose(univariate_fourier(4, t), SQRT2 * np.cos(4 * np.pi * t))

    @pytest.mark.parametrize("index,t", [(0, 0.5), (-3, 0.5), (1, -0.01), (1, 1.01)])
    def test_domain_errors(self, index, t):
        with pytest.raises(DomainError):
            univariate_fourier(index, t)

    def test_orthonormal_under_fine_quadrature(self):
        # independent check of L2 orthonormality for the first 8 elements
        grid = midpoint_grid(4000)
        t, w = grid.axes[0], grid.axis_weights[0]
        vals = np.stack([univariate_fourier(i, t) for i in range(1, 9)])
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(8)).max() < 1e-6


class TestEnumeration:
    def test_first_ranks_2d_frozen(self):
        order = BasisOrder(2)
        expected = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (1, 4)]
        assert [order.multi_index(r) for r in range(1, 11)] == expected

    def test_first_ranks_1d_and_3d(self):
        assert [BasisOrder(1).multi_index(r) for r in range(1, 5)] == [(1,), (2,), (3,), (4,)]
        order = BasisOrder(3)
        assert order.multi_index(1) == (1, 1, 1)
        assert order.multi_index(2) == (1, 1, 2)
        assert order.multi_index(8) == (2, 2, 2)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bijective_up_to_10000(self, d):
        mi = BasisOrder(d).multi_indices(10_000)
        assert len({tuple(row) for row in mi.tolist()}) == 10_000

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_filtered_product_order(self, d):
        # reference: every grade g filters all g^d products for max == g,
        # which keeps itertools.product's lexicographic order
        ref, g = [], 0
        while len(ref) < 2000:
            g += 1
            ref += [t for t in itertools.product(range(1, g + 1), repeat=d) if max(t) == g]
        assert BasisOrder(d).multi_indices(2000).tolist() == [list(t) for t in ref[:2000]]

    def test_graded_order_is_monotone(self):
        mi = BasisOrder(3).multi_indices(500)
        grades = mi.max(axis=1)
        assert np.all(np.diff(grades) >= 0)

    def test_rank_validation(self):
        with pytest.raises(DomainError):
            BasisOrder(2).multi_index(0)
        with pytest.raises(DomainError):
            BasisOrder(4)


class TestTensorEval:
    def test_constant_rank(self):
        order = BasisOrder(2)
        for point in [(0.0, 0.0), (0.3, 0.9), (1.0, 1.0)]:
            assert tensor_basis_eval(order, 1, point) == 1.0
            assert design_at(order, 1, point) == 1.0

    def test_cos_constant_pair(self):
        # multi-index (2, 1) at (0, 0.9): sqrt(2) cos(0) * 1
        order = BasisOrder(2)
        rank = [tuple(r) for r in order.multi_indices(9).tolist()].index((2, 1)) + 1
        assert tensor_basis_eval(order, rank, (0.0, 0.9)) == pytest.approx(SQRT2, abs=1e-12)
        assert design_at(order, rank, (0.0, 0.9)) == pytest.approx(SQRT2, abs=1e-12)

    def test_three_cos_factors(self):
        order = BasisOrder(3)
        rank = [tuple(r) for r in order.multi_indices(30).tolist()].index((2, 2, 2)) + 1
        assert tensor_basis_eval(order, rank, (0.0, 0.0, 0.0)) == pytest.approx(2 * SQRT2, abs=1e-12)
        assert design_at(order, rank, (0.0, 0.0, 0.0)) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_factorization_exact(self):
        # the tabulated design matrix multiplies the same univariate factors
        # in the same order as the pointwise product
        order = BasisOrder(3)
        rng = np.random.default_rng(5)
        for rank in (1, 4, 11, 29):
            point = rng.random(3)
            assert design_at(order, rank, point) == tensor_basis_eval(order, rank, point)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            design_matrix(BasisOrder(2), 1, midpoint_grid((2, 2, 2)))


class TestGrid:
    def test_midpoint_nodes_and_weights(self):
        grid = midpoint_grid((4, 2))
        np.testing.assert_allclose(grid.axes[0], [1 / 8, 3 / 8, 5 / 8, 7 / 8])
        np.testing.assert_allclose(grid.axes[1], [1 / 4, 3 / 4])
        assert grid.m == 8
        assert grid.node_weights().sum() == pytest.approx(1.0, abs=1e-12)

    def test_node_matrix_row_major(self):
        grid = midpoint_grid((2, 2))
        np.testing.assert_allclose(
            grid.node_matrix(),
            [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]],
        )

    def test_rejects_bad_weights(self):
        nodes = np.array([0.25, 0.75])
        with pytest.raises(DomainError):
            Grid(axes=(nodes,), axis_weights=(np.array([0.5, 0.6]),))

    def test_rejects_nodes_outside_unit_interval(self):
        with pytest.raises(DomainError):
            Grid(axes=(np.array([0.5, 1.5]),), axis_weights=(np.array([0.5, 0.5]),))


class TestGram:
    def test_single_element(self):
        g = gram_matrix(BasisOrder(2), 1, midpoint_grid((5, 7)))
        assert abs(g[0, 0] - 1.0) < 1e-12

    def test_resolved_grid_close_to_identity(self):
        order = BasisOrder(2)
        grid = midpoint_grid((20, 20))
        dev = np.abs(gram_matrix(order, 9, grid) - np.eye(9)).max()
        assert dev <= 1e-3
        # quadrature oracle: a 10x refined grid agrees entrywise
        fine = gram_matrix(order, 9, midpoint_grid((200, 200)))
        assert np.abs(gram_matrix(order, 9, grid) - fine).max() <= 1e-3

    def test_under_resolved_grid_reports_large_deviation(self):
        # beyond the Nyquist limit of a 3x3 grid the deviation is O(1);
        # the computation must still succeed (diagnostic, not an error)
        dev = np.abs(gram_matrix(BasisOrder(2), 16, midpoint_grid((3, 3))) - np.eye(16)).max()
        assert dev > 0.5

    def test_refinement_never_degrades_diagonal(self):
        order = BasisOrder(2)
        coarse = gram_matrix(order, 9, midpoint_grid((10, 10)))
        fine = gram_matrix(order, 9, midpoint_grid((20, 20)))
        dev_coarse = np.abs(np.diag(coarse) - 1.0)
        dev_fine = np.abs(np.diag(fine) - 1.0)
        assert np.all(dev_fine <= dev_coarse + 1e-12)

    def test_symmetric(self):
        g = gram_matrix(BasisOrder(2), 12, midpoint_grid((6, 6)))
        np.testing.assert_array_equal(g, g.T)
