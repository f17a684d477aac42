import itertools
import math

import numpy as np
import pytest

from fdnet import DomainError, Grid, gram_matrix, project_batch
from fdnet.basis import design_matrix, multi_indices, univariate_fourier

SQRT2 = math.sqrt(2.0)


def tensor_basis_eval(d: int, rank: int, point) -> float:
    """Pointwise oracle: the d-dimensional tensor element of `rank` at one
    d-vector, as a product of univariate elements."""
    value = 1.0
    for idx, coord in zip(multi_indices(d, rank)[-1], point):
        value *= univariate_fourier(idx, float(coord))
    return value


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
        grid = Grid((4000,))
        t, w = grid.axes[0], grid.node_weights()
        vals = np.stack([univariate_fourier(i, t) for i in range(1, 9)])
        gram = (vals * w) @ vals.T
        assert np.abs(gram - np.eye(8)).max() < 1e-6


class TestEnumeration:
    def test_first_ranks_2d_frozen(self):
        expected = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3), (1, 4)]
        assert [tuple(row) for row in multi_indices(2, 10).tolist()] == expected

    def test_first_ranks_1d_and_3d(self):
        assert multi_indices(1, 4).tolist() == [[1], [2], [3], [4]]
        first = multi_indices(3, 8).tolist()
        assert first[0] == [1, 1, 1]
        assert first[1] == [1, 1, 2]
        assert first[7] == [2, 2, 2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bijective_up_to_10000(self, d):
        mi = multi_indices(d, 10_000)
        assert len({tuple(row) for row in mi.tolist()}) == 10_000

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_filtered_product_order(self, d):
        # reference: every grade g filters all g^d products for max == g,
        # which keeps itertools.product's lexicographic order
        ref, g = [], 0
        while len(ref) < 2000:
            g += 1
            ref += [t for t in itertools.product(range(1, g + 1), repeat=d) if max(t) == g]
        assert multi_indices(d, 2000).tolist() == [list(t) for t in ref[:2000]]

    def test_graded_order_is_monotone(self):
        mi = multi_indices(3, 500)
        grades = mi.max(axis=1)
        assert np.all(np.diff(grades) >= 0)

    def test_rank_validation(self):
        with pytest.raises(DomainError):
            multi_indices(2, 0)
        with pytest.raises(DomainError):
            design_matrix(0, Grid((3, 3)))

    @pytest.mark.parametrize("order", [2.5, True, "2"])
    @pytest.mark.parametrize("build", [
        lambda J: design_matrix(J, Grid((3, 3))),
        lambda J: gram_matrix(J, Grid((3, 3))),
        lambda J: project_batch(np.zeros((2, 9)), Grid((3, 3)), J),
        lambda J: univariate_fourier(J, np.linspace(0, 1, 5)),
    ], ids=["design_matrix", "gram_matrix", "project_batch", "univariate_fourier"])
    def test_order_must_be_an_integer(self, build, order):
        with pytest.raises(DomainError, match="must be an integer"):
            build(order)


class TestTensorEval:
    def test_constant_rank(self):
        for point in [(0.0, 0.0), (0.3, 0.9), (1.0, 1.0)]:
            assert tensor_basis_eval(2, 1, point) == 1.0
        assert np.all(design_matrix(1, Grid((3, 4)))[:, 0] == 1.0)

    def test_cos_constant_pair(self):
        # multi-index (2, 1) at (0, 0.9): sqrt(2) cos(0) * 1
        rank = [tuple(r) for r in multi_indices(2, 9).tolist()].index((2, 1)) + 1
        assert tensor_basis_eval(2, rank, (0.0, 0.9)) == pytest.approx(SQRT2, abs=1e-12)

    def test_three_cos_factors(self):
        rank = [tuple(r) for r in multi_indices(3, 30).tolist()].index((2, 2, 2)) + 1
        assert tensor_basis_eval(3, rank, (0.0, 0.0, 0.0)) == pytest.approx(2 * SQRT2, abs=1e-12)

    def test_factorization_exact(self):
        # the tabulated design matrix multiplies the same univariate factors
        # in the same order as the pointwise product, at every node
        grid = Grid((3, 4, 5))
        J = 30
        oracle = [
            [tensor_basis_eval(3, rank, node) for rank in range(1, J + 1)]
            for node in grid.node_matrix()
        ]
        assert np.array_equal(design_matrix(J, grid), np.array(oracle))


class TestGrid:
    def test_midpoint_nodes_and_weights(self):
        grid = Grid((4, 2))
        np.testing.assert_allclose(grid.axes[0], [1 / 8, 3 / 8, 5 / 8, 7 / 8])
        np.testing.assert_allclose(grid.axes[1], [1 / 4, 3 / 4])
        assert grid.m == 8
        assert grid.node_weights().sum() == pytest.approx(1.0, abs=1e-12)

    def test_node_matrix_row_major(self):
        grid = Grid((2, 2))
        np.testing.assert_allclose(
            grid.node_matrix(),
            [[0.25, 0.25], [0.25, 0.75], [0.75, 0.25], [0.75, 0.75]],
        )

    @pytest.mark.parametrize("shape", [(2.7,), (True, 3), (0,), (), (2, 2, 2, 2), "5"])
    def test_rejects_bad_shapes(self, shape):
        with pytest.raises(DomainError, match="grid_shape"):
            Grid(shape)

    def test_node_weights_are_the_per_axis_product(self):
        # not 1 / m: (1/5)**3 != 1/125 in float64, and the scores' bits
        # depend on which one the quadrature uses
        w = np.full(5, 1 / 5)
        per_axis = np.multiply.outer(np.multiply.outer(w, w), w).ravel()
        assert np.array_equal(Grid((5, 5, 5)).node_weights(), per_axis)
        assert not np.array_equal(per_axis, np.full(125, 1 / 125))


class TestGram:
    def test_single_element(self):
        g = gram_matrix(1, Grid((5, 7)))
        assert abs(g[0, 0] - 1.0) < 1e-12

    def test_resolved_grid_close_to_identity(self):
        grid = Grid((20, 20))
        dev = np.abs(gram_matrix(9, grid) - np.eye(9)).max()
        assert dev <= 1e-3
        # quadrature oracle: a 10x refined grid agrees entrywise
        fine = gram_matrix(9, Grid((200, 200)))
        assert np.abs(gram_matrix(9, grid) - fine).max() <= 1e-3

    def test_under_resolved_grid_reports_large_deviation(self):
        # beyond the Nyquist limit of a 3x3 grid the deviation is O(1);
        # the computation must still succeed (diagnostic, not an error)
        dev = np.abs(gram_matrix(16, Grid((3, 3))) - np.eye(16)).max()
        assert dev > 0.5

    def test_refinement_never_degrades_diagonal(self):
        coarse = gram_matrix(9, Grid((10, 10)))
        fine = gram_matrix(9, Grid((20, 20)))
        dev_coarse = np.abs(np.diag(coarse) - 1.0)
        dev_fine = np.abs(np.diag(fine) - 1.0)
        assert np.all(dev_fine <= dev_coarse + 1e-12)

    def test_symmetric(self):
        g = gram_matrix(12, Grid((6, 6)))
        np.testing.assert_array_equal(g, g.T)
