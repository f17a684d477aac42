import numpy as np
import pytest

from fdnet import AliasingWarning, BasisOrder, DomainError, midpoint_grid, project_batch
from fdnet.basis import design_matrix


def project_one(values, grid, order, J):
    """Scores of one sample: row 0 of a one-row batch."""
    return project_batch(np.asarray(values)[None, :], grid, order, J)[0]


class TestProject:
    def test_constant_sample(self):
        grid = midpoint_grid((6, 6))
        scores = project_one(np.ones(grid.m), grid, BasisOrder(2), 5)
        np.testing.assert_allclose(scores, [1, 0, 0, 0, 0], atol=1e-12)

    def test_coordinate_function_integral(self):
        grid = midpoint_grid((20, 20))
        s = grid.node_matrix()[:, 0]
        scores = project_one(s, grid, BasisOrder(2), 3)
        assert scores[0] == pytest.approx(0.5, abs=1e-3)

    def test_recovers_basis_element(self):
        order = BasisOrder(2)
        grid = midpoint_grid((50, 50))
        phi = design_matrix(order, 6, grid)
        scores = project_one(phi[:, 3], grid, order, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_allclose(scores, expected, atol=1e-3)

    def test_linear(self):
        order = BasisOrder(2)
        grid = midpoint_grid((8, 8))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, grid.m))
        a, b = 2.5, -1.25
        lhs = project_one(a * x + b * y, grid, order, 7)
        rhs = a * project_one(x, grid, order, 7) + b * project_one(y, grid, order, 7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthogonal_addition_leaves_scores(self):
        # adding a grid-resolvable element outside the first J changes
        # nothing up to quadrature tolerance
        order = BasisOrder(2)
        grid = midpoint_grid((40, 40))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(grid.m)
        extra = 3.0 * design_matrix(order, 8, grid)[:, 7]
        base = project_one(x, grid, order, 5)
        bumped = project_one(x + extra, grid, order, 5)
        np.testing.assert_allclose(base, bumped, atol=1e-3)

    def test_aliasing_warning(self):
        grid = midpoint_grid((3, 3))
        with pytest.warns(AliasingWarning):
            project_one(np.ones(9), grid, BasisOrder(2), 12)

    def test_batch_matches_single(self):
        # each row of a batch is scored as if it were projected alone
        order = BasisOrder(2)
        grid = midpoint_grid((7, 5))
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4, grid.m))
        batch = project_batch(values, grid, order, 6)
        for i in range(4):
            np.testing.assert_allclose(batch[i], project_one(values[i], grid, order, 6), atol=1e-14)

    def test_shape_mismatch(self):
        grid = midpoint_grid((3, 3))
        with pytest.raises(DomainError):
            project_batch(np.ones((2, 8)), grid, BasisOrder(2), 4)
        with pytest.raises(DomainError):
            project_batch(np.ones(9), grid, BasisOrder(2), 4)
