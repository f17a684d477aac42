import numpy as np
import pytest

from fdnet import AliasingWarning, Dataset, DomainError, Grid, project_batch
from fdnet.basis import design_matrix
from fdnet.projection import BLOCK_ROWS, row_blocks


def project_one(values, grid, J):
    """Scores of one sample: row 0 of a one-row batch."""
    return project_batch(np.asarray(values)[None, :], grid, J)[0]


class TestProject:
    def test_constant_sample(self):
        grid = Grid((6, 6))
        scores = project_one(np.ones(grid.m), grid, 5)
        np.testing.assert_allclose(scores, [1, 0, 0, 0, 0], atol=1e-12)

    def test_coordinate_function_integral(self):
        grid = Grid((20, 20))
        s = grid.node_matrix()[:, 0]
        scores = project_one(s, grid, 3)
        assert scores[0] == pytest.approx(0.5, abs=1e-3)

    def test_recovers_basis_element(self):
        grid = Grid((50, 50))
        phi = design_matrix(6, grid)
        scores = project_one(phi[:, 3], grid, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_allclose(scores, expected, atol=1e-3)

    def test_linear(self):
        grid = Grid((8, 8))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, grid.m))
        a, b = 2.5, -1.25
        lhs = project_one(a * x + b * y, grid, 7)
        rhs = a * project_one(x, grid, 7) + b * project_one(y, grid, 7)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthogonal_addition_leaves_scores(self):
        # adding a grid-resolvable element outside the first J changes
        # nothing up to quadrature tolerance
        grid = Grid((40, 40))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(grid.m)
        extra = 3.0 * design_matrix(8, grid)[:, 7]
        base = project_one(x, grid, 5)
        bumped = project_one(x + extra, grid, 5)
        np.testing.assert_allclose(base, bumped, atol=1e-3)

    def test_aliasing_warning(self):
        grid = Grid((3, 3))
        with pytest.warns(AliasingWarning):
            project_one(np.ones(9), grid, 12)

    def test_batch_matches_single(self):
        # each row of a batch is scored as if it were projected alone
        grid = Grid((7, 5))
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4, grid.m))
        batch = project_batch(values, grid, 6)
        for i in range(4):
            np.testing.assert_allclose(batch[i], project_one(values[i], grid, 6), atol=1e-14)

    def test_shape_mismatch(self):
        grid = Grid((3, 3))
        with pytest.raises(DomainError):
            project_batch(np.ones((2, 8)), grid, 4)
        with pytest.raises(DomainError):
            project_batch(np.ones(9), grid, 4)
        with pytest.raises(DomainError, match="design matrix"):
            project_batch(np.ones((2, 9)), grid, 4, phi=design_matrix(5, grid))


B = BLOCK_ROWS


class TestRowBlocks:
    @pytest.mark.parametrize("n", [0, 1, 444, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 100_002])
    def test_blocks_tile_the_rows_with_a_short_tail_merged(self, n):
        blocks = row_blocks(n)
        if n == 0:
            assert blocks == []
            return
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(prev[1] == nxt[0] for prev, nxt in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        if n < B:
            assert sizes == [n]
        else:
            assert all(B <= size <= 2 * B - 1 for size in sizes)

    def test_dataset_blocks_are_views_of_its_rows(self):
        n = 2 * B + 1
        ds = Dataset(values=np.zeros((n, 4)), grid=Grid((2, 2)), labels=np.ones(n, dtype=int), n_classes=1)
        seen = []
        for lo, hi, values, labels in ds.blocks():
            assert np.shares_memory(values, ds.values) and np.shares_memory(labels, ds.labels)
            assert values.shape == (hi - lo, 4) and labels.shape == (hi - lo,)
            seen.append((lo, hi))
        assert seen == row_blocks(n)
