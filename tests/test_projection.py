import numpy as np
import pytest

from fdnet import (
    AliasingWarning,
    BasisOrder,
    DomainError,
    FunctionalSample,
    NumericError,
    class_covariance,
    draw_scores,
    empirical_fpca,
    fpc_scores,
    generate_dataset,
    get_model,
    midpoint_grid,
    pooled_covariance,
    project,
    project_batch,
)
from fdnet.basis import design_matrix
from fdnet.projection import EmpiricalCovariance

# Eigenvalues of the class-1 covariance operator of the 2d-gaussian model:
# kernel sum_j sd_j^2 psi_j(s) psi_j(s') with sd = (8,7,6,5,4); spectrum of
# diag(sd) G diag(sd) where G is the exact Gram of the monomial synthesis
# functions (entries 1/((a+c+1)(b+d+1))).  Cross-checked against 2000^2-point
# quadrature and a dense-grid kernel eigendecomposition.
CLASS1_OPERATOR_EIGS = np.array([38.6070382, 4.67047678, 1.06859476, 0.0372348611, 0.0166554183])


def _grid_orthonormal(grid, count, seed):
    """`count` random grid functions, orthonormal under the grid inner product."""
    sw = np.sqrt(grid.node_weights())
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((grid.m, count)))
    return (q / sw[:, None]).T


def _covariance_of(grid, funcs, eigenvalues):
    matrix = funcs.T @ (eigenvalues[:, None] * funcs)
    return EmpiricalCovariance(matrix=matrix, mean=np.zeros(grid.m), grid=grid)


class TestProject:
    def test_constant_sample(self):
        grid = midpoint_grid((6, 6))
        sample = FunctionalSample(np.ones(grid.m), grid)
        scores = project(sample, BasisOrder(2), 5)
        np.testing.assert_allclose(scores, [1, 0, 0, 0, 0], atol=1e-12)

    def test_coordinate_function_integral(self):
        grid = midpoint_grid((20, 20))
        s = grid.node_matrix()[:, 0]
        scores = project(FunctionalSample(s, grid), BasisOrder(2), 3)
        assert scores[0] == pytest.approx(0.5, abs=1e-3)

    def test_recovers_basis_element(self):
        order = BasisOrder(2)
        grid = midpoint_grid((50, 50))
        phi = design_matrix(order, 6, grid)
        scores = project(FunctionalSample(phi[:, 3], grid), order, 6)
        expected = np.zeros(6)
        expected[3] = 1.0
        np.testing.assert_allclose(scores, expected, atol=1e-3)

    def test_linear(self):
        order = BasisOrder(2)
        grid = midpoint_grid((8, 8))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, grid.m))
        a, b = 2.5, -1.25
        lhs = project(FunctionalSample(a * x + b * y, grid), order, 7)
        rhs = a * project(FunctionalSample(x, grid), order, 7) + b * project(
            FunctionalSample(y, grid), order, 7
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_orthogonal_addition_leaves_scores(self):
        # adding a grid-resolvable element outside the first J changes
        # nothing up to quadrature tolerance
        order = BasisOrder(2)
        grid = midpoint_grid((40, 40))
        rng = np.random.default_rng(2)
        x = rng.standard_normal(grid.m)
        extra = 3.0 * design_matrix(order, 8, grid)[:, 7]
        base = project(FunctionalSample(x, grid), order, 5)
        bumped = project(FunctionalSample(x + extra, grid), order, 5)
        np.testing.assert_allclose(base, bumped, atol=1e-3)

    def test_aliasing_warning(self):
        grid = midpoint_grid((3, 3))
        sample = FunctionalSample(np.ones(9), grid)
        with pytest.warns(AliasingWarning):
            project(sample, BasisOrder(2), 12)

    def test_batch_matches_single(self):
        order = BasisOrder(2)
        grid = midpoint_grid((7, 5))
        rng = np.random.default_rng(3)
        values = rng.standard_normal((4, grid.m))
        batch = project_batch(values, grid, order, 6)
        for i in range(4):
            np.testing.assert_allclose(
                batch[i], project(FunctionalSample(values[i], grid), order, 6), atol=1e-14
            )


class TestClassCovariance:
    def test_identical_samples_zero(self):
        grid = midpoint_grid((4, 4))
        x = np.arange(16.0)
        cov = class_covariance([FunctionalSample(x, grid, 1), FunctionalSample(x, grid, 1)])
        assert np.abs(cov.matrix).max() == 0.0
        np.testing.assert_allclose(cov.mean, x)

    def test_symmetric_pair(self):
        grid = midpoint_grid((3, 3))
        plus = FunctionalSample(np.ones(9), grid, 1)
        minus = FunctionalSample(-np.ones(9), grid, 1)
        cov = class_covariance([plus, minus])
        np.testing.assert_allclose(cov.matrix, np.ones((9, 9)), atol=1e-14)

    def test_permutation_invariance(self):
        grid = midpoint_grid((4, 3))
        rng = np.random.default_rng(7)
        samples = [FunctionalSample(rng.standard_normal(12), grid, 2) for _ in range(6)]
        a = class_covariance(samples)
        b = class_covariance(samples[::-1])
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-14)
        np.testing.assert_allclose(a.mean, b.mean, atol=1e-15)

    def test_monte_carlo_top_eigenvalue(self):
        # 500 class-1 draws of the 2d-gaussian model: leading discretized
        # eigenvalue within 10% of the operator eigenvalue
        model = get_model("2d-gaussian")
        grid = midpoint_grid((10, 10))
        xi = draw_scores(model, 1, 500, seed=11)
        values = xi @ model.psi_matrix(grid).T
        samples = [FunctionalSample(v, grid, 1) for v in values]
        cov = class_covariance(samples)
        top = empirical_fpca(cov, 1).eigenvalues[0]
        assert abs(top - CLASS1_OPERATOR_EIGS[0]) / CLASS1_OPERATOR_EIGS[0] < 0.10

    def test_refuses_single_sample(self):
        grid = midpoint_grid((3, 3))
        with pytest.raises(DomainError):
            class_covariance([FunctionalSample(np.ones(9), grid, 1)])

    def test_rejects_mixed_grids(self):
        a = FunctionalSample(np.ones(9), midpoint_grid((3, 3)), 1)
        b = FunctionalSample(np.ones(16), midpoint_grid((4, 4)), 1)
        with pytest.raises(DomainError):
            class_covariance([a, b])


class TestEmpiricalFpca:
    def test_zero_covariance(self):
        grid = midpoint_grid((4, 4))
        x = np.zeros(16)
        cov = class_covariance([FunctionalSample(x, grid, 1)] * 3)
        result = empirical_fpca(cov, 4)
        np.testing.assert_array_equal(result.eigenvalues, np.zeros(4))

    def test_rank_one(self):
        grid = midpoint_grid((5, 5))
        w = grid.node_weights()
        rng = np.random.default_rng(9)
        v = rng.standard_normal(grid.m)
        v /= np.sqrt(np.sum(w * v * v))  # unit norm under the grid inner product
        cov = EmpiricalCovariance(matrix=np.outer(v, v), mean=np.zeros(grid.m), grid=grid)
        result = empirical_fpca(cov, 3)
        np.testing.assert_allclose(result.eigenvalues, [1.0, 0.0, 0.0], atol=1e-9)
        sign = np.sign(result.eigenfunctions[0] @ v)
        np.testing.assert_allclose(sign * result.eigenfunctions[0], v, atol=1e-7)

    def test_model1_class1_spectrum(self):
        model = get_model("2d-gaussian")
        grid = midpoint_grid((10, 10))
        xi = draw_scores(model, 1, 2000, seed=12)
        values = xi @ model.psi_matrix(grid).T
        samples = [FunctionalSample(v, grid, 1) for v in values]
        result = empirical_fpca(class_covariance(samples), 5)
        rel = np.abs(result.eigenvalues - CLASS1_OPERATOR_EIGS) / CLASS1_OPERATOR_EIGS
        assert rel.max() < 0.10

    def test_eigenfunctions_orthonormal(self):
        model = get_model("2d-gaussian")
        grid = midpoint_grid((6, 6))
        xi = draw_scores(model, 2, 100, seed=13)
        values = xi @ model.psi_matrix(grid).T
        cov = class_covariance([FunctionalSample(v, grid, 2) for v in values])
        result = empirical_fpca(cov, 6)
        w = grid.node_weights()
        gram = result.eigenfunctions @ (w[:, None] * result.eigenfunctions.T)
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_clustered_spectrum(self):
        # a relative gap of 5e-5 between the top two eigenvalues
        grid = midpoint_grid((10, 10))
        funcs = _grid_orthonormal(grid, 3, seed=41)
        lams = np.array([2.0, 2.0 - 1e-4, 1.0])
        result = empirical_fpca(_covariance_of(grid, funcs, lams), 4)
        np.testing.assert_allclose(result.eigenvalues[:3], lams, rtol=0, atol=1e-10)
        assert result.eigenvalues[3] == 0.0
        w = grid.node_weights()
        for found, expected in zip(result.eigenfunctions, funcs):
            sign = np.sign(found @ (w * expected))
            np.testing.assert_allclose(sign * found, expected, atol=1e-8)

    @pytest.mark.parametrize("J", [1, 2])
    def test_indefinite_matrix_refused(self, J):
        # the whole spectrum is checked, also when J stops above the negative part
        grid = midpoint_grid((4, 4))
        funcs = _grid_orthonormal(grid, 2, seed=42)
        cov = _covariance_of(grid, funcs, np.array([1.0, -0.5]))
        with pytest.raises(NumericError):
            empirical_fpca(cov, J)

    def test_large_scale_data_accepted(self):
        # values near 1e6 leave roundoff of order -1e-2 on the null space:
        # negligible against the leading eigenvalue, though far from zero
        model = get_model("2d-gaussian")
        ds = generate_dataset(model, 20, m=100, seed=31)
        ds.values *= 1e6
        result = empirical_fpca(pooled_covariance(ds), 10)
        rank = model.score_dim
        assert np.all(result.eigenvalues[:rank] > 0)
        np.testing.assert_array_equal(result.eigenvalues[rank:], 0.0)

    def test_j_bounds(self):
        grid = midpoint_grid((3, 3))
        cov = class_covariance([FunctionalSample(np.ones(9), grid, 1)] * 2)
        with pytest.raises(DomainError):
            empirical_fpca(cov, 10)


class TestFpcScores:
    @pytest.fixture()
    def fitted(self):
        model = get_model("2d-gaussian")
        grid = midpoint_grid((8, 8))
        xi = draw_scores(model, 1, 300, seed=21)
        values = xi @ model.psi_matrix(grid).T
        samples = [FunctionalSample(v, grid, 1) for v in values]
        return grid, values, empirical_fpca(class_covariance(samples), 5)

    def test_mean_sample_is_zero(self, fitted):
        grid, _, result = fitted
        scores = fpc_scores(FunctionalSample(result.mean, grid), result)
        np.testing.assert_allclose(scores, 0.0, atol=1e-10)

    def test_mean_plus_eigenfunction(self, fitted):
        grid, _, result = fitted
        sample = FunctionalSample(result.mean + result.eigenfunctions[0], grid)
        scores = fpc_scores(sample, result)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_allclose(scores, expected, atol=1e-8)

    def test_reconstruction_error_within_tail(self, fitted):
        grid, values, result = fitted
        w = grid.node_weights()
        full = empirical_fpca(
            class_covariance([FunctionalSample(v, grid, 1) for v in values]), 8
        )
        tail = full.eigenvalues[5:].sum() / full.eigenvalues.sum()
        num = den = 0.0
        for v in values[:50]:
            scores = fpc_scores(FunctionalSample(v, grid), result, 5)
            recon = result.mean + scores @ result.eigenfunctions[:5]
            num += np.sum(w * (v - recon) ** 2)
            den += np.sum(w * (v - result.mean) ** 2)
        assert num / den <= tail + 0.05

    def test_grid_mismatch(self, fitted):
        _, _, result = fitted
        other = FunctionalSample(np.ones(16), midpoint_grid((4, 4)))
        with pytest.raises(DomainError):
            fpc_scores(other, result)


class TestPooledCovariance:
    def test_matches_manual_computation(self):
        model = get_model("2d-gaussian")
        ds = generate_dataset(model, 20, m=9, seed=31)
        cov = pooled_covariance(ds)
        centered = ds.values - ds.values.mean(axis=0)
        np.testing.assert_allclose(cov.matrix, centered.T @ centered / len(ds), atol=1e-12)
