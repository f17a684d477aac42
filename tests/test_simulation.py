import numpy as np
import pytest

from fdnet import (
    DomainError,
    Grid,
    SimModel,
    bayes_error_mc,
    bayes_posterior,
    default_test_size,
    generate_dataset,
    get_model,
)
from fdnet.simulation import ExponentialLaw, GaussianLaw, StudentTLaw

# Monte-Carlo Bayes error of the 2d-gaussian score model under equal priors,
# computed from the exact diagonal-Gaussian densities with 100002 draws
# (estimator standard error about 0.0009).
BAYES_ERROR_2D_GAUSSIAN = 0.09333


class TestModelRegistry:
    def test_all_eight_present(self):
        ids = {
            "2d-gaussian",
            "2d-mixed1",
            "2d-mixed2",
            "2d-mixed3",
            "3d-gaussian",
            "3d-mixed1",
            "3d-mixed2",
            "3d-mixed3",
        }
        from fdnet.simulation import MODELS

        assert set(MODELS) == ids

    def test_2d_gaussian_parameters(self):
        m = get_model("2d-gaussian")
        np.testing.assert_array_equal(m.laws[0].mean, [4, 4, 3, 3, 3])
        np.testing.assert_array_equal(m.laws[0].sd, [8, 7, 6, 5, 4])
        np.testing.assert_array_equal(m.laws[1].mean, -np.ones(5))
        np.testing.assert_array_equal(m.laws[1].sd, [5, 4, 3, 2, 1])
        np.testing.assert_array_equal(m.laws[2].mean, np.zeros(5))
        np.testing.assert_array_equal(m.laws[2].sd, [2.5, 2, 1.5, 1, 0.5])

    def test_mixed_model_laws(self):
        m2 = get_model("2d-mixed1")
        assert isinstance(m2.laws[2], StudentTLaw)
        np.testing.assert_array_equal(m2.laws[2].dof, [3, 5, 7, 9, 11])
        np.testing.assert_array_equal(m2.laws[2].shift, 3 * np.ones(5))
        m3 = get_model("2d-mixed2")
        np.testing.assert_array_equal(m3.laws[1].dof, [2, 3, 4, 5, 6])
        np.testing.assert_array_equal(m3.laws[1].shift, np.ones(5))
        m4 = get_model("2d-mixed3")
        assert isinstance(m4.laws[0], ExponentialLaw)
        np.testing.assert_array_equal(m4.laws[0].rate, [0.1, 0.3, 0.5, 0.7, 0.9])

    def test_3d_parameters(self):
        m5 = get_model("3d-gaussian")
        np.testing.assert_array_equal(m5.laws[0].mean, 2 * np.ones(9))
        np.testing.assert_array_equal(m5.laws[0].sd, [9, 8, 7, 6, 5, 4, 3, 2, 1])
        np.testing.assert_allclose(m5.laws[2].sd, np.array([9, 8, 7, 6, 5, 4, 3, 2, 1]) / 3)
        m8 = get_model("3d-mixed3")
        np.testing.assert_allclose(m8.laws[0].rate, 0.1 * np.arange(1, 18, 2))

    def test_unknown_model(self):
        with pytest.raises(DomainError, match="available"):
            get_model("4d-gaussian")

    def test_case_insensitive(self):
        assert get_model("2D-Gaussian").model_id == "2d-gaussian"


def draw(model, class_index, n, seed):
    """n latent score vectors of class `class_index` (1-based), as
    `generate_dataset` draws them."""
    return model.laws[class_index - 1].sample(n, np.random.default_rng(seed))


class TestDrawScores:
    def test_gaussian_mean_within_monte_carlo_bound(self):
        model = get_model("2d-gaussian")
        n = 100_000
        draws = draw(model, 1, n, seed=100)
        bound = 3 * model.laws[0].sd / np.sqrt(n)
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - model.laws[0].mean), bound)

    def test_gaussian_sd(self):
        model = get_model("2d-gaussian")
        draws = draw(model, 3, 100_000, seed=101)
        assert draws[:, 0].std() == pytest.approx(2.5, abs=0.05)

    def test_exponential_mean(self):
        model = get_model("2d-mixed3")
        draws = draw(model, 1, 100_000, seed=102)
        assert draws[:, 0].mean() == pytest.approx(10.0, abs=0.3)

    def test_student_t_location(self):
        model = get_model("2d-mixed1")
        draws = draw(model, 3, 100_000, seed=103)
        # dof 3 has mean equal to the location and variance dof/(dof-2) = 3
        assert draws[:, 0].mean() == pytest.approx(3.0, abs=3 * np.sqrt(3 / 100_000) * 3)

    def test_validation(self):
        model = get_model("2d-gaussian")
        with pytest.raises(DomainError):
            generate_dataset(model, 0, m=9, seed=0)
        with pytest.raises(DomainError):
            generate_dataset(model, 5, m=9, seed=0, subset="validation")
        for n_per_class in (2.5, True, "5"):
            with pytest.raises(DomainError, match="n_per_class must be an integer"):
                generate_dataset(model, n_per_class, m=9, seed=0)


class TestSynthesize:
    def test_zero_scores(self):
        model = get_model("2d-gaussian")
        values = model.psi_matrix(Grid((4, 4))) @ np.zeros(5)
        np.testing.assert_array_equal(values, np.zeros(16))

    def test_first_function_is_first_coordinate(self):
        model = get_model("2d-gaussian")
        grid = Grid((5, 5))
        values = model.psi_matrix(grid) @ np.array([1.0, 0, 0, 0, 0])
        np.testing.assert_allclose(values, grid.node_matrix()[:, 0])

    def test_point_value(self):
        # scores (1,1,0,0,0) at node (0.25, 0.75): 0.25 + 0.75 = 1
        model = get_model("2d-gaussian")
        grid = Grid((2, 2))
        values = model.psi_matrix(grid) @ np.array([1.0, 1, 0, 0, 0])
        nodes = grid.node_matrix()
        idx = np.flatnonzero((nodes[:, 0] == 0.25) & (nodes[:, 1] == 0.75))[0]
        assert values[idx] == pytest.approx(1.0, abs=1e-15)

    def test_linear_in_scores(self):
        model = get_model("3d-gaussian")
        psi = model.psi_matrix(Grid((3, 3, 3)))
        rng = np.random.default_rng(5)
        a, b = rng.standard_normal((2, 9))
        np.testing.assert_allclose(
            psi @ (2.0 * a - 0.5 * b), 2.0 * (psi @ a) - 0.5 * (psi @ b), rtol=1e-12, atol=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            get_model("2d-gaussian").psi_matrix(Grid((3, 3, 3)))
        with pytest.raises(DomainError):
            get_model("3d-gaussian").psi_matrix(Grid((3, 3)))


class TestGenerateDataset:
    @pytest.mark.parametrize("model_id, m", [("2d-gaussian", 9), ("3d-mixed1", 8)])
    @pytest.mark.parametrize("n_per_class", [2**60, 2**63, 10**20])
    def test_samples_beyond_one_array_refused(self, model_id, m, n_per_class):
        with pytest.raises(DomainError, match=f"too large for one numpy array: {n_per_class} samples per class"):
            generate_dataset(get_model(model_id), n_per_class, m=m, seed=0)

    def test_balanced_labels(self):
        ds = generate_dataset(get_model("2d-gaussian"), 200, m=9, seed=1)
        assert len(ds) == 600
        np.testing.assert_array_equal(np.bincount(ds.labels)[1:], [200, 200, 200])

    def test_m25_gives_5x5_grid(self):
        ds = generate_dataset(get_model("2d-gaussian"), 3, m=25, seed=2)
        assert ds.grid.shape == (5, 5)
        assert ds.values.shape == (9, 25)

    def test_same_seed_identical(self):
        a = generate_dataset(get_model("2d-mixed2"), 10, m=9, seed=3)
        b = generate_dataset(get_model("2d-mixed2"), 10, m=9, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_train_test_streams_disjoint(self):
        tr = generate_dataset(get_model("2d-gaussian"), 10, m=9, seed=4, subset="train")
        te = generate_dataset(get_model("2d-gaussian"), 10, m=9, seed=4, subset="test")
        assert not np.allclose(tr.values, te.values)

    def test_latent_scores_attached(self):
        model = get_model("3d-gaussian")
        ds = generate_dataset(model, 5, m=8, seed=5)
        assert ds.latent.shape == (15, 9)
        np.testing.assert_allclose(ds.values, ds.latent @ model.psi_matrix(ds.grid).T, atol=1e-12)

    def test_unsupported_m_lists_choices(self):
        with pytest.raises(DomainError, match=r"9, 25, 100, 400"):
            generate_dataset(get_model("2d-gaussian"), 5, m=50, seed=0)

    def test_default_test_sizes(self):
        assert default_test_size(200) == 100
        assert default_test_size(350) == 150
        assert default_test_size(700) == 300


class TestBayesPosterior:
    def test_mode_of_class_one(self):
        model = get_model("2d-gaussian")
        post = bayes_posterior(model, model.laws[0].mean[None, :])
        assert int(np.argmax(post[0])) + 1 == 1

    def test_degenerate_symmetric_model(self):
        law = GaussianLaw(np.zeros(2), np.ones(2))
        model = SimModel("degenerate", 2, (law, law, law))
        post = bayes_posterior(model, np.array([[0.3, -0.8]]))
        np.testing.assert_allclose(post, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_rows_are_probability_vectors(self):
        model = get_model("3d-gaussian")
        xi = draw(model, 2, 50, seed=8)
        post = bayes_posterior(model, xi)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)
        assert post.min() >= 0

    def test_rejects_single_vector(self):
        model = get_model("2d-gaussian")
        with pytest.raises(DomainError, match="batch"):
            bayes_posterior(model, model.laws[0].mean)

    def test_rejects_mixed_models(self):
        with pytest.raises(DomainError, match="Gaussian"):
            bayes_posterior(get_model("2d-mixed1"), np.zeros(5))

    def test_monte_carlo_bayes_error_matches_pinned_value(self):
        err = bayes_error_mc(get_model("2d-gaussian"), 100_000, seed=202)
        assert err == pytest.approx(BAYES_ERROR_2D_GAUSSIAN, abs=0.005)

    @pytest.mark.parametrize("n_draws", [2**60, 2**63, 10**20])
    def test_monte_carlo_draws_beyond_one_array_refused(self, n_draws):
        with pytest.raises(DomainError, match=f"too large for one numpy array: {n_draws} draws"):
            bayes_error_mc(get_model("2d-gaussian"), n_draws, seed=202)

    @pytest.mark.parametrize("n_draws", [0, -4, 2.5, True, "10"])
    def test_monte_carlo_bayes_error_needs_a_positive_draw_count(self, n_draws):
        with pytest.raises(DomainError, match="n_draws"):
            bayes_error_mc(get_model("2d-gaussian"), n_draws, seed=202)
