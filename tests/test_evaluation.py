import numpy as np
import pytest

from fdnet import (
    Architecture,
    DomainError,
    EvalConfig,
    HyperGrid,
    NetworkParams,
    TrainConfig,
    benchmark,
    classify,
    get_model,
    initial_params,
    truncated_kl_risk,
)
from fdnet.evaluation import confusion_matrix, misclassification_rate
from fdnet.network import _forward_pass


class TestClassify:
    def test_argmax(self):
        # a 3-class net with fixed logits via zero first layer and shifts
        params = NetworkParams.from_arrays([np.zeros((3, 2)), np.zeros((3, 3))], [np.zeros(3)])
        # forward gives uniform probabilities; tie -> class 1
        assert classify(params, np.zeros((1, 2))).tolist() == [1]

    def test_tie_breaks_to_smallest_index(self):
        params = NetworkParams.from_arrays([np.zeros((2, 4)), np.zeros((2, 2))], [np.zeros(2)])
        assert classify(params, np.ones((1, 4))).tolist() == [1]

    def test_batch_output(self):
        params = initial_params(Architecture(3, (5,), 4), np.random.default_rng(0))
        x = np.random.default_rng(1).standard_normal((6, 3))
        out = classify(params, x)
        assert out.shape == (6,)
        assert set(out.tolist()) <= {1, 2, 3, 4}

    def test_invariant_to_increasing_transforms(self):
        params = initial_params(Architecture(4, (6,), 3), np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((50, 4))
        logits = _forward_pass(params, x)[2]
        base = np.argmax(logits, axis=1)
        for transform in (lambda z: 3.0 * z + 7.0, np.exp, np.tanh):
            np.testing.assert_array_equal(np.argmax(transform(logits), axis=1), base)
        np.testing.assert_array_equal(classify(params, x) - 1, base)


class TestMisclassification:
    def test_identical(self):
        assert misclassification_rate([1, 2, 3], [1, 2, 3]) == 0.0

    def test_fully_mismatched(self):
        assert misclassification_rate([1, 1, 1], [2, 2, 2]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            misclassification_rate([], [])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            misclassification_rate([1, 2], [1])


class TestConfusion:
    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(1, 4, size=200)
        preds = rng.integers(1, 4, size=200)
        conf = confusion_matrix(preds, labels, 3)
        np.testing.assert_array_equal(conf.sum(axis=1), np.bincount(labels, minlength=4)[1:])
        assert conf.sum() == 200

    def test_diagonal_counts_correct_predictions(self):
        conf = confusion_matrix([1, 2, 2, 3], [1, 2, 3, 3], 3)
        assert conf[0, 0] == 1 and conf[1, 1] == 1 and conf[2, 2] == 1
        assert conf[2, 1] == 1


class TestEvaluate:
    def test_class_count_must_match(self):
        from dataclasses import replace

        from fdnet import evaluate, generate_dataset

        data = generate_dataset(get_model("2d-gaussian"), 4, m=9, seed=1, subset="test")
        params = initial_params(Architecture(3, (4,), 3), np.random.default_rng(5))
        assert evaluate(params, data)[1].shape == (3, 3)
        keep = data.labels <= 2
        for other in (
            replace(data, values=data.values[keep], labels=data.labels[keep], n_classes=2),
            replace(data, n_classes=5),
        ):
            with pytest.raises(DomainError, match="the model has 3 classes"):
                evaluate(params, other)


class TestTruncatedKl:
    def test_zero_at_equality(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(4), size=100)
        assert abs(truncated_kl_risk(p, p, 2.0)) <= 1e-12

    def test_cap_binds_exactly(self):
        true = np.array([[1.0, 0.0, 0.0]])
        est = np.array([[np.exp(-3.0), 0.5 * (1 - np.exp(-3.0)), 0.5 * (1 - np.exp(-3.0))]])
        assert truncated_kl_risk(true, est, 2.0) == pytest.approx(2.0, abs=1e-15)

    def test_zero_estimate_contributes_cap(self):
        true = np.array([[0.4, 0.6]])
        est = np.array([[0.0, 1.0]])
        expected = 0.4 * 2.0 + 0.6 * np.log(0.6 / 1.0)
        assert truncated_kl_risk(true, est, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_cap(self):
        rng = np.random.default_rng(6)
        p = rng.dirichlet(np.full(3, 0.4), size=500)
        q = rng.dirichlet(np.full(3, 0.4), size=500)
        values = [truncated_kl_risk(p, q, c0) for c0 in (2.0, 2.5, 3.0, 5.0, 10.0)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_validation(self):
        p = np.array([[0.5, 0.5]])
        for c0 in (1.0, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                truncated_kl_risk(p, p, c0)
        with pytest.raises(DomainError):
            truncated_kl_risk(p, np.array([[0.5, 0.25, 0.25]]), 2.0)

    def test_eval_config_validation(self):
        for c0 in (1.9, float("nan"), float("inf")):
            with pytest.raises(DomainError):
                EvalConfig(c0=c0)
        with pytest.raises(DomainError):
            EvalConfig(replicates=0)


def tiny_grid():
    return HyperGrid(n_scores=(4,), depths=(1,), widths=(8,), dropouts=(0.0,))


def tiny_cfg():
    return TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2, seed=0)


class TestBenchmark:
    def test_single_replicate_has_no_sd(self):
        model = get_model("2d-gaussian")
        report = benchmark(
            model, 12, 9, tiny_grid(), tiny_cfg(), EvalConfig(replicates=1, seed=9), test_per_class=10
        )
        assert report.replicates == 1
        assert report.sd is None and report.se is None
        assert report.errors.shape == (1,)
        assert report.kl_risks is not None  # all-Gaussian model

    def test_confusion_row_sums_accumulate(self):
        model = get_model("2d-gaussian")
        report = benchmark(
            model, 12, 9, tiny_grid(), tiny_cfg(), EvalConfig(replicates=2, seed=10), test_per_class=7
        )
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [14, 14, 14])

    def test_parallel_matches_serial_bitwise(self):
        model = get_model("2d-mixed1")
        serial = benchmark(
            model, 12, 9, tiny_grid(), tiny_cfg(), EvalConfig(replicates=3, seed=11), test_per_class=6
        )
        parallel = benchmark(
            model,
            12,
            9,
            tiny_grid(),
            tiny_cfg(),
            EvalConfig(replicates=3, seed=11),
            test_per_class=6,
            workers=2,
        )
        np.testing.assert_array_equal(serial.errors, parallel.errors)
        np.testing.assert_array_equal(serial.confusion, parallel.confusion)
        assert [c.as_tuple() for c in serial.chosen] == [c.as_tuple() for c in parallel.chosen]
        assert serial.kl_risks is None and parallel.kl_risks is None  # mixed model

    def test_kl_risk_reported_only_for_gaussian_models(self):
        gaussian = benchmark(
            get_model("2d-gaussian"),
            12,
            9,
            tiny_grid(),
            tiny_cfg(),
            EvalConfig(replicates=1, seed=12),
            test_per_class=5,
        )
        assert gaussian.kl_mean is not None and np.isfinite(gaussian.kl_mean)

    def test_kl_risk_decreases_with_training_size(self):
        # same architecture trained on more data estimates the posteriors
        # better; risk measured against the exact posteriors on 10^4 draws
        import warnings

        from fdnet import AliasingWarning, BasisOrder, bayes_posterior, generate_dataset, select
        from fdnet.network import _forward_pass, softmax
        from fdnet.projection import project_batch

        warnings.filterwarnings("ignore", category=AliasingWarning)
        model = get_model("2d-gaussian")
        order = BasisOrder(2)
        grid = HyperGrid(n_scores=(10,), depths=(3,), widths=(64,), dropouts=(0.01,))
        cfg = TrainConfig(epochs=100, batch_size=32, learning_rate=1e-3, seed=0)

        def risk_at(n_per_class):
            train_ds = generate_dataset(model, n_per_class, m=400, seed=77, subset="train")
            test_ds = generate_dataset(model, 3334, m=400, seed=77, subset="test")
            result = select(train_ds, order, grid, cfg)
            scores = project_batch(test_ds.values, test_ds.grid, order, 10)
            _, _, logits = _forward_pass(result.final_params, scores)
            return truncated_kl_risk(bayes_posterior(model, test_ds.latent), softmax(logits), 2.0)

        assert risk_at(700) < risk_at(200)
