import sys
import warnings

import numpy as np
import pytest

from fdnet import (
    AliasingWarning,
    Architecture,
    Dataset,
    DomainError,
    Grid,
    HyperGrid,
    NetworkParams,
    TrainConfig,
    benchmark,
    classify,
    evaluate,
    forward,
    get_model,
    initial_params,
    predict,
    project_batch,
    select,
    truncated_kl_risk,
)
from fdnet import basis, evaluation, parallel, projection, training
from fdnet.dataio import DatasetReader, load_dataset, save_dataset
from fdnet.evaluation import confusion_matrix
from fdnet.network import _logits, predicted_class
from fdnet.projection import BLOCK_ROWS
from fdnet.training import Classifier


class TestClassify:
    def test_argmax(self):
        # a 3-class net with fixed logits via zero first layer and shifts
        arch = Architecture(2, (3,), 3)
        params = NetworkParams(arch, np.zeros(arch.param_count))
        # forward gives uniform probabilities; tie -> class 1
        assert classify(params, np.zeros((1, 2))).tolist() == [1]

    def test_tie_breaks_to_smallest_index(self):
        arch = Architecture(4, (2,), 2)
        params = NetworkParams(arch, np.zeros(arch.param_count))
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
        logits = _logits(params, x)
        base = np.argmax(logits, axis=1)
        for transform in (lambda z: 3.0 * z + 7.0, np.exp, np.tanh):
            np.testing.assert_array_equal(np.argmax(transform(logits), axis=1), base)
        np.testing.assert_array_equal(classify(params, x) - 1, base)


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

    @pytest.mark.parametrize("preds, labels", [([1, 2], [0, 2]), ([4], [1]), ([1, 0], [1, 1])])
    def test_classes_outside_1_to_k_refused(self, preds, labels):
        # index 0 - 1 would wrap to the last row, K + 1 past the end
        with pytest.raises(DomainError, match="classes in 1..3"):
            confusion_matrix(preds, labels, 3)

    @pytest.mark.parametrize(
        "preds, labels",
        [
            ([1.7, 2], [1, 2]),  # 1.7 would be truncated to a correct class 1
            ([1, 2], [1.0, 2.0]),
            (np.array([True, True]), [1, 1]),  # a bool would count as class 1
            ([1, 1], np.array([True, True])),
        ],
    )
    def test_float_or_bool_classes_refused(self, preds, labels):
        with pytest.raises(DomainError, match="integer classes"):
            confusion_matrix(preds, labels, 3)

    def test_unsigned_classes_counted(self):
        conf = confusion_matrix(np.array([1, 3], dtype=np.uint8), np.array([1, 2], dtype=np.uint8), 3)
        assert conf[0, 0] == 1 and conf[1, 2] == 1 and conf.sum() == 2


class TestEvaluate:
    def test_class_count_must_match(self):
        from dataclasses import replace

        from fdnet import evaluate, generate_dataset

        data = generate_dataset(get_model("2d-gaussian"), 4, m=9, seed=1, subset="test")
        params = initial_params(Architecture(3, (4,), 3), np.random.default_rng(5))
        model = Classifier(params, data.grid.shape)
        assert evaluate(model, data)[1].shape == (3, 3)
        keep = data.labels <= 2
        for other in (
            replace(data, values=data.values[keep], labels=data.labels[keep], n_classes=2),
            replace(data, n_classes=5),
        ):
            with pytest.raises(DomainError, match="the model has 3 classes"):
                evaluate(model, other)

    def test_other_dimension_refused(self):
        # the library path refuses it too, not only the command line
        from fdnet import evaluate, generate_dataset, predict, select

        square = generate_dataset(get_model("2d-gaussian"), 12, m=9, seed=2, subset="train")
        grid = HyperGrid(n_scores=(4,), depths=(1,), widths=(8,), dropouts=(0.0,))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2)
        model = select(square, cfg, grid, 3).classifier
        cube = generate_dataset(get_model("3d-gaussian"), 4, m=8, seed=4, subset="test")
        for score in (predict, evaluate):
            with pytest.raises(DomainError, match="trained on 2-D data, but the data is 3-D"):
                score(model, cube)
        # another grid over the unit square still scores
        finer = generate_dataset(get_model("2d-gaussian"), 4, m=25, seed=4, subset="test")
        assert evaluate(model, finer)[1].shape == (3, 3)

    def test_empty_or_unlabeled_data_refused(self):
        from dataclasses import replace

        from fdnet import evaluate, generate_dataset

        data = generate_dataset(get_model("2d-gaussian"), 4, m=9, seed=1, subset="test")
        model = Classifier(initial_params(Architecture(3, (4,), 3), np.random.default_rng(5)), (3, 3))
        empty = replace(data, values=data.values[:0], labels=data.labels[:0])
        with pytest.raises(DomainError, match="no samples"):
            evaluate(model, empty)
        one_unlabeled = data.labels.copy()
        one_unlabeled[0] = 0
        for labels in (np.zeros_like(data.labels), one_unlabeled):
            with pytest.raises(DomainError, match="unlabeled"):
                evaluate(model, replace(data, labels=labels))


B = BLOCK_ROWS


def random_case(n, grid_shape, n_scores, widths, seed=0):
    """An untrained 3-class classifier and n labeled samples of random values."""
    rng = np.random.default_rng(seed)
    grid = Grid(grid_shape)
    model = Classifier(initial_params(Architecture(n_scores, widths, 3), rng), grid_shape)
    data = Dataset(values=rng.standard_normal((n, grid.m)), grid=grid,
                   labels=rng.integers(1, 4, n), n_classes=3)
    return model, data


def one_epoch_select(data, n_scores):
    """`select` over one small one-layer cell per J of n_scores, one epoch."""
    grid = HyperGrid(n_scores=n_scores, depths=(1,), widths=(4,), dropouts=(0.0,))
    return select(data, TrainConfig(epochs=1, batch_size=512), grid, 0)


class TestBlockedInference:
    """`predict` and `evaluate` score row blocks; the bits must be those of
    one `forward(project_batch(...))` over all rows.  CI also runs these
    with OPENBLAS_NUM_THREADS=1."""

    @pytest.mark.parametrize("n", [1, 444, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize(
        "grid_shape, n_scores, widths",
        [((3, 3), 4, (8,)), ((5, 5, 5), 18, (64, 64))],
        ids=["2d-J4-1x8", "3d-J18-2x64"],
    )
    def test_blocked_equals_one_call(self, n, grid_shape, n_scores, widths):
        model, data = random_case(n, grid_shape, n_scores, widths, seed=n)
        one_call = forward(model.params, project_batch(data.values, data.grid, n_scores))
        classes, probs = predict(model, data)
        assert np.array_equal(probs, one_call)
        assert np.array_equal(classes, predicted_class(one_call))
        err, conf, eval_probs = evaluate(model, data)
        assert np.array_equal(eval_probs, one_call)
        assert np.array_equal(conf, confusion_matrix(classes, data.labels, 3))
        assert err == np.mean(classes != data.labels)

    def test_aliasing_warned_once_per_call(self):
        # J = 12 on a 9-point grid, over three blocks
        model, data = random_case(2 * B + 1, (3, 3), 12, (8,))
        for score in (predict, evaluate, lambda _, d: one_epoch_select(d, (12,))):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                score(model, data)
            assert [w.category for w in caught] == [AliasingWarning]

    def test_design_matrix_built_once_per_call(self, monkeypatch):
        # three blocks; the count covers every module that could build one
        original, built = basis.design_matrix, []

        def counted(J, grid):
            built.append(J)
            return original(J, grid)

        for name, module in list(sys.modules.items()):
            if name.startswith("fdnet.") and module is not basis:
                if getattr(module, "design_matrix", None) is original:
                    monkeypatch.setattr(module, "design_matrix", counted)
        model, data = random_case(3 * B + 1, (3, 3), 4, (8,))
        assert len(list(data.blocks())) == 3
        # select projects once, at the largest candidate J
        for score in (predict, evaluate, lambda _, d: one_epoch_select(d, (2, 4))):
            built.clear()
            score(model, data)
            assert built == [4]

    def test_unlabeled_sample_in_a_later_block_refused(self):
        model, data = random_case(2 * B + 1, (3, 3), 4, (8,))
        data.labels[-1] = 0
        with pytest.raises(DomainError, match="unlabeled"):
            evaluate(model, data)


class TestOneProjection:
    """`select` trains on the scores `predict` computes for the same rows,
    from a `Dataset` or a `DatasetReader` alike.  CI also runs this with
    OPENBLAS_NUM_THREADS=1."""

    def test_select_and_predict_project_alike(self, monkeypatch):
        # two blocks on 28x28 at J=500, where a multi-block projection
        # differs from one call over all rows in the last bits
        original, returned = projection.project_batch, []

        def recorded(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        for module in (projection, training, evaluation):
            if getattr(module, "project_batch", None) is original:
                monkeypatch.setattr(module, "project_batch", recorded)
        _, data = random_case(2 * B + 1, (28, 28), 500, (4,))
        model = one_epoch_select(data, (500,)).classifier
        selected = np.concatenate(returned)
        returned.clear()
        predict(model, data)
        assert np.array_equal(np.concatenate(returned), selected)

    def test_select_on_a_reader_equals_select_on_its_dataset(self, tmp_path):
        path = tmp_path / "blocks.mfd"
        save_dataset(random_case(2 * B + 1, (3, 3), 4, (4,))[1], path)
        grid = HyperGrid(n_scores=(2, 4), depths=(1,), widths=(4,), dropouts=(0.0, 0.1))
        cfg = TrainConfig(epochs=1, batch_size=512)
        loaded = select(load_dataset(path), cfg, grid, 0)
        with DatasetReader(path) as reader:
            read = select(reader, cfg, grid, 0)
        assert np.array_equal(read.classifier.params.flat, loaded.classifier.params.flat)
        assert np.array_equal(read.validation_errors, loaded.validation_errors)
        assert read.chosen == loaded.chosen


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
        for c0 in (1.0, 1.9, float("nan"), float("inf"), True, "3"):
            with pytest.raises(DomainError):
                truncated_kl_risk(p, p, c0)
        with pytest.raises(DomainError):
            truncated_kl_risk(p, np.array([[0.5, 0.25, 0.25]]), 2.0)

    def test_one_sample_vectors_refused(self):
        # the batch contract: one row per sample, so a 1-D pair is not read as one row
        v = np.array([0.5, 0.5])
        for true, est in ((v, v), (v, v[None, :]), (np.float64(0.5), np.float64(0.5))):
            with pytest.raises(DomainError, match=r"\(n, K\) arrays"):
                truncated_kl_risk(true, est, 2.0)



def tiny_grid():
    return HyperGrid(n_scores=(4,), depths=(1,), widths=(8,), dropouts=(0.0,))


def tiny_cfg():
    return TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2)


class TestBenchmark:
    def test_single_replicate_has_no_sd(self):
        model = get_model("2d-gaussian")
        report = benchmark(model, 12, 9, tiny_grid(), tiny_cfg(), replicates=1, seed=9,
                           test_per_class=10)
        assert report.replicates == 1
        assert report.sd is None and report.se is None
        assert report.errors.shape == (1,)
        assert report.kl_risks is not None  # all-Gaussian model

    def test_confusion_row_sums_accumulate(self):
        model = get_model("2d-gaussian")
        report = benchmark(model, 12, 9, tiny_grid(), tiny_cfg(), replicates=2, seed=10,
                           test_per_class=7)
        np.testing.assert_array_equal(report.confusion.sum(axis=1), [14, 14, 14])

    def test_parallel_matches_serial_bitwise(self):
        model = get_model("2d-mixed1")
        args = (model, 12, 9, tiny_grid(), tiny_cfg())
        serial = benchmark(*args, replicates=3, seed=11, test_per_class=6, workers=1)
        parallel = benchmark(*args, replicates=3, seed=11, test_per_class=6, workers=2)
        np.testing.assert_array_equal(serial.errors, parallel.errors)
        np.testing.assert_array_equal(serial.confusion, parallel.confusion)
        assert [c.as_tuple() for c in serial.chosen] == [c.as_tuple() for c in parallel.chosen]
        assert serial.kl_risks is None and parallel.kl_risks is None  # mixed model

    def test_kl_risk_reported_only_for_gaussian_models(self):
        gaussian = benchmark(get_model("2d-gaussian"), 12, 9, tiny_grid(), tiny_cfg(), replicates=1,
                             seed=12, test_per_class=5)
        assert gaussian.kl_mean is not None and np.isfinite(gaussian.kl_mean)

    def test_kl_risk_decreases_with_training_size(self):
        # same architecture trained on more data estimates the posteriors
        # better; risk measured against the exact posteriors on 10^4 draws
        import warnings

        from fdnet import AliasingWarning, bayes_posterior, generate_dataset, select
        from fdnet.projection import project_batch

        warnings.filterwarnings("ignore", category=AliasingWarning)
        model = get_model("2d-gaussian")
        grid = HyperGrid(n_scores=(10,), depths=(3,), widths=(64,), dropouts=(0.01,))
        cfg = TrainConfig(epochs=100, batch_size=32, learning_rate=1e-3)

        def risk_at(n_per_class):
            train_ds = generate_dataset(model, n_per_class, m=400, seed=77, subset="train")
            test_ds = generate_dataset(model, 3334, m=400, seed=77, subset="test")
            result = select(train_ds, cfg, grid, 0)
            scores = project_batch(test_ds.values, test_ds.grid, 10)
            probs = forward(result.classifier.params, scores)
            return truncated_kl_risk(bayes_posterior(model, test_ds.latent), probs, 2.0)

        assert risk_at(700) < risk_at(200)



@pytest.fixture
def pool_sizes(monkeypatch):
    """The sizes of the pools `parallel` builds, each of which runs its map
    in this process and starts no worker."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, initializer, initargs, **kwargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(parallel, "_task", None)  # SerialPool sets it in this process
    return sizes


class TestBenchmarkArguments:
    def test_pool_capped_at_replicates(self, pool_sizes):
        # two cells, so a replicate's select would build a pool of its own
        grid = HyperGrid(n_scores=(4,), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        args = (get_model("2d-gaussian"), 12, 9, grid, tiny_cfg())
        serial = benchmark(*args, replicates=2, seed=13, test_per_class=5, workers=1)
        pooled = benchmark(*args, replicates=2, seed=13, test_per_class=5, workers=64)
        benchmark(*args, replicates=1, seed=13, test_per_class=5, workers=64)
        # a single replicate runs in this process, and no replicate's select builds a pool
        assert pool_sizes == [2]
        np.testing.assert_array_equal(serial.errors, pooled.errors)

    def test_default_pool_is_the_usable_cpus(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        benchmark(get_model("2d-gaussian"), 12, 9, tiny_grid(), tiny_cfg(), replicates=3, seed=13,
                  test_per_class=5)
        assert pool_sizes == [2]

    @pytest.mark.parametrize("field", ["n_per_class", "m", "test_per_class", "workers", "replicates"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_counts_must_be_integers(self, monkeypatch, field, value):
        monkeypatch.setattr(evaluation, "_run_replicate", pytest.fail)  # refused before any runs
        args = {"model": get_model("2d-gaussian"), "n_per_class": 12, "m": 9, "grid": tiny_grid(),
                "cfg": tiny_cfg(), "replicates": 1, "seed": 0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            benchmark(**args)

    @pytest.mark.parametrize("value", [0, -2])
    def test_test_per_class_at_least_one(self, monkeypatch, value):
        monkeypatch.setattr(evaluation, "_run_replicate", pytest.fail)  # refused before any runs
        with pytest.raises(DomainError, match=f"test_per_class must be >= 1, got {value}"):
            benchmark(get_model("2d-gaussian"), 12, 9, tiny_grid(), tiny_cfg(), replicates=2, seed=0,
                      test_per_class=value, workers=2)

    @pytest.mark.parametrize("field,value,message", [
        ("n_per_class", 0, "n_per_class must be >= 1, got 0"),
        ("n_per_class", -2, "n_per_class must be >= 1, got -2"),
        ("m", 0, "m must be >= 1, got 0"),
        ("m", 10, "unsupported sampling frequency m=10"),
    ], ids=["n_per_class-0", "n_per_class--2", "m-0", "m-10"])
    def test_sizes_refused_before_any_replicate(self, monkeypatch, field, value, message):
        monkeypatch.setattr(evaluation, "_run_replicate", pytest.fail)  # refused before any runs
        args = {"model": get_model("2d-gaussian"), "n_per_class": 12, "m": 9, "grid": tiny_grid(),
                "cfg": tiny_cfg(), "replicates": 2, "seed": 0, "workers": 2, field: value}
        with pytest.raises(DomainError, match=message):
            benchmark(**args)

    def test_replicates_at_least_one(self):
        with pytest.raises(DomainError, match="replicates must be >= 1"):
            benchmark(get_model("2d-gaussian"), 12, 9, tiny_grid(), tiny_cfg(), replicates=0, seed=0)
