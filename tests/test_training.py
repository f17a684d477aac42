import time
import tracemalloc

import numpy as np
import pytest

from fdnet import (
    Architecture,
    Dataset,
    DomainError,
    Grid,
    HyperGrid,
    NumericError,
    TrainConfig,
    classify,
    initial_params,
    project_batch,
    select,
    split_70_30,
    train,
)
from fdnet import parallel
from fdnet.basis import design_matrix
from fdnet.dataio import save_model
from fdnet.network import loss_and_gradient, one_hot
from fdnet.rng import as_seed_sequence
from fdnet.training import ADAM_SLICE, GROUP_FLOATS, Classifier, _fit, _param_count, _train_group


def params_equal(a, b):
    return a.architecture == b.architecture and np.array_equal(a.flat, b.flat)


def blob_scores(rng, n_per, centers, spread=1.0):
    scores, labels = [], []
    for k, c in enumerate(centers, start=1):
        scores.append(np.asarray(c) + spread * rng.standard_normal((n_per, len(c))))
        labels.append(np.full(n_per, k))
    return np.concatenate(scores), np.concatenate(labels)


class TestTrain:
    def test_separable_blobs_reach_zero_error(self):
        rng = np.random.default_rng(0)
        scores, labels = blob_scores(rng, 60, [(0.0, 0.0), (10.0, 10.0)])
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=1e-2)
        params = train(scores, labels, Architecture(2, (8,), 2), cfg, rng=np.random.default_rng(1))
        assert np.mean(classify(params, scores) != labels) == 0.0

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(2)
        scores, labels = blob_scores(rng, 30, [(0, 0), (3, 3), (-3, 3)])
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e-3)
        arch = Architecture(2, (6, 6), 3)
        rerun = lambda: train(scores, labels, arch, cfg, dropout=0.2, rng=np.random.default_rng(9))
        assert params_equal(rerun(), rerun())

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(3)
        scores, labels = blob_scores(rng, 20, [(0, 0), (5, 5)])
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.0)
        arch = Architecture(2, (4,), 2)
        got = train(scores, labels, arch, cfg, rng=np.random.default_rng(11))
        expected = initial_params(arch, np.random.default_rng(np.random.SeedSequence(11)))
        assert params_equal(got, expected)

    def test_loss_finite_and_lower_after_training(self):
        rng = np.random.default_rng(4)
        scores, labels = blob_scores(rng, 40, [(0, 0), (2, 2), (4, 0)], spread=2.0)
        cfg = TrainConfig(epochs=20, batch_size=16, learning_rate=1e-2)
        arch = Architecture(2, (8,), 3)
        params = train(scores, labels, arch, cfg, dropout=0.1, rng=np.random.default_rng(5))
        y = one_hot(labels, 3)
        before = loss_and_gradient(initial_params(arch, np.random.default_rng(5)), scores, y)
        after = loss_and_gradient(params, scores, y)
        assert np.isfinite(after) and after < before

    def test_nan_loss_aborts_with_position(self):
        rng = np.random.default_rng(6)
        scores, labels = blob_scores(rng, 30, [(0, 0), (1, 1)])
        cfg = TrainConfig(epochs=5, batch_size=10, learning_rate=1e200)
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(scores, labels, Architecture(2, (8, 8), 2), cfg, rng=np.random.default_rng(7))

    def test_first_diverged_network_in_group_order(self, monkeypatch):
        # 51 rows in batches of 8: 7 steps an epoch.  The third network
        # diverges first (epoch 1, batch 3), the second later (epoch 2,
        # batch 2): the group keeps stepping, and the second's error, the
        # one a serial run raises first, is the one raised
        steps, poison = [], {3: 2, 9: 1}  # step: network

        def poisoned(params, x, y, masks, grad):
            losses = loss_and_gradient(params, x, y, masks, grad)
            steps.append(len(losses))
            if len(steps) in poison:
                losses[poison[len(steps)]] = np.nan
            return losses

        monkeypatch.setattr("fdnet.training.loss_and_gradient", poisoned)
        scores, labels = blob_scores(np.random.default_rng(46), 17, [(0, 0), (3, 3), (-3, 3)])
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2)
        rngs = [np.random.default_rng(s) for s in (47, 48, 49)]
        with pytest.raises(NumericError, match="at epoch 2, batch 2$"):
            _train_group(scores, labels, Architecture(2, (5,), 3), cfg, (0.0, 0.1, 0.2), rngs)
        assert steps == [3] * 21  # every step ran, for all three networks

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(8)
        scores, labels = blob_scores(rng, 20, [(0, 0), (5, 5)])
        cfg = TrainConfig(epochs=1, batch_size=8)
        with pytest.raises(DomainError, match="class"):
            train(scores, labels, Architecture(2, (4,), 3), cfg, rng=np.random.default_rng(0))

    def test_batch_size_bounded_by_n(self):
        rng = np.random.default_rng(9)
        scores, labels = blob_scores(rng, 5, [(0, 0), (5, 5)])
        cfg = TrainConfig(epochs=1, batch_size=64)
        with pytest.raises(DomainError, match="batch_size"):
            train(scores, labels, Architecture(2, (4,), 2), cfg, rng=np.random.default_rng(0))

    def test_truncates_wide_scores(self):
        rng = np.random.default_rng(10)
        scores, labels = blob_scores(rng, 20, [(0, 0, 9, 9), (5, 5, 9, 9)])
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2)
        params = train(scores, labels, Architecture(2, (4,), 2), cfg, rng=np.random.default_rng(3))
        assert params.architecture.input_dim == 2

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=0)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=-1.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("dropout", [1.0, -0.1, float("nan"), float("inf"), True, "0.1", None])
    def test_dropout_outside_unit_interval_refused(self, dropout):
        rng = np.random.default_rng(8)
        scores, labels = blob_scores(rng, 10, [(0, 0), (5, 5)])
        cfg = TrainConfig(epochs=1, batch_size=4)
        with pytest.raises(DomainError, match="dropout"):
            train(scores, labels, Architecture(2, (4,), 2), cfg, dropout=dropout, rng=rng)

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_config_counts_must_be_integers(self, field, value):
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            TrainConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(3), batch_size=np.int32(4))
        assert (cfg.epochs, cfg.batch_size) == (3, 4)
        assert type(cfg.epochs) is int and type(cfg.batch_size) is int


def reference_train(scores, labels, arch, cfg, dropout, seed):
    """Minibatch training one array at a time: a separate array per weight
    and shift, a fresh gradient per step, one dropout draw per layer and
    the Adam formulas written out per array."""
    n, k = len(labels), arch.n_classes
    x = np.ascontiguousarray(scores[:, : arch.input_dim])
    y = np.zeros((n, k))
    y[np.arange(n), labels - 1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    init = initial_params(arch, rng)
    weights, shifts = init.weights, init.shifts
    arrays = [*weights, *shifts]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    keep = 1.0 - dropout
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            masks = None
            if dropout > 0.0:
                masks = [(rng.random((len(idx), p)) < keep) / keep for p in arch.hidden_widths]
            acts, pre = [xb], []
            a = xb
            for l in range(arch.depth):
                h = a @ weights[l].T - shifts[l]
                a = np.maximum(h, 0.0)
                if masks is not None:
                    a = a * masks[l]
                pre.append(h)
                acts.append(a)
            logits = a @ weights[-1].T
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            probs = e / e.sum(axis=-1, keepdims=True)

            delta = (probs - yb) / len(idx)
            grad_w = [None] * len(weights)
            grad_v = [None] * len(shifts)
            grad_w[-1] = delta.T @ acts[-1]
            upstream = delta @ weights[-1]
            for l in range(arch.depth - 1, -1, -1):
                if masks is not None:
                    upstream = upstream * masks[l]
                dh = upstream * (pre[l] > 0.0)
                grad_v[l] = -dh.sum(axis=0)
                grad_w[l] = dh.T @ acts[l]
                if l > 0:
                    upstream = dh @ weights[l]
            grads = [*grad_w, *grad_v]

            t += 1
            bc1 = 1.0 - 0.9**t
            bc2 = 1.0 - 0.999**t
            for p, g, mi, vi in zip(arrays, grads, m, v):
                mi *= 0.9
                mi += (1.0 - 0.9) * g
                vi *= 0.999
                vi += (1.0 - 0.999) * np.square(g)
                p -= cfg.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
    return weights, shifts


class TestFlatBufferExactness:
    """`train` updates one flat parameter vector in place; it must give the
    very bits of the per-array loop above."""

    # 51 samples: batch sizes 7 and 8 leave a short last batch, 17 does not
    @pytest.mark.parametrize(
        "dropout, batch_size, depth",
        [(0.2, 8, 1), (0.2, 7, 3), (0.0, 17, 2), (0.0, 7, 1), (0.1, 8, 3), (0.1, 7, 3), (0.0, 8, 1)],
    )
    def test_matches_per_array_reference(self, dropout, batch_size, depth):
        rng = np.random.default_rng(24)
        scores, labels = blob_scores(rng, 17, [(0, 0, 1), (3, 3, 0), (-3, 3, 2)], spread=1.5)
        cfg = TrainConfig(epochs=6, batch_size=batch_size, learning_rate=1e-2)
        arch = Architecture(3, (7,) * depth, 3)
        got = train(scores, labels, arch, cfg, dropout=dropout, rng=np.random.default_rng(25))
        weights, shifts = reference_train(scores, labels, arch, cfg, dropout, 25)
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.shifts, shifts))

    def test_update_spanning_several_slices(self):
        # 29 250 parameters: one full Adam slice, then a partial one that
        # begins inside W_1
        arch = Architecture(40, (150, 150), 3)
        assert ADAM_SLICE < arch.param_count < 2 * ADAM_SLICE
        assert arch.param_count % ADAM_SLICE
        rng = np.random.default_rng(26)
        scores, labels = blob_scores(rng, 10, rng.standard_normal((3, 40)), spread=3.0)
        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=1e-2)
        got = train(scores, labels, arch, cfg, dropout=0.2, rng=np.random.default_rng(27))
        weights, shifts = reference_train(scores, labels, arch, cfg, 0.2, 27)
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.shifts, shifts))
        # the values on both sides of the slice boundary and the last one
        # must have moved, or this case checks nothing there
        init = initial_params(arch, np.random.default_rng(np.random.SeedSequence(27)))
        moved = np.concatenate([a.ravel() for a in (*weights, *shifts)]) != init.flat
        assert moved[[ADAM_SLICE - 1, ADAM_SLICE, -1]].all()

    @pytest.mark.parametrize("depth, width, inputs", [(2, 7, 3), (3, 64, 10)],
                             ids=["small", "group-beyond-a-slice"])
    def test_group_matches_each_network_alone(self, depth, width, inputs):
        # 51 samples in batches of 8: a short last batch; the dropout-0
        # network takes factors of 1.0 beside the others' masks
        arch = Architecture(inputs, (width,) * depth, 3)
        if width == 64:  # c4's largest cell: 3 * 9216 values span two Adam slices
            assert arch.param_count < ADAM_SLICE < 3 * arch.param_count
        rng = np.random.default_rng(28)
        scores, labels = blob_scores(rng, 17, 3 * rng.standard_normal((3, inputs)), spread=1.5)
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-2)
        dropouts, seeds = (0.0, 0.1, 0.2), (29, 30, 31)
        group = _train_group(scores, labels, arch, cfg, dropouts, [np.random.default_rng(s) for s in seeds])
        for net, dropout, seed in zip(group, dropouts, seeds):
            alone = train(scores, labels, arch, cfg, dropout=dropout, rng=np.random.default_rng(seed))
            assert params_equal(net, alone)


class TestSplit:
    def test_exact_floor_sizes(self):
        labels = np.array([1] * 5 + [2] * 5)
        tr, va = split_70_30(labels, seed=0)
        assert (len(tr), len(va)) == (7, 3)

    def test_remainder_goes_to_validation(self):
        labels = np.array([1] * 51 + [2] * 50)
        tr, va = split_70_30(labels, seed=1)
        assert (len(tr), len(va)) == (70, 31)

    def test_disjoint_and_covering(self):
        labels = np.array([1] * 13 + [2] * 9 + [3] * 11)
        tr, va = split_70_30(labels, seed=2)
        merged = np.sort(np.concatenate([tr, va]))
        np.testing.assert_array_equal(merged, np.arange(len(labels)))

    def test_stratified(self):
        labels = np.array([1] * 100 + [2] * 100)
        tr, _ = split_70_30(labels, seed=3)
        # class balance in the training fold is preserved exactly
        assert np.sum(labels[tr] == 1) == 70
        assert np.sum(labels[tr] == 2) == 70

    def test_same_seed_same_split(self):
        labels = np.tile([1, 2, 3], 20)
        a = split_70_30(labels, seed=7)
        b = split_70_30(labels, seed=7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_small_class_rejected(self):
        labels = np.array([1] * 11 + [2])
        with pytest.raises(DomainError):
            split_70_30(labels, seed=0)

    def test_minimum_size(self):
        with pytest.raises(DomainError):
            split_70_30(np.array([1, 1, 2, 2]), seed=0)


def toy_functional_dataset(rng, n_per, centers, grid_points=12):
    """1-D functional samples whose first Fourier scores form blobs at
    `centers` (coefficients on the constant and first cosine element)."""
    grid = Grid((grid_points,))
    phi = design_matrix(2, grid)
    values, labels = [], []
    for k, c in enumerate(centers, start=1):
        coef = np.asarray(c) + rng.standard_normal((n_per, 2))
        values.append(coef @ phi.T)
        labels.append(np.full(n_per, k))
    return Dataset(
        values=np.concatenate(values),
        grid=grid,
        labels=np.concatenate(labels),
        n_classes=len(centers),
    )


class TestSelect:
    def test_single_cell(self):
        rng = np.random.default_rng(12)
        ds = toy_functional_dataset(rng, 20, [(0, 0), (8, 8)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(8,), dropouts=(0.0,))
        cfg = TrainConfig(epochs=20, batch_size=8, learning_rate=1e-2)
        result = select(ds, cfg, grid, 13)
        assert result.chosen.as_tuple() == (2, 1, 8, 0.0)
        # one candidate is the argmin unvalidated: its error is NaN
        assert result.validation_errors.shape == (1, 1, 1, 1)
        assert np.all(np.isnan(result.validation_errors))
        assert result.classifier.grid_shape == ds.grid.shape

    def test_one_cell_trains_once(self, monkeypatch):
        calls = []

        def counting_train(scores, *args, **kwargs):
            calls.append(len(scores))
            return _train_group(scores, *args, **kwargs)

        monkeypatch.setattr("fdnet.training._train_group", counting_train)
        ds = toy_functional_dataset(np.random.default_rng(12), 20, [(0, 0), (8, 8)])
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2)
        one = HyperGrid(n_scores=(2,), depths=(1,), widths=(8,), dropouts=(0.0,))
        select(ds, cfg, one, 13)
        assert calls == [40]  # the final fit, on all rows
        calls.clear()
        # one CPU, so every call is made in this process, in order;
        # test_pooled_equals_serial covers the pool
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        two = HyperGrid(n_scores=(2,), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        select(ds, cfg, two, 13)
        assert calls == [28, 28, 40]  # each cell on the fold, then the winner

    def test_pooled_equals_serial(self, tmp_path, monkeypatch):
        # CI also runs this with one BLAS thread
        rng = np.random.default_rng(30)
        ds = toy_functional_dataset(rng, 15, [(0, 0), (6, 6), (-6, 6)])
        grid = HyperGrid(n_scores=(2, 3), depths=(1, 2), widths=(6,), dropouts=(0.0, 0.2))
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-2)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
        serial = select(ds, cfg, grid, 31)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
        pooled = select(ds, cfg, grid, 31)
        assert np.array_equal(serial.validation_errors, pooled.validation_errors)
        assert serial.chosen == pooled.chosen
        assert np.array_equal(serial.classifier.params.flat, pooled.classifier.params.flat)
        for name, result in (("serial.json", serial), ("pooled.json", pooled)):
            save_model(result.classifier, tmp_path / name)
        assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "pooled.json").read_bytes()

    def test_first_failure_in_grid_order(self, monkeypatch):
        # the first cell fails late on one worker, the second fails at once
        # on the other; the first cell's error is the one raised, though the
        # pool starts the larger second cell first
        def failing_train(scores, labels, arch, *args, **kwargs):
            if arch.hidden_widths[0] == 4:
                time.sleep(0.5)
                raise DomainError("the first cell failed")
            raise NumericError("the second cell failed")

        monkeypatch.setattr("fdnet.training._train_group", failing_train)
        ds = toy_functional_dataset(np.random.default_rng(32), 10, [(0, 0), (8, 8)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        for cpus in (1, 2):
            monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
            with pytest.raises(DomainError, match="the first cell failed"):
                select(ds, TrainConfig(epochs=1, batch_size=4), grid, 0)

    def test_cells_above_the_group_size_train_alone(self, monkeypatch):
        groups = []

        def recording(scores, labels, arch, cfg, dropouts, rngs):
            groups.append((arch.param_count, len(rngs)))
            return _train_group(scores, labels, arch, cfg, dropouts, rngs)

        monkeypatch.setattr("fdnet.training._train_group", recording)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)  # every group recorded here
        wide = GROUP_FLOATS // 8
        small, large = _param_count(2, 1, 4, 2), _param_count(2, 1, wide, 2)
        assert 2 * small <= GROUP_FLOATS and large <= GROUP_FLOATS < 2 * large
        ds = toy_functional_dataset(np.random.default_rng(33), 20, [(0, 0), (8, 8)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4, wide), dropouts=(0.0, 0.1))
        select(ds, TrainConfig(epochs=1, batch_size=8), grid, 34)
        assert groups[:3] == [(small, 2), (large, 1), (large, 1)]  # then the final fit

    def test_one_cell_bits_are_those_of_the_last_stream(self):
        # the fold is skipped, but the final fit keeps the stream a larger
        # grid's retrain would draw from; CI also runs this with one BLAS
        # thread (W0' mu is a BLAS product)
        rng = np.random.default_rng(24)
        ds = toy_functional_dataset(rng, 15, [(0, 0), (6, 6), (-6, 6)])
        cell = (2, 2, 6, 0.1)
        grid = HyperGrid(*((v,) for v in cell))
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2)
        result = select(ds, cfg, grid, 25)
        raw = project_batch(ds.values, ds.grid, 2)  # one block: the rows select projects
        [final] = _fit(raw, ds.labels, [cell], 3, cfg, [as_seed_sequence(25).spawn(3)[-1]])
        assert np.array_equal(result.classifier.params.flat, final.flat)

    def test_batch_larger_than_the_fold(self):
        # n = 40: the fold has 28 rows; only a grid that trains on it refuses 29..40
        ds = toy_functional_dataset(np.random.default_rng(26), 20, [(0, 0), (8, 8)])
        one = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        two = HyperGrid(n_scores=(2,), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        assert select(ds, TrainConfig(epochs=2, batch_size=40), one, 27).chosen.as_tuple() == (2, 1, 4, 0.0)
        with pytest.raises(DomainError, match="exceeds the 28 training samples"):
            select(ds, TrainConfig(epochs=2, batch_size=29), two, 27)
        with pytest.raises(DomainError, match="exceeds the 40 training samples"):
            select(ds, TrainConfig(epochs=2, batch_size=41), one, 27)

    def test_one_cell_still_needs_a_splittable_dataset(self):
        ds = toy_functional_dataset(np.random.default_rng(28), 4, [(0, 0), (8, 8)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError, match="at least 10 samples"):
            select(ds, TrainConfig(epochs=1, batch_size=4), grid, 0)

    def test_underfit_versus_fit(self):
        # XOR-style blobs: a single hidden unit cannot separate them,
        # a wide layer can
        rng = np.random.default_rng(14)
        centers1 = [(-8, -8), (8, 8)]
        centers2 = [(-8, 8), (8, -8)]
        grid1d = Grid((12,))
        phi = design_matrix(2, grid1d)
        values, labels = [], []
        for c in centers1:
            coef = np.asarray(c) + rng.standard_normal((30, 2))
            values.append(coef @ phi.T)
            labels.append(np.full(30, 1))
        for c in centers2:
            coef = np.asarray(c) + rng.standard_normal((30, 2))
            values.append(coef @ phi.T)
            labels.append(np.full(30, 2))
        ds = Dataset(
            values=np.concatenate(values),
            grid=grid1d,
            labels=np.concatenate(labels),
            n_classes=2,
        )
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(1, 64), dropouts=(0.0,))
        cfg = TrainConfig(epochs=60, batch_size=16, learning_rate=1e-2)
        result = select(ds, cfg, grid, 15)
        assert result.chosen.width == 64
        errs = {
            cell: result.validation_errors[idx]
            for idx, cell in zip(np.ndindex(result.validation_errors.shape), grid.cells())
        }
        assert errs[(2, 1, 64, 0.0)] < errs[(2, 1, 1, 0.0)]

    def test_chosen_attains_minimum_with_lexicographic_ties(self):
        rng = np.random.default_rng(16)
        ds = toy_functional_dataset(rng, 25, [(0, 0), (9, 9)])
        grid = HyperGrid(n_scores=(1, 2), depths=(1,), widths=(4, 8), dropouts=(0.0, 0.1))
        cfg = TrainConfig(epochs=25, batch_size=8, learning_rate=1e-2)
        result = select(ds, cfg, grid, 17)
        shape = result.validation_errors.shape
        best = min(
            (result.validation_errors[idx], cell)
            for idx, cell in zip(np.ndindex(shape), grid.cells())
        )
        assert result.chosen.as_tuple() == best[1]
        assert result.validation_errors.min() == best[0]

    def test_deterministic_rerun(self):
        rng = np.random.default_rng(18)
        ds = toy_functional_dataset(rng, 15, [(0, 0), (7, 7)])
        grid = HyperGrid(n_scores=(2,), depths=(1, 2), widths=(4,), dropouts=(0.0, 0.2))
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e-2)
        a = select(ds, cfg, grid, 19)
        b = select(ds, cfg, grid, 19)
        assert a.chosen == b.chosen
        np.testing.assert_array_equal(a.validation_errors, b.validation_errors)
        assert params_equal(a.classifier.params, b.classifier.params)
        assert a.classifier.grid_shape == b.classifier.grid_shape

    def test_final_params_consume_raw_scores(self):
        # the folded-out standardization must classify raw projections well
        rng = np.random.default_rng(20)
        ds = toy_functional_dataset(rng, 30, [(0, 0), (500, 500)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(8,), dropouts=(0.0,))
        cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=1e-2)
        result = select(ds, cfg, grid, 21)
        scores = project_batch(ds.values, ds.grid, 2)
        pred = classify(result.classifier.params, scores)
        assert np.mean(pred != ds.labels) <= 0.05

    def test_requires_labels(self):
        rng = np.random.default_rng(22)
        ds = toy_functional_dataset(rng, 10, [(0, 0), (5, 5)])
        ds.labels[0] = 0
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            select(ds, TrainConfig(epochs=1, batch_size=4), grid, 0)

    def test_empty_dataset_refused(self):
        ds = Dataset(values=np.zeros((0, 12)), grid=Grid((12,)), labels=np.zeros(0), n_classes=2)
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError, match="no samples"):
            select(ds, TrainConfig(epochs=1, batch_size=4), grid, 0)

    @pytest.mark.parametrize("depths, widths", [((1,), (4, 2**62)), ((1, 2**62), (4,)), ((1, 2**63), (4,))],
                             ids=["last-width", "last-depth", "depth-beyond-an-index"])
    def test_too_large_cell_refused_before_any_fit(self, monkeypatch, depths, widths):
        monkeypatch.setattr("fdnet.training.projected_blocks", pytest.fail)
        monkeypatch.setattr("fdnet.training._fit", pytest.fail)
        ds = toy_functional_dataset(np.random.default_rng(12), 20, [(0, 0), (8, 8)])
        grid = HyperGrid(n_scores=(2,), depths=depths, widths=widths, dropouts=(0.0, 0.1))
        with pytest.raises(DomainError, match="too large for one numpy array: [0-9]+ parameters"):
            select(ds, TrainConfig(epochs=1, batch_size=8), grid, 0)

    @pytest.mark.parametrize("j, depth, width", [(1, 1, 1), (2, 1, 8), (5, 3, 4), (9, 2, 64), (500, 3, 1000)])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_param_count_by_arithmetic(self, j, depth, width, k):
        assert _param_count(j, depth, width, k) == Architecture(j, (width,) * depth, k).param_count

    def test_seed_is_read(self):
        rng = np.random.default_rng(18)
        ds = toy_functional_dataset(rng, 15, [(0, 0), (7, 7)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2)
        a, b = (select(ds, cfg, grid, seed).classifier.params for seed in (0, 1))
        assert not params_equal(a, b)


class TestOneFit:
    """Every network `select` trains comes from `_fit` and consumes raw
    scores.  CI also runs this with OPENBLAS_NUM_THREADS=1: the fold's
    W0' mu is a BLAS product."""

    def test_bits_of_a_one_score_cell_on_wider_rows(self):
        # standardized over all 3 columns, trained on the first, folded
        rng = np.random.default_rng(40)
        scores, labels = blob_scores(rng, 25, [(0, 0, 0), (4, 1, -2), (-3, 2, 5)])
        raw = scores * np.array([300.0, 1.0, 0.01]) + np.array([-50.0, 7.0, 0.0])
        cfg = TrainConfig(epochs=4, batch_size=8, learning_rate=1e-2)
        stream = np.random.SeedSequence(41)
        [got] = _fit(raw, labels, [(1, 2, 5, 0.1)], 3, cfg, [stream])

        mu, sd = raw.mean(axis=0), raw.std(axis=0)
        ref = train((raw - mu) / sd, labels, Architecture(1, (5, 5), 3), cfg, dropout=0.1,
                    rng=np.random.default_rng(stream))
        ref.weights[0] /= sd[None, :1]
        ref.shifts[0] += ref.weights[0] @ mu[:1]
        assert params_equal(got, ref)

    def test_validation_errors_are_those_of_the_folded_fold_networks(self):
        rng = np.random.default_rng(42)
        ds = toy_functional_dataset(rng, 20, [(0, 0), (6, 6)])
        grid = HyperGrid(n_scores=(1, 3), depths=(1, 2), widths=(4,), dropouts=(0.0, 0.1))
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2)
        result = select(ds, cfg, grid, 43)

        streams = as_seed_sequence(43).spawn(grid.n_cells + 2)
        raw = project_batch(ds.values, ds.grid, 3)  # one block: the rows select projects
        train_idx, val_idx = split_70_30(ds.labels, streams[0])
        errors = [
            np.mean(classify(_fit(raw[train_idx], ds.labels[train_idx], [cell], 2, cfg, [stream])[0],
                             raw[val_idx, : cell[0]]) != ds.labels[val_idx])
            for cell, stream in zip(grid.cells(), streams[1:])
        ]
        assert np.array_equal(result.validation_errors.ravel(), errors)
        [final] = _fit(raw, ds.labels, [result.chosen.as_tuple()], 2, cfg, [streams[-1]])
        assert params_equal(result.classifier.params, final)

    def test_final_fit_standardizes_wider_rows_in_place(self, monkeypatch):
        # the final fit moves the first J columns of its rows to the front
        # of their buffer, so training takes them as they are: no second
        # (n, J) array, and the bits of a fit that copies its rows
        n, width, j = 4000, 32, 16
        rng = np.random.default_rng(48)
        raw, labels = blob_scores(rng, n // 2, rng.standard_normal((2, width)))
        cfg = TrainConfig(epochs=1, batch_size=500)
        [copied] = _fit(raw, labels, [(j, 1, 4, 0.0)], 2, cfg, [49])
        seen = []

        def entry(x, *args):
            seen.append((x.flags.c_contiguous, np.shares_memory(x, raw), tracemalloc.get_traced_memory()[0]))
            tracemalloc.reset_peak()
            nets = _train_group(x, *args)
            seen.append(tracemalloc.get_traced_memory()[1])
            return nets

        monkeypatch.setattr("fdnet.training._train_group", entry)
        tracemalloc.start()
        try:
            [final] = _fit(raw, labels, [(j, 1, 4, 0.0)], 2, cfg, [49], overwrite=True)
        finally:
            tracemalloc.stop()
        [(contiguous, shared, live), peak] = seen
        assert contiguous and shared
        assert peak - live < n * j * 8 // 2, f"{peak - live} bytes above the rows while training"
        assert params_equal(final, copied)

    def test_overflowing_spread_is_a_numeric_error(self):
        scores, labels = blob_scores(np.random.default_rng(44), 10, [(0, 0), (3, 3)])
        scores[0, 1] = 1e300  # its square overflows
        with pytest.raises(NumericError, match="overflows"):
            _fit(scores, labels, [(2, 1, 4, 0.0)], 2, TrainConfig(epochs=1, batch_size=4), [0])


class TestHyperGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(2,), depths=(0,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(1.0,))

    @pytest.mark.parametrize("dropout", [1.0, -0.5, float("nan")])
    def test_dropout_outside_unit_interval_names_the_rate(self, dropout):
        with pytest.raises(DomainError, match=rf"dropouts must lie in \[0, 1\), got {dropout}"):
            HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0, dropout))

    @pytest.mark.parametrize("field", ["n_scores", "depths", "widths"])
    @pytest.mark.parametrize("value", [8.7, 4.5, 2.0, True, "4"])
    def test_counts_must_be_integers(self, field, value):
        lists = {"n_scores": (2,), "depths": (1,), "widths": (4,), "dropouts": (0.0,)}
        lists[field] = (value,)
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            HyperGrid(**lists)

    def test_accepts_numpy_integers(self):
        grid = HyperGrid(n_scores=np.array([2, 3]), depths=(np.int64(1),), widths=(4,), dropouts=(0.0,))
        assert grid.n_scores == (2, 3) and grid.depths == (1,)
        assert all(type(v) is int for v in (*grid.n_scores, *grid.depths))

    def test_cell_enumeration(self):
        grid = HyperGrid(n_scores=(1, 2), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        assert grid.n_cells == 4
        assert list(grid.cells())[0] == (1, 1, 4, 0.0)


class TestClassifier:
    def test_grid_shape_rule(self):
        params = initial_params(Architecture(2, (4,), 2), np.random.default_rng(0))
        model = Classifier(params, [np.int64(3), 3])
        assert model.grid_shape == (3, 3) and all(type(s) is int for s in model.grid_shape)
        assert Classifier(params, (2, 2, 2)).grid_shape == (2, 2, 2)
        for shape in ((), (3, 3, 3, 3), (0, 3), (-1,), (True, 3), (3.0, 3), ("3",), ((3,), 3), 3, None):
            with pytest.raises(DomainError, match="grid_shape"):
                Classifier(params, shape)
