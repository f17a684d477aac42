import numpy as np
import pytest

from fdnet import (
    Architecture,
    BasisOrder,
    Dataset,
    DomainError,
    HyperGrid,
    NumericError,
    TrainConfig,
    classify,
    initial_params,
    midpoint_grid,
    select,
    split_70_30,
    train,
)
from fdnet.basis import design_matrix
from fdnet.training import ADAM_SLICE


def params_equal(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and all(
        np.array_equal(x, y) for x, y in zip(a.shifts, b.shifts)
    )


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
        cfg = TrainConfig(epochs=50, batch_size=16, learning_rate=1e-2, seed=1)
        params = train(scores, labels, Architecture(2, (8,), 2), cfg)
        assert np.mean(classify(params, scores) != labels) == 0.0

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(2)
        scores, labels = blob_scores(rng, 30, [(0, 0), (3, 3), (-3, 3)])
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e-3, dropout=0.2, seed=9)
        arch = Architecture(2, (6, 6), 3)
        assert params_equal(train(scores, labels, arch, cfg), train(scores, labels, arch, cfg))

    def test_zero_learning_rate_keeps_initialization(self):
        rng = np.random.default_rng(3)
        scores, labels = blob_scores(rng, 20, [(0, 0), (5, 5)])
        cfg = TrainConfig(epochs=3, batch_size=10, learning_rate=0.0, seed=11)
        arch = Architecture(2, (4,), 2)
        got = train(scores, labels, arch, cfg)
        expected = initial_params(arch, np.random.default_rng(np.random.SeedSequence(11)))
        assert params_equal(got, expected)

    def test_loss_finite_at_every_epoch_end(self):
        rng = np.random.default_rng(4)
        scores, labels = blob_scores(rng, 40, [(0, 0), (2, 2), (4, 0)], spread=2.0)
        losses = []
        cfg = TrainConfig(epochs=20, batch_size=16, learning_rate=1e-2, dropout=0.1, seed=5)
        train(
            scores,
            labels,
            Architecture(2, (8,), 3),
            cfg,
            on_epoch_end=lambda e, loss: losses.append(loss),
        )
        assert len(losses) == 20
        assert np.all(np.isfinite(losses))

    def test_nan_loss_aborts_with_position(self):
        rng = np.random.default_rng(6)
        scores, labels = blob_scores(rng, 30, [(0, 0), (1, 1)])
        cfg = TrainConfig(
            epochs=5, batch_size=10, learning_rate=1e200, optimizer="sgd", seed=7
        )
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(scores, labels, Architecture(2, (8, 8), 2), cfg)

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(8)
        scores, labels = blob_scores(rng, 20, [(0, 0), (5, 5)])
        with pytest.raises(DomainError, match="class"):
            train(scores, labels, Architecture(2, (4,), 3), TrainConfig(epochs=1, seed=0, batch_size=8))

    def test_batch_size_bounded_by_n(self):
        rng = np.random.default_rng(9)
        scores, labels = blob_scores(rng, 5, [(0, 0), (5, 5)])
        with pytest.raises(DomainError, match="batch_size"):
            train(scores, labels, Architecture(2, (4,), 2), TrainConfig(epochs=1, batch_size=64, seed=0))

    def test_truncates_wide_scores(self):
        rng = np.random.default_rng(10)
        scores, labels = blob_scores(rng, 20, [(0, 0, 9, 9), (5, 5, 9, 9)])
        cfg = TrainConfig(epochs=5, batch_size=8, learning_rate=1e-2, seed=3)
        params = train(scores, labels, Architecture(2, (4,), 2), cfg)
        assert params.architecture.input_dim == 2

    def test_weight_ball_projection(self):
        from fdnet import sparsity_report

        rng = np.random.default_rng(11)
        scores, labels = blob_scores(rng, 30, [(0, 0), (8, 8)])
        cfg = TrainConfig(epochs=10, batch_size=10, learning_rate=1e-1, seed=4, clip=True)
        params = train(scores, labels, Architecture(2, (6,), 2), cfg)
        assert sparsity_report(params).max_entry <= 1.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            TrainConfig(epochs=0)
        with pytest.raises(DomainError):
            TrainConfig(learning_rate=-1.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(DomainError):
                TrainConfig(learning_rate=lr)
        with pytest.raises(DomainError):
            TrainConfig(dropout=1.0)
        with pytest.raises(DomainError):
            TrainConfig(optimizer="momentum")


def reference_train(scores, labels, arch, cfg):
    """Minibatch training one array at a time: a separate array per weight
    and shift, a fresh gradient per step, one dropout draw per layer and
    the update formulas written out per array."""
    n, k = len(labels), arch.n_classes
    x = np.ascontiguousarray(scores[:, : arch.input_dim])
    y = np.zeros((n, k))
    y[np.arange(n), labels - 1] = 1.0
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    init = initial_params(arch, rng)
    weights, shifts = init.weights, init.shifts
    arrays = [*weights, *shifts]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    keep = 1.0 - cfg.dropout
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            xb, yb = x[idx], y[idx]
            masks = None
            if cfg.dropout > 0.0:
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

            if cfg.optimizer == "sgd":
                for p, g in zip(arrays, grads):
                    p -= cfg.learning_rate * g
            else:
                t += 1
                bc1 = 1.0 - 0.9**t
                bc2 = 1.0 - 0.999**t
                for p, g, mi, vi in zip(arrays, grads, m, v):
                    mi *= 0.9
                    mi += (1.0 - 0.9) * g
                    vi *= 0.999
                    vi += (1.0 - 0.999) * np.square(g)
                    p -= cfg.learning_rate * (mi / bc1) / (np.sqrt(vi / bc2) + 1e-8)
            if cfg.clip:
                for p in arrays:
                    np.clip(p, -1.0, 1.0, out=p)
    return weights, shifts


class TestFlatBufferExactness:
    """`train` updates one flat parameter vector in place; it must give the
    very bits of the per-array loop above."""

    # 51 samples: batch sizes 7 and 8 leave a short last batch, 17 does not
    @pytest.mark.parametrize(
        "optimizer, dropout, clip, batch_size, depth",
        [
            ("adam", 0.2, False, 8, 1),
            ("adam", 0.2, False, 7, 3),
            ("adam", 0.0, False, 17, 2),
            ("sgd", 0.0, False, 7, 1),
            ("sgd", 0.1, False, 8, 3),
            ("adam", 0.1, True, 7, 3),
            ("sgd", 0.0, True, 8, 1),
        ],
    )
    def test_matches_per_array_reference(self, optimizer, dropout, clip, batch_size, depth):
        rng = np.random.default_rng(24)
        scores, labels = blob_scores(rng, 17, [(0, 0, 1), (3, 3, 0), (-3, 3, 2)], spread=1.5)
        lr = 0.5 if clip else 1e-2
        cfg = TrainConfig(
            epochs=6, batch_size=batch_size, learning_rate=lr, optimizer=optimizer,
            dropout=dropout, clip=clip, seed=25,
        )
        arch = Architecture(3, (7,) * depth, 3)
        got = train(scores, labels, arch, cfg)
        weights, shifts = reference_train(scores, labels, arch, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.shifts, shifts))
        if clip:
            # the projection must have bound, or this case checks nothing
            assert max(np.abs(w).max() for w in weights) == 1.0

    def test_update_spanning_several_slices(self):
        # 29 250 parameters: one full Adam slice, then a partial one that
        # begins inside W_1
        arch = Architecture(40, (150, 150), 3)
        assert ADAM_SLICE < arch.param_count < 2 * ADAM_SLICE
        assert arch.param_count % ADAM_SLICE
        rng = np.random.default_rng(26)
        scores, labels = blob_scores(rng, 10, rng.standard_normal((3, 40)), spread=3.0)
        cfg = TrainConfig(
            epochs=3, batch_size=8, learning_rate=1e-2, optimizer="adam", dropout=0.2, seed=27
        )
        got = train(scores, labels, arch, cfg)
        weights, shifts = reference_train(scores, labels, arch, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(got.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(got.shifts, shifts))
        # the values on both sides of the slice boundary and the last one
        # must have moved, or this case checks nothing there
        init = initial_params(arch, np.random.default_rng(np.random.SeedSequence(cfg.seed)))
        moved = np.concatenate([(a != b).ravel() for a, b in zip(
            (*weights, *shifts), (*init.weights, *init.shifts))])
        assert moved[[ADAM_SLICE - 1, ADAM_SLICE, -1]].all()


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
    grid = midpoint_grid(grid_points)
    order = BasisOrder(1)
    phi = design_matrix(order, 2, grid)
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
        cfg = TrainConfig(epochs=20, batch_size=8, learning_rate=1e-2, seed=13)
        result = select(ds, BasisOrder(1), grid, cfg)
        assert result.chosen.as_tuple() == (2, 1, 8, 0.0)
        assert result.validation_errors.shape == (1, 1, 1, 1)

    def test_underfit_versus_fit(self):
        # XOR-style blobs: a single hidden unit cannot separate them,
        # a wide layer can
        rng = np.random.default_rng(14)
        centers1 = [(-8, -8), (8, 8)]
        centers2 = [(-8, 8), (8, -8)]
        grid1d = midpoint_grid(12)
        order = BasisOrder(1)
        phi = design_matrix(order, 2, grid1d)
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
        cfg = TrainConfig(epochs=60, batch_size=16, learning_rate=1e-2, seed=15)
        result = select(ds, order, grid, cfg)
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
        cfg = TrainConfig(epochs=25, batch_size=8, learning_rate=1e-2, seed=17)
        result = select(ds, BasisOrder(1), grid, cfg)
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
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e-2, seed=19)
        a = select(ds, BasisOrder(1), grid, cfg)
        b = select(ds, BasisOrder(1), grid, cfg)
        assert a.chosen == b.chosen
        np.testing.assert_array_equal(a.validation_errors, b.validation_errors)
        assert params_equal(a.final_params, b.final_params)

    def test_final_params_consume_raw_scores(self):
        # the folded-out standardization must classify raw projections well
        rng = np.random.default_rng(20)
        ds = toy_functional_dataset(rng, 30, [(0, 0), (500, 500)])
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(8,), dropouts=(0.0,))
        cfg = TrainConfig(epochs=30, batch_size=8, learning_rate=1e-2, seed=21)
        result = select(ds, BasisOrder(1), grid, cfg)
        from fdnet import project_batch

        scores = project_batch(ds.values, ds.grid, BasisOrder(1), 2)
        pred = classify(result.final_params, scores)
        assert np.mean(pred != ds.labels) <= 0.05

    def test_requires_labels(self):
        rng = np.random.default_rng(22)
        ds = toy_functional_dataset(rng, 10, [(0, 0), (5, 5)])
        ds.labels[0] = 0
        grid = HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            select(ds, BasisOrder(1), grid, TrainConfig(epochs=1, batch_size=4, seed=0))


class TestHyperGrid:
    def test_validation(self):
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(), depths=(1,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(2,), depths=(0,), widths=(4,), dropouts=(0.0,))
        with pytest.raises(DomainError):
            HyperGrid(n_scores=(2,), depths=(1,), widths=(4,), dropouts=(1.0,))

    def test_cell_enumeration(self):
        grid = HyperGrid(n_scores=(1, 2), depths=(1,), widths=(4, 8), dropouts=(0.0,))
        assert grid.n_cells == 4
        assert list(grid.cells())[0] == (1, 1, 4, 0.0)
