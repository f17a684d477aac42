import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest

from fdnet import (
    Architecture,
    DomainError,
    NetworkParams,
    NumericError,
    backward,
    classify,
    forward,
    initial_params,
    truncated_kl_risk,
)
from fdnet.network import PROB_FLOOR, ParamStack, _logits, loss_and_gradient, one_hot, softmax


def random_params(arch, seed):
    return initial_params(arch, np.random.default_rng(seed))


def zero_params(arch):
    return NetworkParams(arch, np.zeros(arch.param_count))


def pre_activations(params, x):
    """The pre-activation a W^T - v of every hidden layer of a batch,
    computed with the operations the network uses."""
    out, a = [], x
    for w, v in zip(params.weights, params.shifts):
        h = a @ w.T
        h -= v
        out.append(h)
        a = np.maximum(h, 0.0)
    return out


def packed(arch, *arrays):
    """The network of `arch` whose W_0..W_L, then v_1..v_L, are `arrays`."""
    return NetworkParams(arch, np.concatenate([np.ravel(a) for a in arrays]))


def gradcheck(params, x, label, h=1e-5):
    """Max relative error of backward against central finite differences."""
    grads = backward(params, x[None, :], np.eye(params.architecture.n_classes)[[label - 1]])
    worst = 0.0
    for arrs, gs in ((params.weights, grads.weights), (params.shifts, grads.shifts)):
        for a, g in zip(arrs, gs):
            it = np.nditer(a, flags=["multi_index"])
            for _ in it:
                i = it.multi_index
                orig = a[i]
                a[i] = orig + h
                up = -np.log(forward(params, x[None, :])[0, label - 1])
                a[i] = orig - h
                down = -np.log(forward(params, x[None, :])[0, label - 1])
                a[i] = orig
                fd = (up - down) / (2.0 * h)
                worst = max(worst, abs(g[i] - fd) / max(abs(g[i]) + abs(fd), 1e-3))
    return worst


class TestForward:
    def test_zero_params_give_uniform(self):
        params = zero_params(Architecture(4, (6,), 3))
        np.testing.assert_allclose(forward(params, np.ones((1, 4))), np.full((1, 3), 1 / 3), atol=1e-15)

    def test_known_softmax_value(self):
        # identity weights, zero shifts, input (1,0,0) -> logits (1,0,0)
        eye = np.eye(3)
        params = packed(Architecture(3, (3,), 3), eye, eye, np.zeros(3))
        probs = forward(params, np.array([[1.0, 0.0, 0.0]]))[0]
        e = math.e
        np.testing.assert_allclose(probs, [e / (e + 2), 1 / (e + 2), 1 / (e + 2)], atol=1e-12)
        assert probs[0] == pytest.approx(0.57612, abs=1e-5)

    def test_probabilities_sum_to_one(self):
        params = random_params(Architecture(6, (9, 7), 4), seed=0)
        x = np.random.default_rng(1).standard_normal((10_000, 6)) * 5
        probs = forward(params, x)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert probs.min() > 0

    def test_invariant_to_logit_shift(self):
        params = random_params(Architecture(5, (8,), 3), seed=2)
        x = np.random.default_rng(3).standard_normal((1, 5))
        logits = _logits(params, x)
        np.testing.assert_allclose(softmax(logits + 123.4), forward(params, x), atol=1e-12)

    def test_shift_sign_convention(self):
        # one unit: relu(w x - v) with w = 1, v = 0.5
        params = packed(Architecture(1, (1,), 2), [[1.0]], [[1.0], [0.0]], [0.5])
        # relu(0.4 - 0.5) = 0 gives equal logits; relu(1.5 - 0.5) = 1 gives (1, 0)
        low, high = forward(params, np.array([[0.4], [1.5]]))
        np.testing.assert_array_equal(low, [0.5, 0.5])
        assert high[0] == pytest.approx(math.e / (math.e + 1.0), abs=1e-15)

    def test_input_width_checked(self):
        params = zero_params(Architecture(4, (3,), 2))
        with pytest.raises(DomainError):
            forward(params, np.ones((2, 5)))

    def test_nonfinite_intermediate_names_layer(self):
        params = zero_params(Architecture(2, (2, 2), 2))
        params.weights[0][:] = 1e308
        with pytest.raises(NumericError, match="hidden layer 1"):
            forward(params, np.array([[1e9, 1e9]]))

    def test_overflow_is_an_error_not_a_warning(self):
        # under `-W error` numpy's overflow warning would replace the NumericError
        params = zero_params(Architecture(2, (2, 2), 2))
        params.weights[0][:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="hidden layer 1"):
                forward(params, np.array([[1e9, 1e9]]))


class TestBatchContract:
    """Inputs are (n, J) batches and labels one-hot (n, K) matrices."""

    def test_one_dimensional_input_refused(self):
        params = random_params(Architecture(3, (4,), 2), seed=14)
        for call in (
            lambda: forward(params, np.ones(3)),
            lambda: classify(params, np.ones(3)),
            lambda: backward(params, np.ones(3), np.array([1.0, 0.0])),
        ):
            with pytest.raises(DomainError, match="batch"):
                call()

    def test_labels_must_be_one_hot_rows(self):
        params = random_params(Architecture(3, (4,), 2), seed=15)
        x = np.ones((2, 3))
        for y in (np.array([1, 2]), 2, np.array([0.0, 1.0]), np.eye(2)[:1], np.eye(3)[:2]):
            with pytest.raises(DomainError, match="one-hot"):
                backward(params, x, y)

    def test_one_hot(self):
        np.testing.assert_array_equal(one_hot([2, 1, 3], 3), np.eye(3)[[1, 0, 2]])
        assert one_hot(np.array([], dtype=np.int64), 2).shape == (0, 2)
        for labels in ([0, 1], [1, 4], [[1, 2]], 2, [1.7, 2.0]):
            with pytest.raises(DomainError):
                one_hot(labels, 3)


class TestCeLoss:
    """Cross-entropy of one-hot truth: `truncated_kl_risk` against `one_hot`
    labels is the mean of -log p_true, each term truncated at c0."""

    def test_perfect_prediction(self):
        assert truncated_kl_risk(one_hot([2], 2), np.array([[0.0, 1.0]])) == 0.0

    def test_uniform_three_way(self):
        loss = truncated_kl_risk(one_hot([1], 3), np.full((1, 3), 1 / 3), 3.0)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)

    def test_clamp_binds(self):
        probs = np.array([[1e-9, 1.0 - 1e-9]])
        assert truncated_kl_risk(one_hot([1], 2), probs, 2.0) == 2.0

    def test_clamp_never_increases(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.dirichlet(np.ones(4))
            label = int(rng.integers(1, 5))
            plain = -math.log(p[label - 1])
            clamped = truncated_kl_risk(one_hot([label], 4), p[None, :], 2.0)
            assert clamped <= plain + 1e-15
            if plain <= 2.0:
                assert clamped == pytest.approx(plain, abs=1e-15)

    def test_zero_probability_flagged(self):
        # the truncation binds instead of an infinite loss, and no warning escapes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert truncated_kl_risk(one_hot([1], 2), np.array([[0.0, 1.0]]), 3.0) == 3.0

    def test_accepts_one_hot(self):
        probs = np.array([[0.25, 0.75], [0.5, 0.5]])
        expected = -(math.log(0.75) + math.log(0.5)) / 2
        assert truncated_kl_risk(one_hot([2, 1], 2), probs) == pytest.approx(expected)

    def test_clamp_validation(self):
        with pytest.raises(DomainError):
            truncated_kl_risk(one_hot([1], 2), np.array([[0.5, 0.5]]), 1.5)

    def test_training_loss_is_that_of_forward(self):
        # training and inference compute the hidden layers alike, so the
        # training loss is the floored cross-entropy of `forward`, bit for bit
        arch = Architecture(5, (7, 6), 3)
        params = random_params(arch, seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((40, 5)) * 100.0
        y = one_hot(rng.integers(1, 4, size=40), 3)
        p_true = (forward(params, x) * y).sum(axis=1)
        assert p_true.min() < PROB_FLOOR < p_true.max()  # the floor binds on some rows
        expected = float(-np.log(np.maximum(p_true, PROB_FLOOR)).mean())
        assert loss_and_gradient(params, x, y) == expected


class TestBackward:
    def test_zero_input_zero_first_gradient(self):
        params = random_params(Architecture(4, (5,), 3), seed=5)
        grads = backward(params, np.zeros((1, 4)), one_hot([2], 3))
        np.testing.assert_array_equal(grads.weights[0], np.zeros_like(params.weights[0]))

    def test_softmax_layer_gradient_closed_form(self):
        # with identity first layer and nonnegative input, the last-layer
        # gradient is exactly outer(p - y, hidden activation)
        eye = np.eye(3)
        params = packed(Architecture(3, (3,), 3), eye, eye, np.zeros(3))
        x = np.array([[0.7, 0.1, 0.0]])
        probs = forward(params, x)
        y = np.array([[0.0, 1.0, 0.0]])
        grads = backward(params, x, y)
        np.testing.assert_array_equal(grads.weights[1], np.outer(probs - y, x))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for trial in range(10):
            arch = Architecture(
                int(rng.integers(2, 7)),
                tuple(rng.integers(2, 7, size=rng.integers(1, 3))),
                int(rng.integers(2, 5)),
            )
            params = random_params(arch, seed=100 + trial)
            # keep pre-activations off the ReLU kinks so the central
            # difference is a valid derivative oracle
            for _ in range(100):
                x = rng.standard_normal(arch.input_dim)
                if all(np.abs(h).min() > 1e-3 for h in pre_activations(params, x[None, :])):
                    break
            label = int(rng.integers(1, arch.n_classes + 1))
            assert gradcheck(params, x, label) <= 1e-5

    def test_dropped_units_get_zero_gradient(self):
        arch = Architecture(4, (6,), 3)
        params = random_params(arch, seed=8)
        x = np.abs(np.random.default_rng(9).standard_normal((1, 4))) + 0.5
        mask = np.ones((1, 6)) / 0.9
        mask[0, 2] = 0.0  # drop unit 3 of the hidden layer
        grads = NetworkParams(arch, np.full(arch.param_count, np.pi))
        loss_and_gradient(params, x, one_hot([1], 3), [mask], grads)
        np.testing.assert_array_equal(grads.shifts[0][2], 0.0)
        np.testing.assert_array_equal(grads.weights[0][2], np.zeros(4))
        assert not np.any(grads.flat == np.pi)  # every entry was written

    def test_stack_rows_are_each_networks(self):
        # stacked matmuls and reductions give each network its own bits
        arch = Architecture(4, (6, 5), 3)
        nets = [random_params(arch, seed=s) for s in (20, 21)]
        stack = ParamStack(arch, np.stack([net.flat for net in nets]))
        rng = np.random.default_rng(22)
        x = rng.standard_normal((2, 9, 4))
        y = np.stack([one_hot(rng.integers(1, 4, size=9), 3) for _ in nets])
        masks = [(rng.random((2, 9, p)) < 0.8) / 0.8 for p in arch.hidden_widths]
        grad = ParamStack(arch, np.zeros_like(stack.flat))
        losses = loss_and_gradient(stack, x, y, masks, grad)
        for g, net in enumerate(nets):
            one = NetworkParams(arch, np.zeros(arch.param_count))
            assert losses[g] == loss_and_gradient(net, x[g], y[g], [m[g] for m in masks], one)
            assert np.array_equal(grad.flat[g], one.flat)

    def test_nonfinite_gradient_raises(self):
        # finite parameters and input, but an infinite hidden activation
        # times a zero output weight gives NaN: a numeric failure
        params = zero_params(Architecture(2, (2,), 2))
        params.weights[0][:] = 1e300
        with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite gradient"):
            backward(params, np.array([[1e10, 1e10]]), one_hot([1], 2))

    def test_batch_gradient_is_mean(self):
        arch = Architecture(3, (4,), 2)
        params = random_params(arch, seed=10)
        rng = np.random.default_rng(11)
        xs = rng.standard_normal((5, 3))
        ys = one_hot(rng.integers(1, 3, size=5), 2)
        batch = backward(params, xs, ys)
        singles = [backward(params, xs[i : i + 1], ys[i : i + 1]) for i in range(5)]
        mean_w0 = np.mean([g.weights[0] for g in singles], axis=0)
        np.testing.assert_allclose(batch.weights[0], mean_w0, atol=1e-14)


class TestParamsValidation:
    def test_nonfinite_rejected(self):
        w = np.ones((2, 2))
        w[0, 0] = np.nan
        with pytest.raises(DomainError):
            packed(Architecture(2, (2,), 2), w, np.ones((2, 2)), np.zeros(2))

    def test_architecture_roundtrip(self):
        arch = Architecture(5, (7, 3), 4)
        assert zero_params(arch).architecture == arch

    @pytest.mark.parametrize(
        "args",
        [(4, (8.7,), 3), (4.5, (8,), 3), (4, (8,), 3.0), (True, (8,), 3), (4, ("8",), 3),
         ("4", (8,), 3), (4, (np.float64(8),), 3)],
    )
    def test_architecture_counts_must_be_integers(self, args):
        with pytest.raises(DomainError, match="must be an integer"):
            Architecture(*args)

    def test_architecture_accepts_numpy_integers(self):
        arch = Architecture(np.int64(4), (np.int32(8),), np.uint8(3))
        assert arch == Architecture(4, (8,), 3)
        assert all(type(w) is int for w in arch.layer_widths())


class TestFlatLayout:
    def test_two_fields(self):
        assert [f.name for f in dataclasses.fields(NetworkParams)] == ["architecture", "flat"]

    def test_weights_then_shifts_row_major(self):
        params = NetworkParams(Architecture(2, (3,), 2), np.arange(15.0))
        (w0, w1), (v,) = params.weights, params.shifts
        np.testing.assert_array_equal(w0, np.arange(6.0).reshape(3, 2))
        np.testing.assert_array_equal(w1, np.arange(6.0, 12.0).reshape(2, 3))
        np.testing.assert_array_equal(v, np.arange(12.0, 15.0))

    def test_initial_params_draws_each_weight_in_layer_order(self):
        arch = Architecture(3, (4, 5), 2)
        rng = np.random.default_rng(14)
        draws = [rng.uniform(-1 / np.sqrt(p), 1 / np.sqrt(p), size=q * p)
                 for p, q in zip(arch.layer_widths(), arch.layer_widths()[1:])]
        expected = np.concatenate([*draws, np.zeros(sum(arch.hidden_widths))])
        np.testing.assert_array_equal(random_params(arch, seed=14).flat, expected)

    def test_views_write_through(self):
        params = random_params(Architecture(3, (4, 5), 2), seed=12)
        for view in (*params.weights, *params.shifts):
            assert np.shares_memory(view, params.flat)
        params.shifts[-1][-1] = 7.0
        assert params.flat[-1] == 7.0
        params.flat[0] = -7.0
        assert params.weights[0][0, 0] == -7.0

    def test_flat_vector_checked(self):
        arch = Architecture(2, (3,), 2)
        size = arch.param_count
        short, single, strided = np.zeros(size - 1), np.zeros(size, np.float32), np.zeros(2 * size)[::2]
        for flat in (short, single, strided, np.full(size, np.nan)):
            with pytest.raises(DomainError):
                NetworkParams(arch, flat)

    def test_copies_keep_the_views(self):
        params = random_params(Architecture(3, (4,), 2), seed=13)
        for clone in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
            assert not np.shares_memory(clone.flat, params.flat)
            np.testing.assert_array_equal(clone.flat, params.flat)
            assert all(np.shares_memory(view, clone.flat) for view in (*clone.weights, *clone.shifts))
