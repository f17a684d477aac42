"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The image-classification criterion needs the real IDX files
(directory given by the MNIST_DIR environment variable, or data/mnist/
under the repository root); without them it skips and the surrounding
machinery is exercised end-to-end on bundled synthetic digit rasters at
the same grid cell.

Benchmark protocols: the dense-sampling candidate grids scale with the
training size n (J around n^(1/3), widths around n^(1/2), depth 2-3) and
the sparse-sampling grids scale the same way with the sampling frequency
m, following the discrete-observation theory that drives the phase
transition the fourth criterion checks.
"""

import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import fdnet
from fdnet import (
    AliasingWarning,
    Architecture,
    FormatError,
    Grid,
    HyperGrid,
    TrainConfig,
    backward,
    bayes_error_mc,
    benchmark,
    evaluate,
    forward,
    generate_dataset,
    get_model,
    gram_matrix,
    initial_params,
    predict,
    select,
    truncated_kl_risk,
)
from fdnet.cli import main
from fdnet.dataio import save_dataset
from fdnet.idx import load_idx
from synth_digits import write_idx_pair

warnings.filterwarnings("ignore", category=AliasingWarning)

WORKERS = 2

# Monte-Carlo Bayes error of the 2d-gaussian score model (equal priors),
# derived from the exact class densities with 100002 draws before the
# pipeline was built; estimator standard error about 0.0009.
PINNED_BAYES_ERROR = 0.09333

DENSE_GRID = HyperGrid(n_scores=(5, 10), depths=(2, 3), widths=(32, 64), dropouts=(0.01, 0.1, 0.5))
SPARSE_GRID_M9 = HyperGrid(n_scores=(1, 2), depths=(2,), widths=(3, 6), dropouts=(0.01, 0.1, 0.5))
BENCH_CFG = TrainConfig(epochs=100, batch_size=32, learning_rate=1e-3)


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _input_clear_of_kinks(params, arch, rng, margin=1e-3):
    """Draw an input whose pre-activations stay away from the ReLU kinks;
    finite differences are only a valid derivative oracle at
    differentiable points, and an h=1e-5 step must not cross a kink."""
    x = None
    for _ in range(100):
        x = rng.standard_normal(arch.input_dim)
        a, pre_relu = x[None, :], []
        for w, v in zip(params.weights, params.shifts):
            h = a @ w.T
            h -= v
            pre_relu.append(h)
            a = np.maximum(h, 0.0)
        if all(np.abs(h).min() > margin for h in pre_relu):
            return x
    return x


def test_c1_gradient_correctness():
    rng = np.random.default_rng(20240601)
    h = 1e-5
    worst = 0.0
    for trial in range(100):
        arch = Architecture(
            input_dim=int(rng.integers(2, 9)),
            hidden_widths=tuple(int(w) for w in rng.integers(2, 9, size=rng.integers(1, 4))),
            n_classes=int(rng.integers(2, 5)),
        )
        params = initial_params(arch, np.random.default_rng(1000 + trial))
        x = _input_clear_of_kinks(params, arch, rng)
        label = int(rng.integers(1, arch.n_classes + 1))
        grads = backward(params, x[None, :], np.eye(arch.n_classes)[[label - 1]])
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
                    fd = (up - down) / (2 * h)
                    # denominator floor absorbs the finite-difference roundoff
                    # (eps/h ~ 2e-11) on dead-unit coordinates with zero gradient
                    worst = max(worst, abs(g[i] - fd) / max(abs(g[i]) + abs(fd), 1e-3))
    report(1, worst <= 1e-5, f"max relative gradient error {worst:.3e} over 100 networks (limit 1e-5)")


def test_c2_basis_orthonormality():
    dev50 = np.abs(gram_matrix(9, Grid((50, 50))) - np.eye(9)).max()
    dev100 = np.abs(gram_matrix(9, Grid((100, 100))) - np.eye(9)).max()
    # both grids resolve the first 9 elements exactly, so the deviations sit
    # at the accumulation roundoff floor; non-increase is judged above it
    ok = dev50 <= 1e-3 and (dev100 <= dev50 or dev100 <= 1e-12)
    report(2, ok, f"max |Gram - I| = {dev50:.2e} at 50x50, {dev100:.2e} at 100x100")


def test_c3_benchmark_2d_gaussian():
    grid = HyperGrid(n_scores=(5, 10), depths=(2, 3), widths=(32, 64), dropouts=(0.01, 0.1))
    rep = benchmark(
        get_model("2d-gaussian"), 200, 100, grid, BENCH_CFG,
        replicates=10, seed=42, workers=WORKERS,
    )
    ok = 0.10 <= rep.mean_error <= 0.21
    report(
        3,
        ok,
        f"2d-gaussian n_k=200 m=100: mean error {rep.mean_error:.4f} "
        f"(sd {rep.sd:.4f}) over 10 replicates, required within [0.10, 0.21]",
    )


def test_c4_phase_transition():
    model = get_model("2d-mixed1")
    arms = {}
    for m, grid in ((9, SPARSE_GRID_M9), (100, DENSE_GRID), (400, DENSE_GRID)):
        rep = benchmark(
            model, 350, m, grid, BENCH_CFG, replicates=10, seed=43, workers=WORKERS
        )
        arms[m] = rep.mean_error
    gap = arms[9] - arms[100]
    flat = abs(arms[100] - arms[400])
    ok = gap > 0.04 and flat < 0.03
    report(
        4,
        ok,
        f"2d-mixed1 n_k=350: err {arms[9]:.4f} (m=9) -> {arms[100]:.4f} (m=100) -> "
        f"{arms[400]:.4f} (m=400); sparse-dense gap {gap:.4f} (> 0.04), "
        f"dense flatness {flat:.4f} (< 0.03)",
    )


def test_c5_benchmark_3d_gaussian():
    grid = HyperGrid(n_scores=(9, 18), depths=(2, 3), widths=(32, 64), dropouts=(0.01, 0.1))
    rep = benchmark(
        get_model("3d-gaussian"), 200, 125, grid, BENCH_CFG,
        replicates=10, seed=44, workers=WORKERS,
    )
    ok = 0.09 <= rep.mean_error <= 0.20
    report(
        5,
        ok,
        f"3d-gaussian n_k=200 m=125: mean error {rep.mean_error:.4f} "
        f"(sd {rep.sd:.4f}) over 10 replicates, required within [0.09, 0.20]",
    )


def test_c6_bayes_oracle_consistency():
    model = get_model("2d-gaussian")
    oracle = bayes_error_mc(model, 100_000, seed=202)
    assert abs(oracle - PINNED_BAYES_ERROR) < 0.005, "oracle drifted from the pinned reference"
    train_ds = generate_dataset(model, 700, m=400, seed=1234, subset="train")
    test_ds = generate_dataset(model, 300, m=400, seed=1234, subset="test")
    result = select(train_ds, BENCH_CFG, DENSE_GRID, 0)
    err = evaluate(result.classifier, test_ds)[0]
    ok = err <= PINNED_BAYES_ERROR + 0.05
    report(
        6,
        ok,
        f"2d-gaussian n_k=700 m=400: network error {err:.4f} vs Bayes "
        f"{PINNED_BAYES_ERROR:.4f} (Monte-Carlo check {oracle:.4f}); "
        f"excess {err - PINNED_BAYES_ERROR:.4f} (limit 0.05)",
    )


def test_c7_truncated_kl_properties():
    rng = np.random.default_rng(20240603)
    p = rng.dirichlet(np.full(4, 0.5), size=1000)
    q = rng.dirichlet(np.full(4, 0.5), size=1000)

    at_equality = abs(truncated_kl_risk(p, p, 2.0))
    caps = [2.0, 2.5, 3.0, 4.0, 8.0]
    curve = [truncated_kl_risk(p, q, c) for c in caps]
    monotone = all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))

    # cap case: when pihat_k <= exp(-c0) pi_k the contribution is exactly pi_k c0
    true_p = np.array([[1.0, 0.0, 0.0]])
    est_p = np.array([[np.exp(-3.0), 0.5 * (1 - np.exp(-3.0)), 0.5 * (1 - np.exp(-3.0))]])
    cap_exact = truncated_kl_risk(true_p, est_p, 2.0) == 2.0
    mixed_true = np.array([[0.4, 0.6]])
    mixed_est = np.array([[0.4 * np.exp(-2.5), 1.0 - 0.4 * np.exp(-2.5)]])
    expected = 0.4 * 2.0 + 0.6 * np.log(0.6 / float(mixed_est[0, 1]))
    cap_exact &= abs(truncated_kl_risk(mixed_true, mixed_est, 2.0) - expected) < 1e-14

    ok = at_equality <= 1e-12 and monotone and cap_exact
    report(
        7,
        ok,
        f"truncated KL: |risk(p,p)| = {at_equality:.1e} (<= 1e-12), monotone over caps "
        f"{caps} on 1000 pairs: {monotone}, cap case exact: {cap_exact}",
    )


def _find_mnist():
    candidates = []
    env = os.environ.get("MNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    names = {
        "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
        "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
        "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
        "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
    }
    for base in candidates:
        found = {}
        for key, variants in names.items():
            for v in variants:
                for suffix in ("", ".gz"):
                    path = base / (v + suffix)
                    if path.exists():
                        found[key] = path
                        break
                if key in found:
                    break
        if len(found) == 4:
            return found
    return None


MNIST_CELL = HyperGrid(n_scores=(500,), depths=(3,), widths=(1000,), dropouts=(0.01,))


def _digits_accuracy(train_ds, test_ds, epochs):
    cfg = TrainConfig(epochs=epochs, batch_size=128, learning_rate=1e-3)
    result = select(train_ds, cfg, MNIST_CELL, 6)
    return float(np.mean(predict(result.classifier, test_ds)[0] == test_ds.labels)), result.chosen


def _subset(ds, n):
    from fdnet import Dataset

    return Dataset(values=ds.values[:n], grid=ds.grid, labels=ds.labels[:n], n_classes=ds.n_classes)


def test_c8_image_classification():
    paths = _find_mnist()
    if paths is None:
        pytest.skip(
            "criterion 8 needs the real handwritten-digit IDX files, which this "
            "environment cannot download; point MNIST_DIR at a directory with "
            "train-images-idx3-ubyte(.gz) etc. to run it (the identical pipeline "
            "is exercised on synthetic rasters by test_c8_pipeline_on_synthetic_digits)"
        )
    train_ds = _subset(load_idx(paths["train_images"], paths["train_labels"]), 10_000)
    test_ds = _subset(load_idx(paths["test_images"], paths["test_labels"]), 2_000)
    acc, chosen = _digits_accuracy(train_ds, test_ds, epochs=12)
    ok = acc >= 0.90
    report(8, ok, f"10k/2k handwritten digits at cell {chosen.as_tuple()}: accuracy {acc:.4f} (>= 0.90)")


def test_c8_pipeline_on_synthetic_digits(tmp_path):
    # not the criterion itself (that needs the real data): the same code
    # path, grid cell, and threshold on bundled synthetic digit rasters
    train_dir = tmp_path / "train"
    test_dir = tmp_path / "test"
    train_dir.mkdir()
    test_dir.mkdir()
    img, lab = write_idx_pair(train_dir, 10_000, seed=60)
    timg, tlab = write_idx_pair(test_dir, 2_000, seed=61)
    train_ds = load_idx(img, lab)
    test_ds = load_idx(timg, tlab)
    acc, chosen = _digits_accuracy(train_ds, test_ds, epochs=4)
    ok = acc >= 0.90
    print(
        f"\n[{'PASS' if ok else 'FAIL'}] criterion 8 pipeline exercise (synthetic digits): "
        f"10k/2k at cell {chosen.as_tuple()}: accuracy {acc:.4f} (>= 0.90)"
    )
    assert ok


def test_c9_cli_determinism(tmp_path):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"J": [4], "L": [1], "width": [8], "dropout": [0.0]}))
    img, lab = write_idx_pair(tmp_path, 120, seed=70)

    def run_all(tag):
        d = tmp_path / tag
        d.mkdir()
        data = d / "data.mfd"
        model = d / "model.json"
        pred = d / "pred.csv"
        bench = d / "bench.csv"
        bench2 = d / "bench2.csv"
        digits = d / "digits.json"
        dump = d / "dump.csv"
        assert main(["simulate", "--model", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--test-nk", "6", "--seed", "7", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--grid", str(grid_path),
                     "--epochs", "5", "--batch", "8", "--lr", "0.01", "--seed", "3",
                     "--out", str(model)]) == 0
        assert main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(pred)]) == 0
        assert main(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--reps", "2", "--grid", str(grid_path), "--seed", "5",
                     "--test-nk", "6", "--epochs", "5", "--batch", "8",
                     "--workers", "1", "--out", str(bench)]) == 0
        assert main(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--reps", "2", "--grid", str(grid_path), "--seed", "5",
                     "--test-nk", "6", "--epochs", "5", "--batch", "8",
                     "--workers", "2", "--out", str(bench2)]) == 0
        assert main(["mnist", "--images", str(img), "--labels", str(lab),
                     "--grid", str(grid_path), "--seed", "4", "--epochs", "5",
                     "--batch", "16", "--out", str(digits)]) == 0
        assert main(["export-csv", "--data", str(data), "--out", str(dump)]) == 0
        return {p.name: p.read_bytes() for p in (data, d / "data.test.mfd", model, pred, bench, bench2, digits, dump)}

    first = run_all("run1")
    second = run_all("run2")
    identical = {name: first[name] == second[name] for name in first}
    parallel_match = first["bench.csv"] == first["bench2.csv"]
    ok = all(identical.values()) and parallel_match
    report(
        9,
        ok,
        f"CLI reruns byte-identical for {sorted(identical)} "
        f"and parallel benchmark matches serial: {parallel_match}",
    )


def test_c10_format_robustness(tmp_path):
    from fdnet.dataio import load_dataset

    ds = generate_dataset(get_model("2d-gaussian"), 6, m=9, seed=7)
    base = tmp_path / "base.mfd"
    save_dataset(ds, base)
    dataset_bytes = base.read_bytes()

    img, lab = write_idx_pair(tmp_path, 8, seed=71)
    image_bytes = img.read_bytes()
    label_bytes = lab.read_bytes()

    # round-trip bit-exactness
    loaded = load_dataset(base)
    roundtrip_ok = np.array_equal(loaded.values, ds.values) and np.array_equal(
        loaded.labels, ds.labels
    )

    rng = np.random.default_rng(20240604)
    crashes = 0
    cases = 0

    def mutate(blob):
        blob = bytearray(blob)
        kind = rng.integers(3)
        if kind == 0 and len(blob) > 1:  # truncate
            return bytes(blob[: rng.integers(0, len(blob))])
        if kind == 1:  # corrupt one byte
            pos = rng.integers(0, len(blob))
            blob[pos] ^= int(rng.integers(1, 256))
            return bytes(blob)
        return bytes(blob) + rng.bytes(int(rng.integers(1, 16)))  # trailing junk

    target = tmp_path / "fuzz.bin"
    for _ in range(600):
        cases += 1
        target.write_bytes(mutate(dataset_bytes))
        try:
            load_dataset(target)
        except FormatError:
            pass
        except Exception:
            crashes += 1

    timg = tmp_path / "fuzz_images.bin"
    tlab = tmp_path / "fuzz_labels.bin"
    for i in range(400):
        cases += 1
        if i % 2 == 0:
            timg.write_bytes(mutate(image_bytes))
            tlab.write_bytes(label_bytes)
        else:
            timg.write_bytes(image_bytes)
            tlab.write_bytes(mutate(label_bytes))
        try:
            load_idx(timg, tlab)
        except FormatError:
            pass
        except Exception:
            crashes += 1

    ok = roundtrip_ok and crashes == 0
    report(
        10,
        ok,
        f"round-trips bit-exact: {roundtrip_ok}; {cases} fuzz cases, "
        f"{crashes} unstructured failures (required 0)",
    )


@pytest.mark.extended
def test_extended_full_mnist_accuracy():
    paths = _find_mnist()
    if paths is None:
        pytest.skip("full handwritten-digit run needs the real IDX files (set MNIST_DIR)")
    train_ds = load_idx(paths["train_images"], paths["train_labels"])
    test_ds = load_idx(paths["test_images"], paths["test_labels"])
    acc, _ = _digits_accuracy(train_ds, test_ds, epochs=30)
    print(f"\n[INFO] extended full-data digits accuracy: {acc:.4f} (target >= 0.97)")
    assert acc >= 0.97


@pytest.mark.extended
def test_extended_selection_recovers_published_cell():
    paths = _find_mnist()
    if paths is None:
        pytest.skip("grid-selection reproduction needs the real IDX files (set MNIST_DIR)")
    train_ds = load_idx(paths["train_images"], paths["train_labels"])
    grid = HyperGrid(
        n_scores=(300, 500, 800),
        depths=(2, 3, 4),
        widths=(500, 1000, 2000),
        dropouts=(0.01, 0.1, 0.5),
    )
    cfg = TrainConfig(epochs=30, batch_size=128, learning_rate=1e-3)
    result = select(train_ds, cfg, grid, 8)
    print(f"\n[INFO] extended selection chose {result.chosen.as_tuple()}")
    assert result.chosen.as_tuple() == (500, 3, 1000, 0.01)
