import json

import numpy as np
import pytest

from fdnet.cli import main
from synth_digits import write_idx_pair


def grid_file(tmp_path, doc=None):
    path = tmp_path / "grid.json"
    doc = doc or {"J": [4], "L": [1], "width": [8], "dropout": [0.0]}
    path.write_text(json.dumps(doc))
    return str(path)


def simulate(tmp_path, name="data.mfd", nk=12, m=9, seed=7, test_nk=0):
    out = tmp_path / name
    argv = [
        "simulate", "--model", "2d-gaussian", "--nk", str(nk), "--m", str(m),
        "--seed", str(seed), "--out", str(out),
    ]
    if test_nk:
        argv += ["--test-nk", str(test_nk)]
    assert main(argv) == 0
    return out


class TestSimulate:
    def test_reruns_byte_identical(self, tmp_path):
        a = simulate(tmp_path, "a.mfd")
        b = simulate(tmp_path, "b.mfd")
        assert a.read_bytes() == b.read_bytes()

    def test_writes_test_set(self, tmp_path):
        simulate(tmp_path, "data.mfd", test_nk=5)
        assert (tmp_path / "data.test.mfd").exists()

    def test_refused_test_size_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "data.mfd"
        code = main(["simulate", "--model", "2d-gaussian", "--nk", "5", "--m", "9",
                     "--test-nk", "-1", "--seed", "1", "--out", str(out)])
        assert code == 1
        assert "n_per_class must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_model_exits_1(self, tmp_path, capsys):
        code = main(["simulate", "--model", "nope", "--nk", "5", "--m", "9",
                     "--seed", "1", "--out", str(tmp_path / "x.mfd")])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestTrainPredictEval:
    def test_full_flow(self, tmp_path, capsys):
        data = simulate(tmp_path, nk=15)
        model_path = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                     "--epochs", "20", "--batch", "8", "--lr", "0.01",
                     "--seed", "3", "--out", str(model_path)]) == 0
        assert model_path.exists()

        pred_path = tmp_path / "pred.csv"
        assert main(["predict", "--model", str(model_path), "--data", str(data),
                     "--out", str(pred_path)]) == 0
        lines = pred_path.read_text().strip().split("\n")
        assert lines[0] == "index,predicted,p1,p2,p3"
        assert len(lines) == 1 + 45

        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--c0", "2.0"]) == 0
        out = capsys.readouterr().out
        assert "error rate:" in out
        assert "confusion matrix" in out
        assert "truncated cross-entropy" in out

    def test_train_reruns_byte_identical(self, tmp_path):
        data = simulate(tmp_path)
        outs = []
        for name in ("m1.json", "m2.json"):
            path = tmp_path / name
            assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                         "--epochs", "5", "--batch", "8", "--lr", "0.01",
                         "--seed", "9", "--out", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_numeric_failure_exits_2(self, tmp_path):
        data = simulate(tmp_path)
        code = main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                     "--epochs", "5", "--batch", "8", "--lr", "1e300",
                     "--seed", "3", "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_corrupt_data_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.mfd"
        bad.write_bytes(b"XXXXX not a dataset")
        code = main(["train", "--data", str(bad), "--grid", grid_file(tmp_path),
                     "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "magic" in capsys.readouterr().err


class TestMalformedInputs:
    """Each input here once escaped `main` as a raw traceback."""

    def test_model_json_list_exits_1(self, tmp_path, capsys):
        data = simulate(tmp_path)
        model = tmp_path / "model.json"
        model.write_text("[1, 2, 3]")
        code = main(["predict", "--model", str(model), "--data", str(data),
                     "--out", str(tmp_path / "p.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "not a model file" in err
        assert "Traceback" not in err

    def test_grid_json_number_exits_1(self, tmp_path, capsys):
        data = simulate(tmp_path)
        grid = tmp_path / "grid.json"
        grid.write_text("5")
        code = main(["train", "--data", str(data), "--grid", str(grid),
                     "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "JSON object" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train", "eval", "mnist"])
    def test_empty_dataset_exits_1(self, tmp_path, capsys, command):
        import struct

        from fdnet import Dataset, midpoint_grid
        from fdnet.dataio import save_dataset

        empty = tmp_path / "empty.mfd"
        save_dataset(
            Dataset(values=np.zeros((0, 9)), grid=midpoint_grid(9),
                    labels=np.zeros(0, dtype=np.int64), n_classes=3),
            empty,
        )
        if command == "train":
            argv = ["train", "--data", str(empty), "--grid", grid_file(tmp_path),
                    "--seed", "1", "--out", str(tmp_path / "m.json")]
        elif command == "mnist":
            images, labels = tmp_path / "images", tmp_path / "labels"
            images.write_bytes(struct.pack(">IIII", 0x803, 0, 28, 28))
            labels.write_bytes(struct.pack(">II", 0x801, 0))
            argv = ["mnist", "--images", str(images), "--labels", str(labels),
                    "--grid", grid_file(tmp_path), "--seed", "1",
                    "--out", str(tmp_path / "m.json")]
        else:
            data = simulate(tmp_path)
            model = tmp_path / "m.json"
            assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                         "--epochs", "2", "--batch", "8", "--seed", "1",
                         "--out", str(model)]) == 0
            capsys.readouterr()
            argv = ["eval", "--model", str(model), "--data", str(empty)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "no samples" in err
        assert "Traceback" not in err

    def test_model_json_infinite_integer_exits_1(self, tmp_path, capsys):
        # and every other value that is not a JSON integer (widths, shapes,
        # grid_shape) or number (array data); none of them may be coerced
        from fdnet import Architecture, initial_params
        from fdnet.dataio import save_model

        data = simulate(tmp_path)
        model, out = tmp_path / "model.json", tmp_path / "p.csv"
        save_model(initial_params(Architecture(4, (8,), 3), np.random.default_rng(0)), model,
                   metadata={"grid_shape": [3, 3]})
        good = json.loads(model.read_text())
        edits = [
            # float("inf") is written as the bare token Infinity
            lambda d: d["architecture"].update(input_dim=float("inf")),
            lambda d: d["architecture"].update(input_dim="4"),
            lambda d: d["architecture"].update(input_dim=4.5),
            lambda d: d["architecture"].update(hidden_widths=["8"]),
            lambda d: d["architecture"].update(n_classes=True),
            lambda d: d["weights"][0].update(shape=["8", 4]),
            lambda d: d["shifts"][0]["data"].__setitem__(0, "0.5"),
            lambda d: d["shifts"][0]["data"].__setitem__(0, True),
            lambda d: d["shifts"][0]["data"].__setitem__(0, None),
            lambda d: d["metadata"].update(grid_shape=["3", 3]),
        ]
        for i, edit in enumerate(edits):
            doc = json.loads(json.dumps(good))
            edit(doc)
            model.write_text(json.dumps(doc))
            code = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
            assert code == 1, i
            err = capsys.readouterr().err
            assert "malformed model document" in err or "grid_shape" in err, i
            assert "Traceback" not in err
            assert not out.exists(), i

    def test_grid_json_infinite_integer_exits_1(self, tmp_path, capsys):
        # and every other value that is not a JSON integer (J, L, width) or
        # number (dropout); none of them may be coerced into a grid
        data = simulate(tmp_path)
        grid = tmp_path / "grid.json"
        for doc in (
            '{"J": [Infinity], "L": [1], "width": [4], "dropout": [0.0]}',
            '{"J": [1.7], "L": [1], "width": [4], "dropout": [0.0]}',
            '{"J": [true], "L": [1], "width": ["4"], "dropout": [false]}',
            '{"J": [2], "L": [1.0], "width": [4], "dropout": [0.0]}',
            '{"J": [2], "L": [1], "width": [4], "dropout": ["0.1"]}',
            '{"J": [2], "L": "12", "width": [4], "dropout": [0.0]}',
        ):
            grid.write_text(doc)
            code = main(["train", "--data", str(data), "--grid", str(grid), "--epochs", "1",
                         "--batch", "8", "--seed", "1", "--out", str(tmp_path / "m.json")])
            assert code == 1, doc
            err = capsys.readouterr().err
            assert "malformed hyperparameter grid" in err
            assert "Traceback" not in err
        assert not (tmp_path / "m.json").exists()


    @pytest.mark.parametrize("command", ["simulate", "train", "benchmark", "mnist"])
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        if command == "simulate":
            argv = ["simulate", "--model", "2d-gaussian", "--nk", "5", "--m", "9",
                    "--out", str(tmp_path / "d.mfd")]
        elif command == "train":
            argv = ["train", "--data", str(simulate(tmp_path)), "--grid", grid_file(tmp_path),
                    "--out", str(tmp_path / "m.json")]
        elif command == "benchmark":
            argv = ["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                    "--reps", "1", "--grid", grid_file(tmp_path), "--epochs", "1",
                    "--out", str(tmp_path / "r.csv")]
        else:
            img, lab = write_idx_pair(tmp_path, 100, seed=1)
            argv = ["mnist", "--images", str(img), "--labels", str(lab),
                    "--grid", grid_file(tmp_path), "--epochs", "1",
                    "--out", str(tmp_path / "m.json")]
        capsys.readouterr()
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "non-negative" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--limit", "--test-limit"])
    def test_negative_sample_limit_exits_1(self, tmp_path, capsys, flag):
        img, lab = write_idx_pair(tmp_path, 40, seed=2)
        out = tmp_path / "m.json"
        code = main(["mnist", "--images", str(img), "--labels", str(lab),
                     "--test-images", str(img), "--test-labels", str(lab),
                     "--grid", grid_file(tmp_path), "--seed", "1", "--epochs", "1",
                     "--batch", "8", "--out", str(out), flag, "-39"])
        assert code == 1
        captured = capsys.readouterr()
        assert "limit must be >= 0" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value", [("--c0", "nan"), ("--c0", "inf"), ("--lr", "nan"), ("--lr", "inf")]
    )
    def test_nonfinite_option_exits_1(self, tmp_path, capsys, option, value):
        data = simulate(tmp_path)
        model = tmp_path / "m.json"
        if option == "--c0":
            assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                         "--epochs", "2", "--batch", "8", "--seed", "1",
                         "--out", str(model)]) == 0
            argv = ["eval", "--model", str(model), "--data", str(data)]
        else:
            argv = ["train", "--data", str(data), "--grid", grid_file(tmp_path),
                    "--epochs", "2", "--batch", "8", "--seed", "1", "--out", str(model)]
        capsys.readouterr()
        assert main(argv + [option, value]) == 1
        captured = capsys.readouterr()
        assert "must be a finite number" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


class TestModelDimension:
    """A model refuses data of a dimension or class count it was not trained on."""

    @pytest.fixture
    def model_2d(self, tmp_path):
        data = simulate(tmp_path, nk=15)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                     "--epochs", "5", "--batch", "8", "--seed", "3",
                     "--out", str(model)]) == 0
        return model

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_3d_data_on_2d_model_exits_1(self, tmp_path, capsys, model_2d, command):
        data_3d = tmp_path / "cube.mfd"
        assert main(["simulate", "--model", "3d-gaussian", "--nk", "5", "--m", "8",
                     "--seed", "2", "--out", str(data_3d)]) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        argv = [command, "--model", str(model_2d), "--data", str(data_3d)]
        if command == "predict":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "trained on 2-D data, but the data is 3-D" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("n_classes, c0", [(2, []), (5, ["--c0", "2"])])
    def test_other_class_count_exits_1(self, tmp_path, capsys, model_2d, n_classes, c0):
        from dataclasses import replace

        from fdnet.dataio import load_dataset, save_dataset

        # the 3-class model's own training samples, saved with another K
        data = load_dataset(tmp_path / "data.mfd")
        keep = data.labels <= n_classes
        labels = data.labels[keep] if n_classes == 2 else np.where(data.labels == 3, 5, data.labels)
        other = tmp_path / "other.mfd"
        save_dataset(replace(data, values=data.values[keep], labels=labels, n_classes=n_classes), other)
        capsys.readouterr()
        assert main(["eval", "--model", str(model_2d), "--data", str(other), *c0]) == 1
        captured = capsys.readouterr()
        assert f"the model has 3 classes, but the data has {n_classes}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_other_grid_of_same_dimension_scores(self, tmp_path, capsys, model_2d):
        finer = simulate(tmp_path, "finer.mfd", m=25, seed=8)
        assert main(["eval", "--model", str(model_2d), "--data", str(finer)]) == 0
        assert "error rate:" in capsys.readouterr().out

    def test_model_without_grid_shape_scores(self, tmp_path, model_2d):
        from fdnet.dataio import load_model, save_model

        params, meta = load_model(model_2d)
        assert meta["grid_shape"] == [3, 3]
        bare = tmp_path / "bare.json"
        save_model(params, bare)  # library-saved: no metadata at all
        data = simulate(tmp_path, "other.mfd", seed=9)
        out_bare, out_full = tmp_path / "bare.csv", tmp_path / "full.csv"
        assert main(["predict", "--model", str(bare), "--data", str(data), "--out", str(out_bare)]) == 0
        assert main(["predict", "--model", str(model_2d), "--data", str(data), "--out", str(out_full)]) == 0
        assert out_bare.read_bytes() == out_full.read_bytes()


class TestBenchmarkCommand:
    def test_csv_rows_and_determinism(self, tmp_path):
        args = lambda out, workers: [
            "benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
            "--reps", "3", "--grid", grid_file(tmp_path), "--seed", "5",
            "--test-nk", "6", "--epochs", "5", "--batch", "8",
            "--workers", str(workers), "--out", str(out),
        ]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args(out1, 1)) == 0
        assert main(args(out2, 2)) == 0
        lines = out1.read_text().strip().split("\n")
        assert len(lines) == 1 + 1 + 3  # header, summary, one row per replicate
        assert out1.read_bytes() == out2.read_bytes()  # parallel == serial

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_nonpositive_workers_exits_1(self, tmp_path, capsys, workers):
        out = tmp_path / "r.csv"
        code = main(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--reps", "1", "--grid", grid_file(tmp_path), "--seed", "5",
                     "--epochs", "1", "--batch", "8", "--workers", workers, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "workers must be >= 1" in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestMnistCommand:
    def test_end_to_end_on_synthetic_digits(self, tmp_path, capsys):
        img, lab = write_idx_pair(tmp_path, 300, seed=21)
        test_dir = tmp_path / "t"
        test_dir.mkdir()
        timg, tlab = write_idx_pair(test_dir, 80, seed=22)
        grid = grid_file(tmp_path, {"J": [20], "L": [2], "width": [32], "dropout": [0.01]})
        model_path = tmp_path / "digits.json"
        code = main(["mnist", "--images", str(img), "--labels", str(lab),
                     "--grid", grid, "--seed", "4", "--out", str(model_path),
                     "--test-images", str(timg), "--test-labels", str(tlab),
                     "--epochs", "30", "--batch", "32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "test accuracy" in out
        acc = float(out.split("test accuracy:")[1].split()[0])
        assert acc >= 0.9
        # the printed accuracy is that of the model file written
        from fdnet import evaluate
        from fdnet.dataio import load_model
        from fdnet.idx import load_idx

        err, _, _ = evaluate(load_model(model_path)[0], load_idx(timg, tlab))
        assert f"test accuracy: {1.0 - err:.4f} on 80 samples" in out

    def test_classifies_first_sample_to_a_digit(self, tmp_path):
        from fdnet import classify, project_batch, BasisOrder
        from fdnet.dataio import load_model
        from fdnet.idx import load_idx

        img, lab = write_idx_pair(tmp_path, 200, seed=23)
        grid = grid_file(tmp_path, {"J": [15], "L": [1], "width": [16], "dropout": [0.0]})
        model_path = tmp_path / "digits.json"
        assert main(["mnist", "--images", str(img), "--labels", str(lab),
                     "--grid", grid, "--seed", "6", "--out", str(model_path),
                     "--epochs", "15", "--batch", "32"]) == 0
        params, _ = load_model(model_path)
        test = load_idx(img, lab)
        scores = project_batch(test.values[:1], test.grid, BasisOrder(2), 15)
        digit = classify(params, scores)[0] - 1
        assert 0 <= digit <= 9


class TestUsage:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["simulate", "--bogus", "1"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_export_csv(self, tmp_path):
        data = simulate(tmp_path, nk=3)
        out = tmp_path / "dump.csv"
        assert main(["export-csv", "--data", str(data), "--out", str(out)]) == 0
        assert out.read_text().startswith("index,label,v0")
