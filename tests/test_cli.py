import base64
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fdnet
from fdnet import Architecture, Classifier, Dataset, Grid, dataio, initial_params
from fdnet.cli import build_parser, main
from fdnet.dataio import load_dataset, load_model, save_dataset, save_model, write_predictions_csv
from fdnet.evaluation import predict
from fdnet.projection import BLOCK_ROWS
from synth_digits import write_idx_pair


def grid_file(tmp_path, doc=None):
    path = tmp_path / "grid.json"
    doc = doc or {"J": [4], "L": [1], "width": [8], "dropout": [0.0]}
    path.write_text(json.dumps(doc))
    return str(path)


def b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


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

    def test_dot_in_a_directory_is_not_an_extension(self, tmp_path, capsys):
        (tmp_path / "run.1").mkdir()
        simulate(tmp_path, "run.1/train", test_nk=5)
        assert sorted(p.name for p in (tmp_path / "run.1").iterdir()) == ["train", "train.test"]
        assert f"to {tmp_path / 'run.1' / 'train.test'}" in capsys.readouterr().out

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

    def test_one_candidate_is_not_validated(self, tmp_path, capsys):
        data = simulate(tmp_path)
        assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                     "--epochs", "2", "--batch", "8", "--seed", "3",
                     "--out", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        assert "chosen J=4 L=1 width=8 dropout=0.0; validation skipped (one candidate);" in out
        assert "validation error" not in out

    def test_candidates_report_the_validation_error(self, tmp_path, capsys):
        data = simulate(tmp_path)
        grid = grid_file(tmp_path, {"J": [4], "L": [1], "width": [4, 8], "dropout": [0.0]})
        assert main(["train", "--data", str(data), "--grid", grid, "--epochs", "2",
                     "--batch", "8", "--seed", "3", "--out", str(tmp_path / "m.json")]) == 0
        out = capsys.readouterr().out
        error = float(out.split("validation error ")[1].split(";")[0])
        assert 0.0 <= error <= 1.0

    def test_batch_beyond_the_fold(self, tmp_path, capsys):
        # 36 samples, a fold of 25: only a grid that trains on the fold refuses 26..36
        data = simulate(tmp_path)
        argv = ["train", "--data", str(data), "--epochs", "1", "--batch", "30",
                "--seed", "3", "--out", str(tmp_path / "m.json")]
        assert main(argv + ["--grid", grid_file(tmp_path)]) == 0
        grid = grid_file(tmp_path, {"J": [4], "L": [1], "width": [4, 8], "dropout": [0.0]})
        assert main(argv + ["--grid", grid]) == 1
        assert "batch_size 30 exceeds the 25 training samples" in capsys.readouterr().err

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

    def test_version_1_model_exits_1(self, tmp_path, capsys):
        # the per-layer layout of format version 1, which is not read
        data = simulate(tmp_path)
        model, out = tmp_path / "model.json", tmp_path / "p.csv"
        model.write_text(
            '{"architecture":{"hidden_widths":[1],"input_dim":1,"n_classes":2},'
            '"format":"fdnet-model","metadata":{"grid_shape":[3,3]},'
            '"shifts":[{"data":[0.0],"shape":[1]}],"version":1,'
            '"weights":[{"data":[0.5],"shape":[1,1]},{"data":[1.0,-1.0],"shape":[2,1]}]}\n'
        )
        code = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "version 1" in err
        assert "Traceback" not in err
        assert not out.exists()

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

        from fdnet import Dataset, Grid
        from fdnet.dataio import save_dataset

        empty = tmp_path / "empty.mfd"
        save_dataset(
            Dataset(values=np.zeros((0, 9)), grid=Grid((9,)),
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
        # and every other value that is not a JSON integer (widths,
        # grid_shape), every params that is not a string of padded base64,
        # and params of whole float64 values of the wrong length or not
        # finite; none of them may be coerced
        from fdnet import Architecture, initial_params
        from fdnet.dataio import save_model
        from fdnet.training import Classifier

        data = simulate(tmp_path)
        model, out = tmp_path / "model.json", tmp_path / "p.csv"
        params = initial_params(Architecture(4, (8,), 3), np.random.default_rng(0))
        save_model(Classifier(params, (3, 3)), model)
        good = json.loads(model.read_text())
        edits = [
            # float("inf") is written as the bare token Infinity
            lambda d: d["architecture"].update(input_dim=float("inf")),
            lambda d: d["architecture"].update(input_dim="4"),
            lambda d: d["architecture"].update(input_dim=4.5),
            lambda d: d["architecture"].update(hidden_widths=["8"]),
            lambda d: d["architecture"].update(n_classes=True),
            # the list of JSON numbers of version 2
            lambda d: d.update(params=params.flat.tolist()),
            lambda d: d.update(params=True),
            lambda d: d.update(params=None),
            lambda d: d.update(params="!" + d["params"][1:]),
            lambda d: d.update(params=d["params"].rstrip("=")),
            # one byte short, one float short, and all NaN
            lambda d: d.update(params=b64(params.flat.tobytes()[:-1])),
            lambda d: d.update(params=b64(params.flat[:-1].tobytes())),
            lambda d: d.update(params=b64(np.full(params.flat.size, np.nan).tobytes())),
            lambda d: d.update(grid_shape=["3", 3]),
        ]
        for i, edit in enumerate(edits):
            doc = json.loads(json.dumps(good))
            edit(doc)
            model.write_text(json.dumps(doc))
            code = main(["predict", "--model", str(model), "--data", str(data), "--out", str(out)])
            assert code == 1, i
            err = capsys.readouterr().err
            assert "malformed model document" in err, i
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

    @pytest.mark.parametrize("doc, message", [
        ({"J": [10**15], "L": [1], "width": [4], "dropout": [0.0]}, "Unable to allocate"),  # the (n, J) scores
        ({"J": [4], "L": [1], "width": [10**12], "dropout": [0.0]}, "Unable to allocate"),  # the parameters
        # more floats than one numpy array can hold: refused before allocating
        ({"J": [2**62], "L": [1], "width": [4], "dropout": [0.0]}, "too large for one numpy array"),
        ({"J": [4], "L": [1], "width": [2**62], "dropout": [0.0]}, "too large for one numpy array"),
        # depths whose tuple of L widths could not be built
        ({"J": [4], "L": [2**62], "width": [4], "dropout": [0.0]}, "too large for one numpy array"),
        ({"J": [4], "L": [2**63], "width": [4], "dropout": [0.0]}, "too large for one numpy array"),
    ], ids=["J", "width", "J-beyond-one-array", "width-beyond-one-array", "L-beyond-memory",
            "L-beyond-an-index"])
    def test_grid_too_large_for_memory_exits_1(self, tmp_path, capsys, doc, message):
        data, out = simulate(tmp_path, nk=20), tmp_path / "m.json"
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--grid", grid_file(tmp_path, doc),
                     "--epochs", "1", "--seed", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err
        assert not out.exists()

    def test_grid_of_too_many_cells_exits_1(self, tmp_path, capsys):
        # four lists of 2**16 entries make 2**64 cells, whose validation
        # errors no numpy array can hold: refused before any stream is spawned
        data, out = simulate(tmp_path, nk=10), tmp_path / "m.json"
        doc = {"J": [1] * 2**16, "L": [1] * 2**16, "width": [1] * 2**16, "dropout": [0.0] * 2**16}
        capsys.readouterr()
        code = main(["train", "--data", str(data), "--grid", grid_file(tmp_path, doc),
                     "--epochs", "1", "--seed", "1", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: too large for one numpy array")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, option", [
        ("simulate", "--nk"), ("simulate", "--test-nk"),
        ("benchmark", "--nk"), ("benchmark", "--test-nk"), ("benchmark", "--reps"),
    ])
    @pytest.mark.parametrize("value", [2**60, 2**63, 10**20])
    def test_size_too_large_for_one_array_exits_1(self, tmp_path, capsys, command, option, value):
        # refused before any data is drawn, any replicate runs or any file is written
        out = tmp_path / "out"
        if command == "simulate":
            options = {"--model": "2d-gaussian", "--nk": "5", "--m": "9", "--seed": "1"}
        else:
            options = {"--model-id": "2d-gaussian", "--nk": "6", "--m": "9", "--reps": "1",
                       "--grid": grid_file(tmp_path), "--seed": "1", "--test-nk": "3", "--epochs": "1",
                       "--batch": "8"}
        options.update({option: str(value), "--out": str(out)})
        code = main([command, *(token for pair in options.items() for token in pair)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: too large for one numpy array")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == (["grid.json"] if command == "benchmark" else [])

    @pytest.mark.parametrize("command", ["predict", "train"])
    @pytest.mark.parametrize("text", [
        b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000, b'{"J": [' + b"1" * 5000 + b"]}",
    ], ids=["not-utf-8", "nested-too-deep", "integer-of-5000-digits"])
    def test_json_the_parser_refuses_exits_1(self, tmp_path, capsys, command, text):
        data, bad, out = simulate(tmp_path), tmp_path / "bad.json", tmp_path / "out"
        bad.write_bytes(text)
        capsys.readouterr()
        if command == "predict":
            argv = ["predict", "--model", str(bad), "--data", str(data), "--out", str(out)]
            what = "model file"
        else:
            argv = ["train", "--data", str(data), "--grid", str(bad), "--epochs", "1", "--batch", "8",
                    "--seed", "1", "--out", str(out)]
            what = "hyperparameter grid"
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} is not valid JSON")
        assert "Traceback" not in err
        assert not out.exists()

    def test_bare_memory_error_exits_1_with_a_message(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args):
            raise MemoryError

        monkeypatch.setattr("fdnet.cli.select", no_memory)
        code = main(["train", "--data", str(simulate(tmp_path)), "--grid", grid_file(tmp_path),
                     "--seed", "1", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert capsys.readouterr().err == "error: out of memory\n"

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

    @pytest.mark.parametrize("given", ["--test-images", "--test-labels"])
    def test_half_a_test_pair_exits_1(self, tmp_path, capsys, given):
        # refused before any file is read: none of these files exists
        missing, out = str(tmp_path / "missing.idx"), tmp_path / "m.json"
        capsys.readouterr()
        code = main(["mnist", "--images", missing, "--labels", missing, given, missing,
                     "--grid", missing, "--seed", "1", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "--test-images and --test-labels must be given together" in captured.err
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


@pytest.fixture
def model_2d(tmp_path):
    """A 3-class model trained on tmp_path / "data.mfd", 2-D data on a 3x3 grid."""
    data = simulate(tmp_path, nk=15)
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(data), "--grid", grid_file(tmp_path),
                 "--epochs", "5", "--batch", "8", "--seed", "3",
                 "--out", str(model)]) == 0
    return model


class TestModelDimension:
    """A model refuses data of a dimension or class count it was not trained on."""

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

    def test_library_saved_model_records_grid_shape(self, tmp_path, model_2d):
        from fdnet.dataio import load_model, save_model

        model = load_model(model_2d)
        assert json.loads(model_2d.read_text())["grid_shape"] == [3, 3] and model.grid_shape == (3, 3)
        bare = tmp_path / "bare.json"
        save_model(model, bare)  # library-saved: no caller metadata at all
        doc = json.loads(bare.read_text())
        assert doc["metadata"] == {} and doc["grid_shape"] == [3, 3]
        data = simulate(tmp_path, "other.mfd", seed=9)
        out_bare, out_full = tmp_path / "bare.csv", tmp_path / "full.csv"
        assert main(["predict", "--model", str(bare), "--data", str(data), "--out", str(out_bare)]) == 0
        assert main(["predict", "--model", str(model_2d), "--data", str(data), "--out", str(out_full)]) == 0
        assert out_bare.read_bytes() == out_full.read_bytes()

    def test_model_without_grid_shape_exits_1(self, tmp_path, capsys, model_2d):
        doc = json.loads(model_2d.read_text())
        del doc["grid_shape"]
        bare, out = tmp_path / "bare.json", tmp_path / "p.csv"
        bare.write_text(json.dumps(doc))
        data = simulate(tmp_path, "other.mfd", seed=9)
        capsys.readouterr()
        assert main(["predict", "--model", str(bare), "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "grid_shape" in err
        assert "Traceback" not in err
        assert not out.exists()


def random_file(path, n, grid_shape=(3, 3)):
    """A file of n labeled 3-class samples of random values."""
    rng = np.random.default_rng(n)
    grid = Grid(grid_shape)
    save_dataset(Dataset(values=rng.standard_normal((n, grid.m)), grid=grid,
                         labels=rng.integers(1, 4, n), n_classes=3), path)
    return path


class TestBlockedCommands:
    """`train`, `predict` and `eval` read, check and score the file one row
    block at a time; a fault in a later block still exits without a file or
    stdout."""

    N = 2 * BLOCK_ROWS + 3  # two blocks
    HEADER, RECORD = 33, 1 + 8 * 9  # a 2-D file's header, one 3x3 sample

    def _argv(self, command, model, data, out):
        if command == "train":  # `out` is the model file it would write
            return ["train", "--data", str(data), "--grid", grid_file(out.parent),
                    "--epochs", "1", "--seed", "1", "--out", str(out)]
        argv = [command, "--model", str(model), "--data", str(data)]
        return argv + ["--out", str(out)] if command == "predict" else argv

    def test_same_csv_as_the_library_on_a_loaded_dataset(self, tmp_path, model_2d):
        data = random_file(tmp_path / "blocks.mfd", self.N)
        out, ref = tmp_path / "p.csv", tmp_path / "ref.csv"
        assert main(self._argv("predict", model_2d, data, out)) == 0
        preds, probs = predict(load_model(model_2d), load_dataset(data))
        write_predictions_csv(range(self.N), preds, probs, ref)
        assert out.read_bytes() == ref.read_bytes()

    def test_dead_formatting_worker_exits_1(self, tmp_path, capsys, monkeypatch, model_2d):
        monkeypatch.setattr("fdnet.dataio._format_rows", lambda *args: os._exit(1))
        monkeypatch.setattr("fdnet.parallel.usable_cpus", lambda: 2)  # a pool even on one CPU
        data = random_file(tmp_path / "blocks.mfd", self.N)
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert main(self._argv("predict", model_2d, data, out)) == 1
        captured = capsys.readouterr()
        assert "error: a worker process of a 2-process pool ended abruptly" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "fault, value, code, message, command",
        [
            (*fault, command)
            for fault in [
                ("label", 200, 1, "label 200 exceeds class count 3"),
                ("value", float("nan"), 1, "non-finite sample values"),
                ("value", 1e300, 2, "numeric error: non-finite values after hidden layer 1"),
            ]
            for command in ["predict", "eval"]
        ] + [
            ("label", 200, 1, "label 200 exceeds class count 3", "train"),
            ("value", float("nan"), 1, "non-finite sample values", "train"),
            ("value", 1e300, 2, "numeric error: the mean or spread of a score overflows", "train"),
        ],
    )
    def test_fault_in_the_last_block(self, tmp_path, capsys, model_2d, command, fault, value, code, message):
        path = random_file(tmp_path / "blocks.mfd", self.N)
        data = bytearray(path.read_bytes())
        at = self.HEADER + (self.N - 2) * self.RECORD
        if fault == "label":
            data[at] = value
        else:
            data[at + 1 : at + 9] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        out = tmp_path / "p.csv"
        capsys.readouterr()
        assert main(self._argv(command, model_2d, path, out)) == code
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_empty_file_of_the_model_dimension(self, tmp_path, model_2d):
        out = tmp_path / "p.csv"
        data = random_file(tmp_path / "empty.mfd", 0)
        assert main(self._argv("predict", model_2d, data, out)) == 0
        assert out.read_bytes() == b"index,predicted,p1,p2,p3\n"

    @pytest.mark.parametrize("command, message", [
        ("predict", "trained on 2-D data, but the data is 3-D"),
        ("eval", "no samples"),
    ])
    def test_empty_file_of_another_dimension_exits_1(self, tmp_path, capsys, model_2d, command, message):
        # refused from the header alone: there is no block to look at
        out = tmp_path / "p.csv"
        data = random_file(tmp_path / "cube.mfd", 0, grid_shape=(2, 2, 2))
        capsys.readouterr()
        assert main(self._argv(command, model_2d, data, out)) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_memory_is_one_block_plus_the_probabilities(self, tmp_path, capsys, command):
        """The traced peak of one command on predict-large's data size (100 002
        samples on a 5x5x5 grid, a 100 MB file) stays below a quarter of the
        file.  The peak is two copies of the largest block (the block read and
        `project_batch`'s weighted copy, up to 2 * BLOCK_ROWS - 1 rows) plus
        the (n, K) probabilities, about 17 MB here; a quarter of the file
        bounds that for files from about 80 MB.  tracemalloc counts numpy's
        allocations, so the bound does not depend on the host's RSS."""
        grid, n = Grid((5, 5, 5)), 100_002
        record = np.dtype([("label", "u1"), ("values", "<f8", (grid.m,))])
        rng = np.random.default_rng(14)
        data = tmp_path / "large.mfd"
        with open(data, "wb") as fh:  # written a block at a time
            fh.write(b"MFDN1" + struct.pack("<II3IIQ", 1, 3, *grid.shape, 3, n))
            for lo in range(0, n, BLOCK_ROWS):
                block = np.empty(min(BLOCK_ROWS, n - lo), dtype=record)
                block["label"] = rng.integers(1, 4, block.size)
                block["values"] = rng.standard_normal((block.size, grid.m))
                fh.write(block.tobytes())
        model = tmp_path / "model.json"
        save_model(Classifier(initial_params(Architecture(18, (64, 64), 3), rng), grid.shape), model)
        size = data.stat().st_size
        tracemalloc.start()
        try:
            code = main(self._argv(command, model, data, tmp_path / "p.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            data.unlink()
        assert code == 0
        assert peak < size / 4, f"traced peak {peak} bytes for a {size}-byte file"
        capsys.readouterr()


class TestExportCsv:
    """`fdnet export-csv` reads its file through `DatasetReader`, as `train`,
    `predict` and `eval` do: it refuses to write over the file it reads, a
    fault in a block after the first round leaves no CSV, and it never holds
    the file's (n, m) values."""

    N = 3 * BLOCK_ROWS + 1  # 100 values a row: rounds of blocks [0, 1] and [2]
    HEADER, RECORD = 33, 1 + 8 * 100  # a 2-D file's header, one 10x10 sample

    @pytest.mark.parametrize("hard_link", [False, True], ids=["same-path", "hard-link"])
    def test_out_naming_the_data_file_exits_1(self, tmp_path, capsys, hard_link):
        data = random_file(tmp_path / "data.mfd", 50)
        before = data.read_bytes()
        out = tmp_path / "link.mfd" if hard_link else data
        if hard_link:
            os.link(data, out)
        capsys.readouterr()
        assert main(["export-csv", "--data", str(data), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "is the --data file" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert data.read_bytes() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fault", ["label", "value"])
    def test_fault_after_the_first_round_leaves_no_csv(self, tmp_path, capsys, monkeypatch, fault, cpus):
        monkeypatch.setattr("fdnet.parallel.usable_cpus", lambda: cpus)
        assert 2 * BLOCK_ROWS * 100 <= dataio._ROUND_VALUES < 3 * BLOCK_ROWS * 100  # two blocks a round
        path = random_file(tmp_path / "wide.mfd", self.N, grid_shape=(10, 10))
        data = bytearray(path.read_bytes())
        at = self.HEADER + (self.N - 2) * self.RECORD  # a row of the last block, the second round
        if fault == "label":
            data[at] = 200
            message = f"error: label 200 exceeds class count 3 (at byte offset {at})"
        else:
            data[at + 1 : at + 9] = struct.pack("<d", float("nan"))
            message = f"error: non-finite sample values (at byte offset {at + 1})"
        path.write_bytes(bytes(data))
        out = tmp_path / "dump.csv"
        capsys.readouterr()
        assert main(["export-csv", "--data", str(path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_memory_is_a_round_not_the_file(self, tmp_path, capsys, monkeypatch):
        """The traced peak of an export of a file of many rounds stays below
        half of its n * m * 8 bytes of values, so no (n, m) float64 array is
        held.  Blocks of 256 rows and rounds of two blocks scale down the
        file that shows this: at the real sizes a round's values and text
        take about 65 MB, so the file would have to exceed 130 MB.  One CPU,
        so that every block is formatted, and counted, in this process;
        tracemalloc counts numpy's allocations."""
        monkeypatch.setattr("fdnet.projection.BLOCK_ROWS", 256)
        monkeypatch.setattr(dataio, "_ROUND_VALUES", 2 * 256 * 27)
        monkeypatch.setattr("fdnet.parallel.usable_cpus", lambda: 1)
        n = 128 * 256  # 64 rounds
        data = random_file(tmp_path / "cube.mfd", n, grid_shape=(3, 3, 3))
        tracemalloc.start()
        try:
            code = main(["export-csv", "--data", str(data), "--out", str(tmp_path / "dump.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < n * 27 * 8 / 2, f"traced peak {peak} bytes for {n} x 27 values"
        capsys.readouterr()


class TestOutNamingAnInput:
    """No command writes over a file it reads: an --out that names one of
    its inputs, by the same path or a hard link, exits 1 before anything is
    read, and the input keeps its bytes.  TestExportCsv covers export-csv."""

    ARGV = {
        "train": ["--data", "{data}", "--grid", "{grid}", "--epochs", "1", "--seed", "1"],
        "predict": ["--model", "{model}", "--data", "{data}"],
        "benchmark": ["--model-id", "2d-gaussian", "--nk", "12", "--m", "9", "--reps", "1",
                      "--grid", "{grid}", "--epochs", "1", "--batch", "8", "--seed", "1"],
        "mnist": ["--images", "{images}", "--labels", "{labels}", "--grid", "{grid}",
                  "--test-images", "{test-images}", "--test-labels", "{test-labels}",
                  "--epochs", "1", "--batch", "8", "--seed", "1"],
    }
    PAIRS = [("train", "data"), ("train", "grid"), ("predict", "model"), ("predict", "data"),
             ("benchmark", "grid"), ("mnist", "images"), ("mnist", "labels"), ("mnist", "grid"),
             ("mnist", "test-images"), ("mnist", "test-labels")]

    @pytest.mark.parametrize("hard_link", [False, True], ids=["same-path", "hard-link"])
    @pytest.mark.parametrize("command, flag", PAIRS)
    def test_exits_1_and_leaves_the_input(self, tmp_path, capsys, model_2d, command, flag, hard_link):
        t = tmp_path / "t"
        t.mkdir()
        images, labels = write_idx_pair(tmp_path, 100, seed=27)
        test_images, test_labels = write_idx_pair(t, 20, seed=28)
        paths = {"data": tmp_path / "data.mfd", "grid": Path(grid_file(tmp_path)), "model": model_2d,
                 "images": images, "labels": labels, "test-images": test_images, "test-labels": test_labels}
        target = paths[flag]
        before = target.read_bytes()
        out = target
        if hard_link:
            out = tmp_path / "link"
            os.link(target, out)
        argv = [command] + [a.format(**{k: str(v) for k, v in paths.items()}) for a in self.ARGV[command]]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"error: --out {out} is the --{flag} file" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert target.read_bytes() == before


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

    def test_dead_worker_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fdnet.evaluation._run_replicate", lambda *args: os._exit(1))
        out = tmp_path / "r.csv"
        code = main(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--reps", "2", "--grid", grid_file(tmp_path), "--seed", "5",
                     "--epochs", "1", "--batch", "8", "--workers", "2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "ended abruptly" in captured.err and "Traceback" not in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("test_nk", ["0", "-2"])
    def test_nonpositive_test_size_exits_1(self, tmp_path, capsys, test_nk):
        out = tmp_path / "r.csv"
        code = main(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                     "--reps", "2", "--grid", grid_file(tmp_path), "--seed", "5", "--test-nk", test_nk,
                     "--epochs", "1", "--batch", "8", "--workers", "2", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert f"test_per_class must be >= 1, got {test_nk}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_workers_default_to_the_pool_policy(self, tmp_path):
        args = build_parser().parse_args(["benchmark", "--model-id", "2d-gaussian", "--nk", "12", "--m", "9",
                                          "--reps", "2", "--grid", grid_file(tmp_path), "--seed", "5",
                                          "--out", str(tmp_path / "r.csv")])
        assert args.workers is None  # `benchmark` then takes the usable CPUs

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


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class TestTrainBytesInAFreshProcess:
    """`fdnet train` run as a command writes the model bytes of its default
    CPU count on one CPU (so its fold fits run serially) and with one BLAS
    thread."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("train_bytes")
        doc = {"J": [4, 8], "L": [1], "width": [8, 16], "dropout": [0.1]}
        return tmp, simulate(tmp, nk=60, m=25), grid_file(tmp, doc)

    def model_bytes(self, inputs, name, env=None, preexec_fn=None):
        tmp, data, grid = inputs
        out = tmp / name
        src = Path(fdnet.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "fdnet.cli", "train", "--data", str(data), "--grid", grid,
             "--epochs", "5", "--batch", "16", "--seed", "3", "--out", str(out)],
            env={**os.environ, **(env or {}), "PYTHONPATH": str(src)},
            preexec_fn=preexec_fn, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    @pytest.fixture(scope="class")
    def default_bytes(self, inputs):
        return self.model_bytes(inputs, "default.json")

    def test_one_cpu(self, inputs, default_bytes):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("the platform has no CPU affinity")
        assert self.model_bytes(inputs, "one_cpu.json", preexec_fn=_one_cpu) == default_bytes

    def test_one_blas_thread(self, inputs, default_bytes):
        one_thread = {"OPENBLAS_NUM_THREADS": "1"}
        assert self.model_bytes(inputs, "one_blas.json", env=one_thread) == default_bytes


class TestCsvBytesInAFreshProcess:
    """`fdnet predict` and `fdnet export-csv` run as commands write the CSV
    bytes of their default CPU count on one CPU (so every block is
    formatted in the main process) and with one BLAS thread, on files of
    several row blocks; the export spans more than one round."""

    N_EXPORT = 3 * BLOCK_ROWS + 1  # four blocks of 100 values a row: two rounds of two

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("csv_bytes")
        data = simulate(tmp, nk=15)
        model = tmp / "model.json"
        assert main(["train", "--data", str(data), "--grid", grid_file(tmp),
                     "--epochs", "5", "--batch", "8", "--seed", "3", "--out", str(model)]) == 0
        blocks = random_file(tmp / "blocks.mfd", 2 * BLOCK_ROWS + 3)
        wide = random_file(tmp / "wide.mfd", self.N_EXPORT, grid_shape=(10, 10))
        assert 2 * BLOCK_ROWS * 100 <= dataio._ROUND_VALUES < 3 * BLOCK_ROWS * 100  # two blocks a round
        return {
            "predict": ["predict", "--model", str(model), "--data", str(blocks)],
            "export-csv": ["export-csv", "--data", str(wide)],
        }, tmp

    def csv_digest(self, inputs, command, env=None, preexec_fn=None):
        argvs, tmp = inputs
        out = tmp / f"{command}.csv"
        src = Path(fdnet.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-m", "fdnet.cli", *argvs[command], "--out", str(out)],
            env={**os.environ, **(env or {}), "PYTHONPATH": str(src)},
            preexec_fn=preexec_fn, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        out.unlink()
        return digest

    @pytest.fixture(scope="class")
    def default_digests(self, inputs):
        return {command: self.csv_digest(inputs, command) for command in ("predict", "export-csv")}

    @pytest.mark.parametrize("command", ["predict", "export-csv"])
    def test_one_cpu(self, inputs, default_digests, command):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("the platform has no CPU affinity")
        assert self.csv_digest(inputs, command, preexec_fn=_one_cpu) == default_digests[command]

    @pytest.mark.parametrize("command", ["predict", "export-csv"])
    def test_one_blas_thread(self, inputs, default_digests, command):
        one_thread = {"OPENBLAS_NUM_THREADS": "1"}
        assert self.csv_digest(inputs, command, env=one_thread) == default_digests[command]


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

        err, _, _ = evaluate(load_model(model_path), load_idx(timg, tlab))
        assert f"test accuracy: {1.0 - err:.4f} on 80 samples" in out

    def test_classifies_first_sample_to_a_digit(self, tmp_path):
        from dataclasses import replace

        from fdnet import predict
        from fdnet.dataio import load_model
        from fdnet.idx import load_idx

        img, lab = write_idx_pair(tmp_path, 200, seed=23)
        grid = grid_file(tmp_path, {"J": [15], "L": [1], "width": [16], "dropout": [0.0]})
        model_path = tmp_path / "digits.json"
        assert main(["mnist", "--images", str(img), "--labels", str(lab),
                     "--grid", grid, "--seed", "6", "--out", str(model_path),
                     "--epochs", "15", "--batch", "32"]) == 0
        model = load_model(model_path)
        test = load_idx(img, lab)
        first = replace(test, pixels=test.pixels[:1], labels=test.labels[:1])
        digit = predict(model, first)[0][0] - 1
        assert 0 <= digit <= 9

    @staticmethod
    def _eager(images, labels, limit):
        """The first `limit` samples (all when 0) of an IDX pair of 28x28
        images as a float64 Dataset, parsed here rather than by load_idx."""
        n = struct.unpack(">I", labels.read_bytes()[4:8])[0]
        n = limit or n
        pixels = np.frombuffer(images.read_bytes(), np.uint8, offset=16).reshape(-1, 784)
        digits = np.frombuffer(labels.read_bytes(), np.uint8, offset=8)
        return Dataset(values=pixels[:n] / 255.0, grid=Grid((28, 28)), labels=digits[:n] + 1, n_classes=10)

    @pytest.mark.parametrize("limit, test_limit", [(0, 0), (250, 50)], ids=["whole", "limit"])
    def test_same_bytes_as_select_on_float_pixels(self, tmp_path, capsys, limit, test_limit):
        # pixels scaled a block at a time give the model and the test
        # accuracy of an eager float64 dataset of the same pixels
        from fdnet import TrainConfig, evaluate, select

        img, lab = write_idx_pair(tmp_path, 300, seed=24)
        test_dir = tmp_path / "t"
        test_dir.mkdir()
        timg, tlab = write_idx_pair(test_dir, 80, seed=25)
        grid = grid_file(tmp_path, {"J": [20, 30], "L": [2], "width": [32], "dropout": [0.01]})
        out = tmp_path / "digits.json"
        assert main(["mnist", "--images", str(img), "--labels", str(lab), "--grid", grid,
                     "--seed", "4", "--out", str(out), "--test-images", str(timg),
                     "--test-labels", str(tlab), "--limit", str(limit), "--test-limit", str(test_limit),
                     "--epochs", "3", "--batch", "32"]) == 0
        printed = capsys.readouterr().out.splitlines()[-1]
        cfg = TrainConfig(epochs=3, batch_size=32, learning_rate=1e-3)
        result = select(self._eager(img, lab, limit), cfg, dataio.load_hypergrid(grid), 4)
        save_model(result.classifier, tmp_path / "eager.json", dataio.metadata_for(result.chosen, cfg, 4))
        assert (tmp_path / "eager.json").read_bytes() == out.read_bytes()
        test = self._eager(timg, tlab, test_limit)
        err, _, _ = evaluate(result.classifier, test)
        assert printed == f"test accuracy: {1.0 - err:.4f} on {len(test)} samples"

    def test_final_fit_holds_one_score_matrix(self, tmp_path, monkeypatch):
        # when the one cell's fit enters training, the live arrays are the
        # (n, J) scores, standardized in place, and the file's bytes: no
        # second score matrix and no float64 copy of the pixels
        from fdnet import training
        from synth_digits import idx_image_bytes, idx_label_bytes

        n, m, J = 2000, 64, 64  # a score matrix and a float64 pixel array hold as many bytes
        rng = np.random.default_rng(26)
        (tmp_path / "i.idx").write_bytes(idx_image_bytes(rng.integers(0, 256, (n, 8, 8), dtype=np.uint8)))
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(rng.integers(0, 10, n).astype(np.uint8)))
        grid = grid_file(tmp_path, {"J": [J], "L": [1], "width": [4], "dropout": [0.0]})
        seen = []

        class Entered(Exception):
            pass

        def entry(scores, *args, **kwargs):
            seen.append((tracemalloc.get_traced_memory()[0], scores.shape))
            raise Entered

        monkeypatch.setattr(training, "_train_group", entry)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with pytest.raises(Entered):
                main(["mnist", "--images", str(tmp_path / "i.idx"), "--labels", str(tmp_path / "l.idx"),
                      "--grid", grid, "--seed", "1", "--out", str(tmp_path / "m.json")])
        finally:
            tracemalloc.stop()
        [(live, shape)] = seen
        scores = n * J * 8
        assert shape == (n, J)
        assert scores <= live - start < scores + n * m * 8, f"{live - start} bytes live at train's entry"


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


FUZZ_VALUES = ("0", "-1", "2.5", "nan", "inf", "-inf", "1e400", "", "x", "99999999999999999999999")
# each command's numeric options; a huge value is left out where it would
# start that many processes or train that long (a size beyond one array is refused)
NUMERIC_OPTIONS = {
    "simulate": ("--nk", "--m", "--test-nk", "--seed"),
    "train": ("--epochs", "--batch", "--lr", "--seed"),
    "eval": ("--c0",),
    "benchmark": ("--nk", "--m", "--reps", "--seed", "--test-nk", "--epochs", "--batch", "--lr",
                  "--workers"),
    "mnist": ("--seed", "--limit", "--test-limit", "--epochs", "--batch", "--lr"),
}
NO_HUGE = {"--epochs", "--workers"}
FUZZ_CASES = [
    (command, option, value)
    for command, options in NUMERIC_OPTIONS.items()
    for option in options
    for value in FUZZ_VALUES
    if not (option in NO_HUGE and value == FUZZ_VALUES[-1])
]


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Small input files shared by every fuzz case; cases write elsewhere."""
    root = tmp_path_factory.mktemp("fuzz_inputs")
    data = simulate(root, nk=6)
    grid = grid_file(root)
    model = root / "model.json"
    assert main(["train", "--data", str(data), "--grid", grid, "--epochs", "1", "--batch", "8",
                 "--seed", "1", "--out", str(model)]) == 0
    img, lab = write_idx_pair(root, 100, seed=1)
    return {"data": str(data), "grid": grid, "model": str(model), "images": str(img),
            "labels": str(lab)}


def _fuzz_argv(command, inputs, out_dir, override=None):
    """argv of a small `command` that succeeds, with `override` options."""
    options = {**_base_options(command, inputs, str(out_dir / "out")), **(override or {})}
    return [command, *(token for pair in options.items() for token in pair)]


def _base_options(command, inputs, out):
    if command == "simulate":
        return {"--model": "2d-gaussian", "--nk": "5", "--m": "9", "--seed": "1", "--out": out}
    if command == "train":
        return {"--data": inputs["data"], "--grid": inputs["grid"], "--epochs": "1", "--batch": "8",
                "--seed": "1", "--out": out}
    if command == "eval":
        return {"--model": inputs["model"], "--data": inputs["data"]}
    if command == "benchmark":
        return {"--model-id": "2d-gaussian", "--nk": "6", "--m": "9", "--reps": "1",
                "--grid": inputs["grid"], "--seed": "1", "--test-nk": "3", "--epochs": "1",
                "--batch": "8", "--out": out}
    return {"--images": inputs["images"], "--labels": inputs["labels"],
            "--test-images": inputs["images"], "--test-labels": inputs["labels"],
            "--grid": inputs["grid"], "--seed": "1", "--epochs": "1", "--batch": "8", "--out": out}


@pytest.mark.parametrize("command, option, value", FUZZ_CASES)
def test_numeric_option_fuzz(tmp_path, capsys, fuzz_inputs, command, option, value):
    """Any value of a numeric option exits 0, 1 or 2 without a traceback,
    and a refusal or failure writes no file and prints no result."""
    code = main(_fuzz_argv(command, fuzz_inputs, tmp_path, {option: value}))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code:
        assert list(tmp_path.iterdir()) == []
        assert captured.out == ""


@pytest.mark.parametrize("command", NUMERIC_OPTIONS)
def test_fuzz_base_argv_succeeds(tmp_path, fuzz_inputs, command):
    # each fuzz case changes one option of an invocation that succeeds
    assert main(_fuzz_argv(command, fuzz_inputs, tmp_path)) == 0
