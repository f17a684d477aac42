import base64
import copy
import gzip
import json
import struct
import time

import numpy as np
import pytest

from fdnet import (
    Architecture,
    Dataset,
    DomainError,
    FormatError,
    Grid,
    NumericError,
    generate_dataset,
    get_model,
    initial_params,
)
from fdnet import dataio, parallel
from fdnet.dataio import (
    BENCHMARK_COLUMNS,
    DatasetReader,
    dataset_to_csv,
    load_dataset,
    load_hypergrid,
    load_model,
    save_dataset,
    save_model,
    write_benchmark_csv,
    write_predictions_csv,
)
from fdnet.idx import load_idx
from fdnet.projection import BLOCK_ROWS, row_blocks
from fdnet.training import Classifier
from synth_digits import idx_image_bytes, idx_label_bytes, make_digit_arrays, write_idx_pair


def datasets_equal(a, b):
    return (
        np.array_equal(a.values, b.values)
        and np.array_equal(a.labels, b.labels)
        and a.n_classes == b.n_classes
        and a.grid == b.grid
    )


class TestDatasetRoundTrip:
    def test_empty_dataset(self, tmp_path):
        empty = Dataset(
            values=np.empty((0, 9)), grid=Grid((3, 3)), labels=np.empty(0, int), n_classes=3
        )
        path = tmp_path / "empty.mfd"
        save_dataset(empty, path)
        loaded = load_dataset(path)
        assert len(loaded) == 0
        assert loaded.grid.shape == (3, 3)

    def test_model1_dataset_bit_exact(self, tmp_path):
        ds = generate_dataset(get_model("2d-gaussian"), 200, m=100, seed=5)
        path = tmp_path / "model1.mfd"
        save_dataset(ds, path)
        assert datasets_equal(load_dataset(path), ds)

    def test_file_is_deterministic(self, tmp_path):
        ds = generate_dataset(get_model("3d-mixed2"), 10, m=8, seed=6)
        p1, p2 = tmp_path / "a.mfd", tmp_path / "b.mfd"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestDatasetErrors:
    @pytest.fixture()
    def valid_bytes(self, tmp_path):
        ds = generate_dataset(get_model("2d-gaussian"), 4, m=9, seed=7)
        path = tmp_path / "ok.mfd"
        save_dataset(ds, path)
        return bytearray(path.read_bytes())

    def _expect_error(self, tmp_path, data, match=None):
        path = tmp_path / "bad.mfd"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=match) as exc_info:
            load_dataset(path)
        return exc_info.value

    def test_bad_magic_at_offset_zero(self, tmp_path, valid_bytes):
        valid_bytes[:5] = b"XXXXX"
        err = self._expect_error(tmp_path, valid_bytes, match="magic")
        assert err.offset == 0

    def test_truncated_header(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, valid_bytes[:8], match="truncated")

    def test_truncated_payload(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, valid_bytes[:-10], match="payload")

    def test_trailing_bytes(self, tmp_path, valid_bytes):
        self._expect_error(tmp_path, valid_bytes + b"\x00", match="trailing")

    def test_label_above_class_count(self, tmp_path, valid_bytes):
        header_len = 5 + 4 + 4 + 8 + 4 + 8  # magic version d shape(2) K n
        valid_bytes[header_len] = 200
        self._expect_error(tmp_path, valid_bytes, match="label")

    def test_nonfinite_values(self, tmp_path, valid_bytes):
        header_len = 33
        nan = struct.pack("<d", float("nan"))
        valid_bytes[header_len + 1 : header_len + 9] = nan
        self._expect_error(tmp_path, valid_bytes, match="finite")

    def test_bad_version(self, tmp_path, valid_bytes):
        valid_bytes[5:9] = struct.pack("<I", 99)
        self._expect_error(tmp_path, valid_bytes, match="version")


def read_by_blocks(path):
    """Every block of `DatasetReader(path)` in order: (lo, hi, values, labels) copies."""
    with DatasetReader(path) as reader:
        return [(lo, hi, v.copy(), y.copy()) for lo, hi, v, y in reader.blocks()]


class TestBlockReader:
    """A file of 2 * BLOCK_ROWS + 3 rows on a 3x3 grid: two blocks, the
    second starting at row BLOCK_ROWS."""

    N = 2 * BLOCK_ROWS + 3
    HEADER = 33  # magic, version, d, a 2-D shape, K and n
    RECORD = 1 + 8 * 9

    @pytest.fixture()
    def path(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = Dataset(values=rng.standard_normal((self.N, 9)), grid=Grid((3, 3)),
                     labels=rng.integers(0, 4, self.N), n_classes=3)
        path = tmp_path / "blocks.mfd"
        save_dataset(ds, path)
        return path

    def test_blocks_are_the_rows_of_load_dataset(self, path):
        ds = load_dataset(path)
        blocks = read_by_blocks(path)
        assert [(lo, hi) for lo, hi, _, _ in blocks] == row_blocks(self.N) == [
            (0, BLOCK_ROWS), (BLOCK_ROWS, self.N)
        ]
        for lo, hi, values, labels in blocks:
            assert np.array_equal(values, ds.values[lo:hi]) and np.array_equal(labels, ds.labels[lo:hi])
        with DatasetReader(path) as reader:
            assert (len(reader), reader.grid, reader.n_classes) == (self.N, Grid((3, 3)), 3)

    @pytest.mark.parametrize("fault", ["label", "nan"])
    def test_fault_in_the_last_block(self, path, fault):
        # a label above K, then a NaN, in the last block: labels are checked
        # first, as one whole-file pass did; the offsets are absolute
        label_row, nan_row = 2 * BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 2
        data = bytearray(path.read_bytes())
        if fault == "label":
            data[self.HEADER + label_row * self.RECORD] = 200
            expected = f"label 200 exceeds class count 3 (at byte offset {self.HEADER + label_row * self.RECORD})"
        else:
            expected = f"non-finite sample values (at byte offset {self.HEADER + nan_row * self.RECORD + 1})"
        at = self.HEADER + nan_row * self.RECORD + 1
        data[at : at + 8] = struct.pack("<d", float("nan"))
        path.write_bytes(bytes(data))
        for read in (load_dataset, read_by_blocks):
            with pytest.raises(FormatError) as exc_info:
                read(path)
            assert str(exc_info.value) == expected

    @pytest.mark.parametrize("change, match", [(b"\x00", "trailing"), (-1, "promises")])
    def test_payload_size_checked_on_opening(self, path, change, match):
        data = path.read_bytes()
        path.write_bytes(data + change if isinstance(change, bytes) else data[:change])
        with pytest.raises(FormatError, match=match):
            DatasetReader(path)

    def test_file_shrunk_after_opening(self, path):
        with DatasetReader(path) as reader:
            with open(path, "r+b") as fh:
                fh.truncate(self.HEADER + (BLOCK_ROWS + 5) * self.RECORD)
            blocks = reader.blocks()
            next(blocks)
            with pytest.raises(FormatError, match="truncated") as exc_info:
                next(blocks)
        assert exc_info.value.offset == self.HEADER + (BLOCK_ROWS + 5) * self.RECORD


class TestModelRoundTrip:
    def test_bit_exact(self, tmp_path):
        params = initial_params(Architecture(7, (5, 4), 3), np.random.default_rng(8))
        params.flat[:5] = [1e-300, -0.0, 5e-324, 1e300, 1 / 3]
        params.weights[1][0, 0] = 0.1
        path = tmp_path / "model.json"
        save_model(Classifier(params, (5, 6)), path, metadata={"seed": 1})
        loaded = load_model(path)
        assert loaded.params.architecture == params.architecture
        # the bits, so that -0.0 is told from 0.0
        assert np.array_equal(loaded.params.flat.view(np.int64), params.flat.view(np.int64))
        assert loaded.params.flat.flags.writeable
        assert loaded.grid_shape == (5, 6)
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"seed": 1} and doc["grid_shape"] == [5, 6]

    def test_deterministic_bytes(self, tmp_path):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(9))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(Classifier(params, (3, 3)), p1, metadata={"a": 1, "b": 2})
        save_model(Classifier(params, (3, 3)), p2, metadata={"a": 1, "b": 2})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "metadata",
        [
            None,
            {
                "seed": 7,
                "note": "caf\u00e9 \u2603",
                "none": None,
                "lr": 0.1,
                "tiny": 5e-324,
                "nested": {"b": [1.5, -0.0, {"z": True, "a": 1e300}], "a": None},
            },
            {},
        ],
    )
    def test_bytes_equal_one_shot_json(self, tmp_path, metadata):
        # W_0 fills exactly one write chunk of params, the rest more than one
        # with a short tail
        arch = Architecture(192, (256, 300), 3)
        assert arch.hidden_widths[0] * arch.input_dim == dataio._MODEL_CHUNK
        params = initial_params(arch, np.random.default_rng(10))
        params.weights[1][0, :4] = [-0.0, 5e-324, 1e300, 1 / 3]
        params.shifts[0][:] = np.random.default_rng(11).standard_normal(256)
        flat = np.concatenate([*params.weights, *params.shifts], axis=None)
        doc = {
            "format": "fdnet-model",
            "version": 3,
            "architecture": {"input_dim": 192, "hidden_widths": [256, 300], "n_classes": 3},
            "grid_shape": [28, 28],
            "params": base64.b64encode(flat.astype("<f8").tobytes()).decode("ascii"),
            "metadata": metadata or {},
        }
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        path = tmp_path / "model.json"
        save_model(Classifier(params, (28, 28)), path, metadata=metadata)
        assert path.read_bytes() == expected.encode("utf-8")

    def test_large_model_bit_exact(self, tmp_path):
        # the MNIST-scale cell: J=500, 3 x 1000, K=10, 2.5M parameters
        params = initial_params(Architecture(500, (1000, 1000, 1000), 10), np.random.default_rng(15))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (28, 28)), path)
        assert np.array_equal(load_model(path).params.flat, params.flat)

    @pytest.mark.parametrize("value", [np.int64(3), object(), float("nan")])
    def test_metadata_json_cannot_hold_refused(self, tmp_path, value):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(16))
        path = tmp_path / "m.json"
        with pytest.raises(DomainError, match="metadata"):
            save_model(Classifier(params, (3, 3)), path, metadata={"x": value})
        assert not path.exists()

    @pytest.mark.parametrize("metadata", [0, "", [], False, "note", [1, 2]])
    def test_metadata_other_than_a_dict_refused(self, tmp_path, metadata):
        # a falsy value is not taken for None and written as {}
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(16))
        path = tmp_path / "m.json"
        with pytest.raises(DomainError, match="must be a dict or None"):
            save_model(Classifier(params, (3, 3)), path, metadata=metadata)
        assert not path.exists()

    def test_rejects_non_model_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(FormatError, match="format"):
            load_model(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        with pytest.raises(FormatError, match="JSON"):
            load_model(path)

    def test_rejects_architecture_mismatch(self, tmp_path):
        # the declared input width no longer fits the parameter count
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(10))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path)
        doc = json.loads(path.read_text())
        doc["architecture"]["input_dim"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="malformed model document: .*length 32"):
            load_model(path)

    @pytest.mark.parametrize(
        "metadata",
        # where version 1 kept grid_shape; the loader never reads the metadata
        [None, [], {}, {"grid_shape": None}, {"grid_shape": 3}, {"grid_shape": [3, 3, 3, 3]}],
    )
    def test_rejects_missing_or_malformed_grid_shape(self, tmp_path, metadata):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(13))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path)
        doc = json.loads(path.read_text())
        del doc["grid_shape"]
        doc["metadata"] = metadata
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="grid_shape"):
            load_model(path)

    @pytest.mark.parametrize("grid_shape", [None, 3, [], [3, 3, 3, 3], ["3", 3], [3, True], {}])
    def test_rejects_malformed_grid_shape(self, tmp_path, grid_shape):
        # the entry rule itself is Classifier's; the loader only has to reach it
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(13))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path)
        doc = json.loads(path.read_text())
        doc["grid_shape"] = grid_shape
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="malformed model document: .*grid_shape"):
            load_model(path)

    def test_metadata_is_the_callers_alone(self, tmp_path):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(12))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path, metadata={"grid_shape": [9]})
        doc = json.loads(path.read_text())
        assert doc["metadata"] == {"grid_shape": [9]} and doc["grid_shape"] == [3, 3]
        assert load_model(path).grid_shape == (3, 3)

    def test_training_metadata(self):
        from fdnet import Chosen, TrainConfig
        from fdnet.dataio import metadata_for

        cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.5)
        assert metadata_for(Chosen(2, 1, 3, 0.25), cfg, 7) == {
            "seed": 7,
            "chosen": {"J": 2, "L": 1, "width": 3, "dropout": 0.25},
            "config": {"epochs": 3, "batch_size": 8, "learning_rate": 0.5},
        }


class TestModelParamsRefused:
    """Every `params` that is not the base64 of whole, finite float64
    values, and every file of an earlier version, is a FormatError."""

    @pytest.fixture
    def doc(self, tmp_path):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(17))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path)
        return json.loads(path.read_text())

    def _refused(self, tmp_path, doc, match):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("value", [[0.5] * 32, 0.5, None, True, {}])
    def test_not_a_string(self, tmp_path, doc, value):
        self._refused(tmp_path, dict(doc, params=value), "malformed model document: params must be a string")

    @pytest.mark.parametrize("char", ["!", "-", "_", " ", "\n", "\u00e9"])
    def test_character_outside_the_alphabet(self, tmp_path, doc, char):
        encoded = doc["params"]
        self._refused(tmp_path, dict(doc, params=encoded[:8] + char + encoded[9:]), "malformed")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda e: e[:-1],  # a group cut short
            lambda e: e[:-2] + "==",  # padding in place of data: 190 bytes
            lambda e: e + "=",  # excess padding after whole groups
            lambda e: e + "====",
            lambda e: e[:4] + "AA==" + e[4:],  # padding inside the string
            lambda e: e[:-4] + "A===",
        ],
    )
    def test_bad_padding(self, tmp_path, doc, edit):
        # 24 floats are 192 bytes, whose encoding needs no padding
        assert len(doc["params"]) == 256 and not doc["params"].endswith("=")
        self._refused(tmp_path, dict(doc, params=edit(doc["params"])), "malformed")

    @pytest.mark.parametrize("size", [191, 193, 1])
    def test_bytes_not_whole_floats(self, tmp_path, doc, size):
        raw = (base64.b64decode(doc["params"]) + b"\0")[:size]
        encoded = base64.b64encode(raw).decode("ascii")
        self._refused(tmp_path, dict(doc, params=encoded), "not whole float64 values")

    def test_wrong_length(self, tmp_path, doc):
        raw = base64.b64decode(doc["params"])[:-8]
        self._refused(tmp_path, dict(doc, params=base64.b64encode(raw).decode("ascii")), "length 24")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_bytes(self, tmp_path, doc, value):
        flat = np.frombuffer(base64.b64decode(doc["params"]), "<f8").copy()
        flat[5] = value
        encoded = base64.b64encode(flat.tobytes()).decode("ascii")
        self._refused(tmp_path, dict(doc, params=encoded), "finite")

    def test_version_2(self, tmp_path, doc):
        # the vector as a list of JSON numbers, which is not read
        flat = np.frombuffer(base64.b64decode(doc["params"]), "<f8")
        self._refused(tmp_path, dict(doc, params=flat.tolist(), version=2), "unsupported model version 2")


class TestHyperGridJson:
    def test_parses(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"J": [5, 10], "L": [2], "width": [32], "dropout": [0.01, 0.1]}')
        grid = load_hypergrid(path)
        assert grid.n_scores == (5, 10)
        assert grid.dropouts == (0.01, 0.1)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text('{"J": [5], "L": [2], "width": [32]}')
        with pytest.raises(FormatError, match="dropout"):
            load_hypergrid(path)


# values JSON can hold where a loader expects something else; json writes
# the two floats as the bare tokens Infinity and NaN, which json.load accepts
JSON_JUNK = (float("inf"), float("nan"), -1, "x", None, [], {})


def _node_paths(doc, path=()):
    """Key paths of every node below the root, containers and leaves alike."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _replaced(doc, path, value):
    """A deep copy of `doc` with the node at `path` replaced, or None when an
    earlier replacement removed that path."""
    doc = copy.deepcopy(doc)
    parent, node = None, doc
    for key in path:
        keys = node if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
        if key not in keys:
            return None
        parent, node = node, node[key]
    parent[path[-1]] = value
    return doc


class TestJsonLoaderFuzz:
    """c10-style mutation of model and grid JSON: every node replaced by each
    junk value, then seeded random multi-node mutations.  A loader accepts
    the document or raises FormatError or DomainError, never anything else."""

    def _crashes(self, tmp_path, loader, doc, seed, n_random=300):
        paths = list(_node_paths(doc))
        mutations = [[(p, v)] for p in paths for v in JSON_JUNK]
        rng = np.random.default_rng(seed)
        for _ in range(n_random):
            picks = rng.choice(len(paths), size=int(rng.integers(2, 5)), replace=False)
            mutations.append([(paths[i], JSON_JUNK[rng.integers(len(JSON_JUNK))]) for i in picks])
        target = tmp_path / "fuzz.json"
        crashes = []
        for mutation in mutations:
            mutated = doc
            for path, value in mutation:
                mutated = _replaced(mutated, path, value) or mutated
            target.write_text(json.dumps(mutated))
            try:
                loader(target)
            except (FormatError, DomainError):
                pass
            except Exception as exc:  # noqa: BLE001 - any other type is the failure
                crashes.append((mutation, repr(exc)))
        return crashes

    def test_model_loader(self, tmp_path):
        from fdnet import Chosen, TrainConfig
        from fdnet.dataio import metadata_for

        params = initial_params(Architecture(2, (3,), 2), np.random.default_rng(30))
        meta = metadata_for(Chosen(2, 1, 3, 0.0), TrainConfig(), 1)
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path, metadata=meta)
        doc = json.loads(path.read_text())
        assert self._crashes(tmp_path, load_model, doc, seed=20240605) == []

    def test_grid_loader(self, tmp_path):
        doc = {"J": [2, 5], "L": [1, 2], "width": [4], "dropout": [0.0, 0.1]}
        assert self._crashes(tmp_path, load_hypergrid, doc, seed=20240606) == []

    def test_infinite_integers_are_format_errors(self, tmp_path):
        params = initial_params(Architecture(2, (3,), 2), np.random.default_rng(31))
        path = tmp_path / "m.json"
        save_model(Classifier(params, (3, 3)), path)
        doc = json.loads(path.read_text())
        for where in (("architecture", "input_dim"), ("architecture", "hidden_widths", 0),
                      ("params",)):
            path.write_text(json.dumps(_replaced(doc, where, float("inf"))))
            with pytest.raises(FormatError, match="malformed"):
                load_model(path)
        path.write_text('{"J": [Infinity], "L": [1], "width": [4], "dropout": [0.0]}')
        with pytest.raises(FormatError, match="malformed"):
            load_hypergrid(path)


class TestCsvWriters:
    def test_benchmark_csv_schema(self, tmp_path):
        from fdnet.evaluation import EvalReport
        from fdnet.training import Chosen

        report = EvalReport(
            model_id="2d-gaussian",
            n_per_class=10,
            m=9,
            errors=np.array([0.1, 0.2, 0.3]),
            confusion=np.eye(3, dtype=int),
            chosen=[Chosen(5, 2, 32, 0.01), Chosen(5, 2, 32, 0.01), Chosen(10, 3, 64, 0.1)],
        )
        path = tmp_path / "report.csv"
        write_benchmark_csv(report, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(BENCHMARK_COLUMNS)
        assert len(lines) == 1 + 1 + 3  # header, summary, replicates
        summary = lines[1].split(",")
        assert summary[0] == "2d-gaussian"
        assert summary[7:] == ["5", "2", "32", "0.01"]  # modal chosen tuple

    def test_dataset_csv(self, tmp_path):
        ds = generate_dataset(get_model("2d-gaussian"), 2, m=9, seed=11)
        path = tmp_path / "dump.csv"
        dataset_to_csv(ds, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 7
        assert lines[0].startswith("index,label,v0")

    @pytest.mark.parametrize("n", [0, 1, 2500, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_dataset_csv_bytes(self, tmp_path, n):
        ds = extreme_dataset(n)
        path = tmp_path / "dump.csv"
        dataset_to_csv(ds, path)
        assert path.read_bytes() == row_by_row("label", "v", 0, ds.labels, ds.values)

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 2, BLOCK_ROWS, BLOCK_ROWS + 1])
    def test_predictions_csv_bytes(self, tmp_path, n):
        probs, preds = probabilities(n)
        path = tmp_path / "pred.csv"
        write_predictions_csv(range(n), preds, probs, path)
        assert path.read_bytes() == row_by_row("predicted", "p", 1, preds, probs)

    @pytest.mark.parametrize(
        "n, rounds",
        [
            (2 * BLOCK_ROWS, [[0, 1]]),
            (2 * BLOCK_ROWS + 1, [[0], [1]]),  # the last block's extra row takes the pair over the budget
            (4 * BLOCK_ROWS + 1, [[0, 1], [2], [3]]),
            (5 * BLOCK_ROWS, [[0, 1], [2, 3], [4]]),
        ],
    )
    def test_csv_bytes_across_round_boundaries(self, tmp_path, monkeypatch, n, rounds):
        ds = extreme_dataset(n)
        monkeypatch.setattr(dataio, "_ROUND_VALUES", 2 * BLOCK_ROWS * ds.grid.m)
        starts = record_rounds(monkeypatch)
        path = tmp_path / "dump.csv"
        dataset_to_csv(ds, path)
        assert path.read_bytes() == row_by_row("label", "v", 0, ds.labels, ds.values)
        # the blocks of row_blocks, two a round where two fit
        assert starts == [[i * BLOCK_ROWS for i in r] for r in rounds]

    @pytest.mark.parametrize(
        "n, k, n_rounds",
        [
            (100_002, 3, 1),  # predict-large's probabilities: one round
            (100_002, 125, 13),  # its 5x5x5 samples: two blocks a round, the larger last block alone
            (BLOCK_ROWS + 1, 2**20 // BLOCK_ROWS + 1, 1),  # a block above the budget is a round
        ],
    )
    def test_rounds_are_whole_blocks_of_at_most_the_budget(self, tmp_path, monkeypatch, n, k, n_rounds):
        starts = record_rounds(monkeypatch, format_rows=False)
        rows = np.broadcast_to(np.zeros(1), (n, k))  # no memory: only the shape is read
        write_predictions_csv(range(n), np.zeros(n, dtype=int), rows, tmp_path / "pred.csv")
        ends = dict(row_blocks(n))
        assert [lo for r in starts for lo in r] == list(ends)  # every block of row_blocks, in order
        assert len(starts) == n_rounds
        floats = [sum(ends[lo] - lo for lo in r) * k for r in starts]
        for size, r in zip(floats, starts):
            assert len(r) == 1 or size <= dataio._ROUND_VALUES
        for size, after in zip(floats, starts[1:]):  # a round ends where the next block does not fit
            assert size + (ends[after[0]] - after[0]) * k > dataio._ROUND_VALUES

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "n, n_rounds",
        [(0, 1), (1, 1), (BLOCK_ROWS, 1), (BLOCK_ROWS + 1, 1), (2 * BLOCK_ROWS + 1, 1), (3 * BLOCK_ROWS + 1, 2)],
    )
    def test_reader_csv_bytes_are_those_of_the_loaded_file(self, tmp_path, monkeypatch, n, n_rounds, cpus):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        if n_rounds > 1:  # two blocks a round
            monkeypatch.setattr(dataio, "_ROUND_VALUES", 2 * BLOCK_ROWS * 27)
        path = tmp_path / "data.mfd"
        save_dataset(extreme_dataset(n), path)
        dataset_to_csv(load_dataset(path), tmp_path / "loaded.csv")
        starts = record_rounds(monkeypatch)
        with DatasetReader(path) as reader:
            dataset_to_csv(reader, tmp_path / "read.csv")
        assert (tmp_path / "read.csv").read_bytes() == (tmp_path / "loaded.csv").read_bytes()
        assert len(starts) == n_rounds

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_csv_worker_error_is_that_of_the_first_failing_block(self, tmp_path, monkeypatch, cpus):
        def fail_later_blocks_first(blocks, i):
            if i == 1:
                time.sleep(0.5)
                raise DomainError("block 1 failed")
            if i > 1:
                raise NumericError(f"block {i} failed")
            return b""

        monkeypatch.setattr(dataio, "_format_rows", fail_later_blocks_first)
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        probs, preds = probabilities(4 * BLOCK_ROWS)
        path = tmp_path / "pred.csv"
        with pytest.raises(DomainError, match="block 1 failed"):
            write_predictions_csv(range(len(preds)), preds, probs, path)
        assert not path.exists()  # the first round fails before the file is opened

    @pytest.mark.parametrize(
        "n, cut, rows",
        [(5, lambda p: p[:3], 5), (2, lambda p: p, 5), (5, lambda p: p, 4), (0, lambda p: p[:1], 0),
         (5, lambda p: p[:, None], 5)],
        ids=["fewer-predictions", "fewer-indices", "fewer-probability-rows", "no-indices", "2-D-predictions"],
    )
    def test_predictions_csv_refuses_unequal_counts(self, tmp_path, monkeypatch, n, cut, rows):
        monkeypatch.setattr(dataio, "ordered_map", pytest.fail)
        probs, preds = probabilities(5)
        path = tmp_path / "pred.csv"
        with pytest.raises(DomainError, match="one prediction and one row per index"):
            write_predictions_csv(range(n), cut(preds), probs[:rows], path)
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(5,), (5, 3, 1), (5, 0), ()], ids=["1-D", "3-D", "no-class", "scalar"])
    def test_predictions_csv_refuses_a_probability_array_not_n_by_k(self, tmp_path, monkeypatch, shape):
        monkeypatch.setattr(dataio, "ordered_map", pytest.fail)
        path = tmp_path / "pred.csv"
        with pytest.raises(DomainError, match=r"probabilities must be an \(n, K\) array"):
            write_predictions_csv(range(5), np.ones(5, dtype=int), np.full(shape, 0.5), path)
        assert not path.exists()


def extreme_dataset(n):
    """n samples on a 3x3x3 grid whose values span the float exponents."""
    rng = np.random.default_rng(12)
    values = rng.standard_normal((n, 27)) * 10.0 ** rng.integers(-300, 300, (n, 27))
    values[:, 0] = -0.0
    return Dataset(values=values, grid=Grid((3, 3, 3)), labels=rng.integers(0, 4, n), n_classes=3)


def probabilities(n):
    """(probabilities, predicted classes) of n samples of 3 classes."""
    probs = np.random.default_rng(13).dirichlet(np.ones(3), n)
    return probs, probs.argmax(axis=1) + 1


def row_by_row(column_name, prefix, first, column, rows) -> bytes:
    """The CSV the writers must reproduce, formatted a row at a time: the
    header of index, `column_name` and `prefix`-numbered columns from
    `first`, then index, column entry and repr of each float."""
    k = rows.shape[1]
    lines = [",".join(["index", column_name, *(f"{prefix}{j + first}" for j in range(k))])]
    lines += [f"{i},{int(column[i])}," + ",".join(repr(float(v)) for v in rows[i]) for i in range(len(rows))]
    return ("\n".join(lines) + "\n").encode("utf-8")


def record_rounds(monkeypatch, format_rows=True):
    """The block starts of each round the CSV writer maps, recorded as it
    maps them; the round is the map's `shared` and the items are its block
    numbers.  Without `format_rows` each block's text is left empty."""
    starts, real = [], dataio.ordered_map

    def recording(fn, items, *args, shared, **kwargs):
        (blocks,) = shared
        assert items == [(i,) for i in range(len(blocks))]
        starts.append([index[0] for index, _, _ in blocks])
        return real(fn, items, *args, shared=shared, **kwargs) if format_rows else [b""] * len(items)

    monkeypatch.setattr(dataio, "ordered_map", recording)
    return starts


class TestIdx:
    def test_load_synthetic_digits(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, 50, seed=12)
        ds = load_idx(img, lab)
        assert len(ds) == 50
        assert ds.values.shape == (50, 784)
        assert ds.grid.shape == (28, 28)
        assert 0.0 <= ds.values.min() and ds.values.max() <= 1.0
        assert ds.n_classes == 10
        assert ds.labels.min() >= 1 and ds.labels.max() <= 10

    def test_gzip_transparent(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, 10, seed=13, compress=True)
        ds = load_idx(img, lab)
        assert len(ds) == 10

    def test_pixel_scaling(self, tmp_path):
        images = np.zeros((1, 28, 28), dtype=np.uint8)
        images[0, 0, 0] = 255
        images[0, 0, 1] = 51
        (tmp_path / "i.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(np.array([7], dtype=np.uint8)))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.values[0, 0] == 1.0
        assert ds.values[0, 1] == pytest.approx(0.2)
        assert ds.labels[0] == 8  # digit 7 -> class 8

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_every_byte_scales_exactly(self, tmp_path, compress):
        raw = idx_image_bytes(np.arange(256, dtype=np.uint8).reshape(1, 16, 16))
        (tmp_path / "i.idx").write_bytes(gzip.compress(raw) if compress else raw)
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(np.array([0], dtype=np.uint8)))
        ds = load_idx(tmp_path / "i.idx", tmp_path / "l.idx")
        assert ds.values[0].tolist() == [byte / 255.0 for byte in range(256)]

    @pytest.mark.parametrize("n", [50, 2 * BLOCK_ROWS + 5], ids=["one-block", "several-blocks"])
    def test_blocks_are_the_whole_file_scaled(self, tmp_path, n):
        rng = np.random.default_rng(18)
        images = rng.integers(0, 256, (n, 4, 4), dtype=np.uint8)
        digits = rng.integers(0, 10, n).astype(np.uint8)
        (tmp_path / "i.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(digits))
        blocks = list(load_idx(tmp_path / "i.idx", tmp_path / "l.idx").blocks())
        assert [(lo, hi) for lo, hi, _, _ in blocks] == row_blocks(n)
        whole = images.reshape(n, 16) / 255.0
        for lo, hi, values, labels in blocks:
            assert values.dtype == np.float64
            assert values.tobytes() == whole[lo:hi].tobytes()
            assert labels.tolist() == (digits[lo:hi] + 1).tolist()

    def test_swapped_files_diagnosed(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, 5, seed=14)
        with pytest.raises(FormatError, match="magic"):
            load_idx(lab, img)

    def test_count_mismatch(self, tmp_path):
        images, labels = make_digit_arrays(5, seed=15)
        (tmp_path / "i.idx").write_bytes(idx_image_bytes(images))
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(labels[:4]))
        with pytest.raises(FormatError, match="count mismatch"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_truncated_images(self, tmp_path):
        images, labels = make_digit_arrays(5, seed=16)
        raw = idx_image_bytes(images)
        (tmp_path / "i.idx").write_bytes(raw[: len(raw) - 100])
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(labels))
        with pytest.raises(FormatError, match="promises"):
            load_idx(tmp_path / "i.idx", tmp_path / "l.idx")

    def test_corrupt_gzip(self, tmp_path):
        images, labels = make_digit_arrays(3, seed=17)
        blob = gzip.compress(idx_image_bytes(images))
        (tmp_path / "i.idx.gz").write_bytes(blob[:-5])
        (tmp_path / "l.idx").write_bytes(idx_label_bytes(labels))
        with pytest.raises(FormatError, match="gzip"):
            load_idx(tmp_path / "i.idx.gz", tmp_path / "l.idx")
