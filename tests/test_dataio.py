import copy
import gzip
import json
import struct

import numpy as np
import pytest

from fdnet import (
    Architecture,
    Dataset,
    DomainError,
    FormatError,
    generate_dataset,
    get_model,
    initial_params,
    midpoint_grid,
)
from fdnet import dataio
from fdnet.dataio import (
    BENCHMARK_COLUMNS,
    dataset_to_csv,
    load_dataset,
    load_hypergrid,
    load_model,
    save_dataset,
    save_model,
    write_benchmark_csv,
)
from fdnet.idx import load_idx
from synth_digits import idx_image_bytes, idx_label_bytes, make_digit_arrays, write_idx_pair


def datasets_equal(a, b):
    return (
        np.array_equal(a.values, b.values)
        and np.array_equal(a.labels, b.labels)
        and a.n_classes == b.n_classes
        and a.grid.shape == b.grid.shape
        and all(map(np.array_equal, a.grid.axes + a.grid.axis_weights, b.grid.axes + b.grid.axis_weights))
    )


class TestDatasetRoundTrip:
    def test_empty_dataset(self, tmp_path):
        empty = Dataset(
            values=np.empty((0, 9)), grid=midpoint_grid((3, 3)), labels=np.empty(0, int), n_classes=3
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


class TestModelRoundTrip:
    def test_bit_exact(self, tmp_path):
        params = initial_params(Architecture(7, (5, 4), 3), np.random.default_rng(8))
        params.weights[0][0, 0] = 1e-300
        params.weights[1][0, 0] = 0.1
        path = tmp_path / "model.json"
        save_model(params, path, metadata={"seed": 1})
        loaded, meta = load_model(path)
        assert loaded.architecture == params.architecture
        np.testing.assert_array_equal(loaded.flat, params.flat)
        assert meta == {"seed": 1}

    def test_deterministic_bytes(self, tmp_path):
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(9))
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(params, p1, metadata={"a": 1, "b": 2})
        save_model(params, p2, metadata={"a": 1, "b": 2})
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "metadata",
        [
            None,
            {
                "seed": 7,
                "grid_shape": [28, 28],
                "note": "caf\u00e9 \u2603",
                "none": None,
                "lr": 0.1,
                "tiny": 5e-324,
                "nested": {"b": [1.5, -0.0, {"z": True, "a": 1e300}], "a": None},
            },
        ],
    )
    def test_bytes_equal_one_shot_json(self, tmp_path, metadata):
        # W_0 is exactly one write chunk, W_1 more than one with a short tail
        arch = Architecture(256, (256, 300), 3)
        assert arch.hidden_widths[0] * arch.input_dim == dataio._MODEL_CHUNK
        params = initial_params(arch, np.random.default_rng(10))
        params.weights[1][0, :4] = [-0.0, 5e-324, 1e300, 1 / 3]
        params.shifts[0][:] = np.random.default_rng(11).standard_normal(256)
        doc = {
            "format": "fdnet-model",
            "version": 1,
            "architecture": {"input_dim": 256, "hidden_widths": [256, 300], "n_classes": 3},
            "weights": [{"shape": list(w.shape), "data": w.ravel().tolist()} for w in params.weights],
            "shifts": [{"shape": list(v.shape), "data": v.ravel().tolist()} for v in params.shifts],
            "metadata": metadata or {},
        }
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        path = tmp_path / "model.json"
        save_model(params, path, metadata=metadata)
        assert path.read_bytes() == expected.encode("utf-8")

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
        params = initial_params(Architecture(3, (4,), 2), np.random.default_rng(10))
        path = tmp_path / "m.json"
        save_model(params, path)
        doc = json.loads(path.read_text())
        doc["architecture"]["input_dim"] = 5
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="architecture"):
            load_model(path)


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
        meta = metadata_for(Chosen(2, 1, 3, 0.0), TrainConfig(seed=1), {"grid_shape": [3, 3]})
        path = tmp_path / "m.json"
        save_model(params, path, metadata=meta)
        doc = json.loads(path.read_text())
        assert self._crashes(tmp_path, load_model, doc, seed=20240605) == []

    def test_grid_loader(self, tmp_path):
        doc = {"J": [2, 5], "L": [1, 2], "width": [4], "dropout": [0.0, 0.1]}
        assert self._crashes(tmp_path, load_hypergrid, doc, seed=20240606) == []

    def test_infinite_integers_are_format_errors(self, tmp_path):
        params = initial_params(Architecture(2, (3,), 2), np.random.default_rng(31))
        path = tmp_path / "m.json"
        save_model(params, path)
        doc = json.loads(path.read_text())
        for where in (("architecture", "input_dim"), ("architecture", "hidden_widths", 0),
                      ("weights", 0, "shape", 1)):
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
            replicates=3,
            errors=np.array([0.1, 0.2, 0.3]),
            mean_error=0.2,
            sd=0.1,
            se=0.0577,
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

    @pytest.mark.parametrize("n", [0, 1, 2500])
    def test_dataset_csv_bytes(self, tmp_path, n):
        rng = np.random.default_rng(12)
        values = rng.standard_normal((n, 27)) * 10.0 ** rng.integers(-300, 300, (n, 27))
        values[:, 0] = -0.0
        ds = Dataset(values=values, grid=midpoint_grid((3, 3, 3)),
                     labels=rng.integers(0, 4, n), n_classes=3)
        path = tmp_path / "dump.csv"
        dataset_to_csv(ds, path)
        # the row-by-row formatting the writer must reproduce
        rows = ["index,label," + ",".join(f"v{j}" for j in range(27))]
        for i in range(n):
            vals = ",".join(repr(float(v)) for v in ds.values[i])
            rows.append(f"{i},{int(ds.labels[i])},{vals}")
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode("utf-8")


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
