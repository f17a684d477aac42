"""Serialization: binary dataset files, JSON model files, CSV reports.

A model file (version 3) holds one `training.Classifier` as it is in
memory, each fact once: the network's architecture, the grid shape and
the parameter vector `NetworkParams.flat`, beside the caller's metadata,
which `load_model` does not read.  The vector is one JSON string, the
base64 of its little-endian float64 bytes, so that writing and reading
millions of parameters is a byte copy rather than a float-to-text
conversion of each.  Files of versions 1 (per-layer arrays) and 2 (the
vector as a list of JSON numbers) are refused.

Dataset files are binary (3-D datasets reach 10^5+ values per file and CSV
parsing would dominate runtime); `dataset_to_csv` provides a readable dump
when needed.  `DatasetReader` is the one parser: it checks the header once
and then reads and checks the payload a row block at a time, so `fdnet
train`, `predict` and `eval` hold one block rather than the file;
`load_dataset` fills one (n, m) array from its blocks.  The CSV writers
format rows by blocks of BLOCK_ROWS on the process pool of
`parallel.ordered_map`, in rounds: a round is a run of whole blocks of at
most `_ROUND_VALUES` floats (at least one block), and its texts are
written in order before the next round starts, so the writer holds one
round's text rather than the file's.  All writers are deterministic:
identical inputs produce byte-identical files, whatever the number of
processes.

Dataset file layout (little-endian):

    magic   5 bytes  b"MFDN1"
    version u32      1
    d       u32      1..3
    shape   d * u32  per-axis point counts
    K       u32      number of classes
    n       u64      number of samples
    payload n records of { label u8 (0 = unlabeled, else 1..K),
                           m float64 values, row-major }
"""

from __future__ import annotations

import base64
import json
import os
import struct

import numpy as np

from .basis import Grid
from .errors import DomainError, FormatError
from .network import Architecture, NetworkParams
from .parallel import ordered_map
from .projection import BLOCK_ROWS, Dataset, row_blocks
from .training import Chosen, Classifier, HyperGrid

DATASET_MAGIC = b"MFDN1"
DATASET_VERSION = 1
MODEL_FORMAT = "fdnet-model"
MODEL_VERSION = 3
# float values per write when streaming a model's parameters; a multiple
# of 3, so that each chunk's 8 * _MODEL_CHUNK bytes encode to base64
# without padding and the chunks join into the one-shot encoding
_MODEL_CHUNK = 3 * 2**14
# floats per round of the CSV writers: the texts of one round's blocks are
# held at once, about 20 bytes a float
_ROUND_VALUES = 2**20

BENCHMARK_COLUMNS = (
    "model_id",
    "n_k",
    "m",
    "replicates",
    "mean_error",
    "sd",
    "se",
    "chosen_J",
    "chosen_L",
    "chosen_width",
    "chosen_dropout",
)


def save_dataset(dataset: Dataset, path) -> None:
    shape = dataset.grid.shape
    if dataset.n_classes > 255:
        raise DomainError("dataset format stores labels as one byte; K must be <= 255")
    header = DATASET_MAGIC + struct.pack(
        f"<II{len(shape)}IIQ",
        DATASET_VERSION,
        len(shape),
        *shape,
        dataset.n_classes,
        len(dataset),
    )
    payload = np.empty(len(dataset), dtype=_record(dataset.grid.m))
    payload["label"] = dataset.labels.astype(np.uint8)
    payload["values"] = dataset.values
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _record(m: int) -> np.dtype:
    """One sample of the payload: its label byte, then its m values."""
    return np.dtype([("label", "u1"), ("values", "<f8", (m,))])


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(buf):
        raise FormatError(f"file truncated while reading {what}", offset)


class DatasetReader:
    """A dataset file opened for reading one row block at a time.

    Opening reads and checks the header: magic, version, dimension, grid
    shape, class count, and the payload size that the sample count
    promises against the file's size.  `blocks()` then reads the payload
    by the row blocks of `row_blocks(n)` and checks each block as it is
    read, labels first and then values, so that the first bad row of the
    first bad block is reported.  Every FormatError carries the absolute
    byte offset of the fault.  `labels` (n,) is filled block by block.
    It owns the open file: use it as a context manager, or call `close`.
    """

    # magic, version and d, a 3-D shape, K and n: the longest header
    _HEADER_MAX = 5 + 8 + 12 + 12

    def __init__(self, path):
        self._fh = open(path, "rb")
        try:
            self._read_header()
        except BaseException:
            self.close()
            raise

    def _read_header(self) -> None:
        buf = self._fh.read(self._HEADER_MAX)
        offset = 0
        _need(buf, offset, 5, "magic")
        if buf[:5] != DATASET_MAGIC:
            raise FormatError(f"bad magic {buf[:5]!r}, expected {DATASET_MAGIC!r}", 0)
        offset = 5
        _need(buf, offset, 8, "version and dimension")
        version, d = struct.unpack_from("<II", buf, offset)
        if version != DATASET_VERSION:
            raise FormatError(f"unsupported format version {version}", offset)
        offset += 4
        if not 1 <= d <= 3:
            raise FormatError(f"dimension must be 1..3, got {d}", offset)
        offset += 4
        _need(buf, offset, 4 * d, "grid shape")
        shape = struct.unpack_from(f"<{d}I", buf, offset)
        offset += 4 * d
        if any(s < 1 or s > 1_000_000 for s in shape):
            raise FormatError(f"implausible grid shape {shape}", offset - 4 * d)
        _need(buf, offset, 12, "class count and sample count")
        n_classes, n = struct.unpack_from("<IQ", buf, offset)
        if not 1 <= n_classes <= 255:
            raise FormatError(f"class count must be 1..255, got {n_classes}", offset)
        offset += 12

        self.grid, self.n_classes = Grid(shape), n_classes
        expected = n * (1 + 8 * self.grid.m)
        actual = os.fstat(self._fh.fileno()).st_size - offset
        if actual < expected:
            raise FormatError(
                f"payload holds {actual} bytes, header promises {expected}", offset
            )
        if actual > expected:
            raise FormatError(f"{actual - expected} trailing bytes after payload", offset + expected)
        self._payload_offset = offset
        self.labels = np.zeros(n, dtype=np.int64)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self.labels.size

    def blocks(self):
        """(lo, hi, values, labels) of each row block in file order:
        `values` is a (hi - lo, m) float64 view of the block read, and
        `labels` the int64 view `self.labels[lo:hi]`."""
        if not len(self):  # no block; the m of an empty file may exceed a dtype's
            return
        record = _record(self.grid.m)
        width = record.itemsize
        self._fh.seek(self._payload_offset)
        for lo, hi in row_blocks(len(self)):
            at = self._payload_offset + lo * width
            payload = np.fromfile(self._fh, dtype=record, count=hi - lo)
            if payload.size < hi - lo:  # the file shrank after it was opened
                raise FormatError("file truncated while reading the payload", at + payload.size * width)
            labels = self.labels[lo:hi]
            labels[:] = payload["label"]
            if labels.max() > self.n_classes:
                bad = int(np.argmax(labels > self.n_classes))
                raise FormatError(
                    f"label {int(labels[bad])} exceeds class count {self.n_classes}",
                    at + bad * width,
                )
            values = payload["values"]
            if not np.all(np.isfinite(values)):
                bad = int(np.argmax(~np.all(np.isfinite(values), axis=1)))
                raise FormatError("non-finite sample values", at + bad * width + 1)
            yield lo, hi, values, labels


def load_dataset(path) -> Dataset:
    """The dataset a file holds, read and checked by `DatasetReader`'s
    blocks into one (n, m) array."""
    with DatasetReader(path) as reader:
        values = np.empty((len(reader), reader.grid.m))
        for lo, hi, block, _ in reader.blocks():
            values[lo:hi] = block
    return Dataset(values=values, grid=reader.grid, labels=reader.labels, n_classes=reader.n_classes)


def save_model(model: Classifier, path, metadata: dict | None = None) -> None:
    """Write a classifier as JSON; round-trips bit-exactly.

    The bytes are those of `json.dump(doc, fh, sort_keys=True,
    separators=(",", ":"))` plus a newline, for the document of the
    architecture, format, grid_shape, caller's metadata, params and
    version, where params is `base64.b64encode` of the little-endian
    float64 bytes of `NetworkParams.flat`.  Everything but params is
    encoded before the file is opened: metadata other than a dict or None
    (None is written as {}), or that JSON cannot hold (a numpy scalar, an
    arbitrary object, a NaN or infinite float), raises DomainError and
    creates no file.  Params is then streamed in chunks of
    `_MODEL_CHUNK` floats, so no full-size copy of the vector's bytes or
    text is built in memory.
    """
    arch = model.params.architecture
    architecture = {
        "input_dim": arch.input_dim,
        "hidden_widths": list(arch.hidden_widths),
        "n_classes": arch.n_classes,
    }
    if not isinstance(metadata, (dict, type(None))):
        raise DomainError(f"model metadata must be a dict or None, got {type(metadata).__name__}")
    try:
        meta = _compact({} if metadata is None else metadata)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"model metadata is not JSON: {exc}") from exc
    head = (
        f'{{"architecture":{_compact(architecture)},"format":{_compact(MODEL_FORMAT)},'
        f'"grid_shape":{_compact(list(model.grid_shape))},"metadata":{meta},"params":"'
    )
    flat = model.params.flat
    with open(path, "wb") as fh:
        fh.write(head.encode("ascii"))
        for lo in range(0, flat.size, _MODEL_CHUNK):
            chunk = flat[lo : lo + _MODEL_CHUNK].astype("<f8", copy=False)
            fh.write(base64.b64encode(chunk.tobytes()))
        fh.write(f'","version":{MODEL_VERSION}}}\n'.encode("ascii"))


def _compact(obj) -> str:
    # ASCII (json escapes the rest) and strict JSON: no NaN or Infinity
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _json_object(path, what: str) -> dict:
    """The JSON object a file holds.  Text the parser refuses (bad JSON, not
    UTF-8, too deep) or another JSON type is a FormatError naming `what`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"not a {what} (a JSON {type(doc).__name__}, not a JSON object)")
    return doc


def load_model(path) -> Classifier:
    """The classifier a model file was written from.  Beyond the format and
    version, only `params` is checked here, for a base64 string of whole
    float64 values; the constructors check the rest (length, finiteness,
    grid shape), and any refusal is a FormatError."""
    doc = _json_object(path, "model file")
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"not a model file (format field {doc.get('format')!r})")
    if doc.get("version") != MODEL_VERSION:
        raise FormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        spec = doc["architecture"]
        arch = Architecture(spec["input_dim"], spec["hidden_widths"], spec["n_classes"])
        encoded = doc["params"]
        # padded base64 is whole groups of 4 characters, with "=" only in
        # the last two places; b64decode would accept excess "=" groups
        if (
            not isinstance(encoded, str)
            or len(encoded) % 4
            or encoded.find("=", 0, len(encoded) - 2) >= 0
        ):
            raise ValueError("params must be a string of padded base64")
        # binascii.Error, a ValueError, for a non-alphabet character or bad padding
        raw = base64.b64decode(encoded, validate=True)
        if len(raw) % 8:
            raise ValueError(f"params hold {len(raw)} bytes, not whole float64 values")
        flat = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        return Classifier(NetworkParams(arch, flat), doc["grid_shape"])
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError includes every constructor's DomainError
        raise FormatError(f"malformed model document: {exc}") from exc


def load_hypergrid(path) -> HyperGrid:
    """Parse candidate lists from JSON: {"J": [...], "L": [...],
    "width": [...], "dropout": [...]}, integers for J, L and width and
    numbers for dropout; nothing else is converted."""
    doc = _json_object(path, "hyperparameter grid")
    missing = {"J", "L", "width", "dropout"} - set(doc)
    if missing:
        raise FormatError(f"hyperparameter grid is missing key(s) {sorted(missing)}")
    try:
        return HyperGrid(n_scores=doc["J"], depths=doc["L"], widths=doc["width"], dropouts=doc["dropout"])
    except DomainError as exc:
        raise FormatError(f"malformed hyperparameter grid: {exc}") from exc


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _modal_chosen(chosen: list) -> Chosen:
    """Most frequent chosen tuple; ties fall to the lexicographically
    smallest."""
    tuples = [c.as_tuple() for c in chosen]
    uniq = sorted(set(tuples))
    best = max(uniq, key=lambda t: (tuples.count(t), tuple(-x for x in t)))
    return Chosen(*best)


def _benchmark_row(report, replicates, error, sd, se, choice: Chosen) -> str:
    fields = (report.model_id, report.n_per_class, report.m, replicates, error, sd, se)
    return ",".join(_fmt(x) for x in (*fields, *choice.as_tuple()))


def write_benchmark_csv(report, path) -> None:
    """One summary row (modal chosen tuple) followed by one row per replicate."""
    rows = [
        ",".join(BENCHMARK_COLUMNS),
        _benchmark_row(
            report,
            report.replicates,
            report.mean_error,
            report.sd,
            report.se,
            _modal_chosen(report.chosen),
        ),
    ]
    # float(): repr of a numpy float64 is "np.float64(...)" in numpy 2
    rows += [
        _benchmark_row(report, 1, float(err), None, None, choice)
        for err, choice in zip(report.errors, report.chosen)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def _format_rows(indices, column, rows, lo) -> bytes:
    """The CSV lines of rows lo to lo + BLOCK_ROWS, as UTF-8: the index,
    its entry of `column` and the floats of its row of `rows`.  repr of a
    float is its shortest round-trip form."""
    block = slice(lo, lo + BLOCK_ROWS)
    floats = map(repr, rows[block].ravel().tolist())
    # one iterator, k times: each row takes the next k floats
    cells = zip(map(str, indices[block]), map(str, column[block].tolist()), *[floats] * rows.shape[1])
    # encoded a line at a time, so that no full-size str copy of the block is made
    return b"".join([(",".join(line) + "\n").encode() for line in cells])


def _write_rows(path, names, indices, column, rows) -> None:
    """CSV of the header `names`, then `_format_rows` of each block of the
    `indices` sequence, the integer array `column` and the float array
    `rows`, formatted on the pool a round at a time."""
    n = len(indices)
    step = BLOCK_ROWS * max(_ROUND_VALUES // (BLOCK_ROWS * rows.shape[1]), 1)
    rounds = (
        ordered_map(
            _format_rows,
            [(lo,) for lo in range(start, min(start + step, n), BLOCK_ROWS)],
            shared=(indices, column, rows),
        )
        for start in range(0, n, step)
    )
    # the first round before the file is opened, so that a failure there
    # (the only round of most prediction files) leaves no file
    texts = next(rounds, [])
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        while texts:
            fh.writelines(texts)
            fh.flush()  # the next round's forked workers inherit no unwritten bytes
            del texts  # one round's text at a time
            texts = next(rounds, [])


def write_predictions_csv(indices, predictions, probabilities, path) -> None:
    """CSV of index, predicted class, and per-class probabilities, one
    row per entry of the `indices` sequence.  The counts of indices,
    predictions and probability rows must agree, and `probabilities` must
    be (n, K) with K >= 1; anything else is refused before the file is
    opened."""
    predictions, probabilities = np.asarray(predictions), np.asarray(probabilities)
    n = len(indices)
    if probabilities.ndim != 2 or not probabilities.shape[1]:
        raise DomainError(f"probabilities must be an (n, K) array with K >= 1, got shape {probabilities.shape}")
    if predictions.shape != (n,) or len(probabilities) != n:
        raise DomainError(
            f"{n} indices, predictions of shape {predictions.shape} and {len(probabilities)} "
            "probability rows: expected one prediction and one row per index"
        )
    names = ["index", "predicted", *(f"p{j + 1}" for j in range(probabilities.shape[1]))]
    _write_rows(path, names, indices, predictions, probabilities)


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Readable dump: index, label, then the m sample values."""
    names = ["index", "label", *(f"v{j}" for j in range(dataset.grid.m))]
    _write_rows(path, names, range(len(dataset)), dataset.labels, dataset.values)


def metadata_for(chosen: Chosen, cfg, seed: int) -> dict:
    """Standard training metadata recorded into model files: the selection
    seed, the chosen tuple and the optimizer schedule."""
    return {
        "seed": seed,
        "chosen": {
            "J": chosen.n_scores,
            "L": chosen.depth,
            "width": chosen.width,
            "dropout": chosen.dropout,
        },
        "config": {
            "epochs": cfg.epochs,
            "batch_size": cfg.batch_size,
            "learning_rate": cfg.learning_rate,
        },
    }
