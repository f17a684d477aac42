"""Serialization: binary dataset files, JSON model files, CSV reports.

Dataset files are binary (3-D datasets reach 10^5+ values per file and CSV
parsing would dominate runtime); `dataset_to_csv` provides a readable dump
when needed.  All writers are deterministic: identical inputs produce
byte-identical files.

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

import json
import struct

import numpy as np

from .basis import midpoint_grid
from .errors import DomainError, FormatError
from .network import Architecture, NetworkParams
from .projection import Dataset
from .training import Chosen, HyperGrid

DATASET_MAGIC = b"MFDN1"
DATASET_VERSION = 1
MODEL_FORMAT = "fdnet-model"
MODEL_VERSION = 1
# float values per write when streaming a model's arrays
_MODEL_CHUNK = 65536
# rows per conversion when dumping a dataset to CSV
_CSV_BLOCK = 1024

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
    m = dataset.grid.m
    record = np.dtype([("label", "u1"), ("values", "<f8", (m,))])
    payload = np.empty(len(dataset), dtype=record)
    payload["label"] = dataset.labels.astype(np.uint8)
    payload["values"] = dataset.values
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def _need(buf: bytes, offset: int, count: int, what: str) -> None:
    if offset + count > len(buf):
        raise FormatError(f"file truncated while reading {what}", offset)


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        buf = fh.read()
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

    m = int(np.prod(shape))
    expected = n * (1 + 8 * m)
    actual = len(buf) - offset
    if actual < expected:
        raise FormatError(
            f"payload holds {actual} bytes, header promises {expected}", offset
        )
    if actual > expected:
        raise FormatError(f"{actual - expected} trailing bytes after payload", offset + expected)

    if n == 0:
        values = np.empty((0, m))
        labels = np.empty(0, dtype=np.int64)
    else:
        record = np.dtype([("label", "u1"), ("values", "<f8", (m,))])
        payload = np.frombuffer(buf, dtype=record, count=n, offset=offset)
        labels = payload["label"].astype(np.int64)
        values = payload["values"].astype(np.float64)
    if labels.size and labels.max() > n_classes:
        bad = int(np.argmax(labels > n_classes))
        raise FormatError(
            f"label {int(labels[bad])} exceeds class count {n_classes}",
            offset + bad * (1 + 8 * m),
        )
    if not np.all(np.isfinite(values)):
        bad = int(np.argmax(~np.all(np.isfinite(values), axis=1)))
        raise FormatError("non-finite sample values", offset + bad * (1 + 8 * m) + 1)
    return Dataset(
        values=values,
        grid=midpoint_grid(shape),
        labels=labels,
        n_classes=n_classes,
    )


def save_model(params: NetworkParams, path, metadata: dict | None = None) -> None:
    """Write a model as JSON; round-trips bit-exactly for finite values.

    The file holds one object with sorted keys and no whitespace, then a
    newline: the bytes of `json.dump(doc, fh, sort_keys=True,
    separators=(",", ":"))` for the document of the architecture, format,
    metadata, shifts, version and weights.  It is streamed piece by piece
    in that key order, so no encoded copy of millions of floats is built
    in memory.  The small parts go through `json.dumps` with the same
    settings.  Each float array is written in chunks of `repr` of its
    values, which is exactly how `json` writes a finite float, and
    `NetworkParams` holds only finite values; so the bytes are those of
    the one-shot `json.dump`.
    """
    arch = params.architecture
    architecture = {
        "input_dim": arch.input_dim,
        "hidden_widths": list(arch.hidden_widths),
        "n_classes": arch.n_classes,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"architecture":{_compact(architecture)},"format":{_compact(MODEL_FORMAT)},')
        fh.write(f'"metadata":{_compact(metadata or {})},"shifts":')
        _write_arrays(fh, params.shifts)
        fh.write(f',"version":{_compact(MODEL_VERSION)},"weights":')
        _write_arrays(fh, params.weights)
        fh.write("}\n")


def _compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write_arrays(fh, arrays) -> None:
    """A JSON list of {"data": [...], "shape": [...]} entries, the data
    written _MODEL_CHUNK values at a time."""
    fh.write("[")
    for i, arr in enumerate(arrays):
        flat = arr.ravel()
        fh.write(',{"data":[' if i else '{"data":[')
        for lo in range(0, flat.size, _MODEL_CHUNK):
            if lo:
                fh.write(",")
            fh.write(",".join(map(repr, flat[lo : lo + _MODEL_CHUNK].tolist())))
        fh.write(f'],"shape":{_compact(list(arr.shape))}}}')
    fh.write("]")


def load_model(path):
    """Read a model file; returns (NetworkParams, metadata dict)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"model file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"not a model file (a JSON {type(doc).__name__}, not an object)")
    if doc.get("format") != MODEL_FORMAT:
        raise FormatError(f"not a model file (format field {doc.get('format')!r})")
    if doc.get("version") != MODEL_VERSION:
        raise FormatError(f"unsupported model version {doc.get('version')!r}")
    try:
        spec = doc["architecture"]
        widths = _json_ints([spec["input_dim"], *spec["hidden_widths"], spec["n_classes"]], "architecture")
        arch = Architecture(widths[0], tuple(widths[1:-1]), widths[-1])
        weights = [_decode_array(entry) for entry in doc["weights"]]
        shifts = [_decode_array(entry) for entry in doc["shifts"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer beyond the float range in the data
        raise FormatError(f"malformed model document: {exc}") from exc
    params = NetworkParams.from_arrays(weights, shifts)
    if params.architecture != arch:
        raise FormatError("declared architecture does not match the stored arrays")
    meta = doc.get("metadata") or {}  # absent or null: nothing recorded
    shape = meta.get("grid_shape", []) if isinstance(meta, dict) else None
    if not (isinstance(shape, list) and len(shape) <= 3 and all(type(s) is int for s in shape)):
        raise FormatError("model metadata must be an object, its grid_shape a list of at most 3 integers")
    return params, meta


def _json_ints(values, what: str) -> list:
    # bool is an int subclass; strings and floats must not be coerced
    if not isinstance(values, list) or any(type(v) is not int for v in values):
        raise ValueError(f"{what} must hold JSON integers, got {values!r}")
    return values


def _decode_array(entry) -> np.ndarray:
    shape = tuple(_json_ints(entry["shape"], "shape"))
    data = entry["data"]
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ValueError("array data must be a list of JSON numbers")
    data = np.asarray(data, dtype=float)
    if data.size != int(np.prod(shape)):
        raise ValueError(f"array data length {data.size} does not match shape {shape}")
    return data.reshape(shape)


def load_hypergrid(path) -> HyperGrid:
    """Parse candidate lists from JSON: {"J": [...], "L": [...],
    "width": [...], "dropout": [...]}, integers for J, L and width and
    numbers for dropout; nothing else is converted."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"hyperparameter grid is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"hyperparameter grid must be a JSON object, not a {type(doc).__name__}")
    missing = {"J", "L", "width", "dropout"} - set(doc)
    if missing:
        raise FormatError(f"hyperparameter grid is missing key(s) {sorted(missing)}")
    for key, kinds in (("J", int), ("L", int), ("width", int), ("dropout", (int, float))):
        values = doc[key]
        # bool is an int subclass; strings and floats must not be coerced
        if not isinstance(values, list) or any(
            isinstance(v, bool) or not isinstance(v, kinds) for v in values
        ):
            what = "numbers" if key == "dropout" else "integers"
            raise FormatError(
                f"malformed hyperparameter grid: {key} must be a list of JSON {what}, got {values!r}"
            )
    try:
        dropouts = tuple(float(s) for s in doc["dropout"])
    except OverflowError as exc:  # an integer beyond the float range
        raise FormatError(f"malformed hyperparameter grid: {exc}") from exc
    return HyperGrid(n_scores=doc["J"], depths=doc["L"], widths=doc["width"], dropouts=dropouts)


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


def write_predictions_csv(indices, predictions, probabilities, path) -> None:
    """CSV of index, predicted class, and per-class probabilities."""
    probabilities = np.asarray(probabilities)
    k = probabilities.shape[1]
    header = "index,predicted," + ",".join(f"p{j + 1}" for j in range(k))
    rows = [header]
    # one conversion to Python numbers; repr of a float is its shortest round-trip form
    for i, pred, probs in zip(indices, np.asarray(predictions).tolist(), probabilities.tolist()):
        rows.append(f"{i},{pred}," + ",".join(map(repr, probs)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(rows) + "\n")


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Readable dump: index, label, then the m sample values."""
    m = dataset.grid.m
    labels = dataset.labels.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("index,label," + ",".join(f"v{j}" for j in range(m)) + "\n")
        # one conversion to Python numbers per block of rows; repr of a
        # float is its shortest round-trip form
        for lo in range(0, len(dataset), _CSV_BLOCK):
            block = dataset.values[lo : lo + _CSV_BLOCK].tolist()
            fh.writelines(
                f"{i},{labels[i]}," + ",".join(map(repr, values)) + "\n"
                for i, values in enumerate(block, start=lo)
            )


def metadata_for(chosen: Chosen, cfg, extra: dict | None = None) -> dict:
    """Standard training metadata recorded into model files."""
    meta = {
        "seed": cfg.seed,
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
            "optimizer": "adam",
        },
    }
    if extra:
        meta.update(extra)
    return meta
