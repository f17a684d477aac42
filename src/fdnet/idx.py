"""IDX image/label ingestion (the classic handwritten-digit layout).

Both files are big-endian: images carry magic 0x00000803, then counts and
a 28x28 (or r x c) byte raster per image; labels carry magic 0x00000801
and one byte per item.  Pixels are scaled to [0, 1] by /255 and placed on
the midpoint grid over the unit square, pixel (row, col) at
((2 row + 1) / (2 r), (2 col + 1) / (2 c)).  Digit d becomes class d + 1.

Gzip-compressed files are detected by their two-byte signature and
decompressed transparently.
"""

from __future__ import annotations

import gzip
import struct

import numpy as np

from .basis import Grid
from .errors import FormatError
from .projection import Dataset

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _check_magic(buf: bytes, expected: int, kind: str, path) -> None:
    if len(buf) < 4:
        raise FormatError(f"{path}: file truncated in header", len(buf))
    (magic,) = struct.unpack_from(">I", buf, 0)
    if magic != expected:
        raise FormatError(
            f"{path}: magic 0x{magic:08x}, expected {kind} magic 0x{expected:08x}", 0
        )


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        head = fh.read(2)
        rest = fh.read()
    raw = head + rest
    if head == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except (OSError, EOFError) as exc:
            raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    return raw


def load_idx(images_path, labels_path) -> Dataset:
    """Labeled dataset from an IDX image file and its label file.

    Image and label counts must agree; magic mismatches name the offending
    file so that swapped arguments are diagnosed immediately.
    """
    img = _read_bytes(images_path)
    _check_magic(img, IMAGE_MAGIC, "image", images_path)
    if len(img) < 16:
        raise FormatError(f"{images_path}: file truncated in header", len(img))
    magic, n, rows, cols = struct.unpack_from(">IIII", img, 0)
    if rows < 1 or cols < 1:
        raise FormatError(f"{images_path}: implausible image size {rows}x{cols}", 8)
    expected = 16 + n * rows * cols
    if len(img) < expected:
        raise FormatError(
            f"{images_path}: holds {len(img)} bytes, header promises {expected}", len(img)
        )
    if len(img) > expected:
        raise FormatError(f"{images_path}: {len(img) - expected} trailing bytes", expected)

    lab = _read_bytes(labels_path)
    _check_magic(lab, LABEL_MAGIC, "label", labels_path)
    if len(lab) < 8:
        raise FormatError(f"{labels_path}: file truncated in header", len(lab))
    _, ln = struct.unpack_from(">II", lab, 0)
    if ln != n:
        raise FormatError(
            f"count mismatch: {images_path} has {n} images, {labels_path} has {ln} labels"
        )
    if len(lab) != 8 + ln:
        raise FormatError(
            f"{labels_path}: holds {len(lab)} bytes, header promises {8 + ln}",
            min(len(lab), 8 + ln),
        )

    pixels = np.frombuffer(img, dtype=np.uint8, count=n * rows * cols, offset=16)
    values = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    digits = np.frombuffer(lab, dtype=np.uint8, count=ln, offset=8).astype(np.int64)
    n_classes = max(10, int(digits.max()) + 1) if digits.size else 10
    return Dataset(
        values=values,
        grid=Grid((rows, cols)),
        labels=digits + 1,
        n_classes=n_classes,
    )
