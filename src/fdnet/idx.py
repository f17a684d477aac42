"""IDX image/label ingestion (the classic handwritten-digit layout).

One parser, `_read_idx`, reads both files.  An IDX file is a big-endian
u32 magic whose low byte is its number of dimensions, one big-endian u32
per dimension, then exactly the product of the dimensions in unsigned
bytes.  Images carry magic 0x00000803 (count, rows, columns), labels
magic 0x00000801 (count).  Pixels stay the file's bytes, scaled by /255 a
row block at a time, on the midpoint grid over the unit square: pixel (row,
col) at ((2 row + 1) / (2 r), (2 col + 1) / (2 c)).  Digit d is class d + 1.

Gzip-compressed files are detected by their two-byte signature and
decompressed transparently.
"""

from __future__ import annotations

import gzip
import math
import struct
from dataclasses import dataclass

import numpy as np

from .basis import Grid
from .errors import FormatError
from .projection import row_blocks

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


def _read_idx(path, magic: int, kind: str) -> np.ndarray:
    """The uint8 array an IDX file holds, shaped by its header.  The file
    must carry `magic` (a mismatch names the `kind` of file expected, so
    that swapped arguments are diagnosed), dimensions after the first of
    at least 1, and exactly the bytes its dimensions promise."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] == b"\x1f\x8b":
        try:
            buf = gzip.decompress(buf)
        except (OSError, EOFError) as exc:
            raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(buf) < 4:
        raise FormatError(f"{path}: file truncated in header", len(buf))
    (found,) = struct.unpack_from(">I", buf, 0)
    if found != magic:
        raise FormatError(f"{path}: magic 0x{found:08x}, expected {kind} magic 0x{magic:08x}", 0)
    if len(buf) < header:
        raise FormatError(f"{path}: file truncated in header", len(buf))
    dims = struct.unpack_from(f">{ndim}I", buf, 4)
    if 0 in dims[1:]:
        raise FormatError(f"{path}: implausible {kind} size {'x'.join(map(str, dims[1:]))}", 8)
    expected = header + math.prod(dims)
    if len(buf) < expected:
        raise FormatError(f"{path}: holds {len(buf)} bytes, header promises {expected}", len(buf))
    if len(buf) > expected:
        raise FormatError(f"{path}: {len(buf) - expected} trailing bytes", expected)
    return np.frombuffer(buf, dtype=np.uint8, count=expected - header, offset=header).reshape(dims)


@dataclass(frozen=True)
class IdxImages:
    """Labeled images, read as a `Dataset` is by `blocks()`: `pixels` (n, m)
    holds the file's bytes, `labels` (n,) the classes 1..n_classes."""

    pixels: np.ndarray
    grid: Grid
    labels: np.ndarray
    n_classes: int

    def __len__(self) -> int:
        return len(self.labels)

    def blocks(self):
        """(lo, hi, values, labels) of each of `row_blocks(len(self))`: the
        block's pixels / 255.0 as float64, and a view of its labels."""
        for lo, hi in row_blocks(len(self)):
            yield lo, hi, self.pixels[lo:hi] / 255.0, self.labels[lo:hi]

    @property
    def values(self) -> np.ndarray:
        """All pixels / 255.0, built on each access; no library path reads it."""
        return self.pixels / 255.0


def load_idx(images_path, labels_path) -> IdxImages:
    """Labeled images from an IDX image file and its label file, whose
    counts must agree; every check is made here, before any block is read."""
    images = _read_idx(images_path, IMAGE_MAGIC, "image")
    digits = _read_idx(labels_path, LABEL_MAGIC, "label").astype(np.int64)
    n, rows, cols = images.shape
    if len(digits) != n:
        raise FormatError(
            f"count mismatch: {images_path} has {n} images, {labels_path} has {len(digits)} labels"
        )
    n_classes = max(10, int(digits.max()) + 1) if digits.size else 10
    return IdxImages(
        pixels=images.reshape(n, rows * cols),
        grid=Grid((rows, cols)),
        labels=digits + 1,
        n_classes=n_classes,
    )
