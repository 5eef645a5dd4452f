"""Dataset ingestion: IDX binary files and synthetic Gaussian blob tasks.

Datasets carry float64 features scaled to [0, 1] and integer labels.  A
small string registry ("blobs-..." / "idx:...") lets configs name datasets
without extra plumbing.
"""

from __future__ import annotations

import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Features in [0, 1] plus integer labels.

    images is (n, c, h, w) for image data or (n, d) for flat feature tasks;
    labels lie in [0, classes).
    """

    images: np.ndarray
    labels: np.ndarray
    classes: int
    split: str = ""

    def __len__(self) -> int:
        return self.images.shape[0]


def _read_exact(f, count, path, offset):
    # checked against the file size first, so a huge count allocates nothing
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise FormatError(
            f"{path}: truncated, wanted {count} bytes", offset=offset + left
        )
    return f.read(count)


def _counts(f, path, names, offset):
    """Read one big-endian int32 per name; each must be at least 1."""
    values = struct.unpack(f">{len(names)}i",
                           _read_exact(f, 4 * len(names), path, offset))
    for i, (name, value) in enumerate(zip(names, values)):
        if value < 1:
            raise FormatError(f"{path}: {name} {value} is below 1",
                              offset=offset + 4 * i)
    return values


def load_idx(images_path, labels_path) -> Dataset:
    """Read the big-endian IDX image/label pair used by digit datasets.

    Pixels are divided by 255 into [0, 1].  Bad magic numbers, counts or
    sizes below 1, and truncated files raise a format error carrying the
    byte offset of the problem.
    """
    with open(images_path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, images_path, 0))[0]
        if magic != _IDX_IMAGES_MAGIC:
            raise FormatError(
                f"{images_path}: bad image magic 0x{magic:08x}", offset=0
            )
        n, rows, cols = _counts(f, images_path, ("image count", "rows", "cols"), 4)
        raw = _read_exact(f, n * rows * cols, images_path, 16)
        images = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
        images = images.reshape(n, 1, rows, cols)
    with open(labels_path, "rb") as f:
        magic = struct.unpack(">i", _read_exact(f, 4, labels_path, 0))[0]
        if magic != _IDX_LABELS_MAGIC:
            raise FormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}", offset=0
            )
        (ln,) = _counts(f, labels_path, ("label count",), 4)
        raw = _read_exact(f, ln, labels_path, 8)
        labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if ln != n:
        raise FormatError(
            f"{labels_path}: {ln} labels for {n} images", offset=4
        )
    classes = int(labels.max()) + 1
    return Dataset(images=images, labels=labels, classes=classes, split="idx")


def synth_blobs(
    classes: int,
    dim: int,
    n_per_class: int,
    spread: float,
    seed: int,
    image_shape=None,
) -> Dataset:
    """Gaussian clusters at fixed block-pattern vertices, clipped to [0, 1].

    Class k's center sits at 0.8 on coordinates congruent to k (mod classes)
    and 0.2 elsewhere, so all pairs of centers are equidistant and the task
    is linearly separable for small spread.  image_shape optionally reshapes
    the flat features into (c, h, w).
    """
    if classes < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    if dim < classes:
        raise ValidationError(
            f"need dim >= classes for distinct centers, got dim={dim}, "
            f"classes={classes}"
        )
    if n_per_class < 1:
        raise ValidationError(f"need at least 1 sample per class, got {n_per_class}")
    if spread < 0.0:
        raise ValidationError(f"spread must be non-negative, got {spread}")
    rng = np.random.default_rng(seed)
    coords = np.arange(dim)
    xs = []
    for k in range(classes):
        center = np.where(coords % classes == k, 0.8, 0.2)
        xs.append(center + rng.normal(0.0, spread, size=(n_per_class, dim))
                  if spread > 0.0 else np.tile(center, (n_per_class, 1)))
    images = np.clip(np.concatenate(xs), 0.0, 1.0)
    labels = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    if image_shape is not None:
        image_shape = tuple(image_shape)
        if int(np.prod(image_shape)) != dim:
            raise ValidationError(
                f"image shape {image_shape} does not hold {dim} features"
            )
        images = images.reshape((len(labels),) + image_shape)
    return Dataset(images=images, labels=labels, classes=classes, split="synth")


_BLOBS_RE = re.compile(
    r"^blobs-c(\d+)-d(\d+)-n(\d+)-s(\d+\.?\d*|\.\d+)(?:-i(\d+)x(\d+)x(\d+))?$"
)


def load_dataset(dataset_id: str, seed: int = 0) -> Dataset:
    """Resolve a dataset id.

    "blobs-c3-d16-n200-s0.05" builds a synthetic task (optional trailing
    "-i1x4x4" reshapes features to an image); "idx:IMAGES:LABELS" loads an
    IDX file pair.
    """
    m = _BLOBS_RE.match(dataset_id)
    if m:
        classes, dim, n_per = int(m.group(1)), int(m.group(2)), int(m.group(3))
        spread = float(m.group(4))
        image_shape = None
        if m.group(5):
            image_shape = (int(m.group(5)), int(m.group(6)), int(m.group(7)))
        return synth_blobs(classes, dim, n_per, spread, seed, image_shape=image_shape)
    if dataset_id.startswith("idx:"):
        parts = dataset_id.split(":")
        if len(parts) != 3:
            raise ValidationError(
                f"idx dataset id must be idx:IMAGES:LABELS, got {dataset_id!r}"
            )
        return load_idx(parts[1], parts[2])
    raise ValidationError(f"unknown dataset id {dataset_id!r}")
