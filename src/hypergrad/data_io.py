"""IDX dataset ingestion, label corruption, and result writers.

IDX here means the classic big-endian binary format used for image/label
archives: magic 0x00000801 for 1-D unsigned-byte label files and
0x00000803 for 3-D unsigned-byte image stacks. Images are flattened to
rows and scaled to [0, 1]; labels stay integers.

Run artifacts are deliberately plain: JSON-lines for records, CSV for
curves, so anything can consume them.
"""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .datasets import Dataset
from .errors import IngestError
from .numerics import make_rng

_IDX_LABEL_MAGIC = 0x00000801
_IDX_IMAGE_MAGIC = 0x00000803


def read_idx(path):
    """Parse one IDX file into a uint8 array (1-D labels or 3-D images)."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise IngestError(f"{path}: too short for an IDX header ({len(raw)} bytes)")
    magic = int.from_bytes(raw[:4], "big")
    if magic == _IDX_LABEL_MAGIC:
        ndim = 1
    elif magic == _IDX_IMAGE_MAGIC:
        ndim = 3
    else:
        raise IngestError(
            f"{path}: bad IDX magic 0x{magic:08X} "
            f"(expected 0x{_IDX_LABEL_MAGIC:08X} or 0x{_IDX_IMAGE_MAGIC:08X})"
        )
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IngestError(f"{path}: truncated IDX dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    expected = int(np.prod(dims))
    payload = raw[header:]
    if len(payload) != expected:
        raise IngestError(
            f"{path}: truncated IDX payload: expected {expected} bytes "
            f"for dims {dims}, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(dims)


def ingest_idx(images_path, labels_path):
    """Build a Dataset from an IDX image stack and its label file."""
    images = read_idx(images_path)
    if images.ndim != 3:
        raise IngestError(f"{images_path}: expected an image stack, got labels")
    if 0 in images.shape:  # no images, or images of no pixels
        raise IngestError(f"{images_path}: empty image stack, dims "
                          f"{images.shape}")
    features = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    labels = read_idx(labels_path)
    if labels.ndim != 1:
        raise IngestError(f"{labels_path}: expected a label file, got images")
    if len(labels) != len(features):
        raise IngestError(
            f"label count {len(labels)} does not match image count "
            f"{len(features)}"
        )
    return Dataset(features=features, labels=labels)


def corrupt_labels(ds: Dataset, fraction, seed):
    """Relabel a random subset with uniformly random *different* classes.

    Returns the corrupted dataset and the sorted index array of examples
    whose labels were flipped (the ground truth for F1 scoring).
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"corruption fraction {fraction} outside [0, 1]")
    k = ds.n_classes
    if k < 2:
        raise ValueError("label corruption needs at least 2 classes")
    n_corrupt = int(fraction * ds.n)
    if n_corrupt == 0:
        return ds, np.empty(0, dtype=np.int64)
    rng = make_rng(seed, 0xC0, 0)
    picked = np.sort(rng.choice(ds.n, size=n_corrupt, replace=False))
    labels = ds.labels.copy()
    # draw in [0, k-1) and skip over the original label to stay different
    draws = rng.integers(0, k - 1, size=n_corrupt)
    originals = labels[picked]
    draws = draws + (draws >= originals)
    labels[picked] = draws
    out = Dataset(features=ds.features, labels=labels, n_classes=k)
    return out, picked


# ---------------------------------------------------------------------------
# Result emission


def write_jsonl(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def write_curves_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
