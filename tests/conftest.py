"""Shared pytest hooks and file helpers.

The acceptance tests append one formatted line per criterion to
``ACCEPTANCE_LINES``; the terminal-summary hook re-emits them in a
dedicated section so the verdicts survive output capture and land at
the bottom of every run. ``write_idx`` and ``read_jsonl`` are the
inverses of the package's IDX reader and JSON-lines writer, for tests
that build inputs or read outputs.
"""

import json
import struct

import numpy as np

from hypergrad.data_io import _IDX_IMAGE_MAGIC, _IDX_LABEL_MAGIC

ACCEPTANCE_LINES = []


def write_idx(path, array):
    """Inverse of read_idx; accepts 1-D (labels) or 3-D (images) uint8 data."""
    array = np.ascontiguousarray(array, dtype=np.uint8)
    if array.ndim == 1:
        magic = _IDX_LABEL_MAGIC
    elif array.ndim == 3:
        magic = _IDX_IMAGE_MAGIC
    else:
        raise ValueError(f"IDX supports 1-D or 3-D data, got shape {array.shape}")
    with open(path, "wb") as fh:
        fh.write(magic.to_bytes(4, "big"))
        fh.write(struct.pack(f">{array.ndim}I", *array.shape))
        fh.write(array.tobytes())


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
