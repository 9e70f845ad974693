"""IDX ingestion, label corruption, and artifact writers."""

import re

import numpy as np
import pytest

from conftest import read_jsonl, write_idx
from hypergrad.data_io import (corrupt_labels, ingest_idx, read_idx,
                               write_curves_csv, write_jsonl)
from hypergrad.datasets import Dataset
from hypergrad.errors import IngestError
from hypergrad.numerics import make_rng


def _image_stack(n=10, h=28, w=28, seed=0):
    return make_rng(seed, 1).integers(0, 256, size=(n, h, w)).astype(np.uint8)


# ---------------------------------------------------------------------------
# IDX


def test_idx_round_trip_images(tmp_path):
    stack = _image_stack()
    path = tmp_path / "imgs.idx"
    write_idx(path, stack)
    back = read_idx(path)
    assert back.shape == (10, 28, 28)
    assert np.array_equal(back, stack)


def test_idx_round_trip_labels(tmp_path):
    labels = np.array([0, 1, 2, 9, 4], dtype=np.uint8)
    path = tmp_path / "labels.idx"
    write_idx(path, labels)
    assert np.array_equal(read_idx(path), labels)


def test_idx_header_encoding(tmp_path):
    path = tmp_path / "imgs.idx"
    write_idx(path, _image_stack(n=3, h=2, w=4))
    raw = path.read_bytes()
    assert raw[:4] == (0x803).to_bytes(4, "big")
    assert int.from_bytes(raw[4:8], "big") == 3
    assert int.from_bytes(raw[8:12], "big") == 2
    assert int.from_bytes(raw[12:16], "big") == 4
    assert len(raw) == 16 + 24


def test_idx_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes((0x805).to_bytes(4, "big") + b"\x00" * 8)
    with pytest.raises(IngestError, match="magic"):
        read_idx(path)


def test_idx_truncation_error_names_byte_counts(tmp_path):
    stack = _image_stack(n=10)
    path = tmp_path / "imgs.idx"
    write_idx(path, stack)
    raw = path.read_bytes()
    (tmp_path / "cut.idx").write_bytes(raw[:-100])
    with pytest.raises(IngestError) as exc:
        read_idx(tmp_path / "cut.idx")
    msg = str(exc.value)
    assert str(10 * 28 * 28) in msg          # expected payload bytes
    assert str(10 * 28 * 28 - 100) in msg    # actual payload bytes


def test_idx_too_short_for_header(tmp_path):
    path = tmp_path / "tiny.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(IngestError, match="too short"):
        read_idx(path)


def test_ingest_idx_scales_and_flattens(tmp_path):
    stack = _image_stack()
    labels = make_rng(0, 2).integers(0, 10, size=10).astype(np.uint8)
    write_idx(tmp_path / "i.idx", stack)
    write_idx(tmp_path / "l.idx", labels)
    ds = ingest_idx(tmp_path / "i.idx", tmp_path / "l.idx")
    assert ds.features.shape == (10, 784)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert ds.features.dtype == np.float64
    assert np.array_equal(ds.labels, labels)
    assert ds.n_classes == labels.max() + 1


def test_ingest_idx_mismatched_counts(tmp_path):
    write_idx(tmp_path / "i.idx", _image_stack(n=10))
    write_idx(tmp_path / "l.idx", np.zeros(7, dtype=np.uint8))
    with pytest.raises(IngestError, match="label count 7"):
        ingest_idx(tmp_path / "i.idx", tmp_path / "l.idx")


@pytest.mark.parametrize("dims", [(0, 3, 3), (5, 0, 3), (5, 3, 0)])
def test_ingest_idx_rejects_an_empty_image_stack(tmp_path, dims):
    # no images, or images of no pixels, would train on nothing
    write_idx(tmp_path / "i.idx", np.zeros(dims, dtype=np.uint8))
    write_idx(tmp_path / "l.idx", np.zeros(dims[0], dtype=np.uint8))
    want = f"i.idx: empty image stack, dims {dims}"
    with pytest.raises(IngestError, match=re.escape(want)):
        ingest_idx(tmp_path / "i.idx", tmp_path / "l.idx")


def test_ingest_idx_swapped_arguments(tmp_path):
    write_idx(tmp_path / "l.idx", np.zeros(7, dtype=np.uint8))
    with pytest.raises(IngestError, match="expected an image stack"):
        ingest_idx(tmp_path / "l.idx", tmp_path / "l.idx")
    write_idx(tmp_path / "i.idx", _image_stack(n=7))
    with pytest.raises(IngestError, match="expected a label file"):
        ingest_idx(tmp_path / "i.idx", tmp_path / "i.idx")


# ---------------------------------------------------------------------------
# label corruption


def _dataset(n=40, k=4, seed=3):
    rng = make_rng(seed, 9)
    return Dataset(features=rng.standard_normal((n, 2)),
                   labels=rng.integers(0, k, size=n), n_classes=k)


def test_corrupt_zero_fraction_is_identity():
    ds = _dataset()
    out, picked = corrupt_labels(ds, 0.0, seed=1)
    assert picked.size == 0
    assert np.array_equal(out.labels, ds.labels)


def test_corrupt_half_flips_exact_count_and_never_keeps_label():
    ds = _dataset(n=40)
    out, picked = corrupt_labels(ds, 0.5, seed=1)
    assert picked.size == 20
    assert np.array_equal(picked, np.sort(picked))
    # every picked example changed class; every other example untouched
    changed = np.flatnonzero(out.labels != ds.labels)
    assert np.array_equal(changed, picked)
    assert np.all(out.labels[picked] != ds.labels[picked])
    assert np.all((out.labels >= 0) & (out.labels < ds.n_classes))


def test_corrupt_is_deterministic_per_seed():
    ds = _dataset()
    a = corrupt_labels(ds, 0.3, seed=7)
    b = corrupt_labels(ds, 0.3, seed=7)
    c = corrupt_labels(ds, 0.3, seed=8)
    assert np.array_equal(a[0].labels, b[0].labels)
    assert np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0].labels, c[0].labels)


def test_corrupt_validates_inputs():
    with pytest.raises(ValueError, match="fraction"):
        corrupt_labels(_dataset(), 1.5, seed=0)
    one_class = Dataset(features=np.zeros((4, 2)), labels=np.zeros(4, int))
    with pytest.raises(ValueError, match="classes"):
        corrupt_labels(one_class, 0.5, seed=0)


# ---------------------------------------------------------------------------
# artifact writers


def test_jsonl_round_trip(tmp_path):
    rows = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "b": None}]
    path = tmp_path / "sub" / "rows.jsonl"
    write_jsonl(path, rows)  # creates the parent directory
    assert read_jsonl(path) == rows


def test_curves_csv(tmp_path):
    path = tmp_path / "curves.csv"
    write_curves_csv(path, ["step", "value"], [[1, 0.5], [2, 0.25]])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,value"
    assert lines[1] == "1,0.5"
    assert len(lines) == 3
