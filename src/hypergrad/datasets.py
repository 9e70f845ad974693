"""Datasets, deterministic minibatch schedules, and synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .numerics import make_rng


@dataclass
class Dataset:
    """Feature matrix plus labels (integer class ids or a real target matrix).

    ``features`` may be None for a labels-only file (IDX label ingestion);
    ``labels`` may be None for an images-only file.
    """

    features: np.ndarray | None
    labels: np.ndarray | None
    split: str = "train"
    n_classes: int | None = None

    def __post_init__(self):
        if self.features is not None:
            self.features = np.asarray(self.features, dtype=np.float64)
            if self.features.ndim != 2:
                raise DimensionMismatchError(
                    f"features must be 2-D, got shape {self.features.shape}"
                )
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.ndim == 1 and np.issubdtype(labels.dtype, np.integer):
                labels = labels.astype(np.int64)
                if self.n_classes is None:
                    self.n_classes = int(labels.max()) + 1 if labels.size else 0
                if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
                    raise ValueError(
                        f"class ids must lie in [0, {self.n_classes}), "
                        f"got range [{labels.min()}, {labels.max()}]"
                    )
            else:
                labels = labels.astype(np.float64)
            self.labels = labels
        if self.features is not None and self.labels is not None:
            if len(self.labels) != self.features.shape[0]:
                raise DimensionMismatchError(
                    f"{len(self.labels)} labels for {self.features.shape[0]} feature rows"
                )

    @property
    def n(self) -> int:
        if self.features is not None:
            return self.features.shape[0]
        return 0 if self.labels is None else len(self.labels)

    @property
    def n_features(self) -> int:
        return 0 if self.features is None else self.features.shape[1]

    def subset(self, idx, split=None) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(
            features=None if self.features is None else self.features[idx],
            labels=None if self.labels is None else self.labels[idx],
            split=self.split if split is None else split,
            n_classes=self.n_classes,
        )


@lru_cache(maxsize=64)
def _epoch_permutation(seed, epoch, n):
    # shared by every schedule with the same key: callers get read-only views
    perm = make_rng(seed, 0x5C4ED, epoch).permutation(n)
    perm.flags.writeable = False
    return perm


@dataclass(frozen=True)
class MinibatchSchedule:
    """Pure function from step index to minibatch index set.

    Steps are 1-based. Each epoch's permutation depends only on
    (seed, epoch, n), so every consumer (training, both hypergradient
    engines, finite differences) sees the identical batch sequence.
    ``batch_size=None`` means full batch at every step.
    """

    n: int
    batch_size: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("schedule needs at least one example")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive")

    @property
    def batches_per_epoch(self) -> int:
        if self.batch_size is None or self.batch_size >= self.n:
            return 1
        return -(-self.n // self.batch_size)

    def indices(self, t) -> np.ndarray:
        """Index set of minibatch ``t`` (t >= 1)."""
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        if self.batch_size is None or self.batch_size >= self.n:
            return np.arange(self.n)
        bpe = self.batches_per_epoch
        epoch, slot = divmod(t - 1, bpe)
        perm = _epoch_permutation(self.seed, epoch, self.n)
        return perm[slot * self.batch_size : min((slot + 1) * self.batch_size, self.n)]


def full_batch_schedule(n) -> MinibatchSchedule:
    return MinibatchSchedule(n=n, batch_size=None)


# ---------------------------------------------------------------------------
# Synthetic generators

_SPLIT_STREAMS = {"train": 1, "validation": 2, "test": 3}


def gaussian_blobs(n, n_classes, n_features, seed, separation=2.0, split="train"):
    """Isotropic Gaussian class clusters with unit noise.

    Class means sit at ``separation`` times random unit directions, drawn
    once from the seed so the train/validation/test splits of the same
    task share geometry.
    """
    rng = make_rng(seed, 0xB10B5)
    dirs = rng.standard_normal((n_classes, n_features))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    return _sample_blobs(means, n, seed, stream=_SPLIT_STREAMS.get(split, 9), split=split)


def blob_task(seed, n_train, n_val, n_test, n_classes=2, n_features=2, separation=2.0,
              antipodal=False):
    """Train/val/test datasets drawn from one blob geometry.

    With ``antipodal=True`` the second class mean mirrors the first, so a
    two-class task is separated by ``2 * separation`` no matter how the
    random directions land.
    """
    rng = make_rng(seed, 0xB10B5)
    dirs = rng.standard_normal((n_classes, n_features))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    if antipodal:
        dirs[1] = -dirs[0]
    means = separation * dirs
    train = _sample_blobs(means, n_train, seed, stream=1, split="train")
    val = _sample_blobs(means, n_val, seed, stream=2, split="validation")
    test = _sample_blobs(means, n_test, seed, stream=3, split="test")
    return train, val, test


def _sample_blobs(means, n, seed, stream, split):
    n_classes, n_features = means.shape
    rng = make_rng(seed, 0x5A3, stream)
    labels = rng.integers(0, n_classes, size=n)
    x = means[labels] + rng.standard_normal((n, n_features))
    return Dataset(features=x, labels=labels.astype(np.int64), split=split,
                   n_classes=n_classes)


def clustered_task_data(seed, n_classes, n_clusters, n_features,
                        n_train_per_class, n_val_per_class, n_test_per_class,
                        cluster_separation=3.0, class_spread=0.6, noise=1.0):
    """Classification data whose class prototypes group into latent clusters.

    Classes within a cluster have nearby prototypes, so coupling their
    weight vectors during training genuinely helps when the per-class
    sample count is small. Returns (train, val, test, cluster_of_class).
    """
    rng = make_rng(seed, 0xC1A55)
    centers = rng.standard_normal((n_clusters, n_features))
    centers *= cluster_separation / np.linalg.norm(centers, axis=1, keepdims=True)
    cluster_of_class = np.arange(n_classes) % n_clusters
    protos = centers[cluster_of_class] + class_spread * rng.standard_normal(
        (n_classes, n_features)
    )

    def sample(per_class, stream, split):
        gen = make_rng(seed, 0xC1A55, stream)
        labels = np.repeat(np.arange(n_classes), per_class)
        x = protos[labels] + noise * gen.standard_normal((labels.size, n_features))
        order = gen.permutation(labels.size)
        return Dataset(features=x[order], labels=labels[order].astype(np.int64),
                       split=split, n_classes=n_classes)

    train = sample(n_train_per_class, 1, "train")
    val = sample(n_val_per_class, 2, "validation")
    test = sample(n_test_per_class, 3, "test")
    return train, val, test, cluster_of_class
