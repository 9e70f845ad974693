"""Datasets, seed stacks of them, deterministic minibatch schedules, and
synthetic generators."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError
from .numerics import make_rng


@dataclass
class Dataset:
    """Feature matrix plus 1-D integer class ids in [0, n_classes)."""

    features: np.ndarray
    labels: np.ndarray
    n_classes: int | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DimensionMismatchError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be 1-D integer class ids, got "
                             f"{labels.dtype} of shape {labels.shape}")
        self.labels = labels.astype(np.int64, copy=False)
        if self.n_classes is None:
            self.n_classes = int(labels.max()) + 1 if labels.size else 0
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"class ids must lie in [0, {self.n_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        if len(self.labels) != self.features.shape[0]:
            raise DimensionMismatchError(
                f"{len(self.labels)} labels for {self.features.shape[0]} feature rows"
            )

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(features=self.features[idx], labels=self.labels[idx],
                       n_classes=self.n_classes)


@dataclass
class SeedStack:
    """S equal-shape training sets on a leading seed axis.

    ``features`` is (S, n, f) and ``labels`` (S, n) integer class ids in
    [0, n_classes). ``stack[i]`` is training set i as a Dataset whose
    arrays are views of the stack, so the stack is the one copy. It is
    made read-only in place: the objectives keep it as a cached batch.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        if (self.features.ndim != 3
                or self.labels.shape != self.features.shape[:2]):
            raise DimensionMismatchError(
                f"a seed stack needs (S, n, f) features and (S, n) labels, "
                f"got {self.features.shape} and {self.labels.shape}")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.n_classes):
            raise ValueError(f"class ids must lie in [0, {self.n_classes})")
        self.features.flags.writeable = self.labels.flags.writeable = False

    def __len__(self):
        return self.features.shape[0]

    def __getitem__(self, i) -> Dataset:
        return Dataset(features=self.features[i], labels=self.labels[i],
                       n_classes=self.n_classes)

    @property
    def n(self) -> int:
        return self.features.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[2]


@lru_cache(maxsize=16)
def _epoch_permutation(seed, epoch, n):
    # shared by every schedule with the same key: callers get read-only views.
    # The schedules of a seed block all read the same epoch at each step,
    # so 16 entries serve blocks of up to 16 seeds (64 held 1 MB at n = 2000)
    perm = make_rng(seed, 0x5C4ED, epoch).permutation(n)
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=64)
def _full_batch(n):
    # every full-batch step reads the same index set; shared read-only
    idx = np.arange(n)
    idx.flags.writeable = False
    return idx


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
    def full_batch(self) -> bool:
        return self.batch_size is None or self.batch_size >= self.n

    @property
    def batches_per_epoch(self) -> int:
        if self.full_batch:
            return 1
        return -(-self.n // self.batch_size)

    def indices(self, t) -> np.ndarray:
        """Index set of minibatch ``t`` (t >= 1)."""
        if t < 1:
            raise ValueError(f"step index must be >= 1, got {t}")
        if self.full_batch:
            return _full_batch(self.n)
        bpe = self.batches_per_epoch
        epoch, slot = divmod(t - 1, bpe)
        perm = _epoch_permutation(self.seed, epoch, self.n)
        return perm[slot * self.batch_size : min((slot + 1) * self.batch_size, self.n)]


def full_batch_schedule(n) -> MinibatchSchedule:
    return MinibatchSchedule(n=n, batch_size=None)


# ---------------------------------------------------------------------------
# Synthetic generators


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
    train = _sample_blobs(means, n_train, seed, stream=1)
    val = _sample_blobs(means, n_val, seed, stream=2)
    test = _sample_blobs(means, n_test, seed, stream=3)
    return train, val, test


def _sample_blobs(means, n, seed, stream):
    n_classes, n_features = means.shape
    rng = make_rng(seed, 0x5A3, stream)
    labels = rng.integers(0, n_classes, size=n)
    x = means[labels] + rng.standard_normal((n, n_features))
    return Dataset(features=x, labels=labels, n_classes=n_classes)


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

    def sample(per_class, stream):
        gen = make_rng(seed, 0xC1A55, stream)
        labels = np.repeat(np.arange(n_classes), per_class)
        x = protos[labels] + noise * gen.standard_normal((labels.size, n_features))
        order = gen.permutation(labels.size)
        return Dataset(features=x[order], labels=labels[order],
                       n_classes=n_classes)

    train = sample(n_train_per_class, 1)
    val = sample(n_val_per_class, 2)
    test = sample(n_test_per_class, 3)
    return train, val, test, cluster_of_class
