import numpy as np
import pytest

from hypergrad.datasets import (Dataset, MinibatchSchedule, blob_task,
                                clustered_task_data, full_batch_schedule)


def test_dataset_basic_properties():
    ds = Dataset(features=np.ones((4, 2)), labels=np.array([0, 1, 0, 1]))
    assert ds.n == 4
    assert ds.n_features == 2
    assert ds.n_classes == 2


@pytest.mark.parametrize("labels", [np.array([0.0, 1.0, 0.0, 1.0]),
                                    np.array([[0], [1], [0], [1]])],
                         ids=["float", "2-D"])
def test_dataset_labels_must_be_1d_class_ids(labels):
    with pytest.raises(ValueError, match="1-D integer class ids"):
        Dataset(features=np.ones((4, 2)), labels=labels)


def test_dataset_subset_keeps_alignment():
    ds = Dataset(features=np.arange(8.0).reshape(4, 2),
                 labels=np.array([0, 1, 2, 3]), n_classes=4)
    sub = ds.subset(np.array([2, 0]))
    assert np.array_equal(sub.features, np.array([[4.0, 5.0], [0.0, 1.0]]))
    assert np.array_equal(sub.labels, np.array([2, 0]))
    assert sub.n_classes == 4


def test_blob_task_deterministic():
    a_tr, a_val, _ = blob_task(3, 20, 10, 5)
    b_tr, b_val, _ = blob_task(3, 20, 10, 5)
    assert np.array_equal(a_tr.features, b_tr.features)
    assert np.array_equal(a_val.labels, b_val.labels)


def test_blob_task_splits_differ():
    tr, val, te = blob_task(3, 20, 20, 20)
    assert not np.array_equal(tr.features, val.features)
    assert not np.array_equal(val.features, te.features)


def test_blob_task_antipodal_separation():
    # mirrored means are 2*separation apart by construction
    tr, _, _ = blob_task(2, 400, 10, 10, separation=2.0, antipodal=True)
    m0 = tr.features[tr.labels == 0].mean(axis=0)
    m1 = tr.features[tr.labels == 1].mean(axis=0)
    assert abs(np.linalg.norm(m0 - m1) - 4.0) < 0.4


def test_clustered_task_data_shapes():
    tr, val, te, cluster_of = clustered_task_data(0, 4, 2, 6, 5, 3, 2)
    assert tr.n == 20 and val.n == 12 and te.n == 8
    assert tr.n_features == 6
    assert np.array_equal(cluster_of, np.array([0, 1, 0, 1]))


def test_clustered_task_data_per_class_counts_may_vary():
    tr, _, _, _ = clustered_task_data(0, 3, 2, 4, [5, 2, 1], 1, 1)
    counts = np.bincount(tr.labels, minlength=3)
    assert np.array_equal(counts, np.array([5, 2, 1]))


class TestMinibatchSchedule:
    def test_indices_are_one_based_steps(self):
        sched = MinibatchSchedule(n=10, batch_size=4, seed=0)
        with pytest.raises(ValueError):
            sched.indices(0)

    def test_epoch_covers_every_example(self):
        sched = MinibatchSchedule(n=10, batch_size=4, seed=0)
        steps = sched.batches_per_epoch
        seen = np.concatenate([sched.indices(t) for t in range(1, steps + 1)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_deterministic(self):
        a = MinibatchSchedule(n=12, batch_size=5, seed=9)
        b = MinibatchSchedule(n=12, batch_size=5, seed=9)
        ts = range(1, 2 * a.batches_per_epoch + 1)
        for t in ts:
            assert np.array_equal(a.indices(t), b.indices(t))

    def test_epochs_reshuffle(self):
        sched = MinibatchSchedule(n=32, batch_size=16, seed=1)
        first = np.concatenate([sched.indices(1), sched.indices(2)])
        second = np.concatenate([sched.indices(3), sched.indices(4)])
        assert not np.array_equal(first, second)

    def test_cached_permutation_is_read_only(self):
        a = MinibatchSchedule(n=6, batch_size=3, seed=0).indices(1)
        before = a.copy()
        with pytest.raises(ValueError):
            a[:] = 0
        fresh = MinibatchSchedule(n=6, batch_size=3, seed=0).indices(1)
        assert np.array_equal(fresh, before)

    def test_full_batch_schedule(self):
        sched = full_batch_schedule(7)
        assert np.array_equal(sched.indices(1), np.arange(7))
        assert np.array_equal(sched.indices(123), np.arange(7))

    def test_full_batch_indices_are_shared_read_only(self):
        sched = full_batch_schedule(7)
        idx = sched.indices(1)
        assert sched.full_batch
        assert sched.indices(2) is idx
        with pytest.raises(ValueError):
            idx[0] = 3
        assert np.array_equal(full_batch_schedule(7).indices(9), np.arange(7))
        assert MinibatchSchedule(n=7, batch_size=7).full_batch
        assert not MinibatchSchedule(n=7, batch_size=6).full_batch
