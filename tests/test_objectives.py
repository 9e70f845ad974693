"""Gradient, HVP, and cross-derivative checks for the training objectives.

Every derivative is validated against central finite differences of the
objective itself, and the two cross products (jvp / vjp) are validated
against each other through the transpose-duality identity
    alpha . cross_jvp(q) == cross_vjp(alpha) . q .
"""

import numpy as np
import pytest

from hypergrad.datasets import (Dataset, MinibatchSchedule, SeedStack,
                                blob_task, full_batch_schedule)
from hypergrad.dynamics import GradientDescent
from hypergrad.errors import DimensionMismatchError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  QuadraticToy, QuadraticValidation,
                                  WeightedSoftmax, _assemble_wgrad,
                                  _gauss_newton_dirs, _log_softmax_rows,
                                  _over_classes, _trajectory_scope,
                                  pack_linear, softmax_rows, unpack_linear)


def fd_grad(fn, w, h=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = h
        g[i] = (fn(w + e) - fn(w - e)) / (2 * h)
    return g


def duality_gap(obj, w, lam, t, rng):
    alpha = rng.standard_normal(w.size)
    q = rng.standard_normal(lam.size)
    lhs = float(alpha @ obj.cross_jvp(w, lam, t, q))
    rhs = float(obj.cross_vjp(w, lam, t, alpha) @ q)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# QuadraticToy


def test_quadratic_toy_value():
    obj = QuadraticToy(2)
    assert obj.value(np.array([1.0, 2.0]), np.zeros(0), 1) == 2.5


def test_quadratic_toy_grad_and_hvp():
    obj = QuadraticToy(3)
    w = np.array([1.0, -4.0, 2.0])
    assert np.array_equal(obj.grad_w(w, np.zeros(0), 1), w)
    r = np.array([0.3, 0.0, -1.0])
    assert np.array_equal(obj.hvp_w(w, np.zeros(0), 1, r), r)
    assert np.array_equal(obj.hvp_w(w, np.zeros(0), 1, np.zeros(3)), np.zeros(3))


def test_quadratic_toy_cross_terms_vanish():
    layout = VectorLayout([("eta", 1)])
    obj = QuadraticToy(2, hyper_layout=layout)
    w = np.ones(2)
    lam = layout.pack(eta=0.3)
    assert np.array_equal(obj.cross_jvp(w, lam, 1, np.ones(1)), np.zeros(2))
    assert np.array_equal(obj.cross_vjp(w, lam, 1, np.ones(2)), np.zeros(1))
    assert obj.touched_hypers(1).size == 0


# ---------------------------------------------------------------------------
# WeightedSoftmax


def tiny_task(seed=0, n=6, p=3, k=2):
    train, _, _ = blob_task(seed, n, 4, 4, n_classes=k, n_features=p)
    return train


def make_weighted(train, batch_size=None):
    layout = VectorLayout([("weights", train.n)])
    schedule = MinibatchSchedule(n=train.n, batch_size=batch_size, seed=1)
    obj = WeightedSoftmax(train, hyper_layout=layout, schedule=schedule)
    return obj, layout


def test_weighted_softmax_zero_weights_annihilate():
    train = tiny_task()
    obj, layout = make_weighted(train)
    w = make_rng(0, 1).standard_normal(obj.n_params)
    lam = layout.pack(weights=0.0)
    assert obj.value(w, lam, 1) == 0.0
    assert np.array_equal(obj.grad_w(w, lam, 1), np.zeros(obj.n_params))


def test_weighted_softmax_single_weight_matches_per_example_loss():
    train = tiny_task(n=2)
    obj, layout = make_weighted(train)
    w = make_rng(0, 2).standard_normal(obj.n_params)
    lam = layout.pack(weights=[1.0, 0.0])
    amat, b = unpack_linear(w, train.n_classes, train.n_features)
    logits = train.features[0] @ amat.T + b
    ce = np.log(np.exp(logits).sum()) - logits[train.labels[0]]
    assert abs(obj.value(w, lam, 1) - ce / 2.0) < 1e-12


def test_weighted_softmax_grad_matches_fd():
    train = tiny_task()
    obj, layout = make_weighted(train)
    rng = make_rng(0, 3)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(weights=rng.random(train.n))
    g = obj.grad_w(w, lam, 1)
    g_fd = fd_grad(lambda ww: obj.value(ww, lam, 1), w)
    assert np.max(np.abs(g - g_fd)) < 1e-6


def test_weighted_softmax_hvp_matches_fd_of_grad():
    train = tiny_task()
    obj, layout = make_weighted(train)
    rng = make_rng(0, 4)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(weights=rng.random(train.n))
    r = rng.standard_normal(obj.n_params)
    h = 1e-6
    fd = (obj.grad_w(w + h * r, lam, 1) - obj.grad_w(w - h * r, lam, 1)) / (2 * h)
    assert np.max(np.abs(obj.hvp_w(w, lam, 1, r) - fd)) < 1e-6


def test_weighted_softmax_unit_cross_jvp_is_scaled_example_grad():
    train = tiny_task()
    obj, layout = make_weighted(train)
    w = make_rng(0, 5).standard_normal(obj.n_params)
    lam = layout.pack(weights=1.0)
    i = 2
    q = np.zeros(train.n)
    q[i] = 1.0
    out = obj.cross_jvp(w, lam, 1, q)
    solo = layout.pack(weights=np.eye(train.n)[i])
    expect = obj.grad_w(w, solo, 1)  # (1/N) * grad of example i alone
    assert np.max(np.abs(out - expect)) < 1e-12


def test_weighted_softmax_cross_duality():
    train = tiny_task(n=8, p=4, k=3)
    obj, layout = make_weighted(train, batch_size=3)
    rng = make_rng(0, 6)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(weights=rng.random(train.n))
    for t in (1, 2, 3):
        assert duality_gap(obj, w, lam, t, rng) < 1e-12


def test_weighted_softmax_touched_hypers_follow_schedule():
    train = tiny_task(n=8)
    obj, layout = make_weighted(train, batch_size=3)
    batch = obj._stack_batch(2)[0]  # the examples step 2 trains on
    touched = obj.touched_hypers(2)
    assert np.array_equal(touched, np.sort(batch))


def test_weighted_softmax_fixed_weights_has_no_hypers():
    train = tiny_task()
    obj = WeightedSoftmax(train, weight_segment=None)
    w = np.zeros(obj.n_params)
    assert obj.touched_hypers(1).size == 0
    assert obj.value(w, np.zeros(0), 1) > 0.0


def weight_kinds_task(kind, batch_size=None, order="C"):
    """WeightedSoftmax with unit or hyper example weights, and its lam."""
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    if order == "F":
        train = Dataset(features=np.asfortranarray(train.features),
                        labels=train.labels, n_classes=train.n_classes)
    sched = (None if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=5))
    if kind == "unit":
        return WeightedSoftmax(train, schedule=sched, weight_segment=None), np.zeros(0)
    layout = VectorLayout([("weights", 8)])
    obj = WeightedSoftmax(train, hyper_layout=layout, schedule=sched)
    weights = make_rng(5, 3).random(8) if kind == "hyper" else 1.0
    return obj, layout.pack(weights=weights)


@pytest.mark.parametrize("batch_size", [None, 3])
@pytest.mark.parametrize("kind,as_hyper", [("unit", "hyper-ones")])
def test_constant_weight_gradient_is_cached_read_only(kind, as_hyper, batch_size):
    # with unit weights the gradient is built once per (t, w) and
    # shared; it must be read-only and bit-equal both to a freshly built
    # objective's and to all-ones weights passed as hypers
    obj, lam = weight_kinds_task(kind, batch_size)
    rng = make_rng(5, 4)
    w = rng.standard_normal(obj.n_params)
    r = rng.standard_normal(obj.n_params)
    g = obj.grad_w(w, lam, 2)
    assert not g.flags.writeable
    with pytest.raises(ValueError):
        g[0] = 1.0
    assert obj.grad_w(w, lam, 2) is g
    fresh, _ = weight_kinds_task(kind, batch_size)
    assert g.tobytes() == fresh.grad_w(w.copy(), lam, 2).tobytes()
    weighted, hyper_lam = weight_kinds_task(as_hyper, batch_size)
    assert g.tobytes() == weighted.grad_w(w, hyper_lam, 2).tobytes()
    assert (obj.hvp_w(w, lam, 2, r).tobytes()
            == weighted.hvp_w(w, hyper_lam, 2, r).tobytes())
    assert obj.value(w, lam, 2) == weighted.value(w, hyper_lam, 2)


@pytest.mark.parametrize("batch_size", [None, 3])
@pytest.mark.parametrize("kind", ["unit", "hyper"])
def test_mutating_w_in_place_rebuilds_cached_batch(kind, batch_size):
    obj, lam = weight_kinds_task(kind, batch_size)
    rng = make_rng(5, 6)
    w = rng.standard_normal(obj.n_params)
    r = rng.standard_normal(obj.n_params)
    before = (obj.grad_w(w, lam, 1).copy(), obj.hvp_w(w, lam, 1, r))
    w[3] += 0.5  # same array, same t
    after = (obj.grad_w(w, lam, 1), obj.hvp_w(w, lam, 1, r))
    fresh, _ = weight_kinds_task(kind, batch_size)
    expect = (fresh.grad_w(w.copy(), lam, 1), fresh.hvp_w(w.copy(), lam, 1, r))
    for got, want, old in zip(after, expect, before):
        assert got.tobytes() == want.tobytes()
        assert not np.array_equal(got, old)


def test_full_batch_reads_contiguous_features_in_place():
    c_obj, lam = weight_kinds_task("hyper")
    f_obj, _ = weight_kinds_task("hyper", order="F")
    w = make_rng(5, 7).standard_normal(c_obj.n_params)
    c_b = c_obj._batch(1, w)
    assert np.shares_memory(c_b.x, c_obj.dataset.features)
    # the batch's labels, as ``_losses`` and ``accuracy`` read them
    assert np.shares_memory(c_obj._stack_batch(1)[2], c_obj.dataset.labels)
    # a non-contiguous matrix is gathered into a C-ordered copy instead
    f_b = f_obj._batch(1, w)
    assert not np.shares_memory(f_b.x, f_obj.dataset.features)
    assert f_b.x.flags.c_contiguous
    # the full batch is built once per objective and cached read-only
    for obj, b in ((c_obj, c_b), (f_obj, f_b)):
        assert obj._batch(2, w).x is b.x
        for arr in (b.idx, b.x, obj._stack_batch(1)[2], b.onehot):
            assert not arr.flags.writeable
    assert c_obj.grad_w(w, lam, 1).tobytes() == f_obj.grad_w(w, lam, 1).tobytes()
    mb_obj, _ = weight_kinds_task("hyper", batch_size=8)  # batch == n: full
    assert np.shares_memory(mb_obj._batch(1, w).x, mb_obj.dataset.features)


def label_subtract_coefs(p, y):
    """Reference dloss/dlogits: p with 1 subtracted at each row's label."""
    g = p.copy()
    g[np.arange(len(y)), y] -= 1.0
    return g


def softmax_model(model, train, sched=None):
    """A unit-weight or multitask softmax on 3-class ``train``, its lam."""
    if model == "weighted":
        return WeightedSoftmax(train, schedule=sched,
                               weight_segment=None), np.zeros(0)
    return MultitaskLinear(train, schedule=sched, per_task_rho=True,
                           hyper_layout=VectorLayout([("coupling", 9),
                                                      ("rho", 3)])), np.zeros(12)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("batch_size", [None, 3])
@pytest.mark.parametrize("model", ["weighted", "mtl"])
def test_grad_coefs_equal_label_subtract(model, batch_size, order):
    # g = p - onehot from the batch's bool one-hot has the bits of
    # subtracting 1 at each label, for a full batch read in place, a
    # gathered full batch and a minibatch alike
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    if order == "F":
        train = Dataset(features=np.asfortranarray(train.features),
                        labels=train.labels, n_classes=train.n_classes)
    sched = (None if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=5))
    obj, _ = softmax_model(model, train, sched)
    w = make_rng(5, 8).standard_normal(obj.n_params)
    for t in (1, 2, 3):
        b = obj._batch(t, w)
        y = obj._stack_batch(t)[2]
        assert b.g.tobytes() == label_subtract_coefs(b.p, y).tobytes()


@pytest.mark.parametrize("model", ["weighted", "mtl", "validation"])
def test_a_dataset_is_read_only_once_an_objective_holds_it(model):
    # the objective keeps the dataset's arrays as its full batch, as it
    # keeps a seed stack's, so a later write to them must fail; so does
    # a validation error, whose value and gradient would else disagree
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    features, labels = train.features.copy(), train.labels.copy()
    if model == "validation":
        DatasetValidation(train).grad(make_rng(5, 9).standard_normal(15))
    else:
        softmax_model(model, train)
    for write in (lambda: train.features.__setitem__((0, 0), 1.0),
                  lambda: train.labels.__setitem__(0, 2)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert np.array_equal(train.features, features)
    assert np.array_equal(train.labels, labels)


@pytest.mark.parametrize("model", ["weighted", "mtl"])
def test_value_takes_one_parameter_vector(model):
    # a block has no value, even on one training set
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    obj, lam = softmax_model(model, train)
    w = make_rng(5, 9).standard_normal((2, obj.n_params))
    with pytest.raises(DimensionMismatchError, match="one parameter vector"):
        obj.value(w, lam, 1)
    assert obj.value(w[0], lam, 1) > 0.0


@pytest.mark.parametrize("batch_size", [None, 3])
@pytest.mark.parametrize("model", ["weighted", "mtl", "stack"])
def test_cached_batch_arrays_are_read_only(model, batch_size):
    # p, g and the unit-weight gradient serve every product at (t, w)
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    sched = (full_batch_schedule(8) if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=5))
    w = make_rng(5, 9).standard_normal(3 * 5)
    lam = np.zeros(0)
    if model == "weighted":
        obj = WeightedSoftmax(train, schedule=sched, weight_segment=None)
    elif model == "stack":
        stack = SeedStack(np.stack([train.features] * 2),
                          np.stack([train.labels] * 2), 3)
        obj = WeightedSoftmax(stack, schedule=[sched] * 2,
                              weight_segment=None)
        w = np.stack([w, -w])
    else:
        layout = VectorLayout([("coupling", 9), ("rho", 3)])
        obj = MultitaskLinear(train, schedule=sched, per_task_rho=True,
                              hyper_layout=layout)
        lam = np.full(layout.size, 0.1)
    grad = obj.grad_w(w, lam, 2)
    b = obj._batch(2, w)
    cached = [b.p, b.g] + ([b.grad] if model != "mtl" else [])
    if model != "mtl":
        assert grad is b.grad
    for arr in cached:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0


def _refuses_writes(arrays):
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0


@pytest.mark.parametrize("kind, batch_size", [("weighted", 3), ("unit", 3),
                                              ("mtl", None), ("mtl", 3)])
def test_an_objective_shares_only_read_only_arrays(kind, batch_size):
    # after a step and a product, the memo entry, the kept softmax, the
    # full batch, the bound penalty and the touched set serve later
    # calls, so none of them may be written by accident
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    sched = (full_batch_schedule(8) if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=5))
    if kind == "mtl":
        layout = VectorLayout([("eta", 1), ("coupling", 9), ("rho", 3)])
        obj = MultitaskLinear(train, layout, sched, per_task_rho=True)
    else:
        layout = VectorLayout([("eta", 1)]
                              + [("weights", 8)] * (kind == "weighted"))
        obj = WeightedSoftmax(train, layout, sched, weight_segment=(
            "weights" if kind == "weighted" else None))
    dyn = GradientDescent(obj)
    rng = make_rng(5, 10)
    lam = 0.1 + rng.random(layout.size)
    s = rng.standard_normal(obj.n_params)
    s.flags.writeable = False
    with _trajectory_scope(obj):
        dyn.step(s, lam, 2)
        dyn.jvp_hyper(s, lam, 2, rng.standard_normal(layout.size))
        b = obj._cache._last[3]
        kept = [a for pair in obj._cache._steps.values() for a in pair]
    arrays = [b.idx, b.x, b.onehot, b.p, b.g, *kept, obj.touched_hypers(2),
              dyn.touched_hypers(2)]
    arrays += [b.grad] if b.grad is not None else []
    arrays += obj._full or ()
    arrays += obj._bound if kind == "mtl" else ()
    _refuses_writes(arrays)


@pytest.mark.parametrize("kind", ["dataset", "quadratic"])
def test_a_validation_error_shares_only_read_only_arrays(kind):
    # the full batch, or a private copy of the center
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    w = make_rng(5, 11).standard_normal(15)
    center = w + 1.0
    e = (DatasetValidation(train) if kind == "dataset"
         else QuadraticValidation(15, center))
    before = e.value(w)
    e.grad(w)
    _refuses_writes(e._full if kind == "dataset" else [e.center])
    center[0] = 5.0
    assert e.value(w) == before


@pytest.mark.parametrize("shape", ["m,m", "2,m", "m+1"])
@pytest.mark.parametrize("model", ["weighted", "full", "uniform"])
def test_cross_jvp_takes_one_hyper_direction(model, shape):
    if model == "weighted":
        obj, layout = make_weighted(tiny_task())
    else:
        obj, layout, _ = mtl_setup(coupling=model, per_task_rho=False, k=2)
    m = layout.size
    q = {"m,m": np.ones((m, m)), "2,m": np.ones((2, m)),
         "m+1": np.ones(m + 1)}[shape]
    w = make_rng(5, 12).standard_normal(obj.n_params)
    with pytest.raises(DimensionMismatchError, match="expects"):
        obj.cross_jvp(w, np.ones(m), 1, q)


@pytest.mark.parametrize("subset", [None, 5])
def test_validation_grad_equals_label_subtract(subset):
    # the validation error reads its (subset of the) set as the data
    # term's full batch, the seeded subset's rows in order
    train = tiny_task(n=9, p=3, k=3)
    e = DatasetValidation(train.sample(subset, 2))
    w = make_rng(1, 10).standard_normal(3 * 4)
    _, x, y, onehot = e._stack_batch(1)
    rows = np.arange(9) if subset is None else np.sort(
        make_rng(2, 0x5B5E7).choice(9, size=subset, replace=False))
    assert np.array_equal(x, train.features[rows])
    assert np.array_equal(y, train.labels[rows])
    mat, bias = unpack_linear(w, 3, 3)
    g = label_subtract_coefs(softmax_rows(x @ mat.T + bias), y)
    want = _assemble_wgrad(g, x) / len(y)
    assert e.grad(w).tobytes() == want.tobytes()
    assert not onehot.flags.writeable


# ---------------------------------------------------------------------------
# MultitaskLinear


def mtl_setup(coupling="full", per_task_rho=True, k=3, p=4, n=9, seed=2):
    # coupling "none" builds the full model: its tests hold C at 0
    rng = make_rng(seed, 0)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    train = Dataset(features=feats, labels=labels, n_classes=k)
    layout = VectorLayout([("coupling", 1 if coupling == "uniform" else k * k),
                           ("rho", k if per_task_rho else 1)])
    obj = MultitaskLinear(train, hyper_layout=layout,
                          coupling="uniform" if coupling == "uniform"
                          else "full", per_task_rho=per_task_rho)
    return obj, layout, train


def test_mtl_regularizer_identity_vs_termwise():
    obj, layout, train = mtl_setup()
    k, p = train.n_classes, train.n_features
    rng = make_rng(2, 1)
    w = rng.standard_normal(obj.n_params)
    cflat = rng.random(k * k)
    rho = rng.random(k)
    lam = layout.pack(coupling=cflat, rho=rho)
    c_mat = obj._coupling_matrix(lam)
    amat, _ = unpack_linear(w, k, p)
    direct = 0.0
    for j in range(k):
        for l in range(k):
            direct += c_mat[j, l] * np.sum((amat[j] - amat[l]) ** 2)
        direct += rho[j] * np.sum(amat[j] ** 2)
    data = obj.value(w, layout.pack(coupling=0.0, rho=0.0), 1)
    total = obj.value(w, lam, 1)
    assert abs((total - data) - direct) < 1e-12


def test_mtl_coupling_matrix_reads_upper_triangle():
    obj, layout, train = mtl_setup(k=3)
    raw = np.arange(9.0)
    lam = layout.pack(coupling=raw, rho=np.zeros(3))
    c = obj._coupling_matrix(lam)
    assert np.array_equal(c, c.T)
    assert c[0, 1] == raw[1] and c[1, 0] == raw[1]  # mirrored, not summed
    assert c[1, 2] == raw[5]


def test_mtl_ridge_only_gradient():
    # C=0, rho=1: gradient = data gradient + 2w on the weight rows
    obj, layout, train = mtl_setup(per_task_rho=False)
    rng = make_rng(2, 2)
    w = rng.standard_normal(obj.n_params)
    lam0 = layout.pack(coupling=0.0, rho=0.0)
    lam1 = layout.pack(coupling=0.0, rho=1.0)
    g0 = obj.grad_w(w, lam0, 1)
    g1 = obj.grad_w(w, lam1, 1)
    amat, b = unpack_linear(w, train.n_classes, train.n_features)
    ridge = pack_linear(2.0 * amat, np.zeros_like(b))
    assert np.max(np.abs(g1 - (g0 + ridge))) < 1e-12


def test_mtl_grad_matches_fd():
    # "none" is plain per-task ridge: the full model at C = 0
    for coupling in ("full", "uniform", "none"):
        per_task = coupling == "full"
        obj, layout, train = mtl_setup(coupling=coupling, per_task_rho=per_task) \
            if coupling != "none" else (None, None, None)
        if coupling == "none":
            rng = make_rng(2, 9)
            feats = rng.standard_normal((6, 3))
            labels = np.array([0, 1, 2, 0, 1, 2])
            train = Dataset(features=feats, labels=labels, n_classes=3)
            layout = VectorLayout([("coupling", 9), ("rho", 3)])
            obj = MultitaskLinear(train, hyper_layout=layout,
                                  per_task_rho=True)
            lam = layout.pack(coupling=np.zeros(9), rho=[0.1, 0.2, 0.3])
        else:
            rng = make_rng(2, 3)
            lam = layout.pack(coupling=rng.random(layout.length_of("coupling")) * 0.3,
                              rho=rng.random(layout.length_of("rho")) * 0.5)
        w = rng.standard_normal(obj.n_params)
        g = obj.grad_w(w, lam, 1)
        g_fd = fd_grad(lambda ww: obj.value(ww, lam, 1), w)
        assert np.max(np.abs(g - g_fd)) < 5e-6, coupling


def test_mtl_hvp_matches_fd_of_grad():
    obj, layout, train = mtl_setup()
    rng = make_rng(2, 4)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(coupling=rng.random(9) * 0.3, rho=rng.random(3))
    r = rng.standard_normal(obj.n_params)
    h = 1e-6
    fd = (obj.grad_w(w + h * r, lam, 1) - obj.grad_w(w - h * r, lam, 1)) / (2 * h)
    assert np.max(np.abs(obj.hvp_w(w, lam, 1, r) - fd)) < 1e-5


def test_mtl_cross_duality_all_couplings():
    rng = make_rng(2, 5)
    for coupling in ("full", "uniform"):
        obj, layout, train = mtl_setup(coupling=coupling,
                                       per_task_rho=(coupling == "full"))
        w = rng.standard_normal(obj.n_params)
        lam = layout.pack(coupling=rng.random(layout.length_of("coupling")) * 0.2,
                          rho=rng.random(layout.length_of("rho")))
        assert duality_gap(obj, w, lam, 1, rng) < 1e-12


def test_mtl_cross_jvp_matches_fd():
    # at a random coupling, and at C = 0, where the STL grid fits
    obj, layout, train = mtl_setup()
    rng = make_rng(2, 6)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(coupling=rng.random(9) * 0.3, rho=rng.random(3))
    q = rng.standard_normal(lam.size)
    h = 1e-6
    for at in (lam, layout.pack(coupling=np.zeros(9), rho=lam[9:])):
        fd = (obj.grad_w(w, at + h * q, 1)
              - obj.grad_w(w, at - h * q, 1)) / (2 * h)
        assert np.max(np.abs(obj.cross_jvp(w, at, 1, q) - fd)) < 1e-5


def test_mtl_minibatch_scales_regularizer():
    # the batch data term is a sum, so the penalty is scaled by |S_t|/n
    obj, layout, train = mtl_setup()
    sched = MinibatchSchedule(n=train.n, batch_size=3, seed=0)
    obj_mb = MultitaskLinear(train, hyper_layout=layout, schedule=sched,
                             coupling="full", per_task_rho=True)
    rng = make_rng(2, 7)
    w = rng.standard_normal(obj.n_params)
    lam_on = layout.pack(coupling=rng.random(9), rho=rng.random(3))
    lam_off = layout.pack(coupling=0.0, rho=0.0)
    penalty_full = obj.value(w, lam_on, 1) - obj.value(w, lam_off, 1)
    penalty_mb = obj_mb.value(w, lam_on, 1) - obj_mb.value(w, lam_off, 1)
    assert abs(penalty_mb - penalty_full * 3.0 / train.n) < 1e-10
    grad_full = obj.grad_w(w, lam_on, 1) - obj.grad_w(w, lam_off, 1)
    grad_mb = obj_mb.grad_w(w, lam_on, 1) - obj_mb.grad_w(w, lam_off, 1)
    assert np.max(np.abs(grad_mb - grad_full * 3.0 / train.n)) < 1e-10


@pytest.mark.parametrize("per_task_rho", [True, False])
@pytest.mark.parametrize("coupling", ["full", "uniform", "none"])
def test_mtl_bound_lambda_matches_fresh_objective(coupling, per_task_rho):
    # lambda-only terms are memoised per distinct lam; every product must
    # stay bit-equal to a freshly built objective's, including when the
    # caller mutates a lam array in place after using it ("none": the
    # full model with its coupling at 0)
    obj, layout, _ = mtl_setup(coupling=coupling, per_task_rho=per_task_rho)
    rng = make_rng(2, 8)
    w = rng.standard_normal(obj.n_params)
    r = rng.standard_normal(obj.n_params)
    q = rng.standard_normal(layout.size)
    x, y, z = (rng.random(layout.size) for _ in range(3))
    if coupling == "none":
        for lam in (x, y, z):
            lam[layout.slice_of("coupling")] = 0.0

    def products(o, lam):
        return [o.grad_w(w, lam, 1).tobytes(), o.hvp_w(w, lam, 1, r).tobytes(),
                o.cross_jvp(w, lam, 1, q).tobytes(),
                o.cross_vjp(w, lam, 1, r).tobytes(),
                np.float64(o.regularizer(w, lam)).tobytes()]

    def check(lam):
        fresh, _, _ = mtl_setup(coupling=coupling, per_task_rho=per_task_rho)
        assert products(obj, lam) == products(fresh, lam.copy())

    a = x.copy()
    check(a)
    a[:] = y          # the same array, mutated in place after use
    check(a)
    b = y.copy()
    a[:] = z          # the memo's key bytes, now through another array
    check(b)
    check(a)
    bound = obj._bind(z)
    for arr in bound:
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        obj._coupling_matrix(z)[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Validation objectives


def test_quadratic_validation_values():
    e = QuadraticValidation(2)
    assert e.value(np.array([3.0, 4.0])) == 12.5
    assert np.array_equal(e.grad(np.array([3.0, 4.0])), np.array([3.0, 4.0]))


def test_quadratic_validation_center():
    c = np.array([1.0, -1.0])
    e = QuadraticValidation(2, center=c)
    assert e.value(c) == 0.0
    assert np.array_equal(e.grad(np.zeros(2)), -c)


def test_dataset_validation_perfect_prediction_near_zero():
    feats = np.array([[4.0, 0.0], [0.0, 4.0]])
    labels = np.array([0, 1])
    ds = Dataset(features=feats, labels=labels, n_classes=2)
    e = DatasetValidation(ds)
    w = pack_linear(np.array([[5.0, 0.0], [0.0, 5.0]]), np.zeros(2))
    assert e.value(w) < 1e-6
    assert np.max(np.abs(e.grad(w))) < 1e-4
    assert e.accuracy(w) == 1.0


def test_dataset_validation_grad_matches_fd():
    train = tiny_task(n=7, p=3, k=3)
    e = DatasetValidation(train)
    w = make_rng(1, 8).standard_normal(3 * 4)
    fd = fd_grad(e.value, w)
    assert np.max(np.abs(e.grad(w) - fd)) < 1e-6


def test_dataset_validation_subset_is_fixed():
    train = tiny_task(n=30)
    e = DatasetValidation(train.sample(10, 4))
    w = make_rng(1, 9).standard_normal(2 * 4)
    assert e.value(w) == e.value(w)
    full = DatasetValidation(train)
    assert e.value(w) != full.value(w)


@pytest.mark.parametrize("seed", range(40))
def test_a_validation_block_is_each_set_alone(seed):
    # value, grad and accuracy of a (K, d) block over a stack of S sets,
    # its rows mapped (and repeated) by take, and over one set shared by
    # every row: row i is bit for bit what its set gives row i alone
    rng = make_rng(seed, 0xB10C)
    n_sets, n = int(rng.integers(1, 7)), int(rng.integers(1, 600))
    f = int(rng.integers(1, 30))
    k = int(rng.integers(8, 11) if seed % 2 else rng.integers(2, 8))
    sets = [Dataset(rng.standard_normal((n, f)), rng.integers(0, k, size=n),
                    k) for _ in range(n_sets)]
    rows = rng.integers(0, n_sets, size=int(rng.integers(1, 2 * n_sets + 1)))
    w = rng.standard_normal((len(rows), k * (f + 1)))
    stacked = DatasetValidation(SeedStack.of(sets)).take(rows)
    shared = DatasetValidation(sets[0])
    for block, alone in ((stacked, [DatasetValidation(sets[r]) for r in rows]),
                         (shared, [shared] * len(rows))):
        value, grad, acc = block.value(w), block.grad(w), block.accuracy(w)
        assert value.shape == acc.shape == (len(rows),)
        for i, e in enumerate(alone):
            assert value[i] == e.value(w[i])
            assert grad[i].tobytes() == e.grad(w[i]).tobytes()
            assert acc[i] == e.accuracy(w[i])
    with pytest.raises(DimensionMismatchError):
        stacked.value(w[0])
    with pytest.raises(DimensionMismatchError):
        stacked.grad(np.vstack([w, w]))


@pytest.mark.parametrize("seed", range(10))
def test_a_quadratic_validation_block_is_each_center_alone(seed):
    rng = make_rng(seed, 0xC3)
    n_sets, d = int(rng.integers(1, 7)), int(rng.integers(1, 50))
    centers = rng.standard_normal((n_sets, d))
    rows = rng.integers(0, n_sets, size=int(rng.integers(1, 2 * n_sets + 1)))
    w = rng.standard_normal((len(rows), d))
    block = QuadraticValidation(d, centers).take(rows)
    value, grad = block.value(w), block.grad(w)
    for i, r in enumerate(rows):
        alone = QuadraticValidation(d, centers[r])
        diff = w[i] - centers[r]
        assert value[i] == alone.value(w[i]) == 0.5 * float(diff @ diff)
        assert grad[i].tobytes() == alone.grad(w[i]).tobytes()
    with pytest.raises(DimensionMismatchError):
        block.value(np.vstack([w, w]))


# ---------------------------------------------------------------------------
# Class-axis kernels


def _same_bits(got, want):
    """Equal shapes, and equal bits wherever either is a number.

    Where both are NaN any NaN matches: when the NaN of inf - inf meets a
    NaN of the other sign, the result keeps whichever was the first
    operand, and the two reduction orders put them in different places.
    """
    nan = np.isnan(got) & np.isnan(want)
    return (got.shape == want.shape
            and bool(((got.view(np.uint64) == want.view(np.uint64)) | nan).all()))


@pytest.mark.parametrize("k", range(2, 13))
def test_class_reductions_equal_the_last_axis_bit_for_bit(k):
    # the helper's class-major form below 8 classes (and its last-axis
    # form from 8 on) against max/sum over the last axis, with signed
    # zeros, infinities and NaNs mixed in, and a row of all -0.0 (which
    # both orders sum to +0.0)
    rng = make_rng(k, 0xC1A55)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for _ in range(60):
        lead = tuple(int(v) for v in rng.integers(1, 7, size=rng.integers(0, 3)))
        a = (rng.standard_normal((*lead, int(rng.integers(1, 40)), k))
             * 10.0 ** int(rng.integers(-3, 4)))
        hit = rng.random(a.shape) < 0.2
        a[hit] = rng.choice(specials, int(hit.sum()))
        a[(0,) * (a.ndim - 1)] = -0.0
        before = a.copy()
        with np.errstate(invalid="ignore"):
            pairs = ((np.maximum, a.max(axis=-1, keepdims=True)),
                     (np.add, a.sum(axis=-1, keepdims=True)))
            for ufunc, want in pairs:
                got = _over_classes(ufunc, a)
                assert _same_bits(got, want) and got.flags.c_contiguous, (
                    f"{ufunc.__name__} over {k} classes, shape {a.shape}, "
                    f"differs from the last-axis reduction on numpy "
                    f"{np.__version__}")
        assert np.array_equal(a, before, equal_nan=True)


@pytest.mark.parametrize("k", [4, 10])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_class_kernels_return_c_contiguous_rows(lead, k):
    # the products downstream are matmuls whose bits depend on their
    # operands' layout, so each kernel hands back C-contiguous (..., b, k)
    rng = make_rng(k, len(lead), 0x1A7)
    scores = rng.standard_normal((*lead, 7, k))
    p = softmax_rows(scores)
    for got in (p, _log_softmax_rows(scores),
                _gauss_newton_dirs(p, rng.standard_normal(scores.shape))):
        assert got.shape == scores.shape and got.flags.c_contiguous
