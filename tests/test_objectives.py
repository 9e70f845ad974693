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
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  QuadraticToy, QuadraticValidation,
                                  WeightedSoftmax, _assemble_wgrad,
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
    lam = layout.pack(weights=1.0)
    batch = obj.schedule.indices(2)
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
    assert c_obj._batch(1, w).x is c_obj.dataset.features
    # a non-contiguous matrix is gathered into a C-ordered copy instead
    f_x = f_obj._batch(1, w).x
    assert f_x is not f_obj.dataset.features and f_x.flags.c_contiguous
    assert c_obj.grad_w(w, lam, 1).tobytes() == f_obj.grad_w(w, lam, 1).tobytes()
    mb_obj, _ = weight_kinds_task("hyper", batch_size=8)  # batch == n: full
    assert mb_obj._batch(1, w).x is mb_obj.dataset.features


def label_subtract_coefs(p, y):
    """Reference dloss/dlogits: p with 1 subtracted at each row's label."""
    g = p.copy()
    g[np.arange(len(y)), y] -= 1.0
    return g


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("batch_size", [None, 3])
@pytest.mark.parametrize("model", ["weighted", "mtl"])
def test_grad_coefs_equal_label_subtract(model, batch_size, order):
    # g = p - onehot from the objective's read-only one-hot has the bits
    # of subtracting 1 at each label, for a full batch read in place, a
    # gathered full batch and a minibatch alike
    train, _, _ = blob_task(5, 8, 4, 4, n_classes=3, n_features=4)
    if order == "F":
        train = Dataset(features=np.asfortranarray(train.features),
                        labels=train.labels, n_classes=train.n_classes)
    sched = (None if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=5))
    if model == "weighted":
        obj = WeightedSoftmax(train, schedule=sched, weight_segment=None)
    else:
        obj = MultitaskLinear(train, schedule=sched, per_task_rho=True,
                              hyper_layout=VectorLayout([("coupling", 9),
                                                         ("rho", 3)]))
    assert not obj._onehot.flags.writeable
    w = make_rng(5, 8).standard_normal(obj.n_params)
    for t in (1, 2, 3):
        b = obj._batch(t, w)
        assert b.g.tobytes() == label_subtract_coefs(b.p, b.y).tobytes()


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


@pytest.mark.parametrize("subset", [None, 5])
def test_validation_grad_equals_label_subtract(subset):
    train = tiny_task(n=9, p=3, k=3)
    e = DatasetValidation(train, subset_size=subset, subset_seed=2)
    w = make_rng(1, 10).standard_normal(3 * 4)
    mat, bias = unpack_linear(w, 3, 3)
    g = label_subtract_coefs(softmax_rows(e._x @ mat.T + bias), e._y)
    want = _assemble_wgrad(g, e._x) / len(e._y)
    assert e.grad(w).tobytes() == want.tobytes()
    assert not e._targets.flags.writeable


# ---------------------------------------------------------------------------
# MultitaskLinear


def mtl_setup(coupling="full", per_task_rho=True, k=3, p=4, n=9, seed=2):
    rng = make_rng(seed, 0)
    feats = rng.standard_normal((n, p))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    train = Dataset(features=feats, labels=labels, n_classes=k)
    layout = VectorLayout([("coupling", 1 if coupling == "uniform" else k * k),
                           ("rho", k if per_task_rho else 1)])
    obj = MultitaskLinear(train, hyper_layout=layout, coupling=coupling,
                          per_task_rho=per_task_rho)
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
    for coupling in ("full", "uniform", "none"):
        per_task = coupling == "full"
        obj, layout, train = mtl_setup(coupling=coupling, per_task_rho=per_task) \
            if coupling != "none" else (None, None, None)
        if coupling == "none":
            rng = make_rng(2, 9)
            feats = rng.standard_normal((6, 3))
            labels = np.array([0, 1, 2, 0, 1, 2])
            train = Dataset(features=feats, labels=labels, n_classes=3)
            layout = VectorLayout([("rho", 3)])
            obj = MultitaskLinear(train, hyper_layout=layout,
                                  coupling="none", per_task_rho=True)
            lam = np.array([0.1, 0.2, 0.3])
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
    obj, layout, train = mtl_setup()
    rng = make_rng(2, 6)
    w = rng.standard_normal(obj.n_params)
    lam = layout.pack(coupling=rng.random(9) * 0.3, rho=rng.random(3))
    q = rng.standard_normal(lam.size)
    h = 1e-6
    fd = (obj.grad_w(w, lam + h * q, 1) - obj.grad_w(w, lam - h * q, 1)) / (2 * h)
    assert np.max(np.abs(obj.cross_jvp(w, lam, 1, q) - fd)) < 1e-5


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
    # caller mutates a lam array in place after using it
    obj, layout, _ = mtl_setup(coupling=coupling, per_task_rho=per_task_rho)
    rng = make_rng(2, 8)
    w = rng.standard_normal(obj.n_params)
    r = rng.standard_normal(obj.n_params)
    q = rng.standard_normal(layout.size)
    x, y, z = (rng.random(layout.size) for _ in range(3))

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
    e = DatasetValidation(train, subset_size=10, subset_seed=4)
    w = make_rng(1, 9).standard_normal(2 * 4)
    assert e.value(w) == e.value(w)
    full = DatasetValidation(train)
    assert e.value(w) != full.value(w)
