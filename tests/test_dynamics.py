"""Step maps and their four directional derivatives (state/hyper x jvp/vjp).

The JVP/VJP blocks are checked three ways: hand-computed scalar cases,
finite differences of the step map, and transpose duality against the
materialized Jacobians.
"""

import numpy as np
import pytest

from hypergrad.datasets import MinibatchSchedule, blob_task
from hypergrad.dynamics import (GradientDescent, Momentum,
                                materialize_step_jacobians)
from hypergrad.errors import DimensionMismatchError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import QuadraticToy, WeightedSoftmax


def scalar_gd(eta="eta"):
    layout = VectorLayout([("eta", 1)])
    return GradientDescent(QuadraticToy(1, hyper_layout=layout), eta=eta), layout


def scalar_gdm():
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    return Momentum(QuadraticToy(1, hyper_layout=layout)), layout


def softmax_gdm(seed=0, n=6, p=3, k=2):
    train, _, _ = blob_task(seed, n, 4, 4, n_classes=k, n_features=p)
    layout = VectorLayout([("eta", 1), ("mu", 1), ("weights", n)])
    obj = WeightedSoftmax(train, hyper_layout=layout)
    return Momentum(obj), layout


# ---------------------------------------------------------------------------
# step


def test_gd_step_hand_case():
    dyn, layout = scalar_gd()
    s = dyn.init_state(np.array([1.0]))
    out = dyn.step(s, layout.pack(eta=0.5), 1)
    assert np.array_equal(out, np.array([0.5]))


def test_gd_zero_lr_freezes_state():
    dyn, layout = scalar_gd()
    s = dyn.init_state(np.array([3.0]))
    assert np.array_equal(dyn.step(s, layout.pack(eta=0.0), 1), s)


def test_gdm_step_hand_case():
    dyn, layout = scalar_gdm()
    s = np.array([0.0, 2.0])  # (v, w)
    out = dyn.step(s, layout.pack(eta=0.1, mu=0.5), 1)
    assert np.allclose(out, np.array([2.0, 1.8]), atol=1e-15)


def test_gdm_init_state_zero_velocity():
    dyn, _ = scalar_gdm()
    s = dyn.init_state(np.array([7.0]))
    assert np.array_equal(s, np.array([0.0, 7.0]))
    assert np.array_equal(dyn.weights_of(s), np.array([7.0]))


@pytest.mark.parametrize("kind", ["GD", "GDM"])
@pytest.mark.parametrize("block", [False, True], ids=["vector", "block"])
def test_weights_of_is_a_view_of_the_weight_block(kind, block):
    # the engines read E at weights_of(s) and write grad E through it
    dyn, _ = scalar_gd() if kind == "GD" else scalar_gdm()
    s = dyn.init_state(np.array([7.0]))
    if block:
        s = np.stack([s, 2 * s])
    w = dyn.weights_of(s)
    assert np.shares_memory(w, s)
    w[...] = -1.0
    assert np.all(s[..., dyn.state_layout.slice_of("w")] == -1.0)
    if kind == "GDM":
        assert np.all(s[..., dyn.state_layout.slice_of("v")] == 0.0)


@pytest.mark.parametrize("kind", ["GD", "GDM"])
def test_init_state_rejects_start_weights_of_the_wrong_length(kind):
    dyn, _ = scalar_gd() if kind == "GD" else scalar_gdm()
    with pytest.raises(DimensionMismatchError):
        dyn.init_state(np.array([1.0, 2.0]))


def test_fixed_scalar_hyper_binding():
    # eta given as a constant instead of a segment name
    layout = VectorLayout([("weights", 1)])
    obj = QuadraticToy(1, hyper_layout=layout)
    dyn = GradientDescent(obj, eta=0.25)
    s = dyn.init_state(np.array([2.0]))
    out = dyn.step(s, layout.pack(weights=0.0), 1)
    assert np.array_equal(out, np.array([1.5]))


def test_state_layout_names():
    gd, _ = scalar_gd()
    gdm, _ = scalar_gdm()
    assert gd.state_layout.names == ("w",)
    assert gdm.state_layout.names == ("v", "w")
    assert gd.kind == "GD" and gdm.kind == "GDM"


# ---------------------------------------------------------------------------
# jvp blocks


def test_gd_jvp_state_hand_case():
    dyn, layout = scalar_gd()
    s = dyn.init_state(np.array([1.0]))
    out = dyn.jvp_state(s, layout.pack(eta=0.5), 1, np.array([2.0]))
    assert np.array_equal(out, np.array([1.0]))


def test_jvp_state_eta_zero_is_identity():
    dyn, layout = softmax_gdm()
    rng = make_rng(4, 0)
    s = rng.standard_normal(dyn.n_state)
    lam = layout.pack(eta=0.0, mu=0.0, weights=rng.random(6))
    r = rng.standard_normal(dyn.n_state)
    # with eta = 0 the w-block of the GDM map is frozen, so the w-rows of
    # A reduce to the identity and a state perturbation passes through
    out = dyn.jvp_state(s, lam, 1, r)
    assert np.array_equal(dyn.weights_of(out), dyn.weights_of(r))


def test_gdm_jvp_state_hand_case():
    dyn, layout = scalar_gdm()
    s = np.array([0.0, 2.0])
    out = dyn.jvp_state(s, layout.pack(eta=0.1, mu=0.5), 1, np.array([1.0, 1.0]))
    assert np.allclose(out, np.array([1.5, 0.85]), atol=1e-15)


def test_gd_jvp_hyper_unit_eta_direction():
    dyn, layout = scalar_gd()
    s = dyn.init_state(np.array([1.0]))
    q = layout.pack(eta=1.0)
    out = dyn.jvp_hyper(s, layout.pack(eta=0.7), 1, q)
    assert np.array_equal(out, np.array([-1.0]))  # -grad J = -w


def test_jvp_hyper_zero_direction():
    dyn, layout = scalar_gdm()
    s = np.array([0.3, -1.0])
    out = dyn.jvp_hyper(s, layout.pack(eta=0.1, mu=0.5), 1, np.zeros(2))
    assert np.array_equal(out, np.zeros(2))


def test_gd_jvp_hyper_example_weight_direction():
    train, _, _ = blob_task(1, 4, 4, 4)
    layout = VectorLayout([("eta", 1), ("weights", 4)])
    obj = WeightedSoftmax(train, hyper_layout=layout)
    dyn = GradientDescent(obj, eta="eta")
    rng = make_rng(4, 1)
    w = rng.standard_normal(obj.n_params)
    s = dyn.init_state(w)
    eta = 0.3
    lam = layout.pack(eta=eta, weights=1.0)
    i = 2
    q = layout.pack(weights=np.eye(4)[i])
    solo = layout.pack(eta=eta, weights=np.eye(4)[i])
    expect = -eta * obj.grad_w(w, solo, 1)  # -(eta/N) grad of example i
    out = dyn.jvp_hyper(s, lam, 1, q)
    assert np.max(np.abs(out - expect)) < 1e-12


# ---------------------------------------------------------------------------
# vjp blocks


def test_gd_vjp_state_hand_case():
    dyn, layout = scalar_gd()
    s = dyn.init_state(np.array([1.0]))
    out = dyn.vjp_state(s, layout.pack(eta=0.5), 1, np.array([3.0]))
    assert np.array_equal(out, np.array([1.5]))


def test_vjp_zero_cotangent():
    dyn, layout = scalar_gdm()
    s = np.array([0.5, 1.0])
    lam = layout.pack(eta=0.1, mu=0.9)
    assert np.array_equal(dyn.vjp_state(s, lam, 1, np.zeros(2)), np.zeros(2))
    assert np.array_equal(dyn.vjp_hyper(s, lam, 1, np.zeros(2)), np.zeros(2))


@pytest.mark.parametrize("make", [scalar_gd, scalar_gdm, softmax_gdm])
def test_jvp_matches_fd_of_step(make):
    dyn, layout = make()
    rng = make_rng(4, 2)
    s = rng.standard_normal(dyn.n_state)
    lam = np.abs(rng.standard_normal(layout.size)) * 0.4
    r = rng.standard_normal(dyn.n_state)
    q = rng.standard_normal(layout.size)
    h = 1e-7
    fd_s = (dyn.step(s + h * r, lam, 1) - dyn.step(s - h * r, lam, 1)) / (2 * h)
    fd_h = (dyn.step(s, lam + h * q, 1) - dyn.step(s, lam - h * q, 1)) / (2 * h)
    assert np.max(np.abs(dyn.jvp_state(s, lam, 1, r) - fd_s)) < 1e-6
    assert np.max(np.abs(dyn.jvp_hyper(s, lam, 1, q) - fd_h)) < 1e-6


@pytest.mark.parametrize("make", [scalar_gdm, softmax_gdm])
def test_transpose_duality_against_materialized(make):
    dyn, layout = make()
    rng = make_rng(4, 3)
    s = rng.standard_normal(dyn.n_state)
    lam = np.abs(rng.standard_normal(layout.size)) * 0.3
    a_mat, b_mat = materialize_step_jacobians(dyn, s, lam, 1)
    assert a_mat.shape == (dyn.n_state, dyn.n_state)
    assert b_mat.shape == (dyn.n_state, layout.size)
    alpha = rng.standard_normal(dyn.n_state)
    assert np.max(np.abs(dyn.vjp_state(s, lam, 1, alpha) - alpha @ a_mat)) < 1e-12
    assert np.max(np.abs(dyn.vjp_hyper(s, lam, 1, alpha) - alpha @ b_mat)) < 1e-12


def test_touched_hypers_includes_dynamics_hypers():
    dyn, layout = softmax_gdm(n=8)
    sched_obj = dyn.objective
    touched = dyn.touched_hypers(1)
    # eta and mu indices plus the full batch of example weights
    assert layout.indices("eta")[0] in touched
    assert layout.indices("mu")[0] in touched
    assert touched.size == 2 + 8


def test_momentum_products_reject_wrong_length_vectors():
    dyn, layout = softmax_gdm()
    rng = make_rng(4, 2)
    lam = layout.pack(eta=0.1, mu=0.5, weights=1.0)
    s = rng.standard_normal(dyn.n_state)
    short = s[:-1]
    q = layout.pack(eta=1.0)
    calls = [
        lambda: dyn.step(short, lam, 1),
        lambda: dyn.jvp_state(short, lam, 1, s),
        lambda: dyn.jvp_state(s, lam, 1, short),
        lambda: dyn.jvp_hyper(short, lam, 1, q),
        lambda: dyn.vjp_state(short, lam, 1, s),
        lambda: dyn.vjp_state(s, lam, 1, short),
        lambda: dyn.vjp_hyper(short, lam, 1, s),
        lambda: dyn.vjp_hyper(s, lam, 1, short),
        lambda: dyn.weights_of(short),
    ]
    for call in calls:
        with pytest.raises(DimensionMismatchError):
            call()


def touched_cases():
    train, _, _ = blob_task(2, 8, 4, 4)
    sched = MinibatchSchedule(n=8, batch_size=3, seed=2)
    for weights in ("unit", "hyper"):
        segs = [("eta", 1), ("mu", 1)] + ([("weights", 8)] if weights == "hyper" else [])
        layout = VectorLayout(segs)
        obj = WeightedSoftmax(
            train, hyper_layout=layout, schedule=sched,
            weight_segment="weights" if weights == "hyper" else None)
        own = layout.slice_of("eta").start, layout.slice_of("mu").start
        yield f"GD-{weights}", GradientDescent(obj), own[:1]
        yield f"GD-const-eta-{weights}", GradientDescent(obj, eta=0.1), ()
        yield f"GDM-{weights}", Momentum(obj), own


@pytest.mark.parametrize("case", list(touched_cases()), ids=lambda c: c[0])
def test_touched_hypers_read_only_and_equal_to_sorted_merge(case):
    _, dyn, own = case
    for t in range(1, 6):
        got = dyn.touched_hypers(t)
        obj_indices = dyn.objective.touched_hypers(t)
        want = (obj_indices if not own else
                np.unique(np.concatenate([obj_indices,
                                          np.asarray(own, dtype=np.int64)])))
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        assert not got.flags.writeable


def test_materialize_gate():
    train, _, _ = blob_task(1, 200, 4, 4, n_features=30)
    layout = VectorLayout([("weights", 200)])
    obj = WeightedSoftmax(train, hyper_layout=layout)
    dyn = GradientDescent(obj, eta=0.1)
    s = dyn.init_state(np.zeros(obj.n_params))
    with pytest.raises(ValueError):
        materialize_step_jacobians(dyn, s, layout.pack(weights=1.0), 1)
