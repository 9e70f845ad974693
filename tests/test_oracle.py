"""Ground-truth oracles: finite differences, explicit chains, identities.

These are the referees for the engines, so they get their own unit
tests against hand-computable cases before anything relies on them.
"""

import numpy as np
import pytest

from hypergrad.datasets import blob_task
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.engines import forward_hg, reverse_hg
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (QuadraticToy, QuadraticValidation,
                                  WeightedSoftmax)
from hypergrad.oracle import (FDPolicy, chain_eval, fd_hypergrad,
                              materialized_chain, quadratic_gd_response,
                              zero_lr_first_emission_check)


def scalar_problem(s0=1.0):
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(1, hyper_layout=layout), eta="eta")
    e = QuadraticValidation(1)
    return dyn, e, dyn.init_state(np.array([s0])), layout


def softmax_problem(seed, n=6, p=3, k=2):
    train, _, _ = blob_task(seed, n, 4, 4, n_classes=k, n_features=p)
    layout = VectorLayout([("eta", 1), ("mu", 1), ("weights", n)])
    obj = WeightedSoftmax(train, hyper_layout=layout)
    dyn = Momentum(obj)
    w0 = make_rng(seed, 21).standard_normal(obj.n_params) * 0.1
    e = QuadraticValidation(obj.n_params,
                            center=make_rng(seed, 22).standard_normal(obj.n_params))
    return dyn, e, dyn.init_state(w0), layout


# ---------------------------------------------------------------------------
# finite differences


def test_fd_policy_step_scales_with_magnitude():
    policy = FDPolicy(rel_step=1e-5)
    assert policy.step_for(0.0) == 1e-5
    assert policy.step_for(9.0) == 1e-4
    assert policy.step_for(-9.0) == 1e-4


def test_fd_matches_quadratic_closed_form():
    dyn, e, s0, layout = scalar_problem(s0=1.5)
    for eta, n_steps in [(0.3, 1), (0.5, 2), (0.2, 7)]:
        grad = fd_hypergrad(dyn, e, s0, layout.pack(eta=eta), n_steps)
        _, df = quadratic_gd_response(1.5, eta, n_steps)
        assert abs(grad[0] - df) < 1e-6 * max(1.0, abs(df))


def test_fd_matches_engines_on_softmax():
    dyn, e, s0, layout = softmax_problem(1)
    lam = layout.pack(eta=0.2, mu=0.4, weights=1.0)
    fd = fd_hypergrad(dyn, e, s0, lam, 8)
    an = reverse_hg(dyn, e, s0, lam, 8).gradient
    denom = max(np.linalg.norm(an), 1e-12)
    assert np.linalg.norm(fd - an) / denom < 1e-4


# ---------------------------------------------------------------------------
# explicit chain evaluation


def test_chain_single_step_is_grad_e_times_b():
    rng = make_rng(7, 1)
    b = rng.standard_normal((3, 2))
    grad_e = rng.standard_normal(3)
    a = rng.standard_normal((3, 3))  # never multiplied in at T = 1
    g = chain_eval([a], [b], grad_e)
    assert np.max(np.abs(g - grad_e @ b)) < 1e-15


def test_chain_zero_b_kills_gradient():
    rng = make_rng(7, 2)
    a_mats = [rng.standard_normal((3, 3)) for _ in range(4)]
    b_mats = [np.zeros((3, 2)) for _ in range(4)]
    g = chain_eval(a_mats, b_mats, rng.standard_normal(3))
    assert np.array_equal(g, np.zeros(2))


def test_chain_empty_horizon():
    assert chain_eval([], [], np.zeros(0)).size == 0


def test_chain_rejects_mismatched_lists():
    with pytest.raises(ValueError):
        chain_eval([np.eye(2)], [], np.ones(2))


def test_chain_matches_both_engines_on_random_instance():
    # d = 3, m = 2, T = 4: small enough to materialize, big enough to
    # exercise every accumulation order
    layout = VectorLayout([("eta", 1), ("r", 1)])

    class TiltedQuadratic(QuadraticToy):
        """Quadratic with a hyper-controlled linear tilt: J = 0.5|w|^2 + r 1.w"""

        def __init__(self):
            super().__init__(3, hyper_layout=layout)
            self._r = layout.slice_of("r")

        def grad_w(self, w, lam, t):
            return w + lam[..., self._r]

        def hvp_w(self, w, lam, t, r):
            return r.copy()

        def cross_jvp(self, w, lam, t, q):
            return np.full(w.shape, q[self._r.start])

        def cross_vjp(self, w, lam, t, alpha):
            out = np.zeros(lam.shape)
            out[..., self._r] = alpha.sum(axis=-1, keepdims=True)
            return out

        def touched_hypers(self, t):
            return np.array([self._r.start])

    dyn = GradientDescent(TiltedQuadratic(), eta="eta")
    e = QuadraticValidation(3, center=np.array([0.3, -0.2, 0.1]))
    s0 = dyn.init_state(np.array([1.0, -2.0, 0.5]))
    lam = layout.pack(eta=0.25, r=0.4)

    a_mats, b_mats, states = materialized_chain(dyn, s0, lam, 4)
    oracle = chain_eval(a_mats, b_mats, e.grad(states[-1]))
    for engine in (forward_hg, reverse_hg):
        got = engine(dyn, e, s0, lam, 4).gradient
        assert np.max(np.abs(got - oracle)) < 1e-10


def test_chain_gate_rejects_large_problems():
    a = [np.eye(200)]
    b = [np.zeros((200, 51))]
    with pytest.raises(ValueError, match="gate"):
        chain_eval(a, b, np.zeros(200))


# ---------------------------------------------------------------------------
# closed-form response


def test_quadratic_response_values():
    f, df = quadratic_gd_response(1.0, 0.5, 2)
    assert f == 0.5 * 0.5 ** 4
    assert df == -2 * 0.5 ** 3
    f0, df0 = quadratic_gd_response(2.0, 0.0, 3)
    assert f0 == 2.0 and df0 == -12.0


# ---------------------------------------------------------------------------
# frozen-start identity


def test_zero_lr_identity_hand_case():
    # quadratic inner J = 0.5 w^2, E = 0.5 w^2, w0 = 2, delta = 3:
    # grads at w0 are all 2, so rhs = -(2)(2+2+2) = -12
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(1, hyper_layout=layout), eta="eta")
    e = QuadraticValidation(1)
    lhs, rhs = zero_lr_first_emission_check(dyn, e, np.array([2.0]),
                                            layout.pack(eta=0.0), 3)
    assert rhs == -12.0
    assert abs(lhs - rhs) < 1e-12


def test_zero_lr_identity_orthogonal_gradients():
    # validation centered at w0 has zero gradient there: lhs = rhs = 0
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(2, hyper_layout=layout), eta="eta")
    w0 = np.array([0.7, -0.4])
    e = QuadraticValidation(2, center=w0)
    lhs, rhs = zero_lr_first_emission_check(dyn, e, w0,
                                            layout.pack(eta=0.0), 4)
    assert rhs == 0.0
    assert abs(lhs) < 1e-15


def test_zero_lr_identity_random_softmax():
    seed = 5
    train, _, _ = blob_task(seed, 12, 4, 4, n_classes=3, n_features=4)
    layout = VectorLayout([("eta", 1), ("weights", 12)])
    obj = WeightedSoftmax(train, hyper_layout=layout)
    dyn = GradientDescent(obj, eta="eta")
    w0 = make_rng(seed, 31).standard_normal(obj.n_params) * 0.2
    e = QuadraticValidation(obj.n_params,
                            center=make_rng(seed, 32).standard_normal(obj.n_params))
    lam = layout.pack(eta=0.0, weights=make_rng(seed, 33).uniform(0.2, 1.0, 12))
    lhs, rhs = zero_lr_first_emission_check(dyn, e, w0, lam, 5)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_zero_lr_identity_rejects_momentum():
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    dyn = Momentum(QuadraticToy(1, hyper_layout=layout))
    with pytest.raises(ValueError):
        zero_lr_first_emission_check(dyn, QuadraticValidation(1),
                                     np.array([1.0]),
                                     layout.pack(eta=0.0, mu=0.5), 2)


def test_zero_lr_identity_rejects_moving_lr():
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(1, hyper_layout=layout), eta="eta")
    with pytest.raises(ValueError):
        zero_lr_first_emission_check(dyn, QuadraticValidation(1),
                                     np.array([1.0]), layout.pack(eta=0.1), 2)
