"""Independent ground truths the engines are checked against.

Nothing here shares code with the engines beyond the dynamics' ``step``
and the training loop: finite differences probe the trained response
(``engines.evaluate_response``, which runs ``engines.train``), the chain
evaluator multiplies explicitly materialized Jacobians, and the
zero-learning-rate identity is a hand-derivable closed form. Agreement
between these and the engines is the core correctness argument of the
package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import GradientDescent, materialize_step_jacobians
from .engines import evaluate_response, rtho_stream
from .numerics import as_vector, ensure_finite_scalar


@dataclass(frozen=True)
class FDPolicy:
    """Central differences with a relative step per coordinate."""

    rel_step: float = 1e-5

    def step_for(self, value):
        return self.rel_step * (1.0 + abs(value))


def fd_hypergrad(dyn, E, s0, lam, n_steps, policy: FDPolicy = FDPolicy()):
    """Coordinate-wise central finite differences of the trained response.

    Every perturbed run reuses the same initial state and minibatch
    schedule as the nominal one (the response is a pure function of lam),
    so the difference isolates the hyperparameter's effect exactly.
    """
    lam = as_vector(lam)
    grad = np.zeros_like(lam)
    for i in range(len(lam)):
        h = policy.step_for(lam[i])
        bumped = lam.copy()
        bumped[i] = lam[i] + h
        f_plus = evaluate_response(dyn, E, s0, bumped, n_steps)
        bumped[i] = lam[i] - h
        f_minus = evaluate_response(dyn, E, s0, bumped, n_steps)
        grad[i] = ensure_finite_scalar((f_plus - f_minus) / (2.0 * h),
                                       f"finite difference in coordinate {i}")
    return grad


def chain_eval(a_mats, b_mats, grad_e):
    """Evaluate grad_E(s_T) sum_t (prod_{s>t} A_s) B_t by explicit products.

    ``a_mats`` and ``b_mats`` are the per-step Jacobians for t = 1..T in
    order. Right-to-left accumulation: the running row vector picks up
    one A factor per step moving backwards.
    """
    if len(a_mats) != len(b_mats):
        raise ValueError("need one (A_t, B_t) pair per step")
    grad_e = as_vector(grad_e)
    n_steps = len(a_mats)
    if n_steps == 0:
        return np.zeros(0)
    d, m = b_mats[0].shape
    if d * m > 10_000:
        raise ValueError(f"materialization gate: d*m = {d * m} exceeds 10000")
    row = grad_e.copy()
    g = np.zeros(m)
    for t in range(n_steps, 0, -1):
        g += row @ b_mats[t - 1]
        row = row @ a_mats[t - 1]
    return g


def materialized_chain(dyn, s0, lam, n_steps):
    """Run the dynamics, materializing (A_t, B_t) at every step.

    Returns (a_mats, b_mats, states) with states s_0..s_T. Gated to
    small problems by the materialization helper.
    """
    lam = as_vector(lam)
    s = as_vector(s0).copy()
    states = [s.copy()]
    a_mats, b_mats = [], []
    for t in range(1, n_steps + 1):
        a, b = materialize_step_jacobians(dyn, s, lam, t)
        a_mats.append(a)
        b_mats.append(b)
        s = dyn.step(s, lam, t)
        states.append(s.copy())
    return a_mats, b_mats, states


def quadratic_gd_response(s0, eta, n_steps):
    """Closed form for GD on J(w) = 0.5 w^2 with E = 0.5 w^2.

    One step multiplies w by (1 - eta), so
    f(eta) = 0.5 s0^2 (1-eta)^(2T) and
    f'(eta) = -s0^2 T (1-eta)^(2T-1).
    """
    shrink = 1.0 - eta
    f = 0.5 * s0 * s0 * shrink ** (2 * n_steps)
    df = -(s0 * s0) * n_steps * shrink ** (2 * n_steps - 1)
    return f, df


def zero_lr_first_emission_check(dyn, E, w0, lam, delta):
    """Both sides of the frozen-start identity for the real-time stream.

    With gradient-descent dynamics and learning rate 0, the weights
    never move, so the first partial derivative of the response with
    respect to eta emitted after ``delta`` steps must equal

        rhs = - grad_E(w0) . sum_{s=1}^{delta} grad_J_s(w0),

    the inner product between the validation gradient and the
    accumulated training gradients at the starting point. Returns
    (lhs, rhs) where lhs is the stream's actual first emission.
    """
    if not isinstance(dyn, GradientDescent):
        raise ValueError("identity requires gradient-descent dynamics")
    eta_index = dyn._eta.index
    if eta_index is None:
        raise ValueError("learning rate must be bound to a hyper segment")
    lam = as_vector(lam)
    if lam[eta_index] != 0.0:
        raise ValueError("identity requires the learning rate to start at 0")
    w0 = as_vector(w0)
    s0 = dyn.init_state(w0)
    emission = next(rtho_stream(dyn, E, s0, lam, delta))
    lhs = float(emission.partial[eta_index])
    acc = np.zeros_like(w0)
    for s in range(1, delta + 1):
        acc += dyn.objective.grad_w(w0, lam, s)
    rhs = -float(E.grad(w0) @ acc)
    return lhs, rhs
