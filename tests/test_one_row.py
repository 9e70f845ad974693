"""A vector problem is its one-row block, bit for bit.

The engines run on blocks only: a vector problem is wrapped as the
one-row block at entry and unwrapped at exit (``engines.OneRow``). On
random shapes of every objective kind, under GD and Momentum, the
vector run of ``forward_hg``, ``reverse_hg`` and ``rtho_stream`` must
give row 0 of the one-row block's (gradient, response, tape states,
partials), a vector failure must mark no rows, and every product on a
1-D input must give row 0 of its (1, ...) input. The forward gradients
and partials must also keep the bits of the tangent recursion on
vectors, read out as grad E times a C-contiguous (d, m) Z.
"""

from itertools import islice

import numpy as np
import pytest

from hypergrad.datasets import Dataset, MinibatchSchedule, full_batch_schedule
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.engines import forward_hg, reverse_hg, rtho_stream
from hypergrad.errors import NonFiniteError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  QuadraticToy, QuadraticValidation,
                                  WeightedSoftmax, val_grad_state, val_value)

OBJECTIVES = ["quadratic", "weighted-unit", "weighted-hyper", "mtl-none",
              "mtl-uniform", "mtl-full"]
CASES = [(dynamics, objective) for dynamics in ("GD", "GDM")
         for objective in OBJECTIVES]
SEEDS = range(8)


def problem(dynamics, objective, seed):
    """(dyn, E, s0, lam, T, delta) on shapes drawn from ``seed``.

    The objective is built afresh on every call, so two calls with the
    same arguments share no memo.
    """
    rng = make_rng(seed, 0x1E0, CASES.index((dynamics, objective)))
    segs = [("eta", 1)] + ([("mu", 1)] if dynamics == "GDM" else [])
    if objective == "quadratic":
        d = int(rng.integers(1, 9))
        layout = VectorLayout(segs)
        obj = QuadraticToy(d, hyper_layout=layout)
        E = QuadraticValidation(d, center=rng.standard_normal(d))
    else:
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 16))
        p = int(rng.integers(1, 7))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)  # every class present
        data = Dataset(features=rng.standard_normal((n, p)), labels=labels,
                       n_classes=k)
        schedule = (full_batch_schedule(n) if rng.random() < 0.5 else
                    MinibatchSchedule(n=n, batch_size=int(rng.integers(1, n)),
                                      seed=seed))
        if objective.startswith("weighted"):
            hyper = objective == "weighted-hyper"
            layout = VectorLayout(segs + ([("weights", n)] if hyper else []))
            obj = WeightedSoftmax(data, hyper_layout=layout, schedule=schedule,
                                  weight_segment="weights" if hyper else None)
        else:
            coupling = objective.split("-")[1]
            if coupling != "none":
                segs.append(("coupling", k * k if coupling == "full" else 1))
            per_task = bool(rng.random() < 0.5)
            segs.append(("rho", k if per_task else 1))
            layout = VectorLayout(segs)
            obj = MultitaskLinear(data, hyper_layout=layout, schedule=schedule,
                                  coupling=coupling, per_task_rho=per_task)
        E = DatasetValidation(Dataset(features=rng.standard_normal((7, p)),
                                      labels=rng.integers(0, k, size=7),
                                      n_classes=k))
    dyn = GradientDescent(obj) if dynamics == "GD" else Momentum(obj)
    lam = 0.5 * rng.random(layout.size)
    lam[0] = 0.05 + 0.3 * lam[0]  # eta
    s0 = 0.5 * rng.standard_normal(dyn.n_state)
    return (dyn, E, s0, lam, int(rng.integers(1, 9)),
            int(rng.integers(1, 5)))


def tangent_forward(dyn, E, s0, lam, n_steps):
    """(grad E(s_T) Z_T, s_T) by the tangent recursion on vectors.

    Tangent j is the contiguous vector ``z[j]`` of an (m, d) Z: one
    vector ``jvp_state`` per step, plus one ``jvp_hyper`` if touched.
    The partial reads Z as a C-contiguous (d, m) matrix; a transposed
    view would move its bits.
    """
    s, z, q = s0.copy(), np.zeros((len(lam), len(s0))), np.zeros(len(lam))
    for t in range(1, n_steps + 1):
        out = np.empty_like(z)
        for j in range(len(lam)):
            out[j] = dyn.jvp_state(s, lam, t, z[j])
        for j in dyn.touched_hypers(t):
            q[j] = 1.0
            out[j] += dyn.jvp_hyper(s, lam, t, q)
            q[j] = 0.0
        z, s = out, dyn.step(s, lam, t)
    g = val_grad_state(E, s, dyn.state_layout)
    return g @ np.ascontiguousarray(z.T), s


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, objective", CASES)
def test_a_vector_problem_is_its_one_row_block(dynamics, objective, seed):
    dyn, E, s0, lam, n_steps, delta = problem(dynamics, objective, seed)

    def fresh():  # dynamics whose objective holds no memo yet
        return problem(dynamics, objective, seed)[0]

    want, s_final = tangent_forward(fresh(), E, s0, lam, n_steps)
    response = val_value(E, s_final, dyn.state_layout)
    for engine in (forward_hg, reverse_hg):
        vec = engine(fresh(), E, s0, lam, n_steps)
        one = engine(fresh(), [E], s0[None], lam[None], n_steps)
        assert vec.gradient.shape == lam.shape
        assert np.array_equal(vec.gradient, one.gradient[0])
        assert vec.response == one.response[0] == response
    assert np.array_equal(forward_hg(fresh(), E, s0, lam, n_steps).gradient,
                          want)
    vec = reverse_hg(fresh(), E, s0, lam, n_steps).tape
    one = reverse_hg(fresh(), [E], s0[None], lam[None], n_steps).tape
    assert len(vec) == len(one) == n_steps + 1
    assert all(a.shape == s0.shape and np.array_equal(a, b[0])
               for a, b in zip(vec.states, one.states))
    assert np.array_equal(vec.lam, one.lam[0])
    assert vec.states[-1].tobytes() == s_final.tobytes()

    vec = list(islice(rtho_stream(fresh(), E, s0, lam, delta), 2))
    one = list(islice(rtho_stream(fresh(), [E], s0[None], lam[None], delta),
                      2))
    for k, (a, [b]) in enumerate(zip(vec, one), start=1):
        assert a.row is None and b.row == 0 and a.t == b.t == k * delta
        assert np.array_equal(a.partial, b.partial)
        assert np.array_equal(a.state, b.state)
        assert np.array_equal(a.lam, b.lam) and a.response == b.response
        want, _ = tangent_forward(fresh(), E, s0, lam, k * delta)
        assert np.array_equal(a.partial, want)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("dynamics, objective", CASES)
def test_a_vector_failure_marks_no_rows(dynamics, objective, seed):
    # a NaN start fails at step 1; the one-row block marks its row
    dyn, E, s0, lam, n_steps, delta = problem(dynamics, objective, seed)
    s0[0] = np.nan
    for run in (lambda s, e, h: forward_hg(dyn, e, s, h, n_steps),
                lambda s, e, h: reverse_hg(dyn, e, s, h, n_steps),
                lambda s, e, h: next(rtho_stream(dyn, e, s, h, delta))):
        with pytest.raises(NonFiniteError) as err:
            run(s0, E, lam)
        assert err.value.step == 1 and err.value.rows is None
        with pytest.raises(NonFiniteError) as err:
            run(s0[None], [E], lam[None])
        assert err.value.step == 1 and err.value.rows.tolist() == [True]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, objective", CASES)
def test_each_product_on_a_vector_is_row_0_of_its_one_row_block(
        dynamics, objective, seed):
    dyn, _, s, lam, t, _ = problem(dynamics, objective, seed)
    rng = make_rng(seed, 0x1E1, CASES.index((dynamics, objective)))
    r, a = rng.standard_normal((2, dyn.n_state))
    unit = np.zeros(len(lam))
    unit[rng.integers(len(lam))] = 1.0
    obj, w = dyn.objective, dyn.weights_of(s)
    rw, aw = dyn.weights_of(r), dyn.weights_of(a)
    products = {
        "step": lambda x: dyn.step(x(s), x(lam), t),
        "jvp_state": lambda x: dyn.jvp_state(x(s), x(lam), t, x(r)),
        "vjp_state": lambda x: dyn.vjp_state(x(s), x(lam), t, x(a)),
        "vjp_hyper": lambda x: dyn.vjp_hyper(x(s), x(lam), t, x(a)),
        "grad_w": lambda x: obj.grad_w(x(w), x(lam), t),
        "hvp_w": lambda x: obj.hvp_w(x(w), x(lam), t, x(rw)),
        "cross_vjp": lambda x: obj.cross_vjp(x(w), x(lam), t, x(aw)),
    }
    for name, q in (("unit", unit), ("spread", rng.random(len(lam)))):
        products[f"jvp_hyper-{name}"] = (
            lambda x, q=q: dyn.jvp_hyper(x(s), x(lam), t, q))
        products[f"cross_jvp-{name}"] = (
            lambda x, q=q: obj.cross_jvp(x(w), x(lam), t, q))
    for name, product in products.items():
        vec = product(lambda v: v)
        one = product(lambda v: v[None])
        assert vec.shape == one.shape[1:] and one.shape[0] == 1, name
        assert np.array_equal(vec, one[0]), name
