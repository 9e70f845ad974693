"""Property tests of the product protocol on random shapes.

Every dynamics x objective pair must satisfy, at random (s, lam, t) and
random directions drawn from a seeded numpy generator:

* duality of the state products: <a, A r> == <a A, r>;
* duality of the hyper products: <a, B q> == <a B, q>;
* the state and hyper JVPs against central finite differences of
  ``step``.
"""

import numpy as np
import pytest

from hypergrad.datasets import Dataset, MinibatchSchedule
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import MultitaskLinear, WeightedSoftmax

OBJECTIVES = ["weighted-hyper", "weighted-fixed", "weighted-unit",
              *[f"mtl-{c}-{r}" for c in ("full", "uniform", "none")
                for r in ("scalar", "per-task")]]
DYNAMICS = ["GD", "GDM"]
SEEDS = range(3)

DUALITY_TOL = 1e-12
FD_STEP = 1e-6
FD_TOL = 1e-7


def random_instance(objective, dynamics, seed):
    """(dyn, s, lam, t, rng) on shapes drawn from ``seed``."""
    rng = make_rng(seed, 0x9A0D, OBJECTIVES.index(objective),
                   DYNAMICS.index(dynamics))
    n = int(rng.integers(4, 13))
    k = int(rng.integers(2, 5))
    p = int(rng.integers(1, 6))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    train = Dataset(features=rng.standard_normal((n, p)), labels=labels,
                    n_classes=k)
    batch = int(rng.integers(1, n + 1))
    schedule = MinibatchSchedule(n=n, batch_size=batch, seed=seed)
    segs = [("eta", 1)] + ([("mu", 1)] if dynamics == "GDM" else [])
    values = {"eta": 0.05 + 0.2 * rng.random(), "mu": 0.9 * rng.random()}

    if objective.startswith("weighted"):
        kind = objective.split("-")[1]
        if kind == "hyper":
            segs.append(("weights", n))
            values["weights"] = rng.random(n) + 0.5
        layout = VectorLayout(segs)
        obj = WeightedSoftmax(
            train, hyper_layout=layout, schedule=schedule,
            weight_segment="weights" if kind == "hyper" else None,
            fixed_weights=rng.random(n) + 0.5 if kind == "fixed" else None)
    else:
        _, coupling, rho = objective.split("-", 2)
        per_task = rho == "per-task"
        if coupling != "none":
            segs.append(("coupling", k * k if coupling == "full" else 1))
            values["coupling"] = 0.3 * rng.random(segs[-1][1])
        segs.append(("rho", k if per_task else 1))
        values["rho"] = rng.random(segs[-1][1])
        layout = VectorLayout(segs)
        obj = MultitaskLinear(
            train, hyper_layout=layout, schedule=schedule, coupling=coupling,
            coupling_segment=None if coupling == "none" else "coupling",
            per_task_rho=per_task)

    dyn = (GradientDescent(obj) if dynamics == "GD" else Momentum(obj))
    s = rng.standard_normal(dyn.n_state) * 0.5
    t = int(rng.integers(1, 3 * schedule.batches_per_epoch + 1))
    lam = layout.pack(**{name: values[name] for name in layout.names})
    return dyn, s, lam, t, rng


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


CASES = pytest.mark.parametrize("seed", SEEDS)
PAIRS = pytest.mark.parametrize("dynamics", DYNAMICS)
KINDS = pytest.mark.parametrize("objective", OBJECTIVES)


@KINDS
@PAIRS
@CASES
def test_state_products_are_dual(objective, dynamics, seed):
    dyn, s, lam, t, rng = random_instance(objective, dynamics, seed)
    a, r = rng.standard_normal((2, dyn.n_state))
    lhs = float(a @ dyn.jvp_state(s, lam, t, r))
    rhs = float(dyn.vjp_state(s, lam, t, a) @ r)
    assert rel(lhs, rhs) < DUALITY_TOL


@KINDS
@PAIRS
@CASES
def test_hyper_products_are_dual(objective, dynamics, seed):
    dyn, s, lam, t, rng = random_instance(objective, dynamics, seed)
    a = rng.standard_normal(dyn.n_state)
    q = rng.standard_normal(len(lam))
    lhs = float(a @ dyn.jvp_hyper(s, lam, t, q))
    rhs = float(dyn.vjp_hyper(s, lam, t, a) @ q)
    assert rel(lhs, rhs) < DUALITY_TOL


@KINDS
@PAIRS
@CASES
def test_state_jvp_matches_central_differences(objective, dynamics, seed):
    dyn, s, lam, t, rng = random_instance(objective, dynamics, seed)
    r = rng.standard_normal(dyn.n_state)
    fd = (dyn.step(s + FD_STEP * r, lam, t)
          - dyn.step(s - FD_STEP * r, lam, t)) / (2 * FD_STEP)
    jvp = dyn.jvp_state(s, lam, t, r)
    assert np.linalg.norm(jvp - fd) <= FD_TOL * max(np.linalg.norm(jvp), 1.0)


@KINDS
@PAIRS
@CASES
def test_hyper_jvp_matches_central_differences(objective, dynamics, seed):
    dyn, s, lam, t, rng = random_instance(objective, dynamics, seed)
    q = rng.standard_normal(len(lam))
    fd = (dyn.step(s, lam + FD_STEP * q, t)
          - dyn.step(s, lam - FD_STEP * q, t)) / (2 * FD_STEP)
    jvp = dyn.jvp_hyper(s, lam, t, q)
    assert np.linalg.norm(jvp - fd) <= FD_TOL * max(np.linalg.norm(jvp), 1.0)
