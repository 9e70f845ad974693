"""Cross-validation suites: the instance grid and oracle checks.

``build_instance_grid`` constructs a matrix of small training problems —
both dynamics kinds, all three objective kinds, several horizons and
hyperparameter dimensions — on which the two engines, the
finite-difference oracle, and the materialized-chain oracle must all
agree. The CLI's ``check`` subcommand and the acceptance tests both run
these suites, so "the library is correct" means one thing everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import MinibatchSchedule, blob_task, clustered_task_data
from .dynamics import GradientDescent, Momentum
from .engines import forward_hg, reverse_hg
from .layouts import VectorLayout
from .numerics import make_rng
from .objectives import (DatasetValidation, MultitaskLinear, QuadraticToy,
                         QuadraticValidation, WeightedSoftmax)
from .oracle import (chain_eval, fd_hypergrad, materialized_chain,
                     quadratic_gd_response, zero_lr_first_emission_check)
from .outer import BoxL1, MTLCone


@dataclass
class Instance:
    name: str
    dyn: object
    e_val: object
    s0: np.ndarray
    lam: np.ndarray
    n_steps: int

    @property
    def m(self):
        return len(self.lam)

    @property
    def d(self):
        return self.dyn.n_state

    def chain_gated(self):
        return self.d * self.m <= 10_000


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def gap(a, b):
    """Vector-norm relative disagreement with a tiny absolute floor."""
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(b, dtype=np.float64))
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)))
    diff = np.max(np.abs(a - b))
    if scale == 0.0:
        return diff
    return diff / scale


def elementwise_close(a, b, rel, abs_tol):
    a = np.asarray(a)
    b = np.asarray(b)
    return bool(np.all(np.abs(a - b) <= abs_tol
                       + rel * np.maximum(np.abs(a), np.abs(b))))


# ---------------------------------------------------------------------------
# The instance grid

_HORIZONS = (1, 5, 20)


def _make_dyn(kind, obj, eta, mu):
    if kind == "GD":
        return GradientDescent(obj, eta=eta)
    return Momentum(obj, eta=eta, mu=mu)


def _quad_instances(seed):
    rng = make_rng(seed, 0x9A1)
    out = []
    for kind in ("GD", "GDM"):
        for n_steps in _HORIZONS:
            if kind == "GD":
                layout = VectorLayout([("eta", 1)])
                lam = layout.pack(eta=0.3)
            else:
                layout = VectorLayout([("eta", 1), ("mu", 1)])
                lam = layout.pack(eta=0.3, mu=0.5)
            obj = QuadraticToy(3, hyper_layout=layout)
            dyn = _make_dyn(kind, obj, "eta", "mu")
            e_val = QuadraticValidation(3, center=rng.standard_normal(3))
            s0 = dyn.init_state(rng.standard_normal(3))
            out.append(Instance(f"{kind}-quad-T{n_steps}", dyn, e_val,
                                s0, lam, n_steps))
    return out


def _softmax_instances(seed):
    rng = make_rng(seed, 0x9A2)
    out = []
    for kind in ("GD", "GDM"):
        for n_steps in _HORIZONS:
            # optimizer hypers only (m = 1 for GD, 2 for GDM)
            train, val, _ = blob_task(seed + 1, 6, 12, 1, n_classes=2,
                                      n_features=10)
            if kind == "GD":
                layout = VectorLayout([("eta", 1)])
                lam = layout.pack(eta=0.2)
            else:
                layout = VectorLayout([("eta", 1), ("mu", 1)])
                lam = layout.pack(eta=0.2, mu=0.5)
            obj = WeightedSoftmax(train, hyper_layout=layout,
                                  weight_segment=None)
            dyn = _make_dyn(kind, obj, "eta", "mu")
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-softmax-opt-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))

            # three example weights, fixed optimizer (m = 3, d = 62 for GD)
            train, val, _ = blob_task(seed + 2, 3, 12, 1, n_classes=2,
                                      n_features=30)
            layout = VectorLayout([("weights", 3)])
            obj = WeightedSoftmax(train, hyper_layout=layout,
                                  weight_segment="weights")
            dyn = _make_dyn(kind, obj, 0.2, 0.5)
            lam = layout.pack(weights=0.5 + rng.random(3))
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-softmax-w3-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))

            # fifty example weights on minibatches (m = 50)
            train, val, _ = blob_task(seed + 3, 50, 16, 1, n_classes=2,
                                      n_features=10)
            layout = VectorLayout([("weights", 50)])
            schedule = MinibatchSchedule(n=50, batch_size=8, seed=seed)
            obj = WeightedSoftmax(train, hyper_layout=layout,
                                  schedule=schedule,
                                  weight_segment="weights")
            dyn = _make_dyn(kind, obj, 0.2, 0.5)
            lam = layout.pack(weights=0.5 + rng.random(50))
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-softmax-w50-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))
    return out


def _mtl_instances(seed):
    rng = make_rng(seed, 0x9A3)
    out = []
    for kind in ("GD", "GDM"):
        for n_steps in _HORIZONS:
            # shared coupling strength + shared ridge (m = 2)
            train, val, _, _ = clustered_task_data(seed + 4, 3, 2, 4, 4, 6, 1)
            layout = VectorLayout([("coupling", 1), ("rho", 1)])
            obj = MultitaskLinear(train, hyper_layout=layout,
                                  coupling="uniform")
            # the data term is a batch *sum*, so keep the step size small
            # enough that the unrolled response stays FD-friendly
            dyn = _make_dyn(kind, obj, 0.02, 0.3)
            lam = layout.pack(coupling=0.08, rho=0.05)
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-mtl-m2-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))

            # uniform coupling + per-task ridge (m = 3)
            train, val, _, _ = clustered_task_data(seed + 5, 2, 2, 4, 4, 6, 1)
            layout = VectorLayout([("coupling", 1), ("rho", 2)])
            obj = MultitaskLinear(train, hyper_layout=layout,
                                  coupling="uniform", per_task_rho=True)
            dyn = _make_dyn(kind, obj, 0.02, 0.3)
            lam = layout.pack(coupling=0.05, rho=[0.03, 0.08])
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-mtl-m3-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))

            # full interaction matrix + shared ridge (m = 50)
            train, val, _, _ = clustered_task_data(seed + 6, 7, 2, 3, 3, 5, 1)
            layout = VectorLayout([("coupling", 49), ("rho", 1)])
            obj = MultitaskLinear(train, hyper_layout=layout, coupling="full")
            dyn = _make_dyn(kind, obj, 0.02, 0.3)
            lam = layout.pack(coupling=0.02 * rng.random(49), rho=0.04)
            s0 = dyn.init_state(0.1 * rng.standard_normal(obj.n_params))
            out.append(Instance(f"{kind}-mtl-m50-T{n_steps}", dyn,
                                DatasetValidation(val), s0, lam, n_steps))
    return out


def build_instance_grid(seed=0):
    """The full equivalence-test matrix (42 instances)."""
    return _quad_instances(seed) + _softmax_instances(seed) + _mtl_instances(seed)


# ---------------------------------------------------------------------------
# Suites


def check_engine_equivalence(instances=None, rel=1e-8, abs_tol=1e-12):
    instances = instances or build_instance_grid()
    out = []
    for inst in instances:
        fwd = forward_hg(inst.dyn, inst.e_val, inst.s0, inst.lam, inst.n_steps)
        rev = reverse_hg(inst.dyn, inst.e_val, inst.s0, inst.lam, inst.n_steps)
        ok = elementwise_close(fwd.gradient, rev.gradient, rel, abs_tol)
        ok = ok and abs(fwd.response - rev.response) <= abs_tol + rel * abs(
            fwd.response)
        out.append(CheckResult(f"equivalence/{inst.name}", ok,
                               f"gap={gap(fwd.gradient, rev.gradient):.3e}"))
    return out


def check_fd_agreement(instances=None, tol=1e-4):
    instances = instances or build_instance_grid()
    out = []
    for inst in instances:
        fd = fd_hypergrad(inst.dyn, inst.e_val, inst.s0, inst.lam, inst.n_steps)
        for mode, engine in (("forward", forward_hg), ("reverse", reverse_hg)):
            result = engine(inst.dyn, inst.e_val, inst.s0, inst.lam,
                            inst.n_steps)
            g = gap(result.gradient, fd)
            out.append(CheckResult(f"fd/{inst.name}/{mode}", g <= tol,
                                   f"gap={g:.3e}"))
    return out


def check_chain_agreement(instances=None, tol=1e-10):
    instances = instances or build_instance_grid()
    out = []
    for inst in instances:
        if not inst.chain_gated():
            continue
        a_mats, b_mats, states = materialized_chain(inst.dyn, inst.s0,
                                                    inst.lam, inst.n_steps)
        from .objectives import val_grad_state

        grad_e = val_grad_state(inst.e_val, states[-1], inst.dyn.state_layout)
        truth = chain_eval(a_mats, b_mats, grad_e)
        for mode, engine in (("forward", forward_hg), ("reverse", reverse_hg)):
            result = engine(inst.dyn, inst.e_val, inst.s0, inst.lam,
                            inst.n_steps)
            g = gap(result.gradient, truth)
            out.append(CheckResult(f"chain/{inst.name}/{mode}", g <= tol,
                                   f"gap={g:.3e}"))
    return out


def check_closed_form(tol=1e-10, anchor_tol=1e-12):
    """GD on the scalar quadratic against the analytic response derivative."""
    out = []
    layout = VectorLayout([("eta", 1)])
    for s0_val, eta, n_steps in [(1.0, 0.5, 2)] + [
            (s, e, t) for s in (1.0, -2.0, 0.7)
            for e in (0.1, 0.5, 0.9, 1.5) for t in (1, 3, 7, 12)]:
        obj = QuadraticToy(1, hyper_layout=layout)
        dyn = GradientDescent(obj, eta="eta")
        e_val = QuadraticValidation(1)
        lam = layout.pack(eta=eta)
        f_true, df_true = quadratic_gd_response(s0_val, eta, n_steps)
        anchor = (s0_val, eta, n_steps) == (1.0, 0.5, 2)
        tol_here = anchor_tol if anchor else tol
        for mode, engine in (("forward", forward_hg), ("reverse", reverse_hg)):
            res = engine(dyn, e_val, np.array([s0_val]), lam, n_steps)
            ok = (abs(res.gradient[0] - df_true) <= tol_here * (1 + abs(df_true))
                  and abs(res.response - f_true) <= tol_here * (1 + abs(f_true)))
            out.append(CheckResult(
                f"closed-form/s0={s0_val},eta={eta},T={n_steps}/{mode}", ok,
                f"grad={res.gradient[0]:.12g} want={df_true:.12g}"))
    return out


def check_zero_lr_identity(seed=0, tol=1e-10):
    """First-emission identity on the scalar anchor plus random instances."""
    out = []

    # scalar anchor: w0=2, delta=3, J = E = half w^2 -> both sides -12
    layout = VectorLayout([("eta", 1)])
    obj = QuadraticToy(1, hyper_layout=layout)
    dyn = GradientDescent(obj, eta="eta")
    lhs, rhs = zero_lr_first_emission_check(
        dyn, QuadraticValidation(1), np.array([2.0]), layout.pack(eta=0.0), 3)
    ok = abs(lhs - rhs) <= tol * (1 + abs(rhs)) and abs(rhs + 12.0) <= 1e-12
    out.append(CheckResult("identity/scalar-anchor", ok,
                           f"lhs={lhs:.12g} rhs={rhs:.12g}"))

    rng = make_rng(seed, 0x1DE)
    for i in range(9):
        n = int(rng.integers(4, 20))
        delta = int(rng.integers(1, 6))
        train, val, _ = blob_task(seed + 10 + i, n, 8, 1, n_classes=2,
                                  n_features=int(rng.integers(2, 8)))
        layout = VectorLayout([("eta", 1)])
        schedule = MinibatchSchedule(n=n, batch_size=max(2, n // 3), seed=i)
        obj = WeightedSoftmax(train, hyper_layout=layout, schedule=schedule,
                              weight_segment=None)
        dyn = GradientDescent(obj, eta="eta")
        w0 = rng.standard_normal(obj.n_params)
        lhs, rhs = zero_lr_first_emission_check(
            dyn, DatasetValidation(val), w0, layout.pack(eta=0.0), delta)
        ok = abs(lhs - rhs) <= tol * (1 + abs(rhs))
        out.append(CheckResult(f"identity/random-{i}", ok,
                               f"lhs={lhs:.12g} rhs={rhs:.12g}"))
    return out


def check_projections(seed=0):
    out = []
    box_l1 = BoxL1(0.0, 1.0, 1.0)
    hand = [
        (np.array([0.5, 0.7]), np.array([0.4, 0.6])),
        (np.array([0.2, 0.3]), np.array([0.2, 0.3])),
        (np.array([2.0, -0.5]), np.array([1.0, 0.0])),
    ]
    for x, want in hand:
        got = box_l1.project(x)
        out.append(CheckResult(f"projection/boxl1-hand-{x.tolist()}",
                               bool(np.all(np.abs(got - want) <= 1e-12)),
                               f"got={got.tolist()}"))
    cone = MTLCone()
    got = cone.project(np.array([[0.0, -1.0], [3.0, 0.0]]).ravel())
    want = np.array([[0.0, 1.0], [1.0, 0.0]]).ravel()
    out.append(CheckResult("projection/cone-hand",
                           bool(np.all(got == want)), f"got={got.tolist()}"))
    rng = make_rng(seed, 0x79)
    sets = [BoxL1(0.0, 1.0, 2.5), MTLCone(4.0), MTLCone()]
    for idx, rule in enumerate(sets):
        ok = True
        for _ in range(50):
            x = rng.standard_normal(9) * 3.0
            once = rule.project(x)
            twice = rule.project(once)
            ok = ok and np.array_equal(once, twice)
        out.append(CheckResult(f"projection/idempotence-{idx}", ok))
    return out


def run_check_suite(seed=0):
    """Everything the ``check`` subcommand runs; returns CheckResults."""
    instances = build_instance_grid(seed)
    results = []
    results += check_engine_equivalence(instances)
    results += check_fd_agreement(instances)
    results += check_chain_agreement(instances)
    results += check_closed_form()
    results += check_zero_lr_identity(seed)
    results += check_projections(seed)
    return results
