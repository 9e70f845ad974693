"""A tied path: NMTL run as the full-coupling model with its lam tied.

``run_mtl`` trains NMTL on the full-coupling, per-task-rho
``MultitaskLinear`` with every C_jk tied to one entry a and every rho_k
to another (``experiments._uniform_tie``), next to HMTL and HMTL-S in
one lockstep problem. On random class and feature counts, over a
single set and a 2-set ``SeedStack``, full batch and minibatch, GD and
Momentum, the full model at the tied lam must give the bits of
``coupling="uniform", per_task_rho=False`` at (a, rho) in every
product and in the reverse tape; the tied hypergradient of both
engines (the full one summed back per tied entry by the loop's path)
must match the uniform model's to 1e-12; and a tied path and an untied
one that start at the same model lam must share their first
hypergradient.
"""

import numpy as np
import pytest

from hypergrad import driver
from hypergrad.datasets import Dataset, MinibatchSchedule, SeedStack
from hypergrad.driver import MaxHyperIters, lockstep_ho_loop
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.engines import forward_hg, reverse_hg
from hypergrad.experiments import _uniform_tie
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import DatasetValidation, MultitaskLinear

SEEDS = range(6)
CASES = [(dynamics, batch, n_sets) for dynamics in ("GD", "GDM")
         for batch in ("full", "minibatch") for n_sets in (1, 2)]


class Tied:
    """The full and the uniform model over one draw from ``seed``.

    One set is a ``Dataset`` with vector states and lam; two sets are a
    ``SeedStack`` with (2, d) states and (2, m) lam, one per set.
    ``own`` is the uniform model's (a, rho) and ``lam`` the full model's
    ``own[..., tie]``.
    """

    def __init__(self, dynamics, batch, n_sets, seed):
        rng = make_rng(seed, 0x71ED, dynamics == "GD", batch == "full",
                       n_sets)
        self.k = k = int(rng.integers(2, 6))
        n = int(rng.integers(k, 16))
        p = int(rng.integers(1, 9))
        labels = rng.integers(0, k, size=(n_sets, n))
        labels[:, :k] = np.arange(k)  # every class present in every set
        features = rng.standard_normal((n_sets, n, p))
        size = None if batch == "full" else int(rng.integers(1, n))
        schedules = [MinibatchSchedule(n=n, batch_size=size, seed=seed + i)
                     for i in range(n_sets)]
        epoch = schedules[0].batches_per_epoch
        if n_sets == 1:
            data = Dataset(features=features[0], labels=labels[0],
                           n_classes=k)
            schedules, lead = schedules[0], ()
        else:
            data, lead = SeedStack(features, labels, k), (n_sets,)
        self.tie = _uniform_tie(k)
        self.full_layout = VectorLayout([("coupling", k * k), ("rho", k)])
        self.own_layout = VectorLayout([("coupling", 1), ("rho", 1)])
        if dynamics == "GD":
            make = lambda obj: GradientDescent(obj, eta=0.1)  # noqa: E731
        else:
            make = lambda obj: Momentum(obj, eta=0.1, mu=0.6)  # noqa: E731
        self.full = make(MultitaskLinear(
            data, hyper_layout=self.full_layout, schedule=schedules,
            coupling="full", per_task_rho=True))
        self.uniform = make(MultitaskLinear(
            data, hyper_layout=self.own_layout, schedule=schedules,
            coupling="uniform", per_task_rho=False))
        self.own = 0.05 + 0.3 * rng.random((*lead, 2))
        self.lam = self.own[..., self.tie]
        d = self.full.n_state
        self.s = 0.5 * rng.standard_normal((*lead, d))
        self.r = rng.standard_normal((*lead, d))
        self.t = int(rng.integers(1, 3 * epoch + 2))
        self.n_steps = int(rng.integers(2, 9))
        e_sets = [Dataset(features=rng.standard_normal((7, p)),
                          labels=rng.integers(0, k, size=7), n_classes=k)
                  for _ in range(n_sets)]
        self.E = DatasetValidation(e_sets[0] if n_sets == 1
                                   else SeedStack.of(e_sets))

    def tied_gradient(self, gradient):
        """The full gradient summed back per own entry, as a tied path
        of the lockstep loop does."""
        path = driver._OuterPath(self.own_layout.pack(coupling=0.0, rho=0.0),
                                 None, MaxHyperIters(1), 0.1, tie=self.tie)
        return np.apply_along_axis(path.own_gradient, -1, gradient)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, batch, n_sets", CASES)
def test_tied_full_model_has_the_uniform_bits(dynamics, batch, n_sets, seed):
    tc = Tied(dynamics, batch, n_sets, seed)
    full, uni = tc.full, tc.uniform
    assert np.array_equal(full.step(tc.s, tc.lam, tc.t),
                          uni.step(tc.s, tc.own, tc.t))
    for name in ("jvp_state", "vjp_state"):
        assert np.array_equal(
            getattr(full, name)(tc.s, tc.lam, tc.t, tc.r),
            getattr(uni, name)(tc.s, tc.own, tc.t, tc.r)), name
    w = full.weights_of(tc.s)
    r = full.weights_of(tc.r)
    assert np.array_equal(full.objective.grad_w(w, tc.lam, tc.t),
                          uni.objective.grad_w(w, tc.own, tc.t))
    assert np.array_equal(full.objective.hvp_w(w, tc.lam, tc.t, r),
                          uni.objective.hvp_w(w, tc.own, tc.t, r))
    tape_full = reverse_hg(full, tc.E, tc.s, tc.lam, tc.n_steps).tape
    tape_uni = reverse_hg(uni, tc.E, tc.s, tc.own, tc.n_steps).tape
    assert len(tape_full) == len(tape_uni) == tc.n_steps + 1
    for a, b in zip(tape_full.states, tape_uni.states):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("engine", [reverse_hg, forward_hg])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, batch, n_sets", CASES)
def test_tied_hypergradient_is_the_uniform_one(engine, dynamics, batch,
                                               n_sets, seed):
    tc = Tied(dynamics, batch, n_sets, seed)
    full = engine(tc.full, tc.E, tc.s, tc.lam, tc.n_steps)
    uni = engine(tc.uniform, tc.E, tc.s, tc.own, tc.n_steps)
    assert np.array_equal(full.response, uni.response)
    tied = tc.tied_gradient(full.gradient)
    assert tied.shape == uni.gradient.shape
    scale = np.abs(uni.gradient).max()
    assert scale > 0.0
    assert np.abs(tied - uni.gradient).max() <= 1e-12 * scale


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, batch, n_sets", CASES)
def test_tied_and_untied_paths_share_their_start(dynamics, batch, n_sets,
                                                 seed, monkeypatch):
    # an untied path starting at the tied path's model lam computes its
    # first hypergradient with it, one row per set; they part after it
    tc = Tied(dynamics, batch, n_sets, seed)
    calls = []
    real = driver.reverse_hg

    def counting(dyn, e, s0, lam, n_steps):
        calls.append(len(lam))
        return real(dyn, e, s0, lam, n_steps)
    monkeypatch.setattr(driver, "reverse_hg", counting)
    paths = []
    for row, own in enumerate(np.atleast_2d(tc.own)):
        paths += [(own, None, MaxHyperIters(2), row, tc.tie),
                  (own[tc.tie], None, MaxHyperIters(2), row)]
    out, n_computed = lockstep_ho_loop(tc.full, tc.E, tc.s, paths,
                                       tc.n_steps, lr=0.05)
    assert calls == [n_sets, 2 * n_sets]
    assert n_computed == [3] * n_sets
    for (tied_lam, tied), (lam, untied) in zip(out[::2], out[1::2]):
        assert (len(tied_lam), len(lam)) == (2, tc.full_layout.size)
        assert tied[0].response == untied[0].response


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, batch, n_sets", CASES)
def test_forward_sweeps_a_tied_path_along_its_tie(dynamics, batch, n_sets,
                                                  seed, monkeypatch):
    # the forward engine sweeps a group of tied paths along the tie: one
    # tangent per own entry (2, not k*k + k), with the uniform model's
    # gradient; a group that holds an untied path sweeps every entry
    tc = Tied(dynamics, batch, n_sets, seed)
    calls = []
    real = driver.forward_hg

    results = []

    def counting(dyn, e, s0, lam, n_steps, directions=None):
        calls.append((len(lam), None if directions is None
                      else directions.shape))
        results.append(real(dyn, e, s0, lam, n_steps, directions))
        return results[-1]
    monkeypatch.setattr(driver, "forward_hg", counting)
    owns = np.atleast_2d(tc.own)
    tied = [(own, None, MaxHyperIters(1), row, tc.tie)
            for row, own in enumerate(owns)]
    out, _ = lockstep_ho_loop(tc.full, tc.E, tc.s, tied, tc.n_steps,
                              engine="forward", lr=0.05)
    m = tc.full_layout.size
    assert calls == [(n_sets, (2, m))]
    uni = forward_hg(tc.uniform, tc.E, tc.s, tc.own, tc.n_steps)
    want = np.atleast_2d(uni.gradient)
    scale = np.abs(want).max()
    assert np.abs(results[0].gradient - want).max() <= 1e-12 * scale
    for (_, records), g, response in zip(out, want,
                                         np.atleast_1d(uni.response)):
        assert records[0].response == response
        assert abs(records[0].grad_norm - np.linalg.norm(g)) <= 1e-12 * scale

    calls.clear()
    untied = [(own[tc.tie], None, MaxHyperIters(2), row)
              for row, own in enumerate(owns)]
    lockstep_ho_loop(tc.full, tc.E, tc.s,
                     [(*path[:2], MaxHyperIters(2), *path[3:])
                      for path in tied] + untied,
                     tc.n_steps, engine="forward", lr=0.05)
    assert calls[0] == (n_sets, None)  # the shared start
    assert sorted(calls[1:], key=str) == [(n_sets, (2, m)), (n_sets, None)]
