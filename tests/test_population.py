"""The population axis: K independent runs trained as one (K, d) block.

``engines.train`` with a (K, d) block of start states and a (K, m)
block of hyper vectors must give, row for row and bit for bit, what K
separate 1-D runs give. The block relies on ``np.matmul`` running one
gemm per slice, so a numpy or BLAS change that breaks that dispatch
fails here instead of silently moving a digest. Shapes and K come from
a seeded numpy generator.

The same holds for a seed stack: S training sets with their own
schedules, where row i of a (S, d) block trains on set i. Its ``step``,
``jvp_state`` and ``jvp_hyper``, and the real-time stream and loop run
on it, must give row for row what each seed gives alone. So must the
block ``vjp_state``, ``vjp_hyper``, ``reverse_hg`` and ``forward_hg`` on
a ``MultitaskLinear`` stack whose rows may repeat a set, and a
multi-seed ``run_mtl`` against its one-seed runs.
"""

import dataclasses
import gc
import weakref
from itertools import islice

import numpy as np
import pytest

from hypergrad import cli, experiments
from hypergrad.config import ExperimentConfig
from hypergrad.datasets import (Dataset, MinibatchSchedule, SeedStack,
                                full_batch_schedule)
from hypergrad.driver import MaxHyperIters, stream_ho_loop
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.engines import forward_hg, reverse_hg, rtho_stream, train
from hypergrad.errors import DimensionMismatchError, NonFiniteError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  WeightedSoftmax)
from hypergrad.outer import Constraints, NonNeg, ProjectedAdam, UnitInterval

SEEDS = range(30)

# (dynamics, objective, batch): the two pairs the experiments train as
# populations, and the other objective kinds the block accepts.
# "mtl-none" is the full-coupling model with its coupling entries at 0,
# as the STL grid fits it.
CASES = [
    ("GDM", "weighted-unit", "minibatch"),
    ("GD", "mtl-none", "full"),
    ("GD", "mtl-full", "full"),
    ("GD", "weighted-unit", "full"),
    ("GD", "mtl-uniform", "minibatch"),
    ("GDM", "mtl-full", "minibatch"),
]
KINDS = ["weighted-unit", "mtl-none", "mtl-full", "mtl-uniform",
         "weighted-hyper"]


def with_ten_classes(seeds):
    """(seed, None) per seed, then (seed, 10) for the first ten seeds.

    Each case draws its class count from the seed unless given one. The
    drawn counts (2 to 5) take the softmax kernels' class-major
    reductions, and 10 classes their last-axis form (see
    ``objectives._over_classes``); a drawn case keeps the id of the seed.
    """
    return ([pytest.param(seed, None, id=str(seed)) for seed in seeds]
            + [pytest.param(seed, 10, id=f"{seed}-k10") for seed in seeds[:10]])


def population(dynamics, objective, batch, seed, n_classes=None):
    """(dyn, s0 block, lam block, T) on shapes and K drawn from ``seed``,
    with ``n_classes`` classes if given.

    The objective is built afresh on every call, so two calls with the
    same arguments share no memo.
    """
    rng = make_rng(seed, 0x9091, KINDS.index(objective), dynamics == "GD",
                   batch == "full")
    n_rows = int(rng.integers(1, 9))
    k = int(rng.integers(2, 6))
    k = k if n_classes is None else n_classes
    n = int(rng.integers(k, 25))
    p = int(rng.integers(1, 9))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # every class present
    data = Dataset(features=rng.standard_normal((n, p)), labels=labels,
                   n_classes=k)
    schedule = (full_batch_schedule(n) if batch == "full" else
                MinibatchSchedule(n=n, batch_size=int(rng.integers(1, n + 1)),
                                  seed=seed))
    segs = [("eta", 1)] + ([("mu", 1)] if dynamics == "GDM" else [])
    if objective == "weighted-hyper":  # example weights as hypers
        layout = VectorLayout(segs + [("weights", n)])
        obj = WeightedSoftmax(data, hyper_layout=layout, schedule=schedule)
    elif objective == "weighted-unit":
        layout = VectorLayout(segs)
        obj = WeightedSoftmax(data, hyper_layout=layout, schedule=schedule,
                              weight_segment=None)
    else:
        coupling = objective.split("-")[1]
        segs += [("coupling", 1 if coupling == "uniform" else k * k),
                 ("rho", k)]
        layout = VectorLayout(segs)
        obj = MultitaskLinear(data, hyper_layout=layout, schedule=schedule,
                              coupling="uniform" if coupling == "uniform"
                              else "full", per_task_rho=True)
    dyn = GradientDescent(obj) if dynamics == "GD" else Momentum(obj)
    lam = rng.random((n_rows, layout.size))
    if objective == "mtl-none":
        lam[:, layout.slice_of("coupling")] = 0.0
    lam[:, 0] = 0.05 + 0.3 * lam[:, 0]  # eta
    if dynamics == "GDM":
        lam[:, 1] *= 0.9  # mu
    s0 = 0.5 * rng.standard_normal((n_rows, dyn.n_state))
    return dyn, s0, lam, int(rng.integers(1, 3 * schedule.batches_per_epoch
                                          + 2))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, objective, batch", CASES)
def test_block_train_equals_looped_train(dynamics, objective, batch, seed):
    dyn, s0, lam, n_steps = population(dynamics, objective, batch, seed)
    block = train(dyn, s0, lam, n_steps)
    assert block.shape == s0.shape and block.flags.c_contiguous
    loop_dyn = population(dynamics, objective, batch, seed)[0]
    for i in range(len(s0)):
        assert np.array_equal(block[i], train(loop_dyn, s0[i], lam[i], n_steps))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("dynamics, objective, batch", CASES)
def test_one_row_block_equals_the_vector_run(dynamics, objective, batch,
                                             seed):
    dyn, s0, lam, n_steps = population(dynamics, objective, batch, seed)
    one = train(dyn, s0[:1], lam[:1], n_steps)
    assert one.shape == (1, dyn.n_state)
    vector_dyn = population(dynamics, objective, batch, seed)[0]
    assert np.array_equal(one[0], train(vector_dyn, s0[0], lam[0], n_steps))


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("dynamics, objective, batch", CASES)
def test_block_gradient_rows_equal_vector_gradients(dynamics, objective,
                                                    batch, seed):
    dyn, s0, lam, n_steps = population(dynamics, objective, batch, seed)
    w = dyn.weights_of(s0)
    block = dyn.objective.grad_w(w, lam, n_steps)
    for i in range(len(w)):
        assert np.array_equal(block[i], dyn.objective.grad_w(w[i], lam[i],
                                                             n_steps))


def test_block_train_leaves_its_inputs_alone():
    dyn, s0, lam, n_steps = population("GDM", "weighted-unit", "minibatch", 1)
    s0_before, lam_before = s0.copy(), lam.copy()
    train(dyn, s0, lam, n_steps)
    assert np.array_equal(s0, s0_before) and np.array_equal(lam, lam_before)


def test_block_and_hyper_rows_must_match():
    dyn, s0, lam, n_steps = population("GD", "mtl-none", "full", 2)
    with pytest.raises(DimensionMismatchError):
        train(dyn, np.vstack([s0, s0]), lam, n_steps)


def weighted_products(dyn, s, lam, t, r, directions):
    """Every product and ``step`` of ``dyn`` at (s, lam, t), by name.

    ``r`` is the tangent (and cotangent) of the state, and each of
    ``directions`` one hyper direction ``q``.
    """
    obj, w, rw = dyn.objective, dyn.weights_of(s), dyn.weights_of(r)
    out = {"step": dyn.step(s, lam, t),
           "jvp_state": dyn.jvp_state(s, lam, t, r),
           "vjp_state": dyn.vjp_state(s, lam, t, r),
           "vjp_hyper": dyn.vjp_hyper(s, lam, t, r),
           "grad_w": obj.grad_w(w, lam, t),
           "hvp_w": obj.hvp_w(w, lam, t, rw),
           "cross_vjp": obj.cross_vjp(w, lam, t, rw)}
    for name, q in directions.items():
        out[f"jvp_hyper {name}"] = dyn.jvp_hyper(s, lam, t, q)
        out[f"cross_jvp {name}"] = obj.cross_jvp(w, lam, t, q)
    return out


@pytest.mark.parametrize("seed, k", with_ten_classes(SEEDS[:10]))
@pytest.mark.parametrize("batch", ["full", "minibatch"])
@pytest.mark.parametrize("dynamics", ["GD", "GDM"])
def test_weighted_block_products_equal_vector_products(dynamics, batch, seed,
                                                       k):
    # example weights given as hypers: a (K, m) lam block gives, row for
    # row and bit for bit, every product the vectors give, for a unit
    # direction on one example of the batch (the B-column assembly), a
    # direction over several examples and the learning rate's
    dyn, s, lam, n_steps = population(dynamics, "weighted-hyper", batch, seed,
                                      k)
    rng = make_rng(seed, 0x3E1)
    t = int(rng.integers(1, n_steps + 1))
    r = rng.standard_normal(s.shape)
    layout = dyn.hyper_layout
    start = layout.slice_of("weights").start
    batch_idx = dyn.objective._stack_batch(t)[0]
    unit, spread, eta = (np.zeros(layout.size) for _ in range(3))
    unit[start + rng.choice(batch_idx)] = 1.0
    spread[start:] = rng.standard_normal(layout.length_of("weights"))
    eta[layout.slice_of("eta")] = 1.0
    directions = {"unit": unit, "spread": spread, "eta": eta}
    block = weighted_products(dyn, s, lam, t, r, directions)
    vector_dyn = population(dynamics, "weighted-hyper", batch, seed, k)[0]
    for i in range(len(s)):
        alone = weighted_products(vector_dyn, s[i], lam[i], t, r[i],
                                  directions)
        for name, want in alone.items():
            assert block[name].shape == (len(s), *want.shape), name
            assert np.array_equal(block[name][i], want), name


def test_example_weight_hypers_check_the_hyper_length():
    dyn, s0, lam, n_steps = population("GD", "weighted-hyper", "full", 1)
    with pytest.raises(DimensionMismatchError):
        train(dyn, s0, lam[:, :-1], n_steps)


# ---------------------------------------------------------------------------
# per-row failure


def diverging(seed, eta, mu):
    """A Momentum population whose rows 1 and 2 take ``eta`` and ``mu``."""
    dyn, s0, lam, _ = population("GDM", "weighted-unit", "minibatch", seed)
    lam = np.vstack([lam] * 3)[:max(len(lam), 4)]
    s0 = np.vstack([s0] * 3)[:len(lam)]
    lam[1, 0] = eta
    lam[2, 1] = mu
    return dyn, s0, lam


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed", SEEDS)
def test_a_diverging_row_fails_alone(seed):
    # a huge momentum overflows the velocity within a few steps; a huge
    # learning rate does too unless the softmax saturates first. The
    # looped run says which rows fail.
    dyn, s0, lam = diverging(seed, 1e308, 1e100)
    n_steps = 30
    block = train(dyn, s0, lam, n_steps)
    loop_dyn = population("GDM", "weighted-unit", "minibatch", seed)[0]
    failed = []
    for i in range(len(lam)):
        try:
            row = train(loop_dyn, s0[i], lam[i], n_steps)
        except NonFiniteError as err:
            assert err.step > 1
            failed.append(i)
            assert np.isnan(block[i]).all()
        else:
            assert np.array_equal(block[i], row)
    assert 2 in failed and set(failed) <= {1, 2}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_an_all_divergent_block_is_all_nan():
    dyn, s0, lam = diverging(0, np.inf, 0.5)
    lam[:, 0] = np.inf
    assert np.isnan(train(dyn, s0, lam, 30)).all()


def test_a_vector_run_still_raises():
    dyn, s0, lam = diverging(0, np.inf, 0.5)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError) as err:
        train(dyn, s0[1], lam[1], 30)
    assert err.value.rows is None and err.value.step == 1


def _tiny_search(**kw):
    base = dict(experiment="randsearch", seed=0, n_classes=3, n_features=6,
                n_train=60, n_val=30, n_test=30, batch_size=10,
                inner_steps=15, budget=9)
    base.update(kw)
    return ExperimentConfig(**base)


class _SometimesHuge:
    """Exponential(scale), but every third draw is 1e308: those diverge."""

    def __init__(self, scale):
        self.scale = scale

    def sample(self, rng, size):
        eta = rng.exponential(self.scale, size)
        return np.where(rng.random(size) < 1 / 3, 1e308, eta)


def _search_task(cfg):
    """(task, dynamics) the random search of ``cfg.seed`` runs on."""
    layout, stack, e_val = experiments._rtho_task(cfg, [cfg.seed])
    return ((layout, stack[0], e_val.take(0)),
            experiments._rtho_dynamics(cfg, layout, stack[0], [cfg.seed]))


def _looped_scores(cfg, trials):
    """What each trial scores trained alone, inf where it diverges."""
    (_, _, e_val), dyn = _search_task(cfg)
    s0 = dyn.init_state(np.zeros(dyn.objective.n_params))
    scores = []
    for trial in trials:
        try:
            with np.errstate(all="ignore"):
                s = train(dyn, s0, trial.lam, cfg.inner_steps)
            scores.append(e_val.value(dyn.weights_of(s)))
        except NonFiniteError:
            scores.append(np.inf)
    return scores


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed, rows", [(0, None), (1, None), (2, None),
                                        (0, 1), (1, 4)])
def test_random_search_block_matches_the_looped_reference(seed, rows,
                                                          monkeypatch):
    monkeypatch.setattr(experiments, "Exponential", _SometimesHuge)
    cfg = _tiny_search(seed=seed)
    if rows is not None:
        # populations of at most ``rows`` trials: the 9 trials as 9 x 1
        # or 4 + 4 + 1
        dyn = _search_task(cfg)[1]
        state = dyn.init_state(np.zeros(dyn.objective.n_params))
        monkeypatch.setattr(experiments, "_POPULATION_FLOATS",
                            rows * len(state))
    sizes = []

    def counting(dyn, s0, lam, n_steps):
        sizes.append(len(lam))
        return train(dyn, s0, lam, n_steps)

    monkeypatch.setattr(experiments.engines, "train", counting)
    result, n_trials, _ = experiments._random_search_baseline(
        cfg, seed, cfg.budget * cfg.inner_steps, _search_task(cfg)[0])
    assert sum(sizes) == n_trials and max(sizes) == (rows or n_trials)
    want = _looped_scores(cfg, result.trials)
    assert 0 < want.count(np.inf) < n_trials  # some diverge, not all
    assert [t.score for t in result.trials] == want
    assert [t.failed for t in result.trials] == [s == np.inf for s in want]
    assert result.best.score == min(want)
    assert result.best.index == want.index(min(want))
    report = experiments.run_randsearch(cfg)
    assert report.metrics["failed_trials"] == want.count(np.inf)
    assert report.metrics["best_score"] == min(want)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_random_search_all_divergent_keeps_the_first_trial(monkeypatch):
    class Huge:
        def __init__(self, scale):
            pass

        def sample(self, rng, size):
            return np.full(size, 1e308)

    monkeypatch.setattr(experiments, "Exponential", Huge)
    cfg = _tiny_search(budget=4)
    result, _, _ = experiments._random_search_baseline(cfg, 0, 60,
                                                       _search_task(cfg)[0])
    assert all(t.failed and t.score == np.inf for t in result.trials)
    assert result.best is min(result.trials, key=lambda tr: tr.score)
    assert experiments.run_randsearch(cfg).metrics["failed_trials"] == 4


# ---------------------------------------------------------------------------
# phase seconds stay out of the digest


def test_phase_seconds_do_not_enter_the_digest():
    cfg = ExperimentConfig(experiment="rtho", seed=0, n_seeds=2, n_classes=3,
                           n_features=6, n_train=60, n_val=30, n_test=30,
                           batch_size=10, inner_steps=20, delta=10,
                           hyper_iters=4, hyper_lr=0.01)
    report = experiments.run_rtho(cfg)
    # the seeds stream as one block: one stream_s for all of them
    seeds = report.timings["seeds"]
    assert [entry["seed"] for entry in seeds] == [0, 1]
    assert report.timings["stream_s"] > 0
    assert all(entry["random_search_s"] > 0 for entry in seeds)
    digest = report.digest()
    report.timings = {"stream_s": 1e9,
                      "seeds": [{**entry, "random_search_s": -1.0,
                                 "stl_s": 2.0} for entry in seeds]}
    assert report.digest() == digest


# ---------------------------------------------------------------------------
# seed stacks: S training sets, row i of a block training on set i


STACK_CASES = [("GDM", "minibatch"), ("GDM", "full"), ("GD", "minibatch"),
               ("GD", "full")]


class Stack:
    """A seed stack drawn from ``seed``, and each of its seeds alone.

    ``block`` is the dynamics over the stack; ``alone(i)`` builds fresh
    dynamics over set i only (with no memo shared with anything), with
    the same schedule. ``s`` and ``lam`` are (S, d) and (S, m) blocks,
    one λ per seed; ``E`` is the validation error over a stack of one
    validation set per seed.
    """

    def __init__(self, dynamics, batch, seed, n_classes=None):
        rng = make_rng(seed, 0x5EED, dynamics == "GD", batch == "full")
        self.S = n_sets = int(rng.integers(1, 7))
        k = int(rng.integers(2, 6))
        k = k if n_classes is None else n_classes
        n = int(rng.integers(k, 25))
        p = int(rng.integers(1, 9))
        labels = rng.integers(0, k, size=(n_sets, n))
        labels[:, :k] = np.arange(k)  # every class present in every set
        self.stack = SeedStack(rng.standard_normal((n_sets, n, p)), labels, k)
        size = None if batch == "full" else int(rng.integers(1, n + 1))
        self.schedules = [MinibatchSchedule(n=n, batch_size=size,
                                            seed=100 * seed + i)
                          for i in range(n_sets)]
        segs = [("eta", 1)] + ([("mu", 1)] if dynamics == "GDM" else [])
        self.layout = VectorLayout(segs)
        self._make = GradientDescent if dynamics == "GD" else Momentum
        self.block = self._make(WeightedSoftmax(
            self.stack, hyper_layout=self.layout, schedule=self.schedules,
            weight_segment=None))
        lam = rng.random((n_sets, self.layout.size))
        lam[:, 0] = 0.05 + 0.3 * lam[:, 0]  # eta
        if dynamics == "GDM":
            lam[:, 1] *= 0.9  # mu
        self.lam = lam
        self.s = 0.5 * rng.standard_normal((n_sets, self.block.n_state))
        self.t = int(rng.integers(1, 3 * self.schedules[0].batches_per_epoch
                                  + 2))
        self.m = self.layout.size
        self.z = rng.standard_normal((n_sets, self.block.n_state, self.m))
        self.E = DatasetValidation(SeedStack.of([Dataset(
            features=rng.standard_normal((7, p)),
            labels=rng.integers(0, k, size=7), n_classes=k)
            for _ in range(n_sets)]))

    def alone(self, i):
        return self._make(WeightedSoftmax(
            self.stack[i], hyper_layout=self.layout,
            schedule=self.schedules[i], weight_segment=None))


@pytest.mark.parametrize("seed, k", with_ten_classes(SEEDS))
@pytest.mark.parametrize("dynamics, batch", STACK_CASES)
def test_stacked_step_equals_each_seed_alone(dynamics, batch, seed, k):
    st = Stack(dynamics, batch, seed, k)
    block = st.block.step(st.s, st.lam, st.t)
    assert block.shape == st.s.shape
    for i in range(st.S):
        assert np.array_equal(block[i],
                              st.alone(i).step(st.s[i], st.lam[i], st.t))


@pytest.mark.parametrize("seed, k", with_ten_classes(SEEDS))
@pytest.mark.parametrize("dynamics, batch", STACK_CASES)
def test_stacked_jvp_state_equals_each_seed_alone(dynamics, batch, seed, k):
    # a column of a C-contiguous (S, d, m) Z, as the stream hands it over,
    # against the same column of each seed's own (d, m) slice
    st = Stack(dynamics, batch, seed, k)
    alone = [st.alone(i) for i in range(st.S)]
    for j in range(st.m):
        block = st.block.jvp_state(st.s, st.lam, st.t, st.z[..., j])
        for i in range(st.S):
            want = alone[i].jvp_state(st.s[i], st.lam[i], st.t,
                                      st.z[i][:, j])
            assert np.array_equal(block[i], want)


@pytest.mark.parametrize("seed, k", with_ten_classes(SEEDS))
@pytest.mark.parametrize("dynamics, batch", STACK_CASES)
def test_stacked_jvp_hyper_equals_each_seed_alone(dynamics, batch, seed, k):
    st = Stack(dynamics, batch, seed, k)
    alone = [st.alone(i) for i in range(st.S)]
    for q in np.eye(st.m):
        block = st.block.jvp_hyper(st.s, st.lam, st.t, q)
        for i in range(st.S):
            assert np.array_equal(
                block[i], alone[i].jvp_hyper(st.s[i], st.lam[i], st.t, q))


def _emissions_equal(a, b):
    return (a.t == b.t and a.response == b.response
            and np.array_equal(a.partial, b.partial)
            and np.array_equal(a.lam, b.lam)
            and np.array_equal(a.state, b.state))


def _updaters(st):
    box = Constraints(st.layout, {"eta": NonNeg()} if st.m == 1 else
                      {"eta": NonNeg(), "mu": UnitInterval()})
    return [ProjectedAdam(box, lr=0.01) for _ in range(st.S)]


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("dynamics, batch", STACK_CASES)
def test_stacked_stream_equals_each_seed_alone(dynamics, batch, seed):
    st = Stack(dynamics, batch, seed)
    delta, n_emit = 1 + seed % 4, 4
    stream = rtho_stream(st.block, st.E, st.s, st.lam, delta,
                         updater=_updaters(st))
    sweeps = list(islice(stream, n_emit))
    assert all([em.row for em in sweep] == list(range(st.S))
               for sweep in sweeps)
    for i, updater in enumerate(_updaters(st)):
        alone = list(islice(rtho_stream(st.alone(i), st.E.take(i), st.s[i],
                                        st.lam[i], delta, updater=updater),
                            n_emit))
        assert all(_emissions_equal(sweep[i], em)
                   for sweep, em in zip(sweeps, alone))


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_a_row_that_leaves_stops_alone(seed):
    # row 0 leaves after its second emission: the other rows go on as
    # they would alone, and the stream ends once every row has left
    st = Stack("GDM", "minibatch", seed)
    stream = rtho_stream(st.block, st.E, st.s, st.lam, 3,
                         updater=_updaters(st))
    sweeps = []
    for sweep in stream:
        sweeps.append(sweep)
        for em in sweep:
            em.leave = len(sweeps) == 2 if em.row == 0 else len(sweeps) == 5
    rest = [st.S - 1] * 3 if st.S > 1 else []  # a lone row 0 ends it
    assert [len(sweep) for sweep in sweeps] == [st.S, st.S] + rest
    for i, updater in enumerate(_updaters(st)):
        alone = list(islice(rtho_stream(st.alone(i), st.E.take(i), st.s[i],
                                        st.lam[i], 3, updater=updater), 5))
        mine = [em for sweep in sweeps for em in sweep if em.row == i]
        assert len(mine) == (2 if i == 0 else 5)
        assert all(_emissions_equal(a, b) for a, b in zip(mine, alone))


class _RowStops:
    """Stop rule: row ``row`` stops after ``n`` records (read from extras)."""

    def __init__(self, row, n):
        self.row, self.n = row, n

    def triggered(self, records):
        return (len(records) >= self.n
                and records[-1].extras["row"] == self.row)


def _record_bits(records):
    return [(r.index, r.step, r.response, r.grad_norm, r.lam.tobytes())
            for r in records]


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_a_seed_stopping_early_leaves_the_others_unchanged(seed):
    st = Stack("GDM", "minibatch", seed)
    box = Constraints(st.layout, {"eta": NonNeg(), "mu": UnitInterval()})
    quits = st.S - 1  # the last row stops after two records
    stop = [MaxHyperIters(6), _RowStops(quits, 2)]
    runs = stream_ho_loop(st.block, st.E, st.s, st.lam, box, 2, stop,
                          lr=0.01,
                          record_extras=lambda lam, em: {"row": em.row})
    assert len(runs) == st.S
    for i, (lam, records) in enumerate(runs):
        want_lam, want = stream_ho_loop(st.alone(i), st.E.take(i), st.s[i],
                                        st.lam[i], box, 2,
                                        MaxHyperIters(2 if i == quits else 6),
                                        lr=0.01)
        assert _record_bits(records) == _record_bits(want)
        assert np.array_equal(lam, want_lam)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed", SEEDS[:10])
def test_a_diverging_seed_fails_the_block(seed):
    st = Stack("GDM", "minibatch", seed)
    bad = seed % st.S
    lam = st.lam.copy()
    lam[bad, 1] = 1e300  # its velocity overflows within a few steps
    with pytest.raises(NonFiniteError, match="hyper-iteration 1") as err:
        stream_ho_loop(st.block, st.E, st.s, lam, None, 20,
                       MaxHyperIters(3))
    assert err.value.step is not None
    assert err.value.rows.tolist() == [i == bad for i in range(st.S)]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("seed", [s for s in SEEDS
                                  if Stack("GDM", "minibatch", s).S > 1][:5])
def test_failed_rows_are_marked_among_all_rows(seed):
    # row 0 leaves after the first sweep; then the last row overflows
    # (its velocity at step 2): the error marks it among all S rows
    st = Stack("GDM", "minibatch", seed)
    lam = st.lam.copy()
    lam[-1, 1] = 1e300
    stream = rtho_stream(st.block, st.E, st.s, lam, 1)
    for em in next(stream):
        em.leave = em.row == 0
    with pytest.raises(NonFiniteError) as err:
        next(stream)
    assert err.value.step == 2
    assert err.value.rows.tolist() == [i == st.S - 1 for i in range(st.S)]


class _InfiniteAfter:
    """Block validation error ``e`` that reads the last row's weights as
    inf from its ``n``-th value call on, so that row's value is not
    finite; its gradient stays finite, so only the response fails.
    ``take`` keeps the count."""

    def __init__(self, e, n):
        self.e, self.n = e, n

    def take(self, rows):
        return _InfiniteAfter(self.e.take(rows), self.n)

    def grad(self, w):
        return self.e.grad(w)

    def value(self, w):
        self.n -= 1
        if self.n <= 0:
            w = w.copy()
            w[-1] = np.inf
        return self.e.value(w)


@pytest.mark.parametrize("seed", [s for s in SEEDS
                                  if Stack("GDM", "minibatch", s).S > 1][:5])
def test_a_non_finite_response_marks_its_row(seed):
    # the last row's partial is finite and its value inf: every engine
    # marks that row among all S, the stream also after row 0 has left
    st = Stack("GDM", "minibatch", seed)
    want = [i == st.S - 1 for i in range(st.S)]
    for run in (lambda E: forward_hg(st.block, E, st.s, st.lam, 2),
                lambda E: reverse_hg(st.block, E, st.s, st.lam, 2),
                lambda E: next(rtho_stream(st.block, E, st.s, st.lam, 2))):
        with pytest.raises(NonFiniteError, match="validation error") as err:
            run(_InfiniteAfter(st.E, 1))
        assert err.value.rows.tolist() == want
    stream = rtho_stream(st.block, _InfiniteAfter(st.E, 2), st.s, st.lam, 1)
    for em in next(stream):
        em.leave = em.row == 0
    with pytest.raises(NonFiniteError, match="validation error") as err:
        next(stream)
    assert err.value.rows.tolist() == want


def test_a_stack_takes_blocks_of_its_own_rows():
    st = Stack("GDM", "minibatch", 3)
    with pytest.raises(DimensionMismatchError):
        st.block.step(st.s[0], st.lam[0], 1)
    with pytest.raises(DimensionMismatchError):
        st.block.step(np.vstack([st.s, st.s]), np.vstack([st.lam, st.lam]), 1)
    with pytest.raises(DimensionMismatchError, match="no value"):
        st.block.objective.value(st.block.weights_of(st.s), st.lam, 1)
    # one schedule shared by every set: each row's minibatch follows it
    shared = WeightedSoftmax(st.stack, hyper_layout=st.layout,
                             schedule=st.schedules[0], weight_segment=None)
    idx = shared._stack_batch(st.t)[0]
    assert idx.shape[0] == st.S
    for row in idx:
        assert np.array_equal(row, st.schedules[0].indices(st.t))
    # a schedule too many, or one of another shape
    for schedules in (st.schedules + st.schedules[:1],
                      st.schedules[:-1] + [full_batch_schedule(1)]):
        with pytest.raises(ValueError, match="one schedule per set"):
            WeightedSoftmax(st.stack, hyper_layout=st.layout,
                            schedule=schedules, weight_segment=None)


def test_seed_datasets_are_views_of_the_stack():
    cfg = _tiny_search()
    _, stack, _ = experiments._rtho_task(cfg, [0, 1, 2])
    for i in range(3):
        train = stack[i]
        assert np.shares_memory(train.features, stack.features)
        assert np.shares_memory(train.labels, stack.labels)


@pytest.mark.parametrize("n_seeds", [1, 3])
def test_the_stack_is_freed_with_the_run(n_seeds, monkeypatch):
    # the report holds no reference to the training data, so the stack
    # is gone before the report is written
    task, seen = experiments._rtho_task, []

    def watched(cfg, seeds):
        out = task(cfg, seeds)
        seen.append(weakref.ref(out[1].features))
        return out

    monkeypatch.setattr(experiments, "_rtho_task", watched)
    report = experiments.run_rtho(_rtho_cfg(n_seeds=n_seeds))
    gc.collect()
    assert len(seen) == 1 and seen[0]() is None
    assert report.records


def _times_1e200(stack, i):
    """A new stack whose set ``i`` has its features times 1e200."""
    features = stack.features.copy()
    features[i] *= 1e200
    return SeedStack(features, stack.labels, stack.n_classes)


def test_a_seed_stack_is_read_only():
    # the objectives keep the stack's arrays as their full batch, so a
    # write through a set or through the caller's array must fail
    features, labels = np.zeros((2, 3, 4)), np.zeros((2, 3), dtype=np.int64)
    stack = SeedStack(features, labels, 2)
    assert stack.features is features and stack.labels is labels
    for write in (lambda: stack[1].features.__setitem__(0, 1.0),
                  lambda: stack[0].labels.__setitem__(0, 1),
                  lambda: features.__setitem__(0, 1.0),
                  lambda: labels.__setitem__(0, 1)):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert not features.any() and not labels.any()


def _rtho_cfg(**kw):
    base = dict(experiment="rtho", seed=0, n_seeds=3, n_classes=3,
                n_features=6, n_train=60, n_val=30, n_test=30, batch_size=10,
                inner_steps=20, delta=10, hyper_iters=4, hyper_lr=0.01)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_diverging_seed_fails_the_run_and_is_named(monkeypatch):
    # seed 1's features are huge: its Z overflows at the second step
    task = experiments._rtho_task

    def huge_seed_1(cfg, seeds):
        layout, stack, E = task(cfg, seeds)
        return layout, _times_1e200(stack, 1), E

    monkeypatch.setattr(experiments, "_rtho_task", huge_seed_1)
    with pytest.raises(NonFiniteError,
                       match="seed 1: hyper-iteration 1") as err:
        experiments.run_rtho(_rtho_cfg())
    assert err.value.rows.tolist() == [False, True, False]
    assert err.value.step == 2


def test_single_seed_run_is_the_one_row_block():
    # n_seeds = 1 streams a block of one row: its records are those of
    # the vector stream on the same seed
    cfg = _rtho_cfg(n_seeds=1, seed=4)
    report = experiments.run_rtho(cfg)
    layout, stack, e_val = experiments._rtho_task(cfg, [4])
    dyn = experiments._rtho_dynamics(cfg, layout, stack[0], [4])
    box = Constraints(layout, {"eta": NonNeg(), "mu": UnitInterval()})
    _, want = stream_ho_loop(dyn, e_val, dyn.init_state(
        np.zeros(dyn.objective.n_params)), layout.pack(eta=0.0, mu=0.0), box,
        cfg.delta, MaxHyperIters(cfg.hyper_iters), lr=cfg.hyper_lr)
    assert _record_bits(report.records) == _record_bits(want)


# ---------------------------------------------------------------------------
# the reverse engine on a seed stack: MultitaskLinear rows, set rows[i]


# coupling "none" is the full model with its coupling entries at 0
MTL_CASES = [(dynamics, coupling, per_task, eta)
             for dynamics in ("GD", "GDM")
             for coupling in ("none", "uniform", "full")
             for per_task in (False, True)
             for eta in ("const", "hyper")]


class MtlStack:
    """A ``MultitaskLinear`` seed stack with K rows on its S sets.

    ``rows`` (K of them, drawn from ``seed``) may repeat a set, as the
    parted HMTL and HMTL-S paths of one seed do. ``block`` is the
    dynamics over those rows; ``alone(i)`` builds fresh dynamics over
    set ``rows[i]`` only, with its schedule. ``s``, ``lam`` and ``alpha``
    are (K, d), (K, m) and (K, d) blocks; ``E`` is the validation error
    over a stack of one validation set per set, taken at ``rows``.
    """

    def __init__(self, dynamics, coupling, per_task, eta, seed):
        rng = make_rng(seed, 0x3A7, MTL_CASES.index(
            (dynamics, coupling, per_task, eta)))
        n_sets = int(rng.integers(1, 4))
        self.K = int(rng.integers(1, 7))
        self.rows = rng.integers(0, n_sets, size=self.K)
        k = int(rng.integers(2, 5))
        n = int(rng.integers(k, 16))
        p = int(rng.integers(1, 7))
        labels = rng.integers(0, k, size=(n_sets, n))
        labels[:, :k] = np.arange(k)  # every class present in every set
        self.stack = SeedStack(rng.standard_normal((n_sets, n, p)), labels, k)
        size = None if rng.random() < 0.5 else int(rng.integers(1, n + 1))
        self.schedules = [MinibatchSchedule(n=n, batch_size=size,
                                            seed=100 * seed + i)
                          for i in range(n_sets)]
        segs = []
        if eta == "hyper":
            segs = [("eta", 1)] + ([("mu", 1)] if dynamics == "GDM" else [])
        segs += [("coupling", 1 if coupling == "uniform" else k * k),
                 ("rho", k if per_task else 1)]
        self.layout = VectorLayout(segs)
        self._kwargs = dict(hyper_layout=self.layout,
                            coupling="uniform" if coupling == "uniform"
                            else "full", per_task_rho=per_task)
        if eta == "hyper":
            self._make = GradientDescent if dynamics == "GD" else Momentum
        elif dynamics == "GD":
            self._make = lambda obj: GradientDescent(obj, eta=0.1)
        else:
            self._make = lambda obj: Momentum(obj, eta=0.1, mu=0.6)
        self.block = self._make(MultitaskLinear(
            self.stack, schedule=self.schedules, **self._kwargs).take(
                self.rows))
        self.m = self.layout.size
        lam = 0.3 * rng.random((self.K, self.m))
        if eta == "hyper":
            lam[:, 0] = 0.05 + 0.3 * lam[:, 0]
        if coupling == "none":
            lam[:, self.layout.slice_of("coupling")] = 0.0
        self.lam = lam
        d = self.block.n_state
        self.s = 0.5 * rng.standard_normal((self.K, d))
        self.alpha = rng.standard_normal((self.K, d))
        self.t = int(rng.integers(1, 3 * self.schedules[0].batches_per_epoch
                                  + 2))
        self.E = DatasetValidation(SeedStack.of([Dataset(
            features=rng.standard_normal((7, p)),
            labels=rng.integers(0, k, size=7), n_classes=k)
            for _ in range(n_sets)])).take(self.rows)

    def alone(self, i):
        r = self.rows[i]
        return self._make(MultitaskLinear(
            self.stack[r], schedule=self.schedules[r], **self._kwargs))


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("dynamics, coupling, per_task, eta", MTL_CASES)
def test_block_vjp_state_equals_each_row_alone(dynamics, coupling, per_task,
                                               eta, seed):
    st = MtlStack(dynamics, coupling, per_task, eta, seed)
    block = st.block.vjp_state(st.s, st.lam, st.t, st.alpha)
    assert block.shape == st.s.shape
    for i in range(st.K):
        assert np.array_equal(block[i], st.alone(i).vjp_state(
            st.s[i], st.lam[i], st.t, st.alpha[i]))


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("dynamics, coupling, per_task, eta", MTL_CASES)
def test_block_vjp_hyper_equals_each_row_alone(dynamics, coupling, per_task,
                                               eta, seed):
    st = MtlStack(dynamics, coupling, per_task, eta, seed)
    block = st.block.vjp_hyper(st.s, st.lam, st.t, st.alpha)
    assert block.shape == st.lam.shape
    for i in range(st.K):
        assert np.array_equal(block[i], st.alone(i).vjp_hyper(
            st.s[i], st.lam[i], st.t, st.alpha[i]))


@pytest.mark.parametrize("engine", [reverse_hg, forward_hg])
@pytest.mark.parametrize("seed", SEEDS[:5])
@pytest.mark.parametrize("dynamics, coupling, per_task, eta", MTL_CASES)
def test_block_hypergradient_equals_each_row_alone(dynamics, coupling,
                                                   per_task, eta, seed,
                                                   engine):
    st = MtlStack(dynamics, coupling, per_task, eta, seed)
    n_steps = st.t + 1
    block = engine(st.block, st.E, st.s, st.lam, n_steps)
    assert block.gradient.shape == st.lam.shape
    assert len(block.response) == st.K
    for i in range(st.K):
        alone = engine(st.alone(i), st.E.take(i), st.s[i], st.lam[i], n_steps)
        assert np.array_equal(block.gradient[i], alone.gradient)
        assert block.response[i] == alone.response
    if engine is reverse_hg:  # one tape of (K, d) states
        assert len(block.tape) == n_steps + 1
        assert all(s.shape == st.s.shape and not s.flags.writeable
                   for s in block.tape.states)


def test_a_block_takes_one_validation_error_per_row():
    st = MtlStack("GD", "full", True, "hyper", 0)
    for engine in (reverse_hg, forward_hg):
        # one set scores every row; a stack of another row count fails
        assert len(engine(st.block, st.E.take(0), st.s, st.lam, 2)
                   .response) == st.K
        with pytest.raises(DimensionMismatchError):
            engine(st.block, st.E.take(np.arange(st.K) > 0), st.s, st.lam, 2)
        with pytest.raises(DimensionMismatchError):
            engine(st.block, st.E.take(np.r_[:st.K, :st.K]), st.s, st.lam,
                   2)


def test_a_full_batch_over_the_stack_is_read_in_place():
    # the sets in order read the stack's own arrays; repeated rows read
    # one gathered copy, built once
    st = MtlStack("GD", "full", True, "const", 0)
    obj = MultitaskLinear(st.stack, **st._kwargs)
    _, x, y, _ = obj._stack_batch(1)
    assert x is st.stack.features and y is st.stack.labels
    again = obj.take([0, 0])
    _, x, _, onehot = again._stack_batch(1)
    assert x.shape == (2, *st.stack.features.shape[1:])
    assert np.array_equal(x[1], st.stack.features[0])
    assert not x.flags.writeable and not onehot.flags.writeable
    assert again._stack_batch(2)[1] is x


def _reference_cross_vjp(obj, w, lam, t, alpha):
    """``MultitaskLinear.cross_vjp`` of one vector, in its 1-D arithmetic.

    A flat sum and BLAS dots: a row-wise rewrite of the block form that
    moved the vector's bits would move every ``mtl`` digest.
    """
    mat, _ = obj._unpack(w)
    amat, _ = obj._unpack(alpha)
    k, frac = obj.n_classes, obj._frac(t)
    out = np.zeros_like(lam)
    if obj.coupling == "uniform":
        val = 4.0 * (k * (amat * mat).sum()
                     - amat.sum(axis=0) @ mat.sum(axis=0))
        out[obj._coupling_slice] = frac * val
    else:
        m = amat @ mat.T
        diag = m.diagonal()
        pair = diag[:, None] + diag[None, :] - m - m.T
        vals = np.where(obj._on_or_below_diag, 0.0, 4.0 * pair)
        out[obj._coupling_slice] = frac * vals.ravel()
    per_task = 2.0 * (amat * mat).sum(axis=1)
    out[obj._rho_slice] = frac * (per_task if obj.per_task_rho
                                  else per_task.sum())
    return out


def _reference_cross_jvp(obj, w, lam, t, q):
    """``MultitaskLinear.cross_jvp`` of one vector, in its 1-D arithmetic.

    The direction's coupling part (skipped when it is zero, with the
    zero ridge factor's product added for its signed zeros) and then its
    ridge part, accumulated from zeros and scaled by the batch share.
    """
    mat, _ = obj._unpack(w)
    k = obj.n_classes
    acc = np.zeros_like(mat)
    if obj.coupling == "uniform":
        qc = np.full((k, k), q[obj._coupling_slice][0])
    else:
        raw = q[obj._coupling_slice].reshape(k, k)
        qc = (np.where(np.tri(k, k=-1, dtype=bool), 0.0, raw)
              + np.where(np.tri(k, dtype=bool), 0.0, raw).T)
    if np.any(qc):
        grad = (4.0 * (np.diag(qc.sum(axis=1)) - qc)) @ mat
        grad += 0.0 * mat
        acc += grad
    acc += 2.0 * np.broadcast_to(q[obj._rho_slice], (k,))[:, None] * mat
    out = np.zeros_like(w)
    out[:k * obj.n_features] = obj._frac(t) * acc.ravel()
    return out


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("dynamics, coupling, per_task, eta", MTL_CASES)
def test_cross_jvp_keeps_its_1d_arithmetic(dynamics, coupling, per_task, eta,
                                           seed):
    # the vector product, and each row of a block, at every unit, a
    # random and a zero direction, down to the sign of a zero
    st = MtlStack(dynamics, coupling, per_task, eta, seed)
    w = st.block.weights_of(st.s)
    rng = make_rng(seed, 0xC71)
    for q in [*np.eye(st.m), rng.standard_normal(st.m), np.zeros(st.m)]:
        block = st.block.objective.cross_jvp(w, st.lam, st.t, q)
        for i in range(st.K):
            alone = st.alone(i).objective
            want = _reference_cross_jvp(alone, w[i], st.lam[i], st.t,
                                        q).tobytes()
            assert alone.cross_jvp(w[i], st.lam[i], st.t, q).tobytes() == want
            assert block[i].tobytes() == want


def _reference_vjp_hyper(dyn, s, lam, t, alpha):
    """``vjp_hyper`` of one vector, with 1-D dots for eta and mu."""
    obj, eta, mu = dyn.objective, dyn._eta, getattr(dyn, "_mu", None)
    if mu is None:  # GD
        out = -eta.value(lam) * _reference_cross_vjp(obj, s, lam, t, alpha)
        if eta.index is not None:
            out[eta.index] -= float(alpha @ obj.grad_w(s, lam, t))
        return out
    v, w = dyn._split(s)
    av, aw = dyn._split(alpha)
    beta = av - eta.value(lam) * aw
    out = _reference_cross_vjp(obj, w, lam, t, beta)
    if mu.index is not None:
        out[mu.index] += float(beta @ v)
    if eta.index is not None:
        v_new = mu.value(lam) * v + obj.grad_w(w, lam, t)
        out[eta.index] -= float(aw @ v_new)
    return out


@pytest.mark.parametrize("seed", SEEDS[:10])
@pytest.mark.parametrize("dynamics, coupling, per_task, eta", MTL_CASES)
def test_vector_vjp_hyper_keeps_its_1d_arithmetic(dynamics, coupling,
                                                  per_task, eta, seed):
    st = MtlStack(dynamics, coupling, per_task, eta, seed)
    for i in range(st.K):
        alone = st.alone(i)
        assert np.array_equal(
            alone.vjp_hyper(st.s[i], st.lam[i], st.t, st.alpha[i]),
            _reference_vjp_hyper(alone, st.s[i], st.lam[i], st.t,
                                 st.alpha[i]))


# ---------------------------------------------------------------------------
# run_mtl: every method runs its seeds as one block


def _mtl_cfg(**kw):
    base = dict(experiment="mtl", seed=3, n_seeds=3, n_classes=4,
                n_clusters=2, n_features=8, n_train=16, n_val=16, n_test=40,
                inner_steps=25, inner_lr=0.01, radius=0.5, hyper_iters=8,
                hyper_lr=0.05)
    base.update(kw)
    return ExperimentConfig(**base)


def _mtl_record_bits(records):
    return [(r.extras["seed"], r.extras["method"], r.index, r.response,
             r.grad_norm, r.lam.tobytes()) for r in records]


@pytest.mark.parametrize("engine", ["reverse", "forward"])
def test_multi_seed_mtl_equals_its_one_seed_runs(engine):
    # radius 0.5 parts HMTL and HMTL-S in two of the three seeds, so the
    # block also holds two rows on one seed's set
    report = experiments.run_mtl(_mtl_cfg(engine=engine))
    parted = [entry["hmtl_parted_at"] for entry in report.timings["seeds"]]
    assert parted.count(None) == 1
    for i, seed in enumerate((3, 4, 5)):
        alone = experiments.run_mtl(_mtl_cfg(engine=engine, seed=seed,
                                             n_seeds=1))
        mine = [r for r in report.records if r.extras["seed"] == seed]
        assert _mtl_record_bits(mine) == _mtl_record_bits(alone.records)
        for method in ("stl", "nmtl", "hmtl", "hmtl_s"):
            assert (report.metrics[method]["per_seed"][i]
                    == alone.metrics[method]["per_seed"][0])
        assert (report.metrics["coupling_matrices"]["hmtl"][i]
                == alone.metrics["coupling_matrices"]["hmtl"][0])
        assert report.timings["seeds"][i] == alone.timings["seeds"][0]


def _huge_seed_4(monkeypatch):
    """Seed 4's training features times 1e200: its steps overflow."""
    task = experiments._mtl_task

    def huge(cfg, seeds):
        obj, E = task(cfg, seeds)
        stack = _times_1e200(obj.dataset, seeds.index(4))
        return MultitaskLinear(stack, hyper_layout=obj.hyper_layout,
                               per_task_rho=True), E

    monkeypatch.setattr(experiments, "_mtl_task", huge)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_diverging_mtl_seed_fails_the_run_and_is_named(monkeypatch,
                                                          tmp_path, capsys):
    _huge_seed_4(monkeypatch)
    with pytest.raises(NonFiniteError,
                       match="seed 4: hyper-iteration 1: ") as err:
        experiments.run_mtl(_mtl_cfg())
    assert err.value.rows.tolist() == [False, True, False]
    assert err.value.step == 2
    cfg = tmp_path / "mtl.cfg"
    cfg.write_text("\n".join(f"{key} = {value}" for key, value in
                             dataclasses.asdict(_mtl_cfg()).items()
                             if value is not None) + "\n")
    assert cli.main(["mtl", "--config", str(cfg), "--out",
                     str(tmp_path / "runs")]) == 3
    assert "numerical divergence: seed 4: hyper-iteration 1" in (
        capsys.readouterr().err)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_diverging_stl_fit_marks_its_seed(monkeypatch):
    _huge_seed_4(monkeypatch)
    cfg = _mtl_cfg()
    with pytest.raises(NonFiniteError, match="validation error") as err:
        experiments._stl_grid(*experiments._mtl_task(cfg, [3, 4, 5]), cfg)
    assert err.value.rows.tolist() == [False, True, False]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_diverging_retrain_marks_its_seed(monkeypatch):
    # the loop hands back a final lam on which seed 5 alone diverges
    loop = experiments.lockstep_ho_loop

    def huge_final_lam(*args, **kwargs):
        paths, counts = loop(*args, **kwargs)
        lam, records = paths[-1]
        return paths[:-1] + [(lam - 1e300, records)], counts

    monkeypatch.setattr(experiments, "lockstep_ho_loop", huge_final_lam)
    cfg = _mtl_cfg(hyper_iters=1)
    with pytest.raises(NonFiniteError, match="retrained weights") as err:
        experiments._coupled_runs(*experiments._mtl_task(cfg, [3, 4, 5]),
                                  cfg, radii=(None,))
    assert err.value.rows.tolist() == [False, False, True]
