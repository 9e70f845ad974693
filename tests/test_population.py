"""The population axis: K independent runs trained as one (K, d) block.

``engines.train`` with a (K, d) block of start states and a (K, m)
block of hyper vectors must give, row for row and bit for bit, what K
separate 1-D runs give. The block relies on ``np.matmul`` running one
gemm per slice, so a numpy or BLAS change that breaks that dispatch
fails here instead of silently moving a digest. Shapes and K come from
a seeded numpy generator.
"""

import numpy as np
import pytest

from hypergrad import experiments
from hypergrad.config import ExperimentConfig
from hypergrad.datasets import (Dataset, MinibatchSchedule,
                                full_batch_schedule)
from hypergrad.dynamics import GradientDescent, Momentum
from hypergrad.engines import train
from hypergrad.errors import DimensionMismatchError, NonFiniteError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import MultitaskLinear, WeightedSoftmax

SEEDS = range(30)

# (dynamics, objective, batch): the two pairs the experiments train as
# populations, and the other objective kinds the block accepts
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


def population(dynamics, objective, batch, seed):
    """(dyn, s0 block, lam block, T) on shapes and K drawn from ``seed``.

    The objective is built afresh on every call, so two calls with the
    same arguments share no memo.
    """
    rng = make_rng(seed, 0x9091, KINDS.index(objective), dynamics == "GD",
                   batch == "full")
    n_rows = int(rng.integers(1, 9))
    k = int(rng.integers(2, 6))
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
    if objective == "weighted-hyper":  # example weights: vectors only
        layout = VectorLayout(segs + [("weights", n)])
        obj = WeightedSoftmax(data, hyper_layout=layout, schedule=schedule)
    elif objective == "weighted-unit":
        layout = VectorLayout(segs)
        obj = WeightedSoftmax(data, hyper_layout=layout, schedule=schedule,
                              weight_segment=None)
    else:
        coupling = objective.split("-")[1]
        if coupling != "none":
            segs.append(("coupling", k * k if coupling == "full" else 1))
        segs.append(("rho", k))
        layout = VectorLayout(segs)
        obj = MultitaskLinear(data, hyper_layout=layout, schedule=schedule,
                              coupling=coupling, per_task_rho=True)
    dyn = GradientDescent(obj) if dynamics == "GD" else Momentum(obj)
    lam = rng.random((n_rows, layout.size))
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


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_example_weight_hypers_take_vectors_only(seed):
    dyn, s0, lam, n_steps = population("GDM", "weighted-hyper", "minibatch",
                                       seed)
    with pytest.raises(DimensionMismatchError):
        train(dyn, s0, lam, n_steps)
    # even a block with as many rows as the hyper vector has entries
    square = np.ones((lam.shape[1], lam.shape[1]))
    with pytest.raises(DimensionMismatchError):
        train(dyn, np.zeros((len(square), dyn.n_state)), square, n_steps)


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


def _looped_scores(cfg, trials):
    """What each trial scores trained alone, inf where it diverges."""
    _, _, _, _, dyn, e_val, _ = experiments._rtho_problem(cfg, cfg.seed)
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
        dyn = experiments._rtho_problem(cfg, seed)[4]
        state = dyn.init_state(np.zeros(dyn.objective.n_params))
        monkeypatch.setattr(experiments, "_POPULATION_FLOATS",
                            rows * len(state))
    sizes = []

    def counting(dyn, s0, lam, n_steps):
        sizes.append(len(lam))
        return train(dyn, s0, lam, n_steps)

    monkeypatch.setattr(experiments.engines, "train", counting)
    result, n_trials, _ = experiments._random_search_baseline(
        cfg, seed, cfg.budget * cfg.inner_steps)
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
    result, _, _ = experiments._random_search_baseline(cfg, 0, 60)
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
    seeds = report.timings["seeds"]
    assert [entry["seed"] for entry in seeds] == [0, 1]
    assert all(entry["stream_s"] > 0 and entry["random_search_s"] > 0
               for entry in seeds)
    digest = report.digest()
    report.timings = {"seeds": [{**entry, "stream_s": 1e9,
                                 "random_search_s": -1.0, "stl_s": 2.0}
                                for entry in seeds]}
    assert report.digest() == digest
