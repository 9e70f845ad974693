"""Batch and streaming hyper-iteration loops plus their stop rules."""

import weakref

import numpy as np
import pytest

from hypergrad import driver
from hypergrad.datasets import clustered_task_data
from hypergrad.driver import (HyperIterRecord, LearningRateDecayedToZero,
                              MaxHyperIters, batch_ho_loop, lockstep_ho_loop, stream_ho_loop)
from hypergrad.dynamics import GradientDescent
from hypergrad.engines import HypergradResult, Tape
from hypergrad.errors import DimensionMismatchError, NonFiniteError, rescoped
from hypergrad.layouts import VectorLayout
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  QuadraticToy, QuadraticValidation)
from hypergrad.outer import Box, BoxL1, Constraints, MTLCone, NonNeg


def scalar_problem(s0=1.0, n=1):
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(n, hyper_layout=layout), eta="eta")
    e = QuadraticValidation(n)
    return dyn, e, dyn.init_state(np.full(n, float(s0))), layout


# ---------------------------------------------------------------------------
# stop rules


def test_max_hyper_iters_zero_returns_initial_lambda():
    dyn, e, s0, layout = scalar_problem()
    lam0 = layout.pack(eta=0.5)
    lam, records = batch_ho_loop(dyn, e, s0, lam0, None, 2,
                                 MaxHyperIters(0))
    assert np.array_equal(lam, lam0)
    assert records == []


def test_max_hyper_iters_rejects_negative():
    with pytest.raises(ValueError):
        MaxHyperIters(-1)


def test_lr_decayed_rule_needs_two_consecutive_zeros():
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    rule = LearningRateDecayedToZero(layout, "eta")

    def rec(eta):
        return HyperIterRecord(index=0, response=0.0, grad_norm=0.0,
                               lam=layout.pack(eta=eta, mu=0.9), seconds=0.0)

    assert not rule.triggered([rec(0.0)])
    assert not rule.triggered([rec(0.0), rec(0.1)])
    assert not rule.triggered([rec(0.1), rec(0.0)])
    assert rule.triggered([rec(0.1), rec(0.0), rec(0.0)])


# ---------------------------------------------------------------------------
# batch loop


def test_batch_loop_converges_to_optimal_learning_rate():
    # response 0.5 (1-eta)^(2T) is minimized at eta = 1 inside [0, 2]
    dyn, e, s0, layout = scalar_problem()
    cons = Constraints(layout, {"eta": Box(0.0, 2.0)})
    lam, records = batch_ho_loop(dyn, e, s0, layout.pack(eta=0.2), cons, 2,
                                 MaxHyperIters(200), lr=0.05)
    assert abs(lam[0] - 1.0) < 0.05
    assert len(records) == 200


def test_batch_loop_projects_initial_lambda():
    dyn, e, s0, layout = scalar_problem()
    cons = Constraints(layout, {"eta": Box(0.0, 2.0)})
    lam, records = batch_ho_loop(dyn, e, s0, layout.pack(eta=-3.0), cons, 1,
                                 MaxHyperIters(1))
    # the recorded lambda comes after projection twice over
    assert records[0].lam[0] >= 0.0


def test_batch_loop_engines_agree_on_trajectory():
    dyn, e, s0, layout = scalar_problem(s0=1.5)
    cons = Constraints(layout, {"eta": Box(0.0, 2.0)})
    lam_f, rec_f = batch_ho_loop(dyn, e, s0, layout.pack(eta=0.3), cons, 3,
                                 MaxHyperIters(25), engine="forward")
    lam_r, rec_r = batch_ho_loop(dyn, e, s0, layout.pack(eta=0.3), cons, 3,
                                 MaxHyperIters(25), engine="reverse")
    assert np.max(np.abs(lam_f - lam_r)) < 1e-7
    for rf, rr in zip(rec_f, rec_r):
        assert np.max(np.abs(rf.lam - rr.lam)) < 1e-7
        assert abs(rf.response - rr.response) < 1e-9


def test_batch_loop_frees_previous_tape_before_next_compute(monkeypatch):
    # only one tape may be alive at a time: the previous hyper-iteration's
    # result is released before the next one is recorded
    dyn, e, s0, layout = scalar_problem()
    previous = []

    def compute(dyn, e, s0, lam, n_steps):
        if previous:
            assert previous[-1]() is None, "previous tape still alive"
        tape = Tape(states=[s0.copy()], lam=lam.copy())
        previous.append(weakref.ref(tape))
        return HypergradResult(gradient=np.zeros_like(lam),
                               response=[0.0] * len(lam), tape=tape)
    monkeypatch.setattr(driver, "reverse_hg", compute)
    batch_ho_loop(dyn, e, s0, layout.pack(eta=0.2), None, 2, MaxHyperIters(3))
    assert len(previous) == 3


def test_batch_loop_keeps_iterates_feasible():
    layout = VectorLayout([("weights", 3)])

    class WeightedQuadratic(QuadraticToy):
        """J = 0.5 |w|^2 scaled per-coordinate by hyper weights."""

        def __init__(self):
            super().__init__(3, hyper_layout=layout)

        def grad_w(self, w, lam, t):
            return lam * w

        def hvp_w(self, w, lam, t, r):
            return lam * r

        def cross_jvp(self, w, lam, t, q):
            return w * q

        def cross_vjp(self, w, lam, t, alpha):
            return alpha * w

        def touched_hypers(self, t):
            return np.arange(3)

    dyn = GradientDescent(WeightedQuadratic(), eta=0.1)
    e = QuadraticValidation(3)
    cons = Constraints(layout, {"weights": BoxL1(0.0, 1.0, radius=1.5)})
    s0 = dyn.init_state(np.array([1.0, -1.0, 2.0]))
    lam, records = batch_ho_loop(dyn, e, s0, layout.pack(weights=1.0), cons,
                                 4, MaxHyperIters(40), lr=0.05)
    for rec in records:
        w = rec.lam
        assert np.all(w >= -1e-15) and np.all(w <= 1.0 + 1e-15)
        assert w.sum() <= 1.5 + 1e-12
    assert cons.contains(lam)


def test_batch_loop_rejects_unknown_engine():
    dyn, e, s0, layout = scalar_problem()
    with pytest.raises(ValueError):
        batch_ho_loop(dyn, e, s0, layout.pack(eta=0.1), None, 1,
                      MaxHyperIters(1), engine="adjoint")


def test_batch_loop_forward_gate_on_many_hypers():
    # d = 1 state, m = 12 hypers: forward mode is refused, reverse works
    layout = VectorLayout([("eta", 1), ("pad", 11)])
    dyn = GradientDescent(QuadraticToy(1, hyper_layout=layout), eta="eta")
    e = QuadraticValidation(1)
    s0 = dyn.init_state(np.array([1.0]))
    lam0 = layout.pack(eta=0.1)
    with pytest.raises(ValueError, match="forward"):
        batch_ho_loop(dyn, e, s0, lam0, None, 1, MaxHyperIters(1),
                      engine="forward")
    lam, records = batch_ho_loop(dyn, e, s0, lam0, None, 1, MaxHyperIters(1),
                                 engine="reverse")
    assert len(records) == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_batch_loop_error_is_scoped_to_iteration():
    dyn, e, s0, layout = scalar_problem(s0=1e154)
    # eta = 3 diverges immediately: (1 - 3)^t doubles every step
    from hypergrad.errors import NonFiniteError
    with pytest.raises(NonFiniteError, match="hyper-iteration 1"):
        batch_ho_loop(dyn, e, s0, layout.pack(eta=3.0), None, 800,
                      MaxHyperIters(5))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("loop, step", [("batch", 512), ("stream", 504)])
def test_scoped_error_keeps_its_step_and_rows(loop, step):
    dyn, e, s0, layout = scalar_problem(s0=1e154)
    lam0 = layout.pack(eta=3.0)
    with pytest.raises(NonFiniteError, match="hyper-iteration 1") as err:
        if loop == "batch":
            batch_ho_loop(dyn, e, s0, lam0, None, 800, MaxHyperIters(5))
        else:
            stream_ho_loop(dyn, e, s0, lam0, None, 800, MaxHyperIters(5))
    # s_t = (1 - 3)^t 1e154 overflows at t = 512, and the stream's
    # Z_t = -t (-2)^(t-1) 1e154 a little earlier; a vector marks no rows
    assert err.value.step == step and err.value.rows is None
    assert str(err.value).count(f"(at step {step})") == 1
    assert isinstance(err.value.__cause__, NonFiniteError)


def test_rescoped_keeps_the_rows_of_a_block():
    rows = np.array([False, True])
    err = rescoped(NonFiniteError("bad", step=4, rows=rows), "seed 7")
    assert str(err) == "seed 7: bad (at step 4)"
    assert err.step == 4 and err.rows is rows
    other = rescoped(DimensionMismatchError("wrong"), "hyper-iteration 2")
    assert type(other) is DimensionMismatchError
    assert str(other) == "hyper-iteration 2: wrong"


@pytest.mark.parametrize("loop", ["batch", "stream"])
def test_a_block_takes_one_validation_error_per_row(loop):
    dyn, e, s0, layout = scalar_problem()
    s, lam0 = np.stack([s0, s0]), layout.pack(eta=0.1)
    with pytest.raises(DimensionMismatchError):
        if loop == "batch":
            batch_ho_loop(dyn, e, s, lam0, None, 2, MaxHyperIters(1))
        else:
            stream_ho_loop(dyn, e, s, np.stack([lam0, lam0]), None, 2,
                           MaxHyperIters(1))


def test_batch_loop_records_are_contiguous():
    dyn, e, s0, layout = scalar_problem()
    _, records = batch_ho_loop(dyn, e, s0, layout.pack(eta=0.2), None, 2,
                               MaxHyperIters(7))
    assert [r.index for r in records] == list(range(1, 8))
    assert all(r.seconds >= 0 for r in records)


def test_batch_loop_record_extras_hook():
    dyn, e, s0, layout = scalar_problem()
    _, records = batch_ho_loop(
        dyn, e, s0, layout.pack(eta=0.2), None, 2, MaxHyperIters(3),
        record_extras=lambda lam, result: {"eta": float(lam[0])})
    assert all("eta" in r.extras for r in records)
    assert records[0].extras["eta"] == records[0].lam[0]


# ---------------------------------------------------------------------------
# lockstep paths

LOCKSTEP_ITERS = 8
LOCKSTEP_PARTED_AT = 3  # the radius first binds in this hyper-iteration


def coupled_problem():
    """Tiny HMTL problem and the (lam0, constraints) of HMTL and HMTL-S.

    The unbounded path's coupling mass grows by ~0.15 per iteration
    (0.150, 0.299, 0.445, ...), so the 0.3 radius binds at iteration 3.
    """
    k = 3
    train, val, _, _ = clustered_task_data(0, k, 2, 5, 3, 3, 3,
                                           cluster_separation=2.0,
                                           class_spread=0.3)
    layout = VectorLayout([("coupling", k * k), ("rho", k)])
    obj = MultitaskLinear(train, hyper_layout=layout, coupling="full",
                          per_task_rho=True)
    dyn = GradientDescent(obj, eta=0.05)
    s0 = dyn.init_state(np.zeros(obj.n_params))
    lam0 = layout.pack(coupling=np.zeros(k * k), rho=np.full(k, 0.1))
    starts = [(lam0, Constraints(layout, {"coupling": MTLCone(r),
                                          "rho": NonNeg()}))
              for r in (None, 0.3)]
    return dyn, DatasetValidation(val), s0, starts


def run_lockstep(dyn, e, s0, starts):
    return lockstep_ho_loop(
        dyn, e, s0, [(lam0, c, MaxHyperIters(LOCKSTEP_ITERS))
                     for lam0, c in starts], 10, lr=0.05)


def test_lockstep_paths_equal_separate_runs():
    dyn, e, s0, starts = coupled_problem()
    paths, _ = run_lockstep(dyn, e, s0, starts)
    for (lam0, cons), (lam, records) in zip(starts, paths):
        alone_lam, alone = batch_ho_loop(*coupled_problem()[:3], lam0, cons,
                                         10, MaxHyperIters(LOCKSTEP_ITERS),
                                         lr=0.05)
        assert lam.tobytes() == alone_lam.tobytes()
        assert len(records) == len(alone) == LOCKSTEP_ITERS
        for r, a in zip(records, alone):
            assert (r.index, r.response, r.grad_norm) == (a.index, a.response,
                                                          a.grad_norm)
            assert r.lam.tobytes() == a.lam.tobytes()
    # the two paths part where the radius binds
    (_, unbounded), (_, bounded) = paths
    differ = [r.index for r, b in zip(unbounded, bounded)
              if r.lam.tobytes() != b.lam.tobytes()]
    assert differ[0] == LOCKSTEP_PARTED_AT


def test_lockstep_computes_once_per_distinct_lam(monkeypatch):
    # each hyper-iteration is one block call with one row per distinct lam
    dyn, e, s0, starts = coupled_problem()
    seen, calls = [], []
    real = driver.reverse_hg

    def counting(dyn, e, s0, lam, n_steps):
        calls.append(len(lam))
        seen.extend(row.tobytes() for row in lam)
        return real(dyn, e, s0, lam, n_steps)
    monkeypatch.setattr(driver, "reverse_hg", counting)
    paths, n_computed = run_lockstep(dyn, e, s0, starts)
    # one row per iteration up to the parting one, then one per path
    shared = LOCKSTEP_PARTED_AT
    assert calls == [1] * shared + [2] * (LOCKSTEP_ITERS - shared)
    assert n_computed == [len(seen)]
    assert len(seen) == shared + 2 * (LOCKSTEP_ITERS - shared)
    (_, unbounded), (_, bounded) = paths
    lam0 = [cons.project(lam0).tobytes() for lam0, cons in starts]
    assert lam0[0] == lam0[1]
    want = [lam0[0]] + [r.lam.tobytes() for r in unbounded[:shared - 1]]
    for r, b in zip(unbounded[shared - 1:-1], bounded[shared - 1:-1]):
        want += [r.lam.tobytes(), b.lam.tobytes()]
    assert seen == want


def test_lockstep_frees_each_block_tape_before_the_next(monkeypatch):
    # two paths that never share: every iteration computes both groups
    # as one two-row block, whose tape must be dead when the next
    # iteration's is recorded
    dyn, e, s0, layout = scalar_problem()
    previous = []

    def compute(dyn, e, s0, lam, n_steps):
        if previous:
            assert previous[-1]() is None, "previous block's tape alive"
        assert s0.shape == (2, 1) and len(e) == 2
        tape = Tape(states=[s0.copy()], lam=lam.copy())
        previous.append(weakref.ref(tape))
        return HypergradResult(gradient=np.full_like(lam, 0.1),
                               response=[0.0] * len(lam), tape=tape)
    monkeypatch.setattr(driver, "reverse_hg", compute)
    paths, n_computed = lockstep_ho_loop(
        dyn, e, s0, [(layout.pack(eta=0.2), None, MaxHyperIters(3)),
                     (layout.pack(eta=0.4), None, MaxHyperIters(3))], 2)
    assert len(previous) == 3 and n_computed == [6]
    assert [len(records) for _, records in paths] == [3, 3]


def test_lockstep_shared_gradient_is_read_only(monkeypatch):
    dyn, e, s0, layout = scalar_problem()
    handed = []

    def compute(dyn, e, s0, lam, n_steps):
        handed.append(np.full_like(lam, 0.1))
        return HypergradResult(gradient=handed[-1], response=[0.0] * len(lam))

    def extras(lam, result):
        assert result.gradient is handed[-1]
        assert not result.gradient.flags.writeable
        with pytest.raises(ValueError):
            result.gradient[0] = 0.0
        return {}
    monkeypatch.setattr(driver, "reverse_hg", compute)
    lam0 = layout.pack(eta=0.2)
    paths, n_computed = lockstep_ho_loop(
        dyn, e, s0, [(lam0, None, MaxHyperIters(2)),
                     (lam0, None, MaxHyperIters(2))], 2, record_extras=extras)
    assert n_computed == [2]
    assert paths[0][0].tobytes() == paths[1][0].tobytes()


def test_lockstep_paths_stop_on_their_own_rules():
    dyn, e, s0, layout = scalar_problem()
    lam0 = layout.pack(eta=0.2)
    paths, n_computed = lockstep_ho_loop(
        dyn, e, s0, [(lam0, None, MaxHyperIters(2)),
                     (lam0, None, MaxHyperIters(5))], 2)
    assert [len(records) for _, records in paths] == [2, 5]
    assert n_computed == [5]
    _, alone = batch_ho_loop(dyn, e, s0, lam0, None, 2, MaxHyperIters(5))
    assert ([r.lam.tobytes() for r in paths[1][1]]
            == [r.lam.tobytes() for r in alone])


# ---------------------------------------------------------------------------
# stream loop


def test_stream_loop_single_update_matches_batch_first_step():
    # delta spans the whole run, so the one emission sees exactly the
    # trajectory batch mode sees at T = delta; Adam states start equal
    dyn, e, s0, layout = scalar_problem(s0=2.0)
    cons = Constraints(layout, {"eta": NonNeg()})
    lam0 = layout.pack(eta=0.1)
    lam_b, rec_b = batch_ho_loop(dyn, e, s0, lam0, cons, 6, MaxHyperIters(1))
    lam_s, rec_s = stream_ho_loop(dyn, e, s0, lam0, cons, 6,
                                  MaxHyperIters(1))
    assert len(rec_s) == 1
    assert np.array_equal(lam_s, lam_b)
    assert rec_s[0].response == rec_b[0].response
    assert rec_s[0].step == 6


def test_stream_loop_lr_decay_rule_stops_stream():
    # aggressive outer rate drives eta to the NonNeg boundary fast; the
    # rule then wants one full extra hyper-batch at exactly zero
    dyn, e, s0, layout = scalar_problem(s0=2.0)
    cons = Constraints(layout, {"eta": NonNeg()})
    stop = [MaxHyperIters(500), LearningRateDecayedToZero(layout, "eta")]
    # gradient at eta < 0.5 pushes eta up; to force decay to zero, flip
    # the validation target so smaller eta is always better
    class Inflate:
        def value(self, w):
            return -0.5 * float(w @ w)

        def grad(self, w):
            return -w

    lam, records = stream_ho_loop(dyn, Inflate(), s0, layout.pack(eta=0.05),
                                  cons, 3, stop, lr=0.02)
    assert lam[0] == 0.0
    assert records[-1].lam[0] == 0.0 and records[-2].lam[0] == 0.0
    assert len(records) < 500


def test_stream_loop_records_monotone_steps():
    dyn, e, s0, layout = scalar_problem()
    _, records = stream_ho_loop(dyn, e, s0, layout.pack(eta=0.1), None, 5,
                                MaxHyperIters(6))
    assert [r.step for r in records] == [5, 10, 15, 20, 25, 30]
    assert [r.index for r in records] == list(range(1, 7))


def test_stream_loop_zero_budget():
    dyn, e, s0, layout = scalar_problem()
    lam0 = layout.pack(eta=0.1)
    lam, records = stream_ho_loop(dyn, e, s0, lam0, None, 5, MaxHyperIters(0))
    assert np.array_equal(lam, lam0)
    assert records == []


def test_record_jsonable_round_trip():
    rec = HyperIterRecord(index=3, response=1.5, grad_norm=0.25,
                          lam=np.array([0.1, 0.2]), seconds=0.01, step=40,
                          extras={"val_accuracy": 91.0})
    out = rec.to_jsonable()
    assert out["index"] == 3 and out["step"] == 40
    assert out["lam"] == [0.1, 0.2]
    assert out["val_accuracy"] == 91.0
    assert "seconds" in out
    lean = rec.to_jsonable(include_timing=False)
    assert "seconds" not in lean
    big = HyperIterRecord(index=1, response=0.0, grad_norm=0.0,
                          lam=np.zeros(1000), seconds=0.0)
    assert "lam" not in big.to_jsonable()
    assert big.to_jsonable()["lam_sum"] == 0.0
