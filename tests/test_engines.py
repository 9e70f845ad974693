"""Forward / reverse / streaming hypergradient engines.

The scalar quadratic trained by GD has the closed-form response
f(eta) = 0.5 * s0^2 * (1-eta)^(2T), which pins both engines to an exact
analytic value; everything else is cross-checked between engines and
against materialized linear algebra.
"""

from itertools import islice

import numpy as np
import pytest

from hypergrad import engines, objectives
from hypergrad.datasets import (MinibatchSchedule, blob_task,
                                clustered_task_data)
from hypergrad.dynamics import (GradientDescent, Momentum,
                                materialize_step_jacobians)
from hypergrad.engines import (StreamEmission, Tape, evaluate_response,
                               forward_hg, record_trajectory, reverse_hg,
                               rtho_stream)
from hypergrad.errors import (DimensionMismatchError, NonFiniteError,
                              TapeReplayError)
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.objectives import (DatasetValidation, MultitaskLinear,
                                  QuadraticToy, QuadraticValidation,
                                  WeightedSoftmax, val_grad_state, val_value)
from hypergrad.oracle import materialized_chain


def scalar_problem(s0=1.0):
    layout = VectorLayout([("eta", 1)])
    dyn = GradientDescent(QuadraticToy(1, hyper_layout=layout), eta="eta")
    e = QuadraticValidation(1)
    return dyn, e, dyn.init_state(np.array([s0])), layout


def softmax_problem(seed=0, n=6, p=3, k=2, n_weights=True):
    train, _, _ = blob_task(seed, n, 4, 4, n_classes=k, n_features=p)
    segs = [("eta", 1), ("mu", 1)]
    if n_weights:
        segs.append(("weights", n))
    layout = VectorLayout(segs)
    obj = WeightedSoftmax(train, hyper_layout=layout,
                          weight_segment="weights" if n_weights else None)
    dyn = Momentum(obj)
    w0 = make_rng(seed, 77).standard_normal(obj.n_params) * 0.1
    e = QuadraticValidation(obj.n_params,
                            center=make_rng(seed, 78).standard_normal(obj.n_params))
    return dyn, e, dyn.init_state(w0), layout


# ---------------------------------------------------------------------------
# closed forms and degenerate cases


def test_forward_closed_form_t1():
    dyn, e, s0, layout = scalar_problem()
    res = forward_hg(dyn, e, s0, layout.pack(eta=0.5), 1)
    assert abs(res.gradient[0] + 0.5) < 1e-15
    assert abs(res.response - 0.125) < 1e-15


def test_forward_closed_form_t2():
    dyn, e, s0, layout = scalar_problem()
    res = forward_hg(dyn, e, s0, layout.pack(eta=0.5), 2)
    assert abs(res.gradient[0] + 0.25) < 1e-15
    assert abs(res.response - 0.03125) < 1e-15


def test_reverse_matches_anchor():
    dyn, e, s0, layout = scalar_problem()
    res = reverse_hg(dyn, e, s0, layout.pack(eta=0.5), 2)
    assert abs(res.gradient[0] + 0.25) < 1e-15


def test_zero_steps_zero_gradient():
    dyn, e, s0, layout = scalar_problem(s0=3.0)
    for engine in (forward_hg, reverse_hg):
        res = engine(dyn, e, s0, layout.pack(eta=0.5), 0)
        assert np.array_equal(res.gradient, np.zeros(1))
        assert res.response == e.value(s0)


def test_constant_validation_kills_reverse_gradient():
    class FlatE:
        def value(self, w):
            return 4.0

        def grad(self, w):
            return np.zeros_like(w)

    dyn, _, s0, layout = scalar_problem()
    res = reverse_hg(dyn, FlatE(), s0, layout.pack(eta=0.5), 3)
    assert np.array_equal(res.gradient, np.zeros(1))


def test_engines_agree_on_softmax_instance():
    dyn, e, s0, layout = softmax_problem()
    lam = layout.pack(eta=0.2, mu=0.5, weights=1.0)
    f = forward_hg(dyn, e, s0, lam, 20)
    r = reverse_hg(dyn, e, s0, lam, 20)
    denom = max(np.linalg.norm(f.gradient), 1e-12)
    assert np.linalg.norm(f.gradient - r.gradient) / denom < 1e-8
    assert abs(f.response - r.response) < 1e-12


def test_tiny_materialized_chain_brute_force():
    dyn, e, s0, layout = scalar_problem(s0=2.0)
    lam = layout.pack(eta=0.3)
    a_mats, b_mats, states = materialized_chain(dyn, s0, lam, 2)
    grad_e = e.grad(states[-1])
    brute = grad_e @ (a_mats[1] @ b_mats[0] + b_mats[1])
    rev = reverse_hg(dyn, e, s0, lam, 2)
    assert np.max(np.abs(brute - rev.gradient)) < 1e-12


# ---------------------------------------------------------------------------
# tape behaviour


def test_record_trajectory_length():
    dyn, e, s0, layout = scalar_problem()
    tape = record_trajectory(dyn, s0, layout.pack(eta=0.5), 5)
    assert tape.n_steps == 5
    assert len(tape.states) == 6
    assert tape.nbytes() > 0


def test_tape_verify_round_trip():
    dyn, e, s0, layout = softmax_problem()
    lam = layout.pack(eta=0.1, mu=0.3, weights=1.0)
    tape = record_trajectory(dyn, s0, lam, 4)
    tape.verify(dyn)  # must not raise


def test_tape_verify_detects_tampering():
    dyn, e, s0, layout = scalar_problem()
    tape = record_trajectory(dyn, s0, layout.pack(eta=0.5), 3)
    tape.states[2] = tape.states[2] + 1e-9
    with pytest.raises(TapeReplayError):
        tape.verify(dyn)


def test_a_lone_row_is_its_vector_run_as_one_row():
    # a vector run is the one-row block unwrapped, so the one-row block
    # comes back as a one-row result: (1, m) gradient, one response in a
    # list, a tape of (1, d) states that replays
    dyn, e, s0, layout = softmax_problem()
    lam = layout.pack(eta=0.2, mu=0.5, weights=1.0)
    for engine in (forward_hg, reverse_hg):
        vec = engine(dyn, e, s0, lam, 4)
        one = engine(dyn, [e], s0[None], lam[None], 4)
        assert one.gradient.shape == (1, len(lam))
        assert np.array_equal(one.gradient[0], vec.gradient)
        assert one.response == [vec.response]
    tape = reverse_hg(dyn, [e], s0[None], lam[None], 4).tape
    assert [x.shape for x in tape.states] == [(1, dyn.n_state)] * 5
    assert tape.lam.shape == (1, len(lam))
    tape.verify(dyn)


# ---------------------------------------------------------------------------
# streaming


def test_stream_degenerate_delta_equals_forward():
    dyn, e, s0, layout = softmax_problem()
    lam = layout.pack(eta=0.2, mu=0.5, weights=1.0)
    ref = forward_hg(dyn, e, s0, lam, 10)
    em = next(rtho_stream(dyn, e, s0, lam, delta=10))
    assert isinstance(em, StreamEmission)
    assert np.array_equal(em.partial, ref.gradient)
    assert em.response == ref.response
    assert em.t == 10


def test_stream_emission_cadence_and_monotone_steps():
    dyn, e, s0, layout = scalar_problem()
    lam = layout.pack(eta=0.1)
    emissions = islice(rtho_stream(dyn, e, s0, lam, delta=3), 4)
    assert [em.t for em in emissions] == [3, 6, 9, 12]


def test_stream_delta_validation():
    dyn, e, s0, layout = scalar_problem()
    with pytest.raises(ValueError):
        next(rtho_stream(dyn, e, s0, layout.pack(eta=0.1), delta=0))


def test_stream_checks_its_inputs_as_forward_does():
    # a vector state with a (1, m) hyper block is a shape error in both
    dyn, e, s0, layout = scalar_problem()
    lam = layout.pack(eta=0.1)[None]
    with pytest.raises(DimensionMismatchError):
        forward_hg(dyn, e, s0, lam, 2)
    with pytest.raises(DimensionMismatchError):
        next(rtho_stream(dyn, e, s0, lam, delta=2))


def test_a_vector_stream_ends_when_its_emission_leaves():
    dyn, e, s0, layout = scalar_problem()
    emitted = []
    for em in rtho_stream(dyn, e, s0, layout.pack(eta=0.1), delta=2):
        assert isinstance(em, StreamEmission) and em.row is None
        emitted.append(em)
        em.leave = len(emitted) == 3
    assert [em.t for em in emitted] == [2, 4, 6]


@pytest.mark.parametrize("returned", [np.zeros(3), 0.5, np.zeros((1, 2))])
def test_a_vector_updater_must_return_a_hyper_vector(returned):
    # m = 2: a longer vector, a scalar or a block is refused
    dyn, e, s0, layout = softmax_problem(n_weights=False)
    stream = rtho_stream(dyn, e, s0, layout.pack(eta=0.1, mu=0.5), delta=2,
                         updater=lambda lam, partial: returned)
    with pytest.raises(DimensionMismatchError):
        next(stream)


@pytest.mark.parametrize("returned", [0.5, np.zeros(3)])
def test_a_block_updater_must_return_its_row_hyper_vector(returned):
    # a scalar is not broadcast into the row, and a wrong length is a
    # shape error, not numpy's ValueError
    dyn, e, s0, layout = softmax_problem(n_weights=False)
    lam = np.tile(layout.pack(eta=0.1, mu=0.5), (2, 1))
    stream = rtho_stream(dyn, [e, e], np.stack([s0, s0]), lam, 2,
                         updater=[lambda lam, partial: lam,
                                  lambda lam, partial: returned])
    with pytest.raises(DimensionMismatchError):
        next(stream)


def test_stream_updater_applied_between_hyper_batches():
    dyn, e, s0, layout = scalar_problem(s0=2.0)
    seen = []

    def updater(lam, partial):
        seen.append(partial.copy())
        return lam + 0.05

    emissions = list(islice(rtho_stream(dyn, e, s0, layout.pack(eta=0.0),
                                        delta=3, updater=updater), 3))
    assert len(seen) == 3
    # emissions carry the post-update vector: 0.05, 0.10, 0.15
    assert [round(float(em.lam[0]), 10) for em in emissions] == [0.05, 0.1, 0.15]
    assert np.array_equal(seen[0], emissions[0].partial)


def test_stream_partials_match_replayed_forward_runs():
    """Replay oracle: re-walk the realized trajectory with dense Jacobians.

    The stream keeps updating lam, so the partials are not fresh forward
    runs; they must, however, equal the Z recursion Z_t = A_t Z_{t-1} + B_t
    evaluated with dense (A_t, B_t) along the exact (state, lam_t) history.
    """
    dyn, e, s0, layout = softmax_problem(n=5, p=2)
    lam0 = layout.pack(eta=0.05, mu=0.2, weights=1.0)

    def updater(lam, partial):
        bump = np.zeros_like(lam)
        bump[layout.slice_of("eta")] = 0.01
        return lam + bump

    delta = 4
    emissions = list(islice(rtho_stream(dyn, e, s0, lam0, delta=delta,
                                        updater=updater), 5))
    assert len(emissions) == 5

    lam = lam0.copy()
    s = s0.copy()
    z = np.zeros((dyn.n_state, layout.size))
    t = 0
    for em in emissions:
        for _ in range(delta):
            t += 1
            a, b = materialize_step_jacobians(dyn, s, lam, t)
            z = a @ z + b
            s = dyn.step(s, lam, t)
        expected = val_grad_state(e, s, dyn.state_layout) @ z
        assert np.max(np.abs(em.partial - expected)) < 1e-10
        lam = updater(lam, em.partial)

    # the first emission has seen only lam0, so it must also match forward_hg
    ref = forward_hg(dyn, e, s0, lam0, delta)
    assert np.max(np.abs(emissions[0].partial - ref.gradient)) < 1e-12


def test_evaluate_response_is_pure():
    dyn, e, s0, layout = scalar_problem(s0=2.0)
    lam = layout.pack(eta=0.3)
    a = evaluate_response(dyn, e, s0, lam, 5)
    b = evaluate_response(dyn, e, s0, lam, 5)
    assert a == b
    assert abs(a - 0.5 * 4.0 * (1 - 0.3) ** 10) < 1e-14


# ---------------------------------------------------------------------------
# one trajectory everywhere


def trajectory_problem(kind):
    """(make, E, s0, lam, T) with a builder of fresh, identical dynamics."""
    rng = make_rng(9, 1)
    if kind == "mtl-full-GD":
        data, val, _, _ = clustered_task_data(9, 3, 2, 4, 4, 3, 1)
        layout = VectorLayout([("eta", 1), ("coupling", 9), ("rho", 3)])

        def make():
            return GradientDescent(MultitaskLinear(
                data, hyper_layout=layout, coupling="full", per_task_rho=True))
        lam = layout.pack(eta=0.2, coupling=0.1 * rng.random(9),
                          rho=rng.random(3))
    else:
        data, val, _ = blob_task(9, 9, 6, 1, n_classes=3, n_features=4)
        if kind == "hyper-weights-minibatch-GDM":
            layout = VectorLayout([("eta", 1), ("mu", 1), ("weights", 9)])
            sched = MinibatchSchedule(n=9, batch_size=4, seed=9)

            def make():
                return Momentum(WeightedSoftmax(data, hyper_layout=layout,
                                                schedule=sched))
            lam = layout.pack(eta=0.3, mu=0.6, weights=rng.random(9) + 0.5)
        else:
            layout = VectorLayout([("eta", 1)])

            def make():
                return GradientDescent(WeightedSoftmax(
                    data, hyper_layout=layout, weight_segment=None))
            lam = layout.pack(eta=0.4)
    n_params = make().objective.n_params
    s0 = make().init_state(rng.standard_normal(n_params) * 0.1)
    return make, DatasetValidation(val), s0, lam, 7


@pytest.mark.parametrize("kind", ["hyper-weights-minibatch-GDM",
                                  "unit-weights-GD", "mtl-full-GD"])
def test_one_trajectory_everywhere(kind):
    # every loop that trains from s_0 reaches the same s_T, bit for bit
    make, e, s0, lam, n_steps = trajectory_problem(kind)
    s0_bytes = s0.tobytes()
    dyn = make()
    s_final = engines.train(dyn, s0, lam, n_steps)
    tape = record_trajectory(make(), s0, lam, n_steps)
    assert s_final.tobytes() == tape.states[-1].tobytes()
    assert s0.tobytes() == s0_bytes
    response = evaluate_response(make(), e, s0, lam, n_steps)
    assert response == val_value(e, s_final, dyn.state_layout)
    assert response == forward_hg(make(), e, s0, lam, n_steps).response
    assert response == reverse_hg(make(), e, s0, lam, n_steps).response


# ---------------------------------------------------------------------------
# product-call contract


class CountingDynamics:
    """Wraps a dynamics object and counts its protocol calls."""

    PRODUCTS = ("step", "jvp_state", "jvp_hyper", "vjp_state", "vjp_hyper",
                "touched_hypers")

    def __init__(self, dyn):
        self._dyn = dyn
        self.calls = dict.fromkeys(self.PRODUCTS, 0)

    def __getattr__(self, name):
        attr = getattr(self._dyn, name)
        if name not in self.PRODUCTS:
            return attr

        def counted(*args):
            self.calls[name] += 1
            return attr(*args)
        return counted


def contract_problems():
    # GD with per-example weight hypers, Momentum with eta, mu and weights
    train, _, _ = blob_task(3, 6, 4, 4, n_classes=2, n_features=3)
    layout = VectorLayout([("eta", 1), ("weights", 6)])
    obj = WeightedSoftmax(train, hyper_layout=layout,
                          schedule=MinibatchSchedule(n=6, batch_size=4, seed=3))
    gd = GradientDescent(obj, eta="eta")
    w0 = make_rng(3, 77).standard_normal(obj.n_params) * 0.1
    e = QuadraticValidation(obj.n_params,
                            center=make_rng(3, 78).standard_normal(obj.n_params))
    gd_problem = (gd, e, gd.init_state(w0), layout.pack(eta=0.2, weights=1.0))
    gdm, e, s0, layout = softmax_problem()
    gdm_problem = (gdm, e, s0, layout.pack(eta=0.1, mu=0.5, weights=1.0))
    return [gd_problem, gdm_problem]


@pytest.mark.parametrize("which", [0, 1], ids=["GD", "GDM"])
@pytest.mark.parametrize("n_steps", [1, 5])
def test_forward_makes_t_times_m_state_products(which, n_steps):
    dyn, e, s0, lam = contract_problems()[which]
    counted = CountingDynamics(dyn)
    forward_hg(counted, e, s0, lam, n_steps)
    assert counted.calls["jvp_state"] == n_steps * len(lam)
    assert counted.calls["step"] == n_steps
    assert counted.calls["touched_hypers"] == n_steps
    assert counted.calls["vjp_state"] == counted.calls["vjp_hyper"] == 0


@pytest.mark.parametrize("which", [0, 1], ids=["GD", "GDM"])
@pytest.mark.parametrize("verify_tape", [False, True])
@pytest.mark.parametrize("n_steps", [1, 5])
def test_reverse_makes_t_hyper_and_t_minus_one_state_products(
        which, verify_tape, n_steps):
    # verifying the tape replays its T steps and makes no product
    dyn, e, s0, lam = contract_problems()[which]
    counted = CountingDynamics(dyn)
    result = reverse_hg(counted, e, s0, lam, n_steps, verify_tape=verify_tape)
    assert counted.calls["vjp_hyper"] == n_steps
    assert counted.calls["vjp_state"] == n_steps - 1
    assert counted.calls["step"] == n_steps * (1 + int(verify_tape))
    assert counted.calls["jvp_state"] == counted.calls["jvp_hyper"] == 0
    assert len(result.tape) == n_steps + 1


# ---------------------------------------------------------------------------
# the sweep reuses the recording pass's softmax


def retention_problem(kind, batch_size=None):
    """(make, E, s0, lam) with a builder of fresh, identical dynamics."""
    train, val, _ = blob_task(4, 8, 6, 1, n_classes=3, n_features=4)
    sched = (None if batch_size is None
             else MinibatchSchedule(n=8, batch_size=batch_size, seed=4))
    if kind == "mtl":
        layout = VectorLayout([("coupling", 9), ("rho", 1)])

        def make():
            return GradientDescent(MultitaskLinear(train, hyper_layout=layout,
                                                   schedule=sched), eta=0.05)
        lam = layout.pack(coupling=make_rng(4, 1).random(9) * 0.1, rho=0.2)
    else:
        layout = VectorLayout([("eta", 1), ("mu", 1), ("weights", 8)])

        def make():
            return Momentum(WeightedSoftmax(train, hyper_layout=layout,
                                            schedule=sched))
        lam = layout.pack(eta=0.3, mu=0.5, weights=make_rng(4, 1).random(8))
    n_params = make().objective.n_params
    s0 = make().init_state(make_rng(4, 2).standard_normal(n_params) * 0.1)
    return make, DatasetValidation(val), s0, lam


RETENTION_CASES = [("mtl", None), ("mtl", 3), ("weighted", None),
                   ("weighted", 3)]
RETENTION_IDS = ["mtl-full", "mtl-minibatch", "weighted-full",
                 "weighted-minibatch"]


@pytest.fixture
def softmax_calls(monkeypatch):
    """Counts objectives.softmax_rows calls from here on."""
    calls = [0]
    original = objectives.softmax_rows

    def counted(scores):
        calls[0] += 1
        return original(scores)
    monkeypatch.setattr(objectives, "softmax_rows", counted)
    return calls


def rebuilt_sweep(make, e, tape, lam):
    """reverse_hg's gradient over ``tape``, every product on a fresh objective."""
    n_steps = tape.n_steps
    dyn = make()
    alpha = val_grad_state(e, tape.states[-1], dyn.state_layout)
    grad = np.zeros(len(lam))
    for t in range(n_steps, 0, -1):
        s_prev = tape.states[t - 1].copy()
        grad += make().vjp_hyper(s_prev, lam, t, alpha)
        if t > 1:
            alpha = make().vjp_state(s_prev, lam, t, alpha)
    return grad


@pytest.mark.parametrize("kind,batch_size", RETENTION_CASES, ids=RETENTION_IDS)
def test_reverse_builds_each_step_softmax_once(kind, batch_size, softmax_calls):
    make, e, s0, lam = retention_problem(kind, batch_size)
    n_steps = 7
    result = reverse_hg(make(), e, s0, lam, n_steps)
    # one per recorded step, plus one for the validation gradient
    assert softmax_calls[0] == n_steps + 1
    assert (result.gradient.tobytes()
            == rebuilt_sweep(make, e, result.tape, lam).tobytes())


@pytest.mark.parametrize("frozen", [False, True], ids=["writable", "read-only"])
@pytest.mark.parametrize("kind,batch_size", RETENTION_CASES, ids=RETENTION_IDS)
def test_replaced_tape_state_rebuilds_its_step(kind, batch_size, frozen,
                                                softmax_calls, monkeypatch):
    make, e, s0, lam = retention_problem(kind, batch_size)
    n_steps, k = 6, 3
    record = engines.record_trajectory

    def tampered(*args):
        tape = record(*args)
        tape.states[k] = tape.states[k] + 1e-3  # as the tampering test does
        if frozen:
            tape.states[k].flags.writeable = False
        return tape
    monkeypatch.setattr(engines, "record_trajectory", tampered)
    result = reverse_hg(make(), e, s0, lam, n_steps)
    # the sweep at step k + 1 starts from the replaced state
    assert softmax_calls[0] == n_steps + 2
    assert (result.gradient.tobytes()
            == rebuilt_sweep(make, e, result.tape, lam).tobytes())


@pytest.mark.parametrize("kind,batch_size", RETENTION_CASES, ids=RETENTION_IDS)
def test_verify_tape_recomputes_every_step(kind, batch_size, softmax_calls):
    make, e, s0, lam = retention_problem(kind, batch_size)
    # longer than the 4-entry per-step memo: it is keyed by content, so
    # it would serve the whole replay of a tape of at most 4 steps
    n_steps = 6
    plain = reverse_hg(make(), e, s0, lam, n_steps)
    softmax_calls[0] = 0
    verified = reverse_hg(make(), e, s0, lam, n_steps, verify_tape=True)
    assert softmax_calls[0] == 2 * n_steps + 1
    assert verified.gradient.tobytes() == plain.gradient.tobytes()


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("kind,batch_size", RETENTION_CASES, ids=RETENTION_IDS)
def test_verify_tape_replays_short_tapes(kind, batch_size, n_steps,
                                         softmax_calls):
    # a tape that fits in the 4-entry per-step memo is replayed in full too
    make, e, s0, lam = retention_problem(kind, batch_size)
    plain = reverse_hg(make(), e, s0, lam, n_steps)
    softmax_calls[0] = 0
    verified = reverse_hg(make(), e, s0, lam, n_steps, verify_tape=True)
    assert softmax_calls[0] == 2 * n_steps + 1
    assert verified.gradient.tobytes() == plain.gradient.tobytes()


@pytest.mark.parametrize("kind", ["mtl", "weighted"])
def test_nothing_retained_after_reverse(kind):
    make, e, s0, lam = retention_problem(kind)
    dyn = make()
    reverse_hg(dyn, e, s0, lam, 4)
    assert dyn.objective._cache._steps is None
    # a diverging run raises mid-recording and still drops every entry
    with np.errstate(all="ignore"), pytest.raises(NonFiniteError):
        reverse_hg(dyn, e, s0, np.full_like(lam, 1e300), 4)
    assert dyn.objective._cache._steps is None


def test_tape_states_are_read_only():
    make, e, s0, lam = retention_problem("weighted")
    tapes = [record_trajectory(make(), s0, lam, 3),
             reverse_hg(make(), e, s0, lam, 3).tape]
    for tape in tapes:
        assert len(tape) == 4 and tape.nbytes() == 4 * s0.nbytes
        for state in tape.states:
            assert not state.flags.writeable
            with pytest.raises(ValueError):
                state[0] = 1.0
    assert s0.flags.writeable  # the caller's s0 is copied, not frozen
