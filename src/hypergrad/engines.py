"""Hypergradient engines: forward, reverse, and the real-time stream.

Training is treated as a dynamical system s_t = Phi_t(s_{t-1}, lam); the
response is f(lam) = E(s_T(lam)), with s_T from ``train``. Both engines
compute the exact d f / d lam of the unrolled iteration:

* ``forward_hg`` propagates the sensitivity matrix Z_t = ds_t/dlam
  alongside the states via Z_t = A_t Z_{t-1} + B_t. Cost grows linearly
  with the number of hyperparameters; memory O(dm), states overwritten.
* ``reverse_hg`` records the whole trajectory (a Tape of T+1 read-only
  states) and runs the adjoint recursion alpha_{t-1} = alpha_t A_t
  backwards, accumulating g = sum_t alpha_t B_t. Cost is independent of
  m; memory O(Td + T*b*k): the sweep reuses each step's b x k softmax
  probabilities from the recording pass, as backpropagation through
  time reuses its activations, instead of recomputing them.
* ``rtho_stream`` is forward mode read every ``delta`` steps: one endless
  training run whose partial hypergradient grad E(s_t) Z_t is emitted
  after each ``delta``-step sweep, so an outer updater can adjust lam
  mid-flight. Its consumer decides when to stop. S independent streams
  (one per training set of a seed stack) run as one (S, d) block with
  an (S, d, m) Z.

Both batch engines also take K independent problems as one block: a
(K, d) s0 with a (K, m) lam and one validation error per row (row i
training on set ``rows[i]`` of a seed stack, see ``over_rows``). The
sweep then makes its product calls once for all K rows (a tape of
(K, d) states, or a (K, d, m) Z), and row i of the result is bit for
bit the vector result of row i alone.

Both forward engines run the same sweep (``_sweep``): ``forward_hg`` one
sweep of T steps, ``rtho_stream`` one sweep per emission. Z propagation
is deliberately structured as one state-JVP per column of Z plus
unit-direction hyper-JVPs for the columns of B_t; only columns listed by
``dyn.touched_hypers(t)`` are filled, which keeps the per-step cost at
O(batch) instead of O(m) when each minibatch touches few
hyperparameters. What those products share within one step (the
minibatch's softmax quantities and, for constant example weights, the
gradient itself) is built once per (t, s) by the objective, so a step
costs its m state-JVPs, its touched hyper columns and one ``step``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatchError, NonFiniteError, TapeReplayError,
                     rows_among)
from .numerics import as_vector, ensure_finite
from .objectives import (_clear_memo, _frozen, _trajectory_scope,
                         val_grad_state, val_value)


@dataclass
class HypergradResult:
    """The hypergradient and response E(s_T); for a block, the (K, m)
    gradient rows and a list of K responses."""

    gradient: np.ndarray
    response: float | list
    tape: "Tape" = None


def _as_block(s, lam, E=None):
    """(s, lam) as float arrays, checked to be (d,) and (m,), or (K, d)
    and (K, m); a block's ``E`` (if given) holds one validation error
    per row."""
    s = np.asarray(s, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if s.ndim not in (1, 2) or lam.shape[:-1] != s.shape[:-1]:
        raise DimensionMismatchError(
            f"state {s.shape} and hyper vector {lam.shape} must be (d,) and "
            f"(m,), or (K, d) and (K, m)")
    if s.ndim == 2 and E is not None and (
            not isinstance(E, (list, tuple)) or len(E) != len(s)):
        raise DimensionMismatchError(
            f"a block of {len(s)} states takes {len(s)} validation errors")
    return s, lam


def over_rows(dyn, rows):
    """``dyn`` with row i of its blocks on row ``rows[i]`` of its stack.

    ``rows`` is a boolean mask or an index array (which may repeat a
    row) over the rows the objective's seed stack serves now (see
    ``objectives._SoftmaxData.take``). Dynamics whose objective holds
    no stack train every row on the same data and come back as they
    are.
    """
    if getattr(dyn.objective, "_rows", None) is None:
        return dyn
    sub = copy.copy(dyn)
    sub.objective = dyn.objective.take(rows)
    return sub


def _val_grads(E, s, layout):
    """grad E(s) over the state; for a block, row i's with ``E[i]``."""
    if s.ndim == 1:
        return val_grad_state(E, s, layout)
    return np.stack([val_grad_state(e, row, layout) for e, row in zip(E, s)])


def _partials(E, s, z, layout):
    """grad E(s) Z; for a block, row i's with ``E[i]`` and its own
    C-contiguous (d, m) slice of an (K, d, m) Z."""
    g = _val_grads(E, s, layout)
    if s.ndim == 1:
        return g @ z
    return np.array([gi @ zi for gi, zi in zip(g, z)])


def _val_values(E, s, layout):
    """E(s); for a block, the list of each row's with ``E[i]``.

    A non-finite value of a block fails with its row marked.
    """
    if s.ndim == 1:
        return val_value(E, s, layout)
    values = []
    for i, (e, row) in enumerate(zip(E, s)):
        try:
            values.append(val_value(e, row, layout))
        except NonFiniteError as err:
            err.rows = np.arange(len(s)) == i
            raise
    return values


@dataclass
class Tape:
    """Recorded trajectory s_0 ... s_T plus the lam that produced it."""

    states: list
    lam: np.ndarray

    def __len__(self):
        return len(self.states)

    @property
    def n_steps(self):
        return len(self.states) - 1

    def nbytes(self):
        return sum(s.nbytes for s in self.states)

    def verify(self, dyn):
        """Replay the dynamics from s_0 and demand bit-exact agreement.

        The replay steps from a writable copy after the objective's
        per-step memo is emptied, so nothing the recording pass built
        serves it: every step is recomputed.
        """
        _clear_memo(dyn.objective)
        s = self.states[0].copy()
        for t in range(1, len(self.states)):
            s = dyn.step(s, self.lam, t)
            if not np.array_equal(s, self.states[t]):
                raise TapeReplayError(
                    f"tape replay diverged at step {t}: recorded and replayed "
                    f"states differ (max abs diff "
                    f"{np.max(np.abs(s - self.states[t])):.3e})"
                )


def record_trajectory(dyn, s0, lam, n_steps):
    """Run ``n_steps`` of the dynamics, keeping every state read-only.

    Each step starts from the recorded (read-only) state, so what the
    objective builds at a step is tied to the tape entry it came from.
    A (K, d) block s0 with a (K, m) block lam records one tape of
    (K, d) states.
    """
    s, lam = _as_block(s0, lam)
    s = _frozen(s.copy())
    states = [s]
    for k in range(1, n_steps + 1):
        s = _frozen(dyn.step(s, lam, k))
        states.append(s)
    return Tape(states=states, lam=lam.copy())


def train(dyn, s0, lam, n_steps):
    """s_T: ``n_steps`` steps of the dynamics from a copy of s_0.

    A (K, d) block of start states with a (K, m) block of hyper vectors
    trains K independent runs as one population, one ``step`` call per
    step; row i of the result is bit for bit the 1-D run from
    (s0[i], lam[i]), and a 1-D run is the same loop on one state. A 1-D
    run that goes non-finite raises NonFiniteError. In a block only the
    rows that go non-finite fail: they leave the block at that step and
    come back as rows of NaN, while the others keep running (that step
    is redone without them). Memory is that of the block: K states plus
    the step's temporaries of the same size; the objective's (t, w) memo
    is emptied after each step, since no later step reads it.
    """
    s, lam = _as_block(s0, lam)
    s = s.copy()
    n = len(s)
    live = np.arange(n)  # the rows still running (a vector never drops any)
    t = 1
    while t <= n_steps and live.size:
        try:
            s = dyn.step(s, lam, t)
            _clear_memo(dyn.objective)  # no later step reads this one's batch
            t += 1
        except NonFiniteError as err:
            if err.rows is None or err.rows.shape != live.shape:
                raise
            keep = ~err.rows
            live, s, lam = live[keep], s[keep], lam[keep]
            dyn = over_rows(dyn, keep)
    if live.size == n:
        return s
    out = np.full((n, s.shape[-1]), np.nan)
    out[live] = s
    return out


def evaluate_response(dyn, E, s0, lam, n_steps):
    """f(lam): train from s0 for n_steps and report the validation error."""
    return val_value(E, train(dyn, s0, lam, n_steps), dyn.state_layout)


def _propagate_z(dyn, s, z, lam, t, q_buf):
    """Z <- A_t Z + B_t with products evaluated at the pre-step state.

    Z is (d, m), or (S, d, m) for a (S, d) block of states: column j is
    then a (S, d) block of tangents, one product call for all S rows.
    """
    out = np.empty_like(z)
    for j in range(z.shape[-1]):
        out[..., j] = dyn.jvp_state(s, lam, t, z[..., j])
    for j in dyn.touched_hypers(t):
        q_buf[j] = 1.0
        out[..., j] += dyn.jvp_hyper(s, lam, t, q_buf)
        q_buf[j] = 0.0
    # a failure marks the failed rows of a block; one run's Z has none
    ensure_finite(out if out.ndim == 3 else out.ravel(), "sensitivity matrix",
                  step=t)
    return out


def _sweep(dyn, s, z, lam, t, n_steps, q_buf):
    """(s, Z) after steps t+1 .. t+n_steps of the state and of Z."""
    for k in range(t + 1, t + n_steps + 1):
        z = _propagate_z(dyn, s, z, lam, k, q_buf)
        s = dyn.step(s, lam, k)
    return s, z


def forward_hg(dyn, E, s0, lam, n_steps) -> HypergradResult:
    """Forward-mode hypergradient of E(s_T) with respect to lam.

    A block sweeps an (K, d, m) Z, as ``rtho_stream`` does.
    """
    s, lam = _as_block(s0, lam, E)
    m = lam.shape[-1]
    s, z = _sweep(dyn, s.copy(), np.zeros((*s.shape[:-1], dyn.n_state, m)),
                  lam, 0, n_steps, np.zeros(m))
    return HypergradResult(gradient=_partials(E, s, z, dyn.state_layout),
                           response=_val_values(E, s, dyn.state_layout))


def reverse_hg(dyn, E, s0, lam, n_steps, verify_tape=False) -> HypergradResult:
    """Reverse-mode hypergradient via the adjoint recursion over a tape.

    Memory is O(Td + T*b*k): besides the T+1 states, the objective keeps
    each step's b x k softmax probabilities from the recording pass for
    the sweep, which reuses them instead of recomputing them. They are
    matched against the read-only tape state they were built from and
    dropped when this call returns or raises; ``verify_tape`` replays
    from a writable copy, which they never serve.

    The gradient is the closed form sum_{t=1}^{T} alpha_t B_t.

    A block makes T ``vjp_hyper`` and T - 1 ``vjp_state`` calls for all
    its rows, with a (K, d) adjoint; its tape and kept probabilities are
    K times those of one row. A non-finite value fails the block, the
    NonFiniteError's ``rows`` marking the rows that failed.
    """
    s0, lam = _as_block(s0, lam, E)
    with _trajectory_scope(dyn.objective):
        tape = record_trajectory(dyn, s0, lam, n_steps)
        if verify_tape:
            tape.verify(dyn)
        s_final = tape.states[-1]
        alpha = _val_grads(E, s_final, dyn.state_layout)
        grad = np.zeros(lam.shape)
        for t in range(n_steps, 0, -1):
            s_prev = tape.states[t - 1]
            grad += dyn.vjp_hyper(s_prev, lam, t, alpha)
            if t > 1:
                alpha = dyn.vjp_state(s_prev, lam, t, alpha)
    ensure_finite(grad, "hypergradient")
    return HypergradResult(gradient=grad,
                           response=_val_values(E, s_final, dyn.state_layout),
                           tape=tape)


@dataclass
class StreamEmission:
    """One real-time checkpoint: partial hypergradient plus bookkeeping.

    ``t`` is the number of steps trained so far; ``lam`` is the
    hyperparameter vector *after* the outer update (equal to the
    pre-update vector when no updater is installed); ``state`` is a
    snapshot of s_t at emission time. ``row`` is the stream's row in a
    block (None for a vector stream). The consumer sets ``leave`` to
    take the row out of the stream before its next sweep.
    """

    t: int
    partial: np.ndarray
    response: float
    lam: np.ndarray
    state: np.ndarray
    row: int | None = None
    leave: bool = False


def rtho_stream(dyn, E, s0, lam, delta, updater=None):
    """Real-time partial hypergradients, until the consumer stops them.

    One training run from s0, swept ``delta`` steps at a time; after each
    sweep it emits grad E(s_t) Z_t. The optional ``updater`` then maps
    (lam, partial) to the next hyperparameter vector, and training and
    Z carry on from where they are. The stream ends only when its
    emission is marked ``leave`` (or when the consumer closes it; see
    ``driver.stream_ho_loop``).

    A (S, d) block s0 with a (S, m) block lam runs S streams as one
    block, one sweep for all of them: ``dyn.objective`` holds a seed
    stack of S training sets (see ``objectives.WeightedSoftmax``), and
    ``E`` and ``updater`` (if given) are sequences of one validation
    error and one updater per row. Each sweep yields a list of one
    emission per row still in the block. Row i's partial is read from
    its own C-contiguous (d, m) slice of Z, so it is bit for bit that of
    row i streamed alone. A row marked ``leave`` drops out of the block,
    and the stream ends when no row is left. A non-finite value in any
    row fails the block: the NonFiniteError's ``rows`` then marks the
    rows that failed among all S.
    """
    if delta < 1:
        raise ValueError(f"hyper-batch size must be >= 1, got {delta}")
    lam = np.array(lam, dtype=np.float64)
    s = np.array(s0, dtype=np.float64)
    z = np.zeros((*s.shape, lam.shape[-1]))
    q_buf = np.zeros(lam.shape[-1])
    layout = dyn.state_layout
    t = 0
    if s.ndim == 1:
        while True:
            s, z = _sweep(dyn, s, z, lam, t, delta, q_buf)
            t += delta
            partial = _partials(E, s, z, layout)
            ensure_finite(partial, "partial hypergradient", step=t)
            response = val_value(E, s, layout)
            if updater is not None:
                lam = as_vector(updater(lam, partial)).copy()
            emission = StreamEmission(t=t, partial=partial, response=response,
                                      lam=lam.copy(), state=s.copy())
            yield emission
            if emission.leave:
                return
    if s.shape[:-1] != lam.shape[:-1] or len(E) != len(s):
        raise DimensionMismatchError(
            f"a block of {len(s)} states takes {len(s)} hyper vectors and "
            f"validation errors, got {lam.shape} and {len(E)}")
    live = np.arange(len(s))  # the rows still in the block
    while live.size:
        try:
            s, z = _sweep(dyn, s, z, lam, t, delta, q_buf)
            t += delta
            partial = _partials([E[row] for row in live], s, z, layout)
            ensure_finite(partial, "partial hypergradient", step=t)
        except NonFiniteError as err:
            raise rows_among(err, live, len(E))  # among all S rows
        emissions = []
        for i, row in enumerate(live):
            if updater is not None:
                lam[i] = updater[row](lam[i], partial[i])
            emissions.append(StreamEmission(
                t=t, partial=partial[i],
                response=val_value(E[row], s[i], layout), lam=lam[i].copy(),
                state=s[i].copy(), row=int(row)))
        yield emissions
        keep = np.array([not em.leave for em in emissions])
        if not keep.all():
            live, s, z, lam = live[keep], s[keep], z[keep], lam[keep]
            dyn = over_rows(dyn, keep)

