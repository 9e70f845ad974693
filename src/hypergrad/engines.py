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
  mid-flight. Its consumer decides when to stop.

All three run on blocks only: a (K, d) s0 with a (K, m) lam, row i on
set ``rows[i]`` of the seed stacks of the objective and of E (see
``over_rows``), one product call and one E call for all K rows (a tape
of (K, d) states, or a (K, m, d) Z), row i bit for bit what row i gives
alone. A vector problem is the one-row block (``OneRow``).

Both forward engines run the same sweep (``_sweep``): ``forward_hg`` one
sweep of T steps, ``rtho_stream`` one sweep per emission. Z is stored
tangent-major and propagated as one state-JVP per tangent ``Z[:, j]``
plus unit-direction hyper-JVPs for the columns of B_t; only columns
listed by ``dyn.touched_hypers(t)`` are filled, which keeps the per-step
cost at O(batch) instead of O(m) when each minibatch touches few
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
from .objectives import _clear_memo, _frozen, _trajectory_scope


@dataclass
class HypergradResult:
    """The hypergradient and response E(s_T); for a block, the (K, m)
    gradient rows and a list of K responses."""

    gradient: np.ndarray
    response: float | list
    tape: "Tape" = None


def _as_block(dyn, s, lam):
    """(s, lam) as float arrays, checked to be (d,) and (m,), or (K, d)
    and (K, m), with d the state length ``dyn.n_state``."""
    s = np.asarray(s, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if s.ndim not in (1, 2) or lam.shape[:-1] != s.shape[:-1]:
        raise DimensionMismatchError(
            f"state {s.shape} and hyper vector {lam.shape} must be (d,) and "
            f"(m,), or (K, d) and (K, m)")
    if s.shape[-1] != dyn.n_state:
        raise DimensionMismatchError(
            f"state has length {s.shape[-1]}, the dynamics expect "
            f"{dyn.n_state}")
    return s, lam


def _unwarned():
    """A scope without numpy's overflow, invalid and divide warnings: the
    engines check what they compute with ``ensure_finite``, so a
    non-finite value is a NonFiniteError under any warnings filter."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class OneRow:
    """A vector problem (a 1-D s0) run as the one-row block.

    ``rows`` makes each input the one-row block's, ``out``, ``result``
    and ``emission`` take row 0 of what the block gives, and as a
    context it clears the ``rows`` of a NonFiniteError raised inside (a
    vector has none to mark). For a block each hands its input back.
    """

    def __init__(self, s0):
        self.vector = np.ndim(s0) == 1

    def __enter__(self):
        return self

    def __exit__(self, kind, err, tb):
        if self.vector and isinstance(err, NonFiniteError):
            err.rows = None

    def rows(self, *inputs):
        """Each input as a one-item list (None stays None)."""
        if not self.vector:
            return inputs
        return tuple(None if x is None else [x] for x in inputs)

    def out(self, x):
        return x[0] if self.vector else x

    def result(self, res):
        """``res`` with row 0's gradient, response and tape."""
        if self.vector:
            res.gradient, res.response = res.gradient[0], res.response[0]
            if res.tape is not None:
                res.tape = Tape([x[0] for x in res.tape.states],
                                res.tape.lam[0])
        return res

    def emission(self, emitted):
        """Row 0's emission, its ``row`` None."""
        if self.vector:
            emitted[0].row = None
        return self.out(emitted)


def over_rows(dyn, E, rows):
    """(dyn, E) with row i of their blocks on row ``rows[i]`` of their
    stacks.

    ``rows`` is a boolean mask or an index array (which may repeat a
    row) over the rows they serve now (see ``objectives._SoftmaxData.take``).
    A term on one set (a 0-d row), one center or no data serves every
    row and comes back as it is.
    """
    objective, E = (term.take(rows) if hasattr(term, "take") else term
                    for term in (dyn.objective, E))
    if objective is not dyn.objective:
        dyn = copy.copy(dyn)
        dyn.objective = objective
    return dyn, E


def _val_grads(dyn, E, s):
    """grad E(s) over the state of each row: E reads the weights only,
    so the rest of each row is zero."""
    out = np.zeros(s.shape)
    dyn.weights_of(out)[:] = E.grad(dyn.weights_of(s))
    return out


def _partials(dyn, E, s, z):
    """grad E(s) Z of each row, with its (m, d) slice of a (K, m, d) Z
    read as a C-contiguous (d, m) copy: a transposed view would move
    the product's bits."""
    g = _val_grads(dyn, E, s)
    return np.array([gi @ np.ascontiguousarray(zi.T) for gi, zi in zip(g, z)])


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
    s, lam = _as_block(dyn, s0, lam)
    s = _frozen(s.copy())
    states = [s]
    with _unwarned():
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
    s, lam = _as_block(dyn, s0, lam)
    s = s.copy()
    n = len(s)
    live = np.arange(n)  # the rows still running (a vector never drops any)
    t = 1
    with _unwarned():
        while t <= n_steps and live.size:
            try:
                s = dyn.step(s, lam, t)
                _clear_memo(dyn.objective)  # no later step reads its batch
                t += 1
            except NonFiniteError as err:
                if err.rows is None or err.rows.shape != live.shape:
                    raise
                keep = ~err.rows
                live, s, lam = live[keep], s[keep], lam[keep]
                dyn, _ = over_rows(dyn, None, keep)
    if live.size == n:
        return s
    out = np.full((n, s.shape[-1]), np.nan)
    out[live] = s
    return out


def evaluate_response(dyn, E, s0, lam, n_steps):
    """f(lam): train from a vector s0 for n_steps and report the
    validation error."""
    s_final = train(dyn, as_vector(s0, "start state"), lam, n_steps)
    with _unwarned():
        return E.value(dyn.weights_of(s_final))


def _propagate_z(dyn, s, z, lam, t, q_buf, directions=None):
    """Z <- A_t Z + B_t with products evaluated at the pre-step state.

    Z is (K, m, d) for a (K, d) block of states: tangent j is the
    (K, d) block ``z[:, j]`` of every row's own C-contiguous tangents,
    one product call for all K rows. With ``directions`` (p, m), Z is
    (K, p, d) and tangent j follows lam along ``directions[j]``.
    """
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        out[:, j] = dyn.jvp_state(s, lam, t, z[:, j])
    if directions is None:
        for j in dyn.touched_hypers(t):
            q_buf[j] = 1.0
            out[:, j] += dyn.jvp_hyper(s, lam, t, q_buf)
            q_buf[j] = 0.0
    else:
        touched = directions[:, dyn.touched_hypers(t)].any(axis=1)
        for j in np.flatnonzero(touched):
            out[:, j] += dyn.jvp_hyper(s, lam, t, directions[j])
    return ensure_finite(out, "sensitivity matrix", step=t)  # marks rows


def _sweep(dyn, s, z, lam, t, n_steps, q_buf, directions=None):
    """(s, Z) after steps t+1 .. t+n_steps of the state and of Z."""
    for k in range(t + 1, t + n_steps + 1):
        z = _propagate_z(dyn, s, z, lam, k, q_buf, directions)
        s = dyn.step(s, lam, k)
    return s, z


def forward_hg(dyn, E, s0, lam, n_steps, directions=None) -> HypergradResult:
    """Forward-mode hypergradient of E(s_T) with respect to lam.

    A block sweeps a (K, m, d) Z, as ``rtho_stream`` does. Given a
    (p, m) ``directions``, it sweeps p tangents instead, and the
    gradient is (K, p): E's derivative along each direction.
    """
    one = OneRow(s0)
    s, lam = _as_block(dyn, *one.rows(s0, lam))
    m = lam.shape[-1]
    p = m if directions is None else len(directions)
    with one, _unwarned():
        z = np.zeros((len(s), p, dyn.n_state))
        s, z = _sweep(dyn, s.copy(), z, lam, 0, n_steps, np.zeros(m),
                      directions)
        grad = ensure_finite(_partials(dyn, E, s, z), "hypergradient")
        return one.result(HypergradResult(
            gradient=grad, response=E.value(dyn.weights_of(s)).tolist()))


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
    one = OneRow(s0)
    s, lam = _as_block(dyn, *one.rows(s0, lam))
    with one, _trajectory_scope(dyn.objective), _unwarned():
        tape = record_trajectory(dyn, s, lam, n_steps)
        if verify_tape:
            tape.verify(dyn)
        s_final = tape.states[-1]
        alpha = _val_grads(dyn, E, s_final)
        grad = np.zeros(lam.shape)
        for t in range(n_steps, 0, -1):
            s_prev = tape.states[t - 1]
            grad += dyn.vjp_hyper(s_prev, lam, t, alpha)
            if t > 1:
                alpha = dyn.vjp_state(s_prev, lam, t, alpha)
        ensure_finite(grad, "hypergradient")
        response = E.value(dyn.weights_of(s_final)).tolist()
        return one.result(HypergradResult(gradient=grad, response=response,
                                          tape=tape))


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

    One training run per row of a (S, d) block s0 with a (S, m) block
    lam, swept ``delta`` steps at a time as one block. After each sweep
    it yields a list of one emission per row still in the block, each
    with grad E(s_t) Z_t, bit for bit that of the row streamed alone.
    ``dyn.objective`` and ``E`` may hold a seed stack of S sets (see
    ``objectives.WeightedSoftmax``); ``updater`` (if given) holds one
    updater per row, mapping (lam, partial) to the row's next (m,) hyper
    vector, after which training and Z carry on. A row whose emission is
    marked ``leave`` drops out, and the stream ends when none is left
    (or when the consumer closes it; see ``driver.stream_ho_loop``). A
    non-finite value, or a NonFiniteError from a row's updater, fails
    the block, the error's ``rows`` marking the failed rows among all S.
    A vector stream yields single emissions with ``row`` None, and its
    failures mark no ``rows``.
    """
    if delta < 1:
        raise ValueError(f"hyper-batch size must be >= 1, got {delta}")
    one = OneRow(s0)
    s, lam, updater = one.rows(s0, lam, updater)
    s, lam = _as_block(dyn, s, lam)
    lam = lam.copy()
    z = np.zeros((len(s), lam.shape[-1], s.shape[-1]))
    q_buf = np.zeros(lam.shape[-1])
    t, n = 0, len(s)
    live = np.arange(n)  # the rows still in the block
    while live.size:
        with one:
            try:
                with _unwarned():  # closed before the updaters run
                    s, z = _sweep(dyn, s, z, lam, t, delta, q_buf)
                    t += delta
                    partial = _partials(dyn, E, s, z)
                    ensure_finite(partial, "partial hypergradient", step=t)
                    responses = E.value(dyn.weights_of(s)).tolist()
                for i, row in enumerate(live if updater is not None else ()):
                    lam[i] = _updated(updater[row], lam[i], partial[i],
                                      np.arange(len(live)) == i)
            except NonFiniteError as err:
                rows_among(err, live, n)  # among all S rows
                raise
        emissions = [StreamEmission(
            t=t, partial=partial[i], response=responses[i], lam=lam[i].copy(),
            state=s[i].copy(), row=int(row)) for i, row in enumerate(live)]
        yield one.emission(emissions)
        keep = np.array([not em.leave for em in emissions])
        if not keep.all():
            live, s, z, lam = live[keep], s[keep], z[keep], lam[keep]
            dyn, E = over_rows(dyn, E, keep)


def _updated(updater, lam, partial, row):
    """``updater(lam, partial)`` of lam's shape; its NonFiniteError
    marks block row ``row`` (a mask)."""
    try:
        new = np.asarray(updater(lam, partial), float)
    except NonFiniteError as err:
        err.rows = row
        raise
    if new.shape != lam.shape:
        raise DimensionMismatchError(
            f"updater returned shape {new.shape}, not {lam.shape}")
    return new
