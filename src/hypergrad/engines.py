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
* ``rtho_stream`` keeps the forward accumulation running during a single
  training run and emits the partial hypergradient grad E(s_t) Z_t every
  ``delta`` steps so an outer updater can adjust lam mid-flight.

Z propagation is deliberately structured as one state-JVP per column of
Z plus unit-direction hyper-JVPs for the columns of B_t; only columns
listed by ``dyn.touched_hypers(t)`` are filled, which keeps the per-step
cost at O(batch) instead of O(m) when each minibatch touches few
hyperparameters. What those products share within one step (the
minibatch's softmax quantities and, for constant example weights, the
gradient itself) is built once per (t, s) by the objective, so a step
costs its m state-JVPs, its touched hyper columns and one ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, TapeReplayError
from .numerics import as_vector, ensure_finite
from .objectives import (_clear_memo, _frozen, _trajectory_scope,
                         val_grad_state, val_value)


@dataclass
class HypergradResult:
    gradient: np.ndarray
    response: float
    mode: str
    adjoints: list = None
    tape: "Tape" = None


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


def record_trajectory(dyn, s0, lam, n_steps, t0=0):
    """Run ``n_steps`` of the dynamics, keeping every state read-only.

    Each step starts from the recorded (read-only) state, so what the
    objective builds at a step is tied to the tape entry it came from.
    """
    s = _frozen(as_vector(s0).copy())
    states = [s]
    for k in range(1, n_steps + 1):
        s = _frozen(dyn.step(s, lam, t0 + k))
        states.append(s)
    return Tape(states=states, lam=np.asarray(lam, dtype=np.float64).copy())


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
    the step's temporaries of the same size.
    """
    s = np.array(s0, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if s.ndim not in (1, 2) or lam.shape[:-1] != s.shape[:-1]:
        raise DimensionMismatchError(
            f"state {s.shape} and hyper vector {lam.shape} must be (d,) and "
            f"(m,), or (K, d) and (K, m)")
    n = len(s)
    live = np.arange(n)  # the rows still running (a vector never drops any)
    t = 1
    while t <= n_steps and live.size:
        try:
            s = dyn.step(s, lam, t)
            t += 1
        except NonFiniteError as err:
            if err.rows is None or err.rows.shape != live.shape:
                raise
            keep = ~err.rows
            live, s, lam = live[keep], s[keep], lam[keep]
    if live.size == n:
        return s
    out = np.full((n, s.shape[-1]), np.nan)
    out[live] = s
    return out


def evaluate_response(dyn, E, s0, lam, n_steps):
    """f(lam): train from s0 for n_steps and report the validation error."""
    return val_value(E, train(dyn, s0, lam, n_steps), dyn.state_layout)


def _propagate_z(dyn, s, z, lam, t, q_buf):
    """Z <- A_t Z + B_t with products evaluated at the pre-step state."""
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        out[:, j] = dyn.jvp_state(s, lam, t, z[:, j])
    for j in dyn.touched_hypers(t):
        q_buf[j] = 1.0
        out[:, j] += dyn.jvp_hyper(s, lam, t, q_buf)
        q_buf[j] = 0.0
    return ensure_finite(out, "sensitivity matrix", step=t)


def forward_hg(dyn, E, s0, lam, n_steps) -> HypergradResult:
    """Forward-mode hypergradient of E(s_T) with respect to lam."""
    lam = as_vector(lam)
    s = as_vector(s0).copy()
    m = len(lam)
    z = np.zeros((dyn.n_state, m))
    q_buf = np.zeros(m)
    for t in range(1, n_steps + 1):
        z = _propagate_z(dyn, s, z, lam, t, q_buf)
        s = dyn.step(s, lam, t)
    grad = val_grad_state(E, s, dyn.state_layout) @ z
    return HypergradResult(gradient=grad, response=val_value(E, s, dyn.state_layout),
                           mode="forward")


def reverse_hg(dyn, E, s0, lam, n_steps, verify_tape=False,
               keep_adjoints=False) -> HypergradResult:
    """Reverse-mode hypergradient via the adjoint recursion over a tape.

    Memory is O(Td + T*b*k): besides the T+1 states, the objective keeps
    each step's b x k softmax probabilities from the recording pass for
    the sweep, which reuses them instead of recomputing them. They are
    matched against the read-only tape state they were built from and
    dropped when this call returns or raises; ``verify_tape`` replays
    from a writable copy, which they never serve.

    The gradient is the closed form sum_{t=1}^{T} alpha_t B_t.
    """
    lam = as_vector(lam)
    with _trajectory_scope(dyn.objective):
        tape = record_trajectory(dyn, s0, lam, n_steps)
        if verify_tape:
            tape.verify(dyn)
        s_final = tape.states[-1]
        alpha = val_grad_state(E, s_final, dyn.state_layout)
        adjoints = {n_steps: alpha.copy()} if keep_adjoints else None
        grad = np.zeros(len(lam))
        for t in range(n_steps, 0, -1):
            s_prev = tape.states[t - 1]
            grad += dyn.vjp_hyper(s_prev, lam, t, alpha)
            if t > 1 or keep_adjoints:
                alpha = dyn.vjp_state(s_prev, lam, t, alpha)
                if keep_adjoints:
                    adjoints[t - 1] = alpha.copy()
    ensure_finite(grad, "hypergradient")
    return HypergradResult(gradient=grad,
                           response=val_value(E, s_final, dyn.state_layout),
                           mode="reverse", adjoints=adjoints, tape=tape)


@dataclass
class StreamEmission:
    """One real-time checkpoint: partial hypergradient plus bookkeeping.

    ``lam`` is the hyperparameter vector *after* the outer update (equal
    to the pre-update vector when no updater is installed); ``state`` is
    a snapshot of s_t at emission time.
    """

    t: int
    total_steps: int
    partial: np.ndarray
    response: float
    lam: np.ndarray
    state: np.ndarray


def rtho_stream(dyn, E, s0, lam, delta, updater=None, max_steps=None,
                reset_z=False, restart_state=False):
    """Generator of real-time partial hypergradients every ``delta`` steps.

    After each emission the optional ``updater`` maps (lam, partial) to
    the next hyperparameter vector and training continues. Z is carried
    across updates by default; ``reset_z`` zeroes it after each one.
    ``restart_state`` additionally rewinds the state to s_0 and the
    schedule clock to 0 after each emission, which makes a delta-step
    stream coincide with the batch-mode hyper-iteration protocol. The
    stream stops after ``max_steps`` steps, if given; stop rules belong
    to the consumer (see ``driver.stream_ho_loop``).
    """
    if delta < 1:
        raise ValueError(f"hyper-batch size must be >= 1, got {delta}")
    lam = as_vector(lam).copy()
    s_init = as_vector(s0).copy()
    s = s_init.copy()
    m = len(lam)
    z = np.zeros((dyn.n_state, m))
    q_buf = np.zeros(m)
    t = 0
    total = 0
    while True:
        for _ in range(delta):
            t += 1
            total += 1
            z = _propagate_z(dyn, s, z, lam, t, q_buf)
            s = dyn.step(s, lam, t)
        partial = val_grad_state(E, s, dyn.state_layout) @ z
        ensure_finite(partial, "partial hypergradient", step=t)
        response = val_value(E, s, dyn.state_layout)
        if updater is not None:
            lam = as_vector(updater(lam, partial)).copy()
        emission = StreamEmission(t=t, total_steps=total, partial=partial,
                                  response=response, lam=lam.copy(),
                                  state=s.copy())
        yield emission
        if max_steps is not None and total >= max_steps:
            return
        if reset_z:
            z = np.zeros_like(z)
        if restart_state:
            s = s_init.copy()
            t = 0
