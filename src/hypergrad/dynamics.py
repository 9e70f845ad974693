"""Training-step maps and exact products against their partial Jacobians.

A dynamics object represents one update map ``s_t = step(s_{t-1}, lam, t)``
together with four product operations:

    jvp_state(s, lam, t, r)   ->  A_t r        (d x d Jacobian in s)
    jvp_hyper(s, lam, t, q)   ->  B_t q        (d x m Jacobian in lam)
    vjp_state(s, lam, t, a)   ->  a A_t
    vjp_hyper(s, lam, t, a)   ->  a B_t

All products are evaluated at the *pre-step* state, matching
A_t = d step_t / d s_{t-1}. The Jacobians themselves are never formed in
production code paths; :func:`materialize_step_jacobians` exists only for
small brute-force checks.

Work that depends only on (t, w) is done once per step: an objective
with constant example weights hands every product at the same (t, w)
the same cached, read-only gradient, so ``step`` and the learning-rate
columns of ``jvp_hyper``/``vjp_hyper`` share one build. ``touched_hypers``
returns a precomputed read-only index array whenever the objective
touches no hypers.

Optimizer hyperparameters (eta, mu) are "bound" either to a named segment
of the hyper layout — in which case they are differentiated through — or
to a fixed float, in which case they are constants of the map.

Every operation also takes a leading population axis: a (K, d) block
of states with a (K, m) block of hyper vectors advances K independent
runs at once, a (K, d) block of tangents (one tangent of each run's Z)
gives each run's ``jvp_state``, and a (K, d) block of cotangents (one
adjoint per run) gives each run's ``vjp_state`` and, as a (K, m) block,
its ``vjp_hyper``. They are written on the last axis, so a 1-D state is
the size-1 case of the same numpy calls, and each row of the block is
bit for bit the result of that row alone (``np.matmul`` runs one gemm
per slice, and ``numerics.row_dot`` one BLAS dot per row). A hyper
direction ``q`` stays one (m,) vector for every row. The objective
decides what a row trains on: the same data for a population, or set
``rows[i]`` of a seed stack for row i (see ``objectives._SoftmaxData``).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .layouts import VectorLayout
from .numerics import ensure_finite, row_dot


class _HyperBinding:
    """A scalar that is either a hyper-layout segment or a constant."""

    def __init__(self, layout: VectorLayout | None, binding, what):
        if isinstance(binding, str):
            if layout is None or binding not in layout:
                raise ValueError(f"hyper layout lacks segment {binding!r} for {what}")
            if layout.length_of(binding) != 1:
                raise DimensionMismatchError(
                    f"{what} segment {binding!r} must be scalar, "
                    f"got length {layout.length_of(binding)}"
                )
            self.index = layout.slice_of(binding).start
        else:
            self.index = None
            self._const = float(binding)

    def value(self, lam):
        """The scalar at ``lam``: (1,) for a vector, (K, 1) for a block."""
        if self.index is None:
            return self._const
        return lam[..., self.index, None]

    def direction(self, q):
        """Component of a hyper-space direction along this scalar."""
        return 0.0 if self.index is None else float(q[self.index])


class GradientDescent:
    """w' = w - eta * grad J_t(w)."""

    kind = "GD"

    def __init__(self, objective, eta="eta"):
        self.objective = objective
        self.hyper_layout = objective.hyper_layout
        self.state_layout = VectorLayout([("w", objective.n_params)])
        self._eta = _HyperBinding(self.hyper_layout, eta, "learning rate")
        self._own = _own_indices(self._eta)

    @property
    def n_state(self):
        return self.state_layout.size

    def init_state(self, w0):
        w0 = np.asarray(w0, dtype=np.float64)
        if len(w0) != self.objective.n_params:
            raise DimensionMismatchError(
                f"w0 has length {len(w0)}, objective expects {self.objective.n_params}"
            )
        return w0.copy()

    def weights_of(self, s):
        return s

    def step(self, s, lam, t):
        eta = self._eta.value(lam)
        out = s - eta * self.objective.grad_w(s, lam, t)
        return ensure_finite(out, "optimization state", step=t)

    def jvp_state(self, s, lam, t, r):
        eta = self._eta.value(lam)
        return r - eta * self.objective.hvp_w(s, lam, t, r)

    # A_t = I - eta H_t is symmetric, so a A_t = (A_t a^T)^T: one product.
    # A name of its own in the class body keeps the calls counted apart.
    vjp_state = jvp_state

    def jvp_hyper(self, s, lam, t, q):
        eta = self._eta.value(lam)
        out = -eta * self.objective.cross_jvp(s, lam, t, q)
        deta = self._eta.direction(q)
        if deta != 0.0:
            out -= deta * self.objective.grad_w(s, lam, t)
        return out

    def vjp_hyper(self, s, lam, t, alpha):
        eta = self._eta.value(lam)
        out = -eta * self.objective.cross_vjp(s, lam, t, alpha)
        if self._eta.index is not None:
            out[..., self._eta.index] -= row_dot(
                alpha, self.objective.grad_w(s, lam, t))
        return out

    def touched_hypers(self, t):
        return _merge_touched(self.objective.touched_hypers(t), self._own)


class Momentum:
    """Heavy-ball updates: v' = mu v + grad J_t(w); w' = w - eta v'.

    The state is concat(v, w). Products split it with precomputed slices
    (one length check per vector) and build their result with a single
    concatenation.
    """

    kind = "GDM"

    def __init__(self, objective, eta="eta", mu="mu"):
        self.objective = objective
        self.hyper_layout = objective.hyper_layout
        d = objective.n_params
        self.state_layout = VectorLayout([("v", d), ("w", d)])
        self._v = self.state_layout.slice_of("v")
        self._w = self.state_layout.slice_of("w")
        self._size = self.state_layout.size
        self._eta = _HyperBinding(self.hyper_layout, eta, "learning rate")
        self._mu = _HyperBinding(self.hyper_layout, mu, "momentum")
        self._own = _own_indices(self._eta, self._mu)

    @property
    def n_state(self):
        return self.state_layout.size

    def init_state(self, w0):
        w0 = np.asarray(w0, dtype=np.float64)
        if len(w0) != self.objective.n_params:
            raise DimensionMismatchError(
                f"w0 has length {len(w0)}, objective expects {self.objective.n_params}"
            )
        return self.state_layout.pack(v=np.zeros_like(w0), w=w0)

    def weights_of(self, s):
        return self._split(s)[1]

    def _split(self, s):
        """(v, w) views of a state-sized vector, or of each row of a block."""
        if s.shape[-1] != self._size:
            raise DimensionMismatchError(
                f"vector has length {s.shape[-1]}, layout expects {self._size}"
            )
        return s[..., self._v], s[..., self._w]

    def step(self, s, lam, t):
        v, w = self._split(s)
        eta, mu = self._eta.value(lam), self._mu.value(lam)
        v_new = mu * v + self.objective.grad_w(w, lam, t)
        out = np.concatenate([v_new, w - eta * v_new], axis=-1)
        return ensure_finite(out, "optimization state", step=t)

    def jvp_state(self, s, lam, t, r):
        _, w = self._split(s)
        rv, rw = self._split(r)
        eta, mu = self._eta.value(lam), self._mu.value(lam)
        dv = mu * rv + self.objective.hvp_w(w, lam, t, rw)
        return np.concatenate([dv, rw - eta * dv], axis=-1)

    def jvp_hyper(self, s, lam, t, q):
        v, w = self._split(s)
        eta, mu = self._eta.value(lam), self._mu.value(lam)
        dv = self.objective.cross_jvp(w, lam, t, q)
        dmu = self._mu.direction(q)
        if dmu != 0.0:
            dv = dv + dmu * v
        dw = -eta * dv
        deta = self._eta.direction(q)
        if deta != 0.0:
            v_new = mu * v + self.objective.grad_w(w, lam, t)
            dw -= deta * v_new
        return np.concatenate([dv, dw], axis=-1)

    def vjp_state(self, s, lam, t, alpha):
        _, w = self._split(s)
        av, aw = self._split(alpha)
        eta, mu = self._eta.value(lam), self._mu.value(lam)
        beta = av - eta * aw
        return np.concatenate(
            [mu * beta, aw + self.objective.hvp_w(w, lam, t, beta)], axis=-1)

    def vjp_hyper(self, s, lam, t, alpha):
        v, w = self._split(s)
        av, aw = self._split(alpha)
        eta, mu = self._eta.value(lam), self._mu.value(lam)
        beta = av - eta * aw
        out = self.objective.cross_vjp(w, lam, t, beta)
        if self._mu.index is not None:
            out[..., self._mu.index] += row_dot(beta, v)
        if self._eta.index is not None:
            v_new = mu * v + self.objective.grad_w(w, lam, t)
            out[..., self._eta.index] -= row_dot(aw, v_new)
        return out

    def touched_hypers(self, t):
        return _merge_touched(self.objective.touched_hypers(t), self._own)


def _own_indices(*bindings):
    """Sorted, read-only hyper indices the optimizer itself reads."""
    # sorted(set()) rather than np.unique: the latter imports numpy.ma
    # (~1.5 MB of peak RSS) in runs that never need it
    own = np.array(sorted({b.index for b in bindings if b.index is not None}),
                   dtype=np.int64)
    own.flags.writeable = False
    return own


def _merge_touched(obj_indices, own):
    """Read-only union of the objective's and the optimizer's indices.

    The union is sorted when both contribute. The optimizer's precomputed
    indices come back as they are when the objective touches none; the
    objective's come back as a read-only view when the optimizer has none.
    """
    if not obj_indices.size:
        return own
    if own.size:
        merged = np.unique(np.concatenate([obj_indices, own]))
    else:
        merged = obj_indices.view()
    merged.flags.writeable = False
    return merged


def materialize_step_jacobians(dyn, s, lam, t):
    """Dense (A_t, B_t) built column-by-column from the products.

    Brute-force helper for the chain oracle and duality tests only; gated
    to small problems so it can never sneak into a production path.
    """
    d = dyn.n_state
    m = len(lam)
    if d * m > 10_000:
        raise ValueError(f"materialization gate: d*m = {d * m} exceeds 10000")
    a = np.empty((d, d))
    for j in range(d):
        r = np.zeros(d)
        r[j] = 1.0
        a[:, j] = dyn.jvp_state(s, lam, t, r)
    b = np.empty((d, m))
    for j in range(m):
        q = np.zeros(m)
        q[j] = 1.0
        b[:, j] = dyn.jvp_hyper(s, lam, t, q)
    return a, b
