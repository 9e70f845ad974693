"""Training objectives and validation errors with exact product oracles.

Every objective exposes the same five operations: scalar value, gradient
in the parameters, Hessian-vector product, and the two mixed
parameter/hyperparameter cross products (forward direction ``cross_jvp``
and reverse direction ``cross_vjp``). The training dynamics build their
step Jacobian products out of exactly these, so the five must agree with
finite differences of ``value`` — the test suite enforces this for every
kind.

The two linear softmax models share one data term (``_SoftmaxData``):
the batch build, the cross-entropy gradient and its Gauss-Newton
product, each example's row weighted and the batch sum scaled.
``WeightedSoftmax`` adds only its example weights (and the 1/N scale),
``MultitaskLinear`` only its coupling/ridge penalty. Their parameter
vectors are laid out as ``concat(W.ravel(), b)`` with W of shape
(n_classes, n_features). The validation error is the mean cross-entropy
of the same model.

The products of both softmax models also take a leading population
axis: a (K, n_params) block of parameter vectors with a (K, m) block of
hyper vectors gives K results, row i bit for bit the result of row i
alone (a direction ``q`` of ``cross_jvp`` stays one (m,) vector). The
kernels below are written on the last axes for this, so a single vector
runs the same arithmetic through the same views. Either model can also
hold a seed stack (``datasets.SeedStack``, for ``WeightedSoftmax``
with unit weights only): S training sets, each with its own minibatch
schedule, where row i of a (S, n_params) block trains on set i, each
row bit for bit what set i alone gives. ``take`` maps the rows of a
block onto the sets (a set may serve several rows). Example weights
given as hypers take (K, m) blocks too (a stack takes unit weights
only), and a stack has no ``value``.
"""

from __future__ import annotations

import copy
from collections import namedtuple
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .datasets import (Dataset, MinibatchSchedule, SeedStack,
                       full_batch_schedule)
from .errors import DimensionMismatchError
from .layouts import VectorLayout
from .numerics import ensure_finite_scalar, make_rng, row_dot

# ---------------------------------------------------------------------------
# Shared softmax cross-entropy kernels


def softmax_rows(scores):
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_rows(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def unpack_linear(w, n_classes, n_features):
    """Split a flat parameter vector (or each row of a block) into (W, b)."""
    n_mat = n_classes * n_features
    if w.shape[-1] != n_mat + n_classes:
        raise DimensionMismatchError(
            f"parameter vector has length {w.shape[-1]}, model expects "
            f"{n_mat + n_classes}"
        )
    mat = w[..., :n_mat].reshape(*w.shape[:-1], n_classes, n_features)
    return mat, w[..., n_mat:]


def pack_linear(mat, bias):
    """Flatten (W, b) into one vector (or each row of a block into one row)."""
    return np.concatenate([mat.reshape(*bias.shape[:-1], -1), bias], axis=-1)


def _ce_losses(x, y, mat, bias):
    """Per-example cross-entropy of a linear softmax model."""
    logp = _log_softmax_rows(x @ mat.T + bias)
    return -logp[np.arange(len(y)), y]


def _assemble_wgrad(coefs, x, scale=None):
    """Sum_i outer(coefs_i, x_i) and the bias part, flattened, times ``scale``.

    Both blocks are written into one vector and scaled in place. With
    (K, b, k) coefficients the result is one such vector per row: the
    same matmul (one gemm per slice) and sum over the examples.
    """
    k, f, lead = coefs.shape[-1], x.shape[-1], coefs.shape[:-2]
    out = np.empty((*lead, k * f + k))
    np.matmul(coefs.swapaxes(-1, -2), x,
              out=out[..., : k * f].reshape(*lead, k, f))
    coefs.sum(axis=-2, out=out[..., k * f :])
    if scale is not None:
        out *= scale
    return out


def _gauss_newton_dirs(p, u):
    """Rows (diag(p_i) - p_i p_i^T) u_i for each example."""
    pu = p * u
    return pu - p * pu.sum(axis=-1, keepdims=True)


def _batch_rows(dataset, schedule, t):
    """(idx, x, y) of minibatch ``t``.

    A full batch over a C-contiguous feature matrix reads the dataset in
    place instead of gathering an identical copy.
    """
    idx = schedule.indices(t)
    x, y = dataset.features, dataset.labels
    if schedule.full_batch and schedule.n == len(x) and x.flags.c_contiguous:
        return idx, x, y
    return idx, x[idx], y[idx]


class _Batch:
    """Softmax quantities of one step at one w.

    ``p`` holds the (read-only) probabilities, computed unless given;
    the read-only coefficients ``g = p - onehot`` are derived from them
    on first use, with the batch's rows of the objective's read-only
    one-hot labels. ``grad`` is filled by objectives whose gradient
    depends on (t, w) only. Over a seed stack, ``idx`` is (K, b) and
    row i of ``x``, ``onehot``, ``p`` and ``g`` is the minibatch of set
    ``rows[i]`` (see ``_SoftmaxData._stack_batch``).
    """

    __slots__ = ("idx", "x", "y", "onehot", "p", "_g", "grad")

    def __init__(self, obj, t, w, p=None):
        rows = obj._rows
        if rows is None:
            self.idx, self.x, self.y = _batch_rows(obj.dataset, obj.schedule,
                                                   t)
            # a full batch read in place takes the whole one-hot as it is
            self.onehot = (obj._onehot if self.y is obj.dataset.labels
                           else obj._onehot[self.idx])
        else:
            if w.shape[:-1] != rows.shape:
                raise DimensionMismatchError(
                    f"a stack of {len(rows)} rows takes "
                    f"({len(rows)}, {obj.n_params}) blocks, got {w.shape}")
            self.idx, self.x, self.y, self.onehot = obj._stack_batch(t)
        if p is None:
            mat, bias = unpack_linear(w, obj.n_classes, obj.n_features)
            p = _frozen(softmax_rows(self.x @ mat.swapaxes(-1, -2)
                                     + bias[..., None, :]))
        self.p = p
        self._g = None
        self.grad = None

    @property
    def g(self):
        if self._g is None:  # per-example dloss/dlogits
            self._g = _frozen(self.p - self.onehot)
        return self._g


# size of the (t, w) memo; the oldest entry is evicted first
_MEMO_ENTRIES = 4


class _BatchCache:
    """Memo of per-step softmax quantities keyed by (t, parameter bytes).

    Within one training step the dynamics evaluate several products at
    the same (t, w); caching the shared probabilities keeps forward-mode
    cost at one matrix pass per product instead of several. Pure
    speedup: every entry is a function of the key only. A lookup
    compares t first and reads w's bytes only when some entry has the
    same t and shape; the oldest entry is evicted first.

    Inside ``trajectory()`` the cache also keeps, for every step t, the
    probabilities built at a read-only w together with that w, so the
    reverse sweep over a recorded tape reuses the recording pass's
    softmax. Such an entry serves only a read-only w at the same t with
    the same content; writable vectors (a replay from a copy, say) are
    neither served nor kept.
    """

    def __init__(self):
        self._entries = []  # (t, w shape, w bytes, entry), oldest first
        self._steps = None  # t -> (read-only w, p) inside trajectory()

    @contextmanager
    def trajectory(self):
        """Keep one step's probabilities per t until the block exits."""
        outer, self._steps = self._steps, {}
        try:
            yield
        finally:
            self._steps = outer

    def clear(self):
        """Drop the (t, w) memo; what ``trajectory()`` keeps stays."""
        self._entries.clear()

    def get(self, obj, t, w):
        key = None
        for entry_t, entry_shape, entry_key, entry in self._entries:
            if entry_t == t and entry_shape == w.shape:
                if key is None:
                    key = w.tobytes()
                if entry_key == key:
                    return entry
        steps = self._steps
        if steps is not None and _read_only(w):
            kept = steps.get(t)
            if kept is not None and (kept[0] is w or np.array_equal(kept[0], w)):
                entry = _Batch(obj, t, w, kept[1])
            else:
                entry = _Batch(obj, t, w)
                steps[t] = (w, entry.p)
        else:
            entry = _Batch(obj, t, w)
        if len(self._entries) >= _MEMO_ENTRIES:
            del self._entries[0]
        self._entries.append((t, w.shape, w.tobytes() if key is None else key,
                              entry))
        return entry


def _read_only(w):
    """True when neither ``w`` nor the array owning its memory is writable."""
    base = w if w.base is None else w.base
    return (not w.flags.writeable and isinstance(base, np.ndarray)
            and not base.flags.writeable)


def _trajectory_scope(objective):
    """The objective's trajectory() scope, or a no-op if it has no cache."""
    cache = getattr(objective, "_cache", None)
    return nullcontext() if cache is None else cache.trajectory()


def _clear_memo(objective):
    """Empty the objective's (t, w) memo, if it has one."""
    cache = getattr(objective, "_cache", None)
    if cache is not None:
        cache.clear()


# the index set of an objective that touches no hypers, shared read-only
_NO_HYPERS = np.empty(0, dtype=np.int64)
_NO_HYPERS.flags.writeable = False


# ---------------------------------------------------------------------------
# Objective kinds


class QuadraticToy:
    """J(w) = 0.5 ||w||^2, independent of data and hyperparameters."""

    def __init__(self, n_params, hyper_layout=None):
        self.n_params = n_params
        self.hyper_layout = hyper_layout

    def value(self, w, lam, t):
        return 0.5 * float(w @ w)

    def grad_w(self, w, lam, t):
        return w.copy()

    def hvp_w(self, w, lam, t, r):
        return r.copy()

    def cross_jvp(self, w, lam, t, q):
        return np.zeros_like(w)

    def cross_vjp(self, w, lam, t, alpha):
        return np.zeros_like(lam)

    def touched_hypers(self, t):
        return _NO_HYPERS


class _SoftmaxData:
    """Cross-entropy data term of a linear softmax model, batch by batch.

    What both softmax objectives share: the dataset and its shapes, the
    schedule (full batch by default), the read-only one-hot labels and
    the per-step batch memo. The data term's gradient and Gauss-Newton
    product weight each example's row (``_weighted``: unit weights
    unless a subclass says otherwise) and then scale the batch sum by
    ``_scale`` (none unless a subclass sets one).

    ``dataset`` may be a ``SeedStack`` of S training sets, with one
    schedule per set (all full batch by default; all of one shape):
    the products then take (K, n_params) blocks whose row i trains on
    set ``rows[i]`` with that set's schedule. At first the rows are the
    sets in order (K = S); ``take`` picks other rows.
    """

    _scale = None
    _rows = None  # seed stacks: the set each row of a block trains on

    def __init__(self, dataset: Dataset | SeedStack,
                 hyper_layout: VectorLayout | None,
                 schedule: MinibatchSchedule | None):
        self.dataset = dataset
        self.n_classes = int(dataset.n_classes)
        self.n_features = dataset.n_features
        self.n_params = self.n_classes * (self.n_features + 1)
        self.hyper_layout = hyper_layout
        if isinstance(dataset, SeedStack):
            self.schedule = (tuple(schedule) if schedule is not None else
                             (full_batch_schedule(dataset.n),) * len(dataset))
            shapes = {(sched.n, sched.batch_size) for sched in self.schedule}
            if (len(self.schedule) != len(dataset) or len(shapes) != 1
                    or shapes.pop()[0] != dataset.n):
                raise ValueError(
                    f"a seed stack of {len(dataset)} training sets takes one "
                    f"schedule per set, all over its {dataset.n} examples "
                    f"with one batch size")
            self._rows = np.arange(len(dataset))
            self._onehot = None  # each batch builds its one-hot instead
        else:
            self.schedule = schedule or full_batch_schedule(dataset.n)
            self._onehot = _frozen(_onehot(dataset.labels, self.n_classes))
        self._full = None  # a stack's full batch, built on first use
        self._cache = _BatchCache()

    def take(self, rows):
        """This objective with its block rows mapped to the sets ``rows``.

        ``rows`` indexes the current rows: a boolean mask keeps some of
        them, an index array may also repeat them, so that several rows
        train on one set. The training sets stay where they are; each
        row keeps its set's schedule, and the copy starts an empty batch
        memo.
        """
        pick = np.arange(len(self._rows))[rows]
        sub = copy.copy(self)
        sub._rows = self._rows[pick]
        sub.schedule = tuple(self.schedule[i] for i in pick)
        sub._full = None
        sub._cache = _BatchCache()
        return sub

    def _stack_batch(self, t):
        """(idx, x, y, one-hot) of minibatch ``t``, row i from set rows[i].

        A full batch is built once per objective: the stack's own arrays
        when the rows are its sets in order (read in place), else one
        read-only gathered copy. A minibatch gathers its rows at every
        build. The one-hot is bool: p - onehot has the bits of p - 1.0
        and p - 0.0, and the stack keeps none of its own.
        """
        if self._full is not None:
            return self._full
        rows, data = self._rows, self.dataset
        idx = np.stack([sched.indices(t) for sched in self.schedule])
        if not self.schedule[0].full_batch:  # the schedules share one shape
            at = (rows[:, None], idx)
            x, y = data.features[at], data.labels[at]
            return idx, x, y, y[..., None] == np.arange(self.n_classes)
        if (np.array_equal(rows, np.arange(len(data)))
                and data.features.flags.c_contiguous):
            x, y = data.features, data.labels
        else:
            x, y = _frozen(data.features[rows]), _frozen(data.labels[rows])
        self._full = (_frozen(idx), x, y,
                      _frozen(y[..., None] == np.arange(self.n_classes)))
        return self._full

    def _unpack(self, v):
        return unpack_linear(v, self.n_classes, self.n_features)

    def _batch(self, t, w):
        return self._cache.get(self, t, w)

    def _losses(self, w, t):
        """(indices, per-example cross-entropies) of minibatch ``t`` at w."""
        if self._rows is not None:
            raise DimensionMismatchError(
                "a seed stack has no value: take its training sets one by one")
        idx, x, y = _batch_rows(self.dataset, self.schedule, t)
        return idx, _ce_losses(x, y, *self._unpack(w))

    def _weighted(self, rows, idx, lam):
        """Each example's row times its weight (here all ones)."""
        return rows

    def _data_grad(self, b, lam):
        """Gradient of the data term over the cached batch ``b``."""
        return _assemble_wgrad(self._weighted(b.g, b.idx, lam), b.x,
                               self._scale)

    def _data_hvp(self, b, lam, rmat, rb):
        """Gauss-Newton (here exact Hessian) product with r = (rmat, rb).

        Written as the batch build is, so a (S, ...) block of directions
        over a seed stack gives one product per row.
        """
        v = _gauss_newton_dirs(b.p, b.x @ rmat.swapaxes(-1, -2)
                               + rb[..., None, :])
        return _assemble_wgrad(self._weighted(v, b.idx, lam), b.x,
                               self._scale)


class WeightedSoftmax(_SoftmaxData):
    """Softmax regression with one weight per training example.

    J_t(w; lam) = (1/N) sum_{i in batch t} c_i * ce_i(w), where N is the
    full training-set size (so minibatch and full-batch formulations
    agree in expectation) and c is the ``weight_segment`` slice of the
    hyper vector, or all ones when ``weight_segment`` is None. With unit
    weights the gradient depends on (t, w) only, so it is built once per
    cached batch and returned read-only.

    With unit weights ``dataset`` may be a ``SeedStack`` (see
    ``_SoftmaxData``).
    """

    def __init__(self, dataset: Dataset | SeedStack,
                 hyper_layout: VectorLayout | None = None,
                 schedule: MinibatchSchedule | None = None,
                 weight_segment: str | None = "weights"):
        super().__init__(dataset, hyper_layout, schedule)
        self.weight_segment = weight_segment
        self._unit = None
        if self._rows is not None:
            if weight_segment is not None:
                raise ValueError(f"a seed stack of {len(dataset)} training "
                                 f"sets takes unit weights")
        elif weight_segment is not None:
            _segment(hyper_layout, weight_segment, dataset.n)  # one per example
        else:
            # value() dots the losses with these, exactly as it dots them
            # with all-ones weights passed as hypers
            self._unit = _frozen(np.ones(dataset.n))
        self._scale = 1.0 / dataset.n

    def _weights(self, lam):
        """The example weights; a (K, n) block of them for a (K, m) lam."""
        if self.weight_segment is None:
            return self._unit
        if lam.shape[-1] != self.hyper_layout.size:
            raise DimensionMismatchError(f"hyper vector has length {lam.shape[-1]}, "
                                         f"layout expects {self.hyper_layout.size}")
        return lam[..., self.hyper_layout.slice_of(self.weight_segment)]

    def _weighted(self, rows, idx, lam):
        if self.weight_segment is None:
            return rows
        return rows * self._weights(lam).take(idx, axis=-1)[..., None]

    def value(self, w, lam, t):
        idx, losses = self._losses(w, t)
        c = self._weights(lam)[idx]
        return ensure_finite_scalar(self._scale * float(c @ losses),
                                    "training objective", step=t)

    def grad_w(self, w, lam, t):
        b = self._batch(t, w)
        if b.grad is not None:
            return b.grad
        grad = self._data_grad(b, lam)
        if self.weight_segment is None:  # unit weights: one per (t, w)
            b.grad = _frozen(grad)
        return grad

    def hvp_w(self, w, lam, t, r):
        return self._data_hvp(self._batch(t, w), lam, *self._unpack(r))

    def cross_jvp(self, w, lam, t, q):
        if self.weight_segment is None:
            return np.zeros_like(w)
        b = self._batch(t, w)
        idx, x, g = b.idx, b.x, b.g
        qb = self.hyper_layout.get(q, self.weight_segment)[idx]
        nz = np.nonzero(qb)[0]
        if nz.size == 0:
            return np.zeros_like(w)
        if nz.size == 1:
            # unit-direction case (B-column assembly): one example's
            # gradient, no batch-wide pass needed
            i, gi = int(nz[0]), g[..., nz[0], :]
            return (self._scale * qb[i]) * pack_linear(gi[..., None] * x[i], gi)
        return _assemble_wgrad(g * qb[:, None], x, self._scale)

    def cross_vjp(self, w, lam, t, alpha):
        out = np.zeros_like(lam)
        if self.weight_segment is None:
            return out
        b = self._batch(t, w)
        amat, ab = self._unpack(alpha)
        # alpha . grad(ce_i) for each batch example, in one pass
        per_example = ((b.x @ amat.swapaxes(-1, -2) + ab[..., None, :])
                       * b.g).sum(axis=-1)
        seg = self.hyper_layout.slice_of(self.weight_segment)
        out[..., seg.start + b.idx] = self._scale * per_example
        return out

    def touched_hypers(self, t):
        if self.weight_segment is None:
            return _NO_HYPERS
        seg = self.hyper_layout.slice_of(self.weight_segment)
        return np.sort(seg.start + self.schedule.indices(t))


class MultitaskLinear(_SoftmaxData):
    """Softmax regression with a task-interaction penalty.

    The regularizer couples the per-class weight rows:

        reg(W) = sum_{j,k} C[j,k] ||w_j - w_k||^2 + sum_k rho_k ||w_k||^2

    with C symmetric nonnegative. ``coupling`` selects how C enters:
    "full" (a KxK "coupling" hyper block of which only the upper
    triangle is read, mirrored to the lower half, so symmetry holds
    structurally), "uniform" (a single shared "coupling" entry a with
    C = a * ones), or "none" (C = 0, plain ridge softmax). ``rho`` is
    the hyper vector's "rho" segment; it is a scalar unless
    ``per_task_rho`` is set (one entry per class; used by the
    single-task grid baseline).

    The data term is the batch sum of cross-entropies, and the penalty
    is scaled by batch/n, so one full pass matches the full-batch
    objective. ``dataset`` may be a ``SeedStack`` (see ``_SoftmaxData``).
    """

    def __init__(self, dataset: Dataset | SeedStack,
                 hyper_layout: VectorLayout | None = None,
                 schedule: MinibatchSchedule | None = None,
                 coupling="full", per_task_rho=False):
        super().__init__(dataset, hyper_layout, schedule)
        if coupling not in ("full", "uniform", "none"):
            raise ValueError(f"unknown coupling mode {coupling!r}")
        self.coupling = coupling
        self.per_task_rho = per_task_rho

        k = self.n_classes
        self._coupling_slice = None
        if coupling != "none":
            self._coupling_slice = _segment(hyper_layout, "coupling",
                                            k * k if coupling == "full" else 1)
        self._rho_slice = _segment(hyper_layout, "rho",
                                   k if per_task_rho else 1)
        # the masks np.triu(., 0) and np.triu(., 1) zero out, built once
        self._below_diag = np.tri(k, k=-1, dtype=bool)
        self._on_or_below_diag = np.tri(k, dtype=bool)
        self._bound_key = None
        self._bound = None

    # -- hyper access -------------------------------------------------

    def _symmetrize(self, raw):
        """Upper triangle of ``raw`` (diagonal included) mirrored below it."""
        upper = np.where(self._below_diag, 0.0, raw)
        return upper + np.where(self._on_or_below_diag, 0.0,
                                raw).swapaxes(-1, -2)

    def _bind(self, lam):
        """The lambda-only terms of the penalty, built once per distinct lam.

        Keyed on lam's shape and bytes, so a lam mutated in place is
        rebuilt; the arrays are private copies and read-only. A (K, m)
        lam block binds one penalty per row.
        """
        key = (lam.shape, lam.tobytes())
        if key != self._bound_key:
            k, lead = self.n_classes, lam.shape[:-1]
            layout = self.hyper_layout
            if layout is not None and lam.shape[-1] != layout.size:
                raise DimensionMismatchError(
                    f"hyper vector has length {lam.shape[-1]}, layout "
                    f"expects {layout.size}")
            if self.coupling == "none":
                c = np.zeros((k, k))
            elif self.coupling == "uniform":
                a = lam[..., self._coupling_slice, None]
                c = np.broadcast_to(a, (*lead, k, k)).copy()
            else:
                raw = lam[..., self._coupling_slice].reshape(*lead, k, k)
                c = self._symmetrize(raw)
            rho = lam[..., self._rho_slice].copy()
            if not self.per_task_rho:
                rho = np.broadcast_to(rho, (*lead, k))
            self._bound = _BoundPenalty(_frozen(c), _frozen(rho),
                                        *map(_frozen, _penalty_factors(c, rho)))
            self._bound_key = key
        return self._bound

    def _coupling_matrix(self, lam):
        return self._bind(lam).coupling

    def regularizer(self, w, lam):
        """The penalty term alone, full-strength (no batch scaling)."""
        mat, _ = self._unpack(w)
        bound = self._bind(lam)
        sq = (mat * mat).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
        return float((bound.coupling * d).sum() + bound.rho @ sq)

    # -- objective interface -------------------------------------------

    def _frac(self, t):
        """Minibatch ``t``'s share of the training set: the penalty's weight."""
        # the schedules of a stack's rows share one shape
        sched = self.schedule if self._rows is None else self.schedule[0]
        size = sched.n if sched.full_batch else len(sched.indices(t))
        return size / self.dataset.n

    def value(self, w, lam, t):
        _, losses = self._losses(w, t)
        return ensure_finite_scalar(
            float(losses.sum()) + self._frac(t) * self.regularizer(w, lam),
            "training objective", step=t)

    def grad_w(self, w, lam, t):
        out = self._data_grad(self._batch(t, w), lam)
        mat, _ = self._unpack(w)
        bound = self._bind(lam)
        reg = _reg_grad_mat(mat, bound.lap4, bound.rho2)
        n_mat = mat.shape[-2] * mat.shape[-1]
        out[..., :n_mat] += self._frac(t) * reg.reshape(*out.shape[:-1], n_mat)
        return out

    def hvp_w(self, w, lam, t, r):
        b = self._batch(t, w)
        rmat, rb = self._unpack(r)
        out = self._data_hvp(b, lam, rmat, rb)
        bound = self._bind(lam)
        reg = _reg_grad_mat(rmat, bound.lap4, bound.rho2)
        n_mat = rmat.shape[-2] * rmat.shape[-1]
        out[..., :n_mat] += self._frac(t) * reg.reshape(*out.shape[:-1], n_mat)
        return out

    def cross_jvp(self, w, lam, t, q):
        mat, _ = self._unpack(w)
        if self.hyper_layout is not None and len(q) != self.hyper_layout.size:
            raise DimensionMismatchError(
                f"vector has length {len(q)}, layout expects {self.hyper_layout.size}"
            )
        k = self.n_classes
        acc = np.zeros_like(mat)
        if self._coupling_slice is not None:
            if self.coupling == "uniform":
                qa = q[self._coupling_slice][0]
                if qa != 0.0:
                    ones = np.full((k, k), qa)
                    acc += _reg_grad_mat(mat, *_penalty_factors(ones, np.zeros(k)))
            else:
                qeff = self._symmetrize(q[self._coupling_slice].reshape(k, k))
                if np.any(qeff):
                    acc += _reg_grad_mat(mat, *_penalty_factors(qeff, np.zeros(k)))
        qr = q[self._rho_slice]
        rho_dir = qr if self.per_task_rho else np.broadcast_to(qr, (k,))
        acc += 2.0 * rho_dir[:, None] * mat
        out = np.zeros_like(w)
        n_mat = k * self.n_features
        out[..., :n_mat] = self._frac(t) * acc.reshape(*w.shape[:-1], n_mat)
        return out

    def cross_vjp(self, w, lam, t, alpha):
        mat, _ = self._unpack(w)
        amat, _ = self._unpack(alpha)
        k, lead = self.n_classes, amat.shape[:-2]
        frac = self._frac(t)
        out = np.zeros_like(lam)
        prod = amat * mat
        if self._coupling_slice is not None:
            if self.coupling == "uniform":
                # the flat sum of a (k, f) slice, and a BLAS dot, per row
                val = 4.0 * (k * prod.reshape(*lead, -1).sum(axis=-1)
                             - row_dot(amat.sum(axis=-2), mat.sum(axis=-2)))
                out[..., self._coupling_slice] = frac * np.reshape(
                    val, (*lead, 1))
            else:
                # d<alpha, grad_W reg>/dC[j,k] for stored upper entries:
                # 4 (a_j - a_k).(w_j - w_k)
                m = amat @ mat.swapaxes(-1, -2)
                diag = np.diagonal(m, axis1=-2, axis2=-1)
                pair = (diag[..., :, None] + diag[..., None, :] - m
                        - m.swapaxes(-1, -2))
                vals = np.where(self._on_or_below_diag, 0.0, 4.0 * pair)
                out[..., self._coupling_slice] = frac * vals.reshape(
                    *lead, k * k)
        per_task = 2.0 * prod.sum(axis=-1)
        out[..., self._rho_slice] = frac * (
            per_task if self.per_task_rho
            else per_task.sum(axis=-1, keepdims=True))
        return out

    def touched_hypers(self, t):
        rho = self.hyper_layout.indices("rho")
        if self._coupling_slice is None:
            return rho
        return np.concatenate([self.hyper_layout.indices("coupling"), rho])


def _segment(layout, name, want):
    """Slice of segment ``name`` in ``layout``, which must have length ``want``."""
    if layout is None or name not in layout:
        raise ValueError(f"hyper layout lacks segment {name!r}")
    if layout.length_of(name) != want:
        raise DimensionMismatchError(
            f"{name} segment must have length {want}, got "
            f"{layout.length_of(name)}"
        )
    return layout.slice_of(name)


# The lambda-only terms of MultitaskLinear's penalty at one lam (or one
# per row of a lam block): the symmetric C, the per-class ridge
# strengths, 4 (diag(C 1) - C) and 2 rho as a column.
_BoundPenalty = namedtuple("_BoundPenalty", "coupling rho lap4 rho2")


def _penalty_factors(c, rho):
    """(4 L, 2 rho[..., None]) for coupling ``c``, L its graph Laplacian."""
    diag = np.zeros(c.shape)  # np.diag of the row sums, per matrix
    on = np.arange(c.shape[-1])
    diag[..., on, on] = c.sum(axis=-1)
    return 4.0 * (diag - c), 2.0 * rho[..., None]


def _reg_grad_mat(mat, lap4, rho2):
    """Gradient of the penalty in the weight rows: 4 L W + 2 rho * W."""
    return lap4 @ mat + rho2 * mat


def _frozen(arr):
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Validation errors


class QuadraticValidation:
    """E(w) = 0.5 ||w - center||^2 on the weight block."""

    def __init__(self, n_params, center=None):
        self.n_params = n_params
        self.center = (np.zeros(n_params) if center is None
                       else np.asarray(center, dtype=np.float64))

    def value(self, w):
        d = w - self.center
        return 0.5 * float(d @ d)

    def grad(self, w):
        return w - self.center


@dataclass
class DatasetValidation:
    """Mean cross-entropy of the linear softmax model on a validation set.

    When ``subset_size`` is set, a fixed random subset drawn once from
    ``subset_seed`` is used instead of the full set, mirroring
    stream-mode evaluation on a sampled validation slice; the value is
    still deterministic given the seed.
    """

    dataset: Dataset
    subset_size: int | None = None
    subset_seed: int = 0

    def __post_init__(self):
        self.n_classes = int(self.dataset.n_classes)
        self.n_features = self.dataset.n_features
        self.n_params = self.n_classes * (self.n_features + 1)
        if self.subset_size is not None and self.subset_size < self.dataset.n:
            rng = make_rng(self.subset_seed, 0x5B5E7)
            idx = rng.choice(self.dataset.n, size=self.subset_size, replace=False)
            self._x = self.dataset.features[np.sort(idx)]
            self._y = self.dataset.labels[np.sort(idx)]
        else:
            self._x = self.dataset.features
            self._y = self.dataset.labels

    def value(self, w):
        mat, bias = unpack_linear(w, self.n_classes, self.n_features)
        val = float(_ce_losses(self._x, self._y, mat, bias).mean())
        return ensure_finite_scalar(val, "validation error")

    def grad(self, w):
        mat, bias = unpack_linear(w, self.n_classes, self.n_features)
        g = softmax_rows(self._x @ mat.T + bias) - self._targets
        return _assemble_wgrad(g, self._x) / len(self._y)

    @cached_property
    def _targets(self):
        """One-hot labels, read-only, built on the first ``grad``."""
        return _frozen(_onehot(self._y, self.n_classes))

    def accuracy(self, w):
        mat, bias = unpack_linear(w, self.n_classes, self.n_features)
        pred = (self._x @ mat.T + bias).argmax(axis=1)
        return float((pred == self._y).mean())


def _onehot(y, k):
    out = np.zeros((len(y), k))
    out[np.arange(len(y)), y] = 1.0
    return out


def val_value(val, state, state_layout) -> float:
    """Validation error at a full optimization state (reads the w block)."""
    return val.value(state_layout.get(state, "w"))


def val_grad_state(val, state, state_layout) -> np.ndarray:
    """Row gradient of the validation error over the full state.

    Zero on every non-weight block (the error depends on weights only).
    """
    out = np.zeros_like(state)
    sl = state_layout.slice_of("w")
    out[sl] = val.grad(state[sl])
    return out
