"""Training objectives and validation errors with exact product oracles.

Every objective exposes the same five operations: scalar value, gradient
in the parameters, Hessian-vector product, and the two mixed
parameter/hyperparameter cross products (forward direction ``cross_jvp``
and reverse direction ``cross_vjp``). The training dynamics build their
step Jacobian products out of exactly these, so the five must agree with
finite differences of ``value`` — the test suite enforces this for every
kind.

Parameter vectors for the linear softmax models are laid out as
``concat(W.ravel(), b)`` with W of shape (n_classes, n_features).
"""

from __future__ import annotations

from collections import namedtuple
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset, MinibatchSchedule, full_batch_schedule
from .errors import DimensionMismatchError
from .layouts import VectorLayout
from .numerics import ensure_finite_scalar, make_rng

# ---------------------------------------------------------------------------
# Shared softmax cross-entropy kernels


def softmax_rows(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax_rows(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def unpack_linear(w, n_classes, n_features):
    """Split a flat parameter vector into (W, b)."""
    expected = n_classes * n_features + n_classes
    if len(w) != expected:
        raise DimensionMismatchError(
            f"parameter vector has length {len(w)}, model expects {expected}"
        )
    mat = w[: n_classes * n_features].reshape(n_classes, n_features)
    bias = w[n_classes * n_features :]
    return mat, bias


def pack_linear(mat, bias):
    return np.concatenate([mat.ravel(), bias])


def _ce_losses(x, y, mat, bias):
    """Per-example cross-entropy of a linear softmax model."""
    logp = _log_softmax_rows(x @ mat.T + bias)
    return -logp[np.arange(len(y)), y]


def _grad_coefs(p, y):
    """Per-example dloss/dlogits = p - onehot(y) from the probabilities p."""
    g = p.copy()
    g[np.arange(len(y)), y] -= 1.0
    return g


def _assemble_wgrad(coefs, x, scale=None):
    """Sum_i outer(coefs_i, x_i) and the bias part, flattened, times ``scale``.

    Both blocks are written into one vector and scaled in place.
    """
    k, f = coefs.shape[1], x.shape[1]
    out = np.empty(k * f + k)
    np.matmul(coefs.T, x, out=out[: k * f].reshape(k, f))
    coefs.sum(axis=0, out=out[k * f :])
    if scale is not None:
        out *= scale
    return out


def _gauss_newton_dirs(p, u):
    """Rows (diag(p_i) - p_i p_i^T) u_i for each example."""
    pu = p * u
    return pu - p * pu.sum(axis=1, keepdims=True)


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
    the coefficients ``g = p - onehot`` are derived from them on first
    use. ``frac`` is the batch's share of the training set; ``grad`` is
    filled by objectives whose gradient depends on (t, w) only.
    """

    __slots__ = ("idx", "x", "y", "p", "_g", "frac", "grad")

    def __init__(self, obj, t, w, p=None):
        self.idx, self.x, self.y = _batch_rows(obj.dataset, obj.schedule, t)
        if p is None:
            mat, bias = unpack_linear(w, obj.n_classes, obj.n_features)
            p = _frozen(softmax_rows(self.x @ mat.T + bias))
        self.p = p
        self._g = None
        self.frac = len(self.idx) / obj.dataset.n
        self.grad = None

    @property
    def g(self):
        if self._g is None:
            self._g = _grad_coefs(self.p, self.y)
        return self._g


class _BatchCache:
    """Memo of per-step softmax quantities keyed by (t, parameter bytes).

    Within one training step the dynamics evaluate several products at
    the same (t, w); caching the shared probabilities keeps forward-mode
    cost at one matrix pass per product instead of several. Pure
    speedup: every entry is a function of the key only. A lookup
    compares t first and reads w's bytes only when some entry has the
    same t; the oldest entry is evicted first.

    Inside ``trajectory()`` the cache also keeps, for every step t, the
    probabilities built at a read-only w together with that w, so the
    reverse sweep over a recorded tape reuses the recording pass's
    softmax. Such an entry serves only a read-only w at the same t with
    the same content; writable vectors (a replay from a copy, say) are
    neither served nor kept.
    """

    def __init__(self, maxsize=4):
        self._entries = []  # (t, w bytes, entry), oldest first
        self._maxsize = maxsize
        self._steps = None  # t -> (read-only w, p) inside trajectory()

    @contextmanager
    def trajectory(self):
        """Keep one step's probabilities per t until the block exits."""
        outer, self._steps = self._steps, {}
        try:
            yield
        finally:
            self._steps = outer

    def get(self, obj, t, w):
        key = None
        for entry_t, entry_key, entry in self._entries:
            if entry_t == t:
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
        if len(self._entries) >= self._maxsize:
            del self._entries[0]
        self._entries.append((t, w.tobytes() if key is None else key, entry))
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


class WeightedSoftmax:
    """Softmax regression with one weight per training example.

    J_t(w; lam) = (1/N) sum_{i in batch t} c_i * ce_i(w), where N is the
    full training-set size (so minibatch and full-batch formulations
    agree in expectation) and c is either the ``weight_segment`` slice of
    the hyper vector or a fixed constant vector (all ones by default).
    With constant weights the gradient depends on (t, w) only, so it is
    built once per cached batch and returned read-only.
    """

    def __init__(self, dataset: Dataset, hyper_layout: VectorLayout | None = None,
                 schedule: MinibatchSchedule | None = None,
                 weight_segment: str | None = "weights",
                 fixed_weights=None):
        if dataset.features is None or dataset.labels is None:
            raise ValueError("WeightedSoftmax needs features and integer labels")
        self.dataset = dataset
        self.n_classes = int(dataset.n_classes)
        self.n_features = dataset.n_features
        self.n_params = self.n_classes * (self.n_features + 1)
        self.schedule = schedule or full_batch_schedule(dataset.n)
        self.hyper_layout = hyper_layout
        self.weight_segment = weight_segment
        if weight_segment is not None:
            if hyper_layout is None or weight_segment not in hyper_layout:
                raise ValueError(f"hyper layout lacks segment {weight_segment!r}")
            if hyper_layout.length_of(weight_segment) != dataset.n:
                raise DimensionMismatchError(
                    f"segment {weight_segment!r} has length "
                    f"{hyper_layout.length_of(weight_segment)}, need one weight "
                    f"per example ({dataset.n})"
                )
            self.fixed_weights = None
        else:
            self.fixed_weights = _frozen(
                np.ones(dataset.n) if fixed_weights is None
                else np.array(fixed_weights, dtype=np.float64))
        # all-ones weights leave each example's row as it is
        self._unit_weights = weight_segment is None and fixed_weights is None
        self._scale = 1.0 / dataset.n
        self._cache = _BatchCache()

    def _weights(self, lam):
        if self.weight_segment is None:
            return self.fixed_weights
        return self.hyper_layout.get(lam, self.weight_segment)

    def _weighted(self, rows, idx, lam):
        """Each example's row times its weight c_i."""
        if self._unit_weights:
            return rows
        return rows * self._weights(lam)[idx][:, None]

    def _batch(self, t, w):
        return self._cache.get(self, t, w)

    def value(self, w, lam, t):
        idx, x, y = _batch_rows(self.dataset, self.schedule, t)
        losses = _ce_losses(x, y, *unpack_linear(w, self.n_classes, self.n_features))
        c = self._weights(lam)[idx]
        return ensure_finite_scalar(self._scale * float(c @ losses),
                                    "training objective", step=t)

    def grad_w(self, w, lam, t):
        b = self._batch(t, w)
        if b.grad is not None:
            return b.grad
        grad = _assemble_wgrad(self._weighted(b.g, b.idx, lam), b.x, self._scale)
        if self.weight_segment is None:  # constant weights: one per (t, w)
            b.grad = _frozen(grad)
        return grad

    def hvp_w(self, w, lam, t, r):
        b = self._batch(t, w)
        rmat, rb = unpack_linear(r, self.n_classes, self.n_features)
        v = _gauss_newton_dirs(b.p, b.x @ rmat.T + rb)
        return _assemble_wgrad(self._weighted(v, b.idx, lam), b.x, self._scale)

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
            i = int(nz[0])
            return (self._scale * qb[i]) * pack_linear(np.outer(g[i], x[i]), g[i])
        return _assemble_wgrad(g * qb[:, None], x, self._scale)

    def cross_vjp(self, w, lam, t, alpha):
        out = np.zeros_like(lam)
        if self.weight_segment is None:
            return out
        b = self._batch(t, w)
        amat, ab = unpack_linear(alpha, self.n_classes, self.n_features)
        # alpha . grad(ce_i) for each batch example, in one pass
        per_example = ((b.x @ amat.T + ab) * b.g).sum(axis=1)
        seg = self.hyper_layout.slice_of(self.weight_segment)
        out[seg.start + b.idx] = self._scale * per_example
        return out

    def touched_hypers(self, t):
        if self.weight_segment is None:
            return _NO_HYPERS
        seg = self.hyper_layout.slice_of(self.weight_segment)
        return np.sort(seg.start + self.schedule.indices(t))


class MultitaskLinear:
    """Softmax regression with a task-interaction penalty.

    The regularizer couples the per-class weight rows:

        reg(W) = sum_{j,k} C[j,k] ||w_j - w_k||^2 + sum_k rho_k ||w_k||^2

    with C symmetric nonnegative. C is stored as a full KxK hyper block
    but only the upper triangle is read (mirrored to the lower half), so
    symmetry holds structurally. ``coupling`` selects how C enters:
    "full" (K^2 hyper entries), "uniform" (a single shared entry a with
    C = a * ones), or "none" (C = 0, plain ridge softmax). ``rho`` is a
    scalar unless ``per_task_rho`` is set (one entry per class; used by
    the single-task grid baseline).

    The data term is the batch sum of cross-entropies scaled by
    batch/n so one full pass matches the full-batch objective.
    """

    def __init__(self, dataset: Dataset, hyper_layout: VectorLayout | None = None,
                 schedule: MinibatchSchedule | None = None,
                 coupling="full", coupling_segment: str | None = "coupling",
                 rho_segment: str | None = "rho",
                 fixed_coupling=None, fixed_rho=0.0, per_task_rho=False):
        if dataset.features is None or dataset.labels is None:
            raise ValueError("MultitaskLinear needs features and integer labels")
        if coupling not in ("full", "uniform", "none"):
            raise ValueError(f"unknown coupling mode {coupling!r}")
        self.dataset = dataset
        self.n_classes = int(dataset.n_classes)
        self.n_features = dataset.n_features
        self.n_params = self.n_classes * (self.n_features + 1)
        self.schedule = schedule or full_batch_schedule(dataset.n)
        self.hyper_layout = hyper_layout
        self.coupling = coupling
        self.coupling_segment = coupling_segment if coupling != "none" else None
        self.rho_segment = rho_segment
        self.per_task_rho = per_task_rho

        k = self.n_classes
        if self.coupling_segment is not None:
            want = k * k if coupling == "full" else 1
            if hyper_layout is None or coupling_segment not in hyper_layout:
                raise ValueError(f"hyper layout lacks segment {coupling_segment!r}")
            if hyper_layout.length_of(coupling_segment) != want:
                raise DimensionMismatchError(
                    f"coupling segment must have length {want}, got "
                    f"{hyper_layout.length_of(coupling_segment)}"
                )
            self.fixed_coupling = None
        else:
            self.fixed_coupling = _frozen(np.zeros((k, k)) if fixed_coupling is None
                                          else np.array(fixed_coupling, dtype=np.float64))
        if rho_segment is not None:
            want = k if per_task_rho else 1
            if hyper_layout is None or rho_segment not in hyper_layout:
                raise ValueError(f"hyper layout lacks segment {rho_segment!r}")
            if hyper_layout.length_of(rho_segment) != want:
                raise DimensionMismatchError(
                    f"rho segment must have length {want}, got "
                    f"{hyper_layout.length_of(rho_segment)}"
                )
            self.fixed_rho = None
        else:
            self.fixed_rho = _frozen(np.broadcast_to(
                np.asarray(fixed_rho, dtype=np.float64), (k,)
            ).copy())
        # hyper slices and the full-batch fraction, looked up once
        self._coupling_slice = (None if self.coupling_segment is None
                                else hyper_layout.slice_of(self.coupling_segment))
        self._rho_slice = (None if rho_segment is None
                           else hyper_layout.slice_of(rho_segment))
        self._full_frac = (self.schedule.n / dataset.n if self.schedule.full_batch
                           else None)
        # the masks np.triu(., 0) and np.triu(., 1) zero out, built once
        self._below_diag = np.tri(k, k=-1, dtype=bool)
        self._on_or_below_diag = np.tri(k, dtype=bool)
        self._bound_key = None
        self._bound = None
        self._cache = _BatchCache()

    # -- hyper access -------------------------------------------------

    def _symmetrize(self, raw):
        """Upper triangle of ``raw`` (diagonal included) mirrored below it."""
        upper = np.where(self._below_diag, 0.0, raw)
        return upper + np.where(self._on_or_below_diag, 0.0, raw).T

    def _bind(self, lam):
        """The lambda-only terms of the penalty, built once per distinct lam.

        Keyed on lam's bytes, so a lam mutated in place is rebuilt; the
        arrays are private copies and read-only.
        """
        key = lam.tobytes()
        if key != self._bound_key:
            k = self.n_classes
            if self.coupling_segment is None:
                c = self.fixed_coupling
                if self.coupling != "none":
                    c = self._symmetrize(c)
            elif self.coupling == "uniform":
                c = np.full((k, k), self.hyper_layout.get(lam, self.coupling_segment)[0])
            else:
                raw = self.hyper_layout.get(lam, self.coupling_segment).reshape(k, k)
                c = self._symmetrize(raw)
            if self.rho_segment is None:
                rho = self.fixed_rho
            else:
                rho = self.hyper_layout.get(lam, self.rho_segment).copy()
                if not self.per_task_rho:
                    rho = np.broadcast_to(rho, (k,))
            self._bound = _BoundPenalty(_frozen(c), _frozen(rho),
                                        *map(_frozen, _penalty_factors(c, rho)))
            self._bound_key = key
        return self._bound

    def _coupling_matrix(self, lam):
        return self._bind(lam).coupling

    def regularizer(self, w, lam):
        """The penalty term alone, full-strength (no batch scaling)."""
        mat, _ = unpack_linear(w, self.n_classes, self.n_features)
        bound = self._bind(lam)
        sq = (mat * mat).sum(axis=1)
        d = sq[:, None] + sq[None, :] - 2.0 * (mat @ mat.T)
        return float((bound.coupling * d).sum() + bound.rho @ sq)

    # -- objective interface -------------------------------------------

    def _batch(self, t, w):
        return self._cache.get(self, t, w)

    def _frac(self, t):
        if self._full_frac is not None:
            return self._full_frac
        return len(self.schedule.indices(t)) / self.dataset.n

    def value(self, w, lam, t):
        _, x, y = _batch_rows(self.dataset, self.schedule, t)
        data = float(_ce_losses(x, y, *unpack_linear(w, self.n_classes,
                                                     self.n_features)).sum())
        return ensure_finite_scalar(data + self._frac(t) * self.regularizer(w, lam),
                                    "training objective", step=t)

    def grad_w(self, w, lam, t):
        b = self._batch(t, w)
        out = _assemble_wgrad(b.g, b.x)
        mat, _ = unpack_linear(w, self.n_classes, self.n_features)
        bound = self._bind(lam)
        reg = _reg_grad_mat(mat, bound.lap4, bound.rho2)
        out[: mat.size] += b.frac * reg.ravel()
        return out

    def hvp_w(self, w, lam, t, r):
        b = self._batch(t, w)
        rmat, rb = unpack_linear(r, self.n_classes, self.n_features)
        v = _gauss_newton_dirs(b.p, b.x @ rmat.T + rb)
        out = _assemble_wgrad(v, b.x)
        bound = self._bind(lam)
        reg = _reg_grad_mat(rmat, bound.lap4, bound.rho2)
        out[: rmat.size] += b.frac * reg.ravel()
        return out

    def cross_jvp(self, w, lam, t, q):
        mat, _ = unpack_linear(w, self.n_classes, self.n_features)
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
        if self._rho_slice is not None:
            qr = q[self._rho_slice]
            rho_dir = qr if self.per_task_rho else np.broadcast_to(qr, (k,))
            acc += 2.0 * rho_dir[:, None] * mat
        out = np.zeros_like(w)
        out[: mat.size] = self._frac(t) * acc.ravel()
        return out

    def cross_vjp(self, w, lam, t, alpha):
        mat, _ = unpack_linear(w, self.n_classes, self.n_features)
        amat, _ = unpack_linear(alpha, self.n_classes, self.n_features)
        k = self.n_classes
        frac = self._frac(t)
        out = np.zeros_like(lam)
        if self._coupling_slice is not None:
            if self.coupling == "uniform":
                val = 4.0 * (k * (amat * mat).sum()
                             - amat.sum(axis=0) @ mat.sum(axis=0))
                out[self._coupling_slice] = frac * val
            else:
                # d<alpha, grad_W reg>/dC[j,k] for stored upper entries:
                # 4 (a_j - a_k).(w_j - w_k)
                m = amat @ mat.T
                diag = m.diagonal()
                pair = diag[:, None] + diag[None, :] - m - m.T
                vals = np.where(self._on_or_below_diag, 0.0, 4.0 * pair)
                out[self._coupling_slice] = frac * vals.ravel()
        if self._rho_slice is not None:
            per_task = 2.0 * (amat * mat).sum(axis=1)
            out[self._rho_slice] = frac * (per_task if self.per_task_rho
                                           else per_task.sum())
        return out

    def touched_hypers(self, t):
        pieces = []
        if self.coupling_segment is not None:
            pieces.append(self.hyper_layout.indices(self.coupling_segment))
        if self.rho_segment is not None:
            pieces.append(self.hyper_layout.indices(self.rho_segment))
        if not pieces:
            return _NO_HYPERS
        return np.concatenate(pieces)


# The lambda-only terms of MultitaskLinear's penalty at one lam: the
# symmetric C, the per-class ridge strengths, 4 (diag(C 1) - C) and 2 rho
# as a column.
_BoundPenalty = namedtuple("_BoundPenalty", "coupling rho lap4 rho2")


def _penalty_factors(c, rho):
    """(4 L, 2 rho[:, None]) for coupling ``c``, L its graph Laplacian."""
    lap = np.diag(c.sum(axis=1)) - c
    return 4.0 * lap, 2.0 * rho[:, None]


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
    """Average loss of the linear softmax model on a validation set.

    ``kind`` is "cross_entropy" (mean CE over the set) or "mse" (mean
    squared error between scores and one-hot targets). When
    ``subset_size`` is set, a fixed random subset drawn once from
    ``subset_seed`` is used instead of the full set, mirroring
    stream-mode evaluation on a sampled validation slice; the value is
    still deterministic given the seed.
    """

    dataset: Dataset
    kind: str = "cross_entropy"
    subset_size: int | None = None
    subset_seed: int = 0

    def __post_init__(self):
        if self.dataset.features is None or self.dataset.labels is None:
            raise ValueError("validation needs features and labels")
        if self.kind not in ("cross_entropy", "mse"):
            raise ValueError(f"unknown validation kind {self.kind!r}")
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
        if self.kind == "cross_entropy":
            val = float(_ce_losses(self._x, self._y, mat, bias).mean())
        else:
            scores = self._x @ mat.T + bias
            resid = scores - _onehot(self._y, self.n_classes)
            val = float((resid * resid).sum() / len(self._y))
        return ensure_finite_scalar(val, "validation error")

    def grad(self, w):
        mat, bias = unpack_linear(w, self.n_classes, self.n_features)
        n = len(self._y)
        if self.kind == "cross_entropy":
            g = _grad_coefs(softmax_rows(self._x @ mat.T + bias), self._y)
            return _assemble_wgrad(g, self._x) / n
        scores = self._x @ mat.T + bias
        resid = scores - _onehot(self._y, self.n_classes)
        return _assemble_wgrad(2.0 * resid, self._x) / n

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
