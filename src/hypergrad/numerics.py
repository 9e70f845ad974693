"""Vector coercion, finiteness checks and the deterministic RNG.

All arrays are 64-bit floats. ``as_vector`` rejects other ranks,
``row_dot`` takes the dot product of two vectors or of each pair of
rows of two blocks, ``ensure_finite`` and ``ensure_finite_scalar`` turn
a NaN or Inf into a ``NonFiniteError`` (tagged with its step, when one
is given), and ``make_rng`` derives every random stream from one root
seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError


def as_vector(x, name="vector") -> np.ndarray:
    """Coerce to a 1-D float64 array, rejecting other ranks."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name}: expected 1-D, got shape {arr.shape}")
    return arr


def row_dot(a, b):
    """``a @ b`` for vectors; one such dot per row for blocks.

    Each row of a (K, d) block pair is bit for bit its vector dot:
    ``np.matmul`` runs the same BLAS dot on every (1, d) @ (d, 1) slice,
    which a row-wise ``(a * b).sum(axis=-1)`` (pairwise summation) does
    not reproduce.
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def ensure_finite(arr, context, step=None):
    """Raise NonFiniteError if any entry of ``arr`` is NaN or Inf.

    For an array of more than one axis the error's ``rows`` is a boolean
    mask over the leading axis: which rows (the (d,) states of a (K, d)
    block, the (m, d) slices of a (S, m, d) one) hold such an entry.
    """
    finite = np.isfinite(arr)
    if not finite.all():
        rows = (~finite.all(axis=tuple(range(1, finite.ndim)))
                if finite.ndim > 1 else None)
        raise NonFiniteError(f"non-finite value in {context}", step=step,
                             rows=rows)
    return arr


def ensure_finite_scalar(value, context, step=None) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite value in {context}", step=step)
    return value


def make_rng(seed, *subkeys) -> np.random.Generator:
    """Deterministic generator on the counter-based Philox stream.

    ``subkeys`` derive independent substreams from one root seed (e.g.
    per-epoch permutations, per-trial search draws); the same
    (seed, subkeys) always yields the same stream.
    """
    entropy = [int(seed)] + [int(k) for k in subkeys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
