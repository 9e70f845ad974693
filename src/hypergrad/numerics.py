"""Dense float64 kernels and the deterministic RNG used everywhere else.

All arrays are 64-bit floats. Matrix-vector products go through a single
BLAS call per operation (no parallel reduction is introduced by this
module), so repeated evaluation of the same product is bitwise
reproducible within a run and across runs on the same platform.
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


def as_matrix(a, name="matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name}: expected 2-D, got shape {arr.shape}")
    return arr


def matvec(a, x) -> np.ndarray:
    """Return A @ x with an explicit conformance check."""
    a = as_matrix(a, "matvec: A")
    x = as_vector(x, "matvec: x")
    if a.shape[1] != x.shape[0]:
        raise DimensionMismatchError(
            f"matvec: A is {a.shape[0]}x{a.shape[1]} but x has length {x.shape[0]}"
        )
    return a @ x


def vecmat(x, a) -> np.ndarray:
    """Return the row vector x^T A, computed as matvec(A^T, x)."""
    a = as_matrix(a, "vecmat: A")
    x = as_vector(x, "vecmat: x")
    if a.shape[0] != x.shape[0]:
        raise DimensionMismatchError(
            f"vecmat: x has length {x.shape[0]} but A is {a.shape[0]}x{a.shape[1]}"
        )
    return a.T @ x


def ensure_finite(arr, context, step=None):
    """Raise NonFiniteError if any entry of ``arr`` is NaN or Inf."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite value in {context}", step=step)
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
