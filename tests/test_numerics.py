import numpy as np
import pytest

from hypergrad.errors import DimensionMismatchError, NonFiniteError
from hypergrad.numerics import (as_vector, ensure_finite, ensure_finite_scalar,
                                make_rng)


def test_as_vector_promotes_and_copies_dtype():
    v = as_vector([1, 2, 3])
    assert v.dtype == np.float64
    assert v.shape == (3,)


def test_as_vector_rejects_matrix():
    with pytest.raises(DimensionMismatchError):
        as_vector(np.ones((2, 2)))


def test_ensure_finite_passes_through():
    arr = np.array([1.0, 2.0])
    assert ensure_finite(arr, "ok") is arr


def test_ensure_finite_raises_with_context():
    with pytest.raises(NonFiniteError) as err:
        ensure_finite(np.array([1.0, np.inf]), "state update", step=7)
    msg = str(err.value)
    assert "state update" in msg and "7" in msg


def test_ensure_finite_scalar():
    assert ensure_finite_scalar(2.5, "resp") == 2.5
    with pytest.raises(NonFiniteError):
        ensure_finite_scalar(float("nan"), "resp")


def test_make_rng_deterministic():
    a = make_rng(11, 5).standard_normal(4)
    b = make_rng(11, 5).standard_normal(4)
    assert np.array_equal(a, b)


def test_make_rng_subkeys_decorrelate():
    a = make_rng(11, 5).standard_normal(4)
    b = make_rng(11, 6).standard_normal(4)
    assert not np.array_equal(a, b)
