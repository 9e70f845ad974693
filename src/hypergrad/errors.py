"""Exception hierarchy shared across the package."""

import numpy as np


class HypergradError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(HypergradError, ValueError):
    """Operand shapes do not conform."""


class NonFiniteError(HypergradError, FloatingPointError):
    """A NaN or Inf appeared where a finite value was required.

    ``step`` carries the 1-based training-step index when the failure
    occurred inside an iteration loop, else None. ``rows`` marks, for an
    array with leading axes (a (K, d) block of K states), which rows
    hold a non-finite entry; it is None for a vector.
    """

    def __init__(self, message, step=None, rows=None):
        if step is not None:
            message = f"{message} (at step {step})"
        super().__init__(message)
        self.step = step
        self.rows = rows


class TapeReplayError(HypergradError):
    """Replaying a recorded trajectory did not reproduce it bit-exactly."""


class InfeasibleHypersError(HypergradError):
    """The outer loop recorded hyperparameters outside their constraint set."""


class ConfigError(HypergradError, ValueError):
    """Invalid or incomplete experiment configuration."""


class IngestError(HypergradError, ValueError):
    """Malformed input data file."""


def rescoped(err: HypergradError, scope: str) -> HypergradError:
    """``err`` rebuilt with ``scope`` before its message.

    A NonFiniteError keeps its ``step`` and ``rows``, so a failure in a
    block still says which rows failed. The original is the cause.
    """
    out = type(err)(f"{scope}: {err}")
    if isinstance(err, NonFiniteError):
        out.step, out.rows = err.step, err.rows
    out.__cause__ = err
    return out


def rows_among(err: NonFiniteError, rows, n) -> NonFiniteError:
    """``err`` with its ``rows`` mask moved from a block onto ``n`` rows.

    Row i of the block is row ``rows[i]`` of the n; a row of the n is
    marked when any block row on it failed. ``err`` is changed in place
    and returned; without a mask of the block's rows it is left alone.
    """
    rows = np.asarray(rows)
    if err.rows is not None and err.rows.shape == rows.shape:
        mask = np.zeros(n, dtype=bool)
        mask[rows[err.rows]] = True
        err.rows = mask
    return err
