"""Named-segment layouts over flat vectors.

A layout partitions ``[0, size)`` into contiguous named segments. The
same machinery describes both optimization states (weight / velocity
blocks) and hyperparameter vectors (optimizer hypers vs. objective
hypers).
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError


class VectorLayout:
    """Ordered named segments partitioning a flat float64 vector."""

    def __init__(self, segments):
        """``segments`` is a sequence of (name, length) pairs."""
        self._slices = {}
        offset = 0
        self._names = []
        for name, length in segments:
            length = int(length)
            if length <= 0:
                raise ValueError(f"segment {name!r} must have positive length")
            if name in self._slices:
                raise ValueError(f"duplicate segment name {name!r}")
            self._slices[name] = slice(offset, offset + length)
            self._names.append(name)
            offset += length
        self.size = offset

    @property
    def names(self):
        return tuple(self._names)

    def __contains__(self, name):
        return name in self._slices

    def slice_of(self, name) -> slice:
        try:
            return self._slices[name]
        except KeyError:
            raise KeyError(f"no segment named {name!r}; have {self._names}") from None

    def length_of(self, name) -> int:
        sl = self.slice_of(name)
        return sl.stop - sl.start

    def indices(self, name) -> np.ndarray:
        sl = self.slice_of(name)
        return np.arange(sl.start, sl.stop)

    def get(self, vec, name) -> np.ndarray:
        """View of ``vec``'s segment ``name`` (no copy)."""
        self._check(vec)
        return vec[self.slice_of(name)]

    def pack(self, **values) -> np.ndarray:
        """Assemble a full vector from per-segment values; missing segments are 0."""
        out = np.zeros(self.size)
        for name, val in values.items():
            sl = self.slice_of(name)
            out[sl] = val
        return out

    def unpack(self, vec) -> dict:
        self._check(vec)
        return {name: vec[self._slices[name]] for name in self._names}

    def _check(self, vec):
        if vec.ndim != 1 or len(vec) != self.size:
            raise DimensionMismatchError(
                f"vector has shape {vec.shape}, layout expects ({self.size},)"
            )

    def __repr__(self):
        parts = ", ".join(
            f"{n}[{self._slices[n].start}:{self._slices[n].stop}]" for n in self._names
        )
        return f"VectorLayout({parts})"
