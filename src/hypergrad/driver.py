"""Hyper-iteration orchestrators shared by the command-line experiments.

Two protocols:

* batch mode — every hyper-iteration retrains from the same initial
  state for a fixed number of inner steps, computes one full
  hypergradient (either engine), and applies one projected Adam update.
  Retraining from scratch keeps the response a pure function of lam,
  which the finite-difference oracle relies on.

  ``lockstep_ho_loop`` moves several outer paths over one problem
  forward together. Each path has its own constraints, Adam state, stop
  rules and records; in each hyper-iteration the paths whose lam are
  bit-equal (and, over a seed stack, whose training set is the same)
  share one hypergradient, handed read-only to each path's update. Each
  hyper-iteration is one block call with one row per group (see
  ``engines.reverse_hg``; a problem without a stack is the one-set
  stack), released before the next, so one tape is alive at a time. A
  record's ``seconds`` is the time of that call plus its own update:
  paths sharing a call each count all of it. ``batch_ho_loop`` is the
  one-path case.
* stream mode — a single continuous training run with real-time partial
  hypergradients and projected updates every ``delta`` steps; state and
  Z carry across updates, and the stop rules end the endless stream.
  ``stream_ho_loop`` runs S independent streams (a seed stack, or one
  stream as the one-row block) as one block; each keeps its own Adam
  state, stop rules and records, and leaves the block when they fire.

Stopping is rule-based; rules inspect the record trace and are free of
side effects, so they can be combined and re-evaluated safely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engines import (OneRow, forward_hg, over_rows, per_row, reverse_hg,
                      rtho_stream)
from .errors import HypergradError, NonFiniteError, rescoped, rows_among
from .outer import ProjectedAdam

# records list lam itself only up to this many entries (summaries always)
_LAM_LIMIT = 256

# ---------------------------------------------------------------------------
# Stop rules


class MaxHyperIters:
    def __init__(self, n):
        if n < 0:
            raise ValueError(f"negative iteration budget {n}")
        self.n = n

    def triggered(self, records):
        return len(records) >= self.n


class LearningRateDecayedToZero:
    """Stop once the projected learning rate sits at 0 for a full batch."""

    def __init__(self, layout, segment="eta"):
        self.index = layout.slice_of(segment).start

    def triggered(self, records):
        if len(records) < 2:
            return False
        return (records[-1].lam[self.index] == 0.0
                and records[-2].lam[self.index] == 0.0)


def _stopped(stop, records):
    rules = stop if isinstance(stop, (list, tuple)) else [stop]
    return any(rule.triggered(records) for rule in rules)


# ---------------------------------------------------------------------------
# Records


@dataclass
class HyperIterRecord:
    index: int
    response: float
    grad_norm: float
    lam: np.ndarray
    seconds: float
    step: int = None  # inner-step index at emission (stream mode only)
    extras: dict = field(default_factory=dict)

    def to_jsonable(self, include_timing=True):
        out = {
            "index": self.index,
            "response": self.response,
            "grad_norm": self.grad_norm,
            "lam_sum": float(self.lam.sum()),
            "lam_min": float(self.lam.min()) if len(self.lam) else 0.0,
            "lam_max": float(self.lam.max()) if len(self.lam) else 0.0,
        }
        if len(self.lam) <= _LAM_LIMIT:
            out["lam"] = [float(v) for v in self.lam]
        if self.step is not None:
            out["step"] = self.step
        if include_timing:
            out["seconds"] = self.seconds
        for key, value in self.extras.items():
            out[key] = value
        return out


# ---------------------------------------------------------------------------
# Loops


def batch_ho_loop(dyn, E, s0, lam0, constraints, n_steps, stop,
                  engine="reverse", lr=0.005, record_extras=None):
    """Retrain / hypergradient / projected-Adam loop. Returns (lam, records)."""
    [(lam, records)], _ = lockstep_ho_loop(
        dyn, E, s0, [(lam0, constraints, stop)], n_steps, engine=engine,
        lr=lr, record_extras=record_extras)
    return lam, records


class _OuterPath:
    """One outer trajectory of a loop (on stack row ``row``)."""

    def __init__(self, lam0, constraints, stop, lr, row=0):
        self.updater = ProjectedAdam(constraints, lr=lr)
        self.lam = lam0 if constraints is None else constraints.project(lam0)
        self.stop = stop
        self.row = row
        self.records = []

    def record(self, lam, response, grad_norm, seconds, extras, seen,
               step=None):
        """Move to ``lam`` and record it, ``extras(lam, seen)`` (if given)
        filling the record's extras; True once the stop rules fire."""
        self.lam = lam
        self.records.append(HyperIterRecord(
            index=len(self.records) + 1, response=response,
            grad_norm=grad_norm, lam=lam.copy(), seconds=seconds, step=step,
            extras={} if extras is None else extras(lam, seen)))
        return _stopped(self.stop, self.records)


def lockstep_ho_loop(dyn, E, s0, paths, n_steps, engine="reverse", lr=0.005,
                     record_extras=None):
    """Batch loops over one problem, one hypergradient per distinct lam.

    ``paths`` lists one (lam0, constraints, stop, row) per outer path.
    Returns one (lam, records) per path, in order, and the list of
    hypergradients computed per set.

    Over a seed stack (``dyn.objective`` holds S training sets, ``s0``
    is a (S, d) block and ``E`` one validation error per set) each path
    trains on set ``row``; a problem without one (a vector ``s0``, one
    ``E``) is the one-set stack, ``row`` 0 by default. Every distinct
    (row, lam) of a hyper-iteration is one row of one block call. A
    non-finite value fails the run, the error's ``rows`` marking the
    failed sets among the S (none without a stack).
    """
    if engine not in ("forward", "reverse"):
        raise ValueError(f"unknown engine {engine!r}")
    m = max((len(path[0]) for path in paths), default=0)
    if engine == "forward" and m > 10 * dyn.n_state:
        raise ValueError(
            f"forward engine gated off for m = {m} > 10 * d = {10 * dyn.n_state}; "
            f"use reverse"
        )
    one = OneRow(s0)  # a vector problem is the one-set problem
    s0, E = one.rows(s0, E)
    s0 = np.asarray(s0)
    per_row(E, len(s0))
    paths = [_OuterPath(lam0, constraints, stop, lr, *row)
             for lam0, constraints, stop, *row in paths]
    compute = forward_hg if engine == "forward" else reverse_hg
    n_computed = [0] * len(s0)
    while True:
        groups = {}
        for path in paths:
            if not _stopped(path.stop, path.records):
                key = (path.row, path.lam.tobytes())
                groups.setdefault(key, []).append(path)
        if not groups:
            break
        groups = list(groups.values())
        rows = np.array([group[0].row for group in groups])
        lams = np.array([group[0].lam for group in groups])
        started = time.perf_counter()
        result = None  # free the previous tape before recording the next
        try:
            with one:
                result = compute(over_rows(dyn, rows), [E[r] for r in rows],
                                 s0[rows], lams, n_steps)
        except HypergradError as err:
            if isinstance(err, NonFiniteError):
                rows_among(err, rows, len(s0))
            k = len(groups[0][0].records) + 1
            raise rescoped(err, f"hyper-iteration {k}") from err
        gradients = result.gradient
        gradients.flags.writeable = False
        shared = time.perf_counter() - started
        for group, gradient, response in zip(groups, gradients,
                                             result.response):
            grad_norm = float(np.linalg.norm(gradient))
            n_computed[group[0].row] += 1
            for path in group:
                own = time.perf_counter()
                lam = path.updater(path.lam, gradient)
                path.record(lam, response, grad_norm,
                            shared + time.perf_counter() - own, record_extras,
                            result)
    return [(path.lam, path.records) for path in paths], n_computed


def stream_ho_loop(dyn, E, s0, lam0, constraints, delta, stop, lr=0.005,
                   record_extras=None):
    """Real-time loop: one projected update per emission until ``stop``.

    Returns (lam, records). A (S, d) block s0 with a (S, m) block lam0
    and one validation error per row in ``E`` runs S streams as one
    block (see ``engines.rtho_stream``) and returns one (lam, records)
    per row; a vector problem runs as the one-row block. Each row has
    its own Adam state and records; the constraints and stop rules (free
    of side effects) are shared, and a row leaves the block when its
    rules fire. A record's ``seconds`` is the time since the previous
    emission: for a block, the sweep of every row still in it.
    ``record_extras(lam, emission)`` sees each row's own emission.
    """
    one = OneRow(s0)  # wrapped here, unwrapped on the way out
    s0, lam0, E = one.rows(s0, lam0, E)
    paths = [_OuterPath(lam, constraints, stop, lr) for lam in lam0]
    if not _stopped(stop, []):
        stream = rtho_stream(dyn, E, s0, np.array([path.lam for path in paths]),
                             delta, updater=[path.updater for path in paths])
        started = time.perf_counter()
        try:
            with one:
                for emitted in stream:
                    now = time.perf_counter()
                    seconds, started = now - started, now
                    for emission in emitted:
                        emission.leave = paths[emission.row].record(
                            emission.lam, emission.response,
                            float(np.linalg.norm(emission.partial)), seconds,
                            record_extras, emission, step=emission.t)
        except HypergradError as err:
            k = max(len(path.records) for path in paths) + 1
            raise rescoped(err, f"hyper-iteration {k}") from err
        finally:
            stream.close()
    return one.out([(path.lam, path.records) for path in paths])
