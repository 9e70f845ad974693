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
  share one hypergradient, handed read-only to each path's update. A
  problem without a stack computes its groups one after another, each
  released before the next is computed; over a seed stack every group
  of the hyper-iteration is one row of a single block call (see
  ``engines.reverse_hg``), released before the next hyper-iteration.
  Either way one tape is alive at a time. A record's ``seconds`` is the
  time of the hypergradient call it used plus its own update: paths
  sharing a call each count all of it, and a block call counts the
  whole block. ``batch_ho_loop`` is the one-path case.
* stream mode — a single continuous training run with real-time partial
  hypergradients and projected updates every ``delta`` steps; state and
  Z carry across updates, and the stop rules end the endless stream.
  ``stream_ho_loop`` also runs S independent streams as one block (a
  seed stack); each keeps its own Adam state, stop rules and records,
  and leaves the block when its rules fire.

Stopping is rule-based; rules inspect the record trace and are free of
side effects, so they can be combined and re-evaluated safely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engines import forward_hg, over_rows, reverse_hg, rtho_stream
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
    """One outer trajectory of a lockstep run (on stack row ``row``)."""

    def __init__(self, lam0, constraints, stop, lr, row=None):
        self.updater = ProjectedAdam(constraints, lr=lr)
        self.lam = lam0 if constraints is None else constraints.project(lam0)
        self.stop = stop
        self.row = row
        self.records = []


def lockstep_ho_loop(dyn, E, s0, paths, n_steps, engine="reverse", lr=0.005,
                     record_extras=None):
    """Batch loops over one problem, one hypergradient per distinct lam.

    ``paths`` lists one (lam0, constraints, stop) per outer path. Returns
    one (lam, records) per path, in order, and the number of
    hypergradients computed.

    Over a seed stack (``dyn.objective`` holds S training sets, ``s0``
    is a (S, d) block and ``E`` one validation error per set) each path
    is (lam0, constraints, stop, row) and trains on set ``row``; every
    distinct (row, lam) of a hyper-iteration is one row of one block
    call, and the count returned is a list of the hypergradients
    computed per set. A non-finite value then fails the run with the
    error's ``rows`` marking the failed sets among the S.
    """
    if engine not in ("forward", "reverse"):
        raise ValueError(f"unknown engine {engine!r}")
    m = max((len(path[0]) for path in paths), default=0)
    if engine == "forward" and m > 10 * dyn.n_state:
        raise ValueError(
            f"forward engine gated off for m = {m} > 10 * d = {10 * dyn.n_state}; "
            f"use reverse"
        )
    block = np.ndim(s0) == 2
    paths = [_OuterPath(lam0, constraints, stop, lr, *row)
             for lam0, constraints, stop, *row in paths]
    compute = forward_hg if engine == "forward" else reverse_hg
    n_computed = [0] * (len(s0) if block else 1)
    while True:
        groups = {}
        for path in paths:
            if not _stopped(path.stop, path.records):
                key = (path.row, path.lam.tobytes())
                groups.setdefault(key, []).append(path)
        if not groups:
            break
        groups = list(groups.values())
        for call in [groups] if block else [[group] for group in groups]:
            k = len(call[0][0].records) + 1
            started = time.perf_counter()
            result = None  # free the previous tape before recording the next
            try:
                if block:
                    rows = np.array([group[0].row for group in call])
                    result = compute(over_rows(dyn, rows), [E[r] for r in rows],
                                     s0[rows],
                                     np.array([group[0].lam for group in call]),
                                     n_steps)
                else:
                    result = compute(dyn, E, s0, call[0][0].lam, n_steps)
            except HypergradError as err:
                if block and isinstance(err, NonFiniteError):
                    rows_among(err, rows, len(s0))
                raise rescoped(err, f"hyper-iteration {k}") from err
            gradients = result.gradient
            gradients.flags.writeable = False
            shared = time.perf_counter() - started
            for i, group in enumerate(call):
                gradient = gradients[i] if block else gradients
                response = result.response[i] if block else result.response
                grad_norm = float(np.linalg.norm(gradient))
                n_computed[group[0].row if block else 0] += 1
                for path in group:
                    own = time.perf_counter()
                    path.lam = path.updater(path.lam, gradient)
                    record = HyperIterRecord(
                        index=len(path.records) + 1, response=response,
                        grad_norm=grad_norm, lam=path.lam.copy(),
                        seconds=shared + time.perf_counter() - own,
                    )
                    if record_extras is not None:
                        record.extras = record_extras(path.lam, result)
                    path.records.append(record)
    return [(path.lam, path.records) for path in paths], (
        n_computed if block else n_computed[0])


def stream_ho_loop(dyn, E, s0, lam0, constraints, delta, stop, lr=0.005,
                   record_extras=None):
    """Real-time loop: one projected update per emission until ``stop``.

    Returns (lam, records). A (S, d) block s0 with a (S, m) block lam0
    and one validation error per row in ``E`` runs S streams as one
    block (see ``engines.rtho_stream``) and returns one (lam, records)
    per row. Each row has its own Adam state and records; the
    constraints and stop rules (free of side effects) are shared, and a
    row leaves the block when its rules fire. A record's ``seconds`` is
    the time since the previous emission: for a block, the sweep of
    every row still in it. ``record_extras(lam, emission)`` sees each
    row's own emission.
    """
    block = np.ndim(s0) == 2
    paths = [_OuterPath(lam, constraints, stop, lr)
             for lam in (lam0 if block else [lam0])]
    if not _stopped(stop, []):
        lam = np.array([path.lam for path in paths]) if block else paths[0].lam
        updaters = [path.updater for path in paths]
        stream = rtho_stream(dyn, E, s0, lam, delta,
                             updater=updaters if block else updaters[0])
        n_emitted = 0
        started = time.perf_counter()
        try:
            for emitted in stream:
                now = time.perf_counter()
                seconds, started = now - started, now
                n_emitted += 1
                for emission in emitted if block else [emitted]:
                    path = paths[emission.row if block else 0]
                    record = HyperIterRecord(
                        index=len(path.records) + 1,
                        response=emission.response,
                        grad_norm=float(np.linalg.norm(emission.partial)),
                        lam=emission.lam.copy(), seconds=seconds,
                        step=emission.t,
                    )
                    if record_extras is not None:
                        record.extras = record_extras(emission.lam, emission)
                    path.records.append(record)
                    path.lam = emission.lam
                    emission.leave = _stopped(path.stop, path.records)
        except HypergradError as err:
            raise rescoped(err, f"hyper-iteration {n_emitted + 1}") from err
        finally:
            stream.close()
    out = [(path.lam, path.records) for path in paths]
    return out if block else out[0]
