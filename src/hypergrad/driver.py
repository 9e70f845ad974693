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
  bit-equal share one hypergradient, handed read-only to each path's
  update and released before the next group's is computed, so one tape
  is alive at a time. A record's ``seconds`` is the time of the
  hypergradient it used plus its own update: paths sharing a
  hypergradient each count all of it. ``batch_ho_loop`` is the one-path
  case.
* stream mode — a single continuous training run with real-time partial
  hypergradients and projected updates every ``delta`` steps; state and
  Z carry across updates, and the stop rules end the endless stream.

Stopping is rule-based; rules inspect the record trace and are free of
side effects, so they can be combined and re-evaluated safely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engines import forward_hg, reverse_hg, rtho_stream
from .errors import HypergradError
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


def _rescope(err: HypergradError, k: int):
    scoped = type(err)(f"hyper-iteration {k}: {err}")
    scoped.__cause__ = err
    return scoped


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
    """One outer trajectory of a lockstep run."""

    def __init__(self, lam0, constraints, stop, lr):
        self.updater = ProjectedAdam(constraints, lr=lr)
        self.lam = lam0 if constraints is None else constraints.project(lam0)
        self.stop = stop
        self.records = []


def lockstep_ho_loop(dyn, E, s0, paths, n_steps, engine="reverse", lr=0.005,
                     record_extras=None):
    """Batch loops over one problem, one hypergradient per distinct lam.

    ``paths`` lists one (lam0, constraints, stop) per outer path. Returns
    one (lam, records) per path, in order, and the number of
    hypergradients computed.
    """
    if engine not in ("forward", "reverse"):
        raise ValueError(f"unknown engine {engine!r}")
    m = max((len(lam0) for lam0, _, _ in paths), default=0)
    if engine == "forward" and m > 10 * dyn.n_state:
        raise ValueError(
            f"forward engine gated off for m = {m} > 10 * d = {10 * dyn.n_state}; "
            f"use reverse"
        )
    paths = [_OuterPath(lam0, constraints, stop, lr)
             for lam0, constraints, stop in paths]
    compute = forward_hg if engine == "forward" else reverse_hg
    n_computed = 0
    while True:
        groups = {}
        for path in paths:
            if not _stopped(path.stop, path.records):
                groups.setdefault(path.lam.tobytes(), []).append(path)
        if not groups:
            break
        for group in groups.values():
            k = len(group[0].records) + 1
            started = time.perf_counter()
            result = None  # free the previous tape before recording the next
            try:
                result = compute(dyn, E, s0, group[0].lam, n_steps)
            except HypergradError as err:
                raise _rescope(err, k) from err
            n_computed += 1
            gradient = result.gradient
            gradient.flags.writeable = False
            grad_norm = float(np.linalg.norm(gradient))
            shared = time.perf_counter() - started
            for path in group:
                own = time.perf_counter()
                path.lam = path.updater(path.lam, gradient)
                record = HyperIterRecord(
                    index=len(path.records) + 1, response=result.response,
                    grad_norm=grad_norm, lam=path.lam.copy(),
                    seconds=shared + time.perf_counter() - own,
                )
                if record_extras is not None:
                    record.extras = record_extras(path.lam, result)
                path.records.append(record)
    return [(path.lam, path.records) for path in paths], n_computed


def stream_ho_loop(dyn, E, s0, lam0, constraints, delta, stop, lr=0.005,
                   record_extras=None):
    """Real-time loop: one projected update per emission until ``stop``."""
    updater = ProjectedAdam(constraints, lr=lr)
    lam = lam0 if constraints is None else constraints.project(lam0)
    records = []
    if _stopped(stop, records):
        return lam, records
    started = time.perf_counter()
    stream = rtho_stream(dyn, E, s0, lam, delta, updater=updater)
    try:
        for emission in stream:
            now = time.perf_counter()
            record = HyperIterRecord(
                index=len(records) + 1, response=emission.response,
                grad_norm=float(np.linalg.norm(emission.partial)),
                lam=emission.lam.copy(), seconds=now - started,
                step=emission.t,
            )
            started = now
            if record_extras is not None:
                record.extras = record_extras(emission.lam, emission)
            records.append(record)
            lam = emission.lam
            if _stopped(stop, records):
                break
    except HypergradError as err:
        raise _rescope(err, len(records) + 1) from err
    finally:
        stream.close()
    return lam, records
