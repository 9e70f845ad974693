"""Hyper-iteration orchestrators shared by the command-line experiments.

Two protocols:

* batch mode — every hyper-iteration retrains from the same initial
  state for a fixed number of inner steps, computes one full
  hypergradient (either engine), and applies one projected Adam update.
  Retraining from scratch keeps the response a pure function of lam,
  which the finite-difference oracle relies on.
* stream mode — a single continuous training run with real-time partial
  hypergradients and projected updates every ``delta`` steps.

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

# ---------------------------------------------------------------------------
# Stop rules


class MaxHyperIters:
    def __init__(self, n):
        if n < 0:
            raise ValueError(f"negative iteration budget {n}")
        self.n = n

    def triggered(self, records):
        return len(records) >= self.n


class ValidationEarlyStop:
    """Stop when the response has not improved for ``patience`` records."""

    def __init__(self, patience, min_delta=0.0):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.min_delta = min_delta

    def triggered(self, records):
        if len(records) <= self.patience:
            return False
        best_early = min(r.response for r in records[: -self.patience])
        recent = min(r.response for r in records[-self.patience :])
        return recent > best_early - self.min_delta


class LearningRateDecayedToZero:
    """Stop once the projected learning rate sits at 0 for a full batch."""

    def __init__(self, layout, segment="eta"):
        self.index = layout.slice_of(segment).start

    def triggered(self, records):
        if len(records) < 2:
            return False
        return (records[-1].lam[self.index] == 0.0
                and records[-2].lam[self.index] == 0.0)


class WallClock:
    def __init__(self, minutes):
        self.deadline = time.monotonic() + minutes * 60.0

    def triggered(self, records):
        return time.monotonic() >= self.deadline


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

    def to_jsonable(self, include_timing=True, lam_limit=256):
        out = {
            "index": self.index,
            "response": self.response,
            "grad_norm": self.grad_norm,
            "lam_sum": float(self.lam.sum()),
            "lam_min": float(self.lam.min()) if len(self.lam) else 0.0,
            "lam_max": float(self.lam.max()) if len(self.lam) else 0.0,
        }
        if len(self.lam) <= lam_limit:
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
                  engine="reverse", lr=0.005, beta1=0.9, beta2=0.999,
                  eps=1e-8, record_extras=None):
    """Retrain / hypergradient / projected-Adam loop. Returns (lam, records)."""
    if engine not in ("forward", "reverse"):
        raise ValueError(f"unknown engine {engine!r}")
    m = len(lam0)
    if engine == "forward" and m > 10 * dyn.n_state:
        raise ValueError(
            f"forward engine gated off for m = {m} > 10 * d = {10 * dyn.n_state}; "
            f"use reverse"
        )
    updater = ProjectedAdam(constraints, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    lam = lam0 if constraints is None else constraints.project(lam0)
    compute = forward_hg if engine == "forward" else reverse_hg
    records = []
    while not _stopped(stop, records):
        k = len(records) + 1
        started = time.perf_counter()
        result = None  # free the previous tape before recording the next
        try:
            result = compute(dyn, E, s0, lam, n_steps)
        except HypergradError as err:
            raise _rescope(err, k) from err
        lam = updater(lam, result.gradient)
        record = HyperIterRecord(
            index=k, response=result.response,
            grad_norm=float(np.linalg.norm(result.gradient)),
            lam=lam.copy(), seconds=time.perf_counter() - started,
        )
        if record_extras is not None:
            record.extras = record_extras(lam, result)
        records.append(record)
    return lam, records


def stream_ho_loop(dyn, E, s0, lam0, constraints, delta, stop,
                   lr=0.005, beta1=0.9, beta2=0.999, eps=1e-8,
                   reset_z=False, restart_state=False, record_extras=None):
    """Real-time loop: one continuous run, one projected update per emission."""
    updater = ProjectedAdam(constraints, lr=lr, beta1=beta1, beta2=beta2, eps=eps)
    lam = lam0 if constraints is None else constraints.project(lam0)
    records = []
    if _stopped(stop, records):
        return lam, records
    started = time.perf_counter()
    stream = rtho_stream(dyn, E, s0, lam, delta, updater=updater,
                         reset_z=reset_z, restart_state=restart_state)
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
