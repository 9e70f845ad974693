"""Hyper-iteration orchestrators shared by the command-line experiments.

Two protocols:

* batch mode — every hyper-iteration retrains from the same initial
  state for a fixed number of inner steps, computes one full
  hypergradient (either engine), and applies one projected Adam update.
  Retraining from scratch keeps the response a pure function of lam,
  which the finite-difference oracle relies on.

  ``lockstep_ho_loop`` moves several outer paths over one problem
  forward together. Each path has its own constraints, Adam state, stop
  rules and records; in each hyper-iteration the paths whose problem
  lam are bit-equal (and, over a seed stack, whose training set is the
  same) share one hypergradient, handed read-only to each path's
  update. A path may be tied: it keeps a shorter lam of its own, the
  problem sees ``lam[tie]``, and its gradient is the problem's summed
  per own entry (the chain rule through the tie). Each hyper-iteration
  is one block call with one row per group (see ``engines.reverse_hg``;
  a problem without a stack is the one-set stack), released before the
  next, so one tape is alive at a time; the forward engine makes a
  second call for the groups of tied paths, which sweep one tangent
  per own entry. A record's ``seconds`` is the time of its call plus
  its own update: paths sharing a call each count all of it.
  ``batch_ho_loop`` is the one-path case.
* stream mode — a single continuous training run with real-time partial
  hypergradients and projected updates every ``delta`` steps; state and
  Z carry across updates, and the stop rules end the endless stream.
  ``stream_ho_loop`` runs S independent streams (a seed stack, or one
  stream as the one-row block) as one block; each keeps its own Adam
  state, stop rules and records, and leaves the block when they fire.

Stopping is rule-based; rules inspect the record trace and are free of
side effects, so they can be combined and re-evaluated safely. A lam
recorded outside its path's constraints fails with InfeasibleHypersError.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .engines import OneRow, forward_hg, over_rows, reverse_hg, rtho_stream
from .errors import (DimensionMismatchError, HypergradError,
                     InfeasibleHypersError, NonFiniteError, rescoped,
                     rows_among)
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
    """One outer trajectory of a loop (on stack row ``row``), its problem
    lam ``lam[tie]`` if tied, of length ``want`` if given; errors name it
    path ``index``."""

    def __init__(self, lam0, constraints, stop, lr, row=0, tie=None, *,
                 want=None, index=0):
        n = len(lam0)
        if tie is not None:
            tie = np.asarray(tie)
            if (tie.ndim != 1 or tie.dtype.kind not in "iu"
                    or (len(tie) and not 0 <= tie.min() <= tie.max() < n)):
                raise DimensionMismatchError(
                    f"path {index}: tie must be a 1-D integer array indexing "
                    f"its {n}-entry lam, got {tie.dtype} {tie.shape}")
            n = len(tie)
        if want is not None and n != want:
            raise DimensionMismatchError(
                f"path {index}: hyper vector has length {n}, the problem "
                f"expects {want}")
        self.updater = ProjectedAdam(constraints, lr=lr)
        self.lam = lam0 if constraints is None else constraints.project(lam0)
        self.stop = stop
        self.row = row
        self.tie = tie
        self.index = index
        self.records = []

    @property
    def problem_lam(self):
        return self.lam if self.tie is None else self.lam[self.tie]

    def own_gradient(self, gradient):
        """A hypergradient over the problem lam as one over the path's
        own: per own entry, the sum over the problem entries tied to it."""
        if self.tie is None:
            return gradient
        return np.bincount(self.tie, weights=gradient, minlength=len(self.lam))

    def record(self, lam, response, grad_norm, seconds, extras, seen,
               step=None):
        """Move to ``lam`` (InfeasibleHypersError outside the constraints)
        and record it, ``extras(lam, seen)`` (if given) filling the
        record's extras; True once the stop rules fire."""
        constraints = self.updater.constraints
        if constraints is not None and not constraints.contains(lam):
            raise InfeasibleHypersError(
                f"path {self.index}: recorded lam outside its constraints")
        self.lam = lam
        self.records.append(HyperIterRecord(
            index=len(self.records) + 1, response=response,
            grad_norm=grad_norm, lam=lam.copy(), seconds=seconds, step=step,
            extras={} if extras is None else extras(lam, seen)))
        return _stopped(self.stop, self.records)


def lockstep_ho_loop(dyn, E, s0, paths, n_steps, engine="reverse", lr=0.005,
                     record_extras=None):
    """Batch loops over one problem, one hypergradient per distinct lam.

    ``paths`` lists one (lam0, constraints, stop, row, tie) per outer
    path; ``row`` (default 0) and ``tie`` (default None) may be left
    off. A tied path keeps, projects, Adam-steps and records its own
    lam while the problem sees ``lam[tie]`` (``tie`` a 1-D integer
    array indexing lam); its gradient is the problem's summed back per
    own entry, and its ``grad_norm`` that sum's norm (the forward
    engine sweeps a group of paths sharing one tie along the tie's
    directions instead, one tangent per own entry, a call of its own).
    Every path's problem lam must have the length of the problem's hyper
    layout; else DimensionMismatchError.
    Returns one (lam, records) per path, in order, and the list of
    hypergradients computed per set.

    Over a seed stack (``dyn.objective`` holds S training sets, ``s0``
    is a (S, d) block) each path trains on set ``row`` and is scored by
    row ``row`` of ``E`` (S validation sets, or one shared by all; a
    stack of another size is a DimensionMismatchError); a vector ``s0``
    is the one-set stack, ``row`` 0 by default. Every distinct (row,
    lam) of a hyper-iteration is one row of one block call. A non-finite
    value fails the run, the error's ``rows`` marking the failed sets
    among the S (none without a stack).
    """
    if engine not in ("forward", "reverse"):
        raise ValueError(f"unknown engine {engine!r}")
    one = OneRow(s0)  # a vector problem is the one-set problem
    s0 = np.asarray(one.rows(s0)[0])
    # each stack serves the S rows: a mask of another length fails
    dyn, E = over_rows(dyn, E, np.ones(len(s0), dtype=bool))
    want = None if dyn.hyper_layout is None else dyn.hyper_layout.size
    built = []
    for i, (lam0, constraints, stop, *rest) in enumerate(paths):
        built.append(_OuterPath(lam0, constraints, stop, lr, *rest, want=want,
                                index=i))
        want = len(built[-1].problem_lam)  # without a layout, the first's
    paths = built
    m = max((len(path.problem_lam) for path in paths), default=0)
    if engine == "forward" and m > 10 * dyn.n_state:
        raise ValueError(
            f"forward engine gated off for m = {m} > 10 * d = {10 * dyn.n_state}; "
            f"use reverse"
        )
    compute = forward_hg if engine == "forward" else reverse_hg
    n_computed = [0] * len(s0)
    while True:
        groups = {}
        for path in paths:
            if not _stopped(path.stop, path.records):
                lam = path.problem_lam
                groups.setdefault((path.row, lam.tobytes()),
                                  (lam, []))[1].append(path)
        if not groups:
            break
        calls = {}  # one block call per tangent set: None, every entry
        for lam, group in groups.values():
            key = _own_tangents(group) if engine == "forward" else None
            calls.setdefault(key, []).append((lam, group))
        for key, block in calls.items():
            rows = np.array([group[0].row for _, group in block])
            lams = np.array([lam for lam, _ in block])
            first = block[0][1][0]
            # per own entry, the indicator of the problem entries tied to it
            extra = {} if key is None else {"directions": (
                first.tie == np.arange(len(first.lam))[:, None]).astype(float)}
            k = len(first.records) + 1  # every running path's next index
            started = time.perf_counter()
            result = None  # free the previous tape before recording the next
            try:
                with one:
                    result = compute(*over_rows(dyn, E, rows), s0[rows],
                                     lams, n_steps, **extra)
                gradients = result.gradient
                gradients.flags.writeable = False
                shared = time.perf_counter() - started
                for (_, group), gradient, response in zip(block, gradients,
                                                          result.response):
                    n_computed[group[0].row] += 1
                    for path in group:
                        own = time.perf_counter()
                        g = (gradient if key is not None
                             else path.own_gradient(gradient))
                        lam = path.updater(path.lam, g)
                        path.record(lam, response, float(np.linalg.norm(g)),
                                    shared + time.perf_counter() - own,
                                    record_extras, result)
            except HypergradError as err:
                if isinstance(err, NonFiniteError):
                    rows_among(err, rows, len(s0))
                raise rescoped(err, f"hyper-iteration {k}") from err
    return [(path.lam, path.records) for path in paths], n_computed


def _own_tangents(group):
    """The forward engine's key for a group whose paths share one tie,
    which then sweeps one tangent per own entry (NMTL: 2 in place of
    k*k + k); None for any other group, which sweeps one per problem
    entry."""
    keys = {None if path.tie is None else (len(path.lam), path.tie.tobytes())
            for path in group}
    return keys.pop() if len(keys) == 1 else None


def stream_ho_loop(dyn, E, s0, lam0, constraints, delta, stop, lr=0.005,
                   record_extras=None):
    """Real-time loop: one projected update per emission until ``stop``.

    Returns (lam, records). A (S, d) block s0 with a (S, m) block lam0
    runs S streams as one block (see ``engines.rtho_stream``), row i
    scored by row i of ``E`` (S validation sets, or one shared by all),
    and returns one (lam, records) per row; a vector problem runs as the
    one-row block. Each row has its own Adam state and records; the
    constraints and stop rules (free of side effects) are shared, and a
    row leaves the block when its rules fire. A record's ``seconds`` is
    the time since the previous emission: for a block, the sweep of
    every row still in it. ``record_extras(lam, emission)`` sees each
    row's own emission.
    """
    one = OneRow(s0)  # wrapped here, unwrapped on the way out
    s0, lam0 = one.rows(s0, lam0)
    paths = [_OuterPath(lam, constraints, stop, lr, index=i)
             for i, lam in enumerate(lam0)]
    if not _stopped(stop, []):
        stream = rtho_stream(dyn, E, s0, np.array([path.lam for path in paths]),
                             delta, updater=[path.updater for path in paths])
        started = time.perf_counter()
        k = 1  # the emission being computed or recorded
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
                    k += 1
        except HypergradError as err:
            raise rescoped(err, f"hyper-iteration {k}") from err
        finally:
            stream.close()
    return one.out([(path.lam, path.records) for path in paths])
