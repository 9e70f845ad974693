"""Outer-loop machinery: Adam on hyperparameters, constraint projections,
and a random-search baseline.

Constraint sets are attached per named segment of the hyper layout and
composed by :class:`Constraints`; the overall projection is exact
because the sets live on disjoint coordinate blocks (the projection of a
product set is the product of projections).

All projections are idempotent to the letter: feeding a projected point
back in returns it bitwise unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError
from .numerics import as_vector, ensure_finite, make_rng

# ---------------------------------------------------------------------------
# Adam


@dataclass(frozen=True)
class AdamState:
    lr: float = 0.005
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    count: int = 0
    m1: np.ndarray = None
    m2: np.ndarray = None


def adam_update(state: AdamState, lam, g):
    """One bias-corrected Adam step; returns (new state, unprojected lam')."""
    lam = as_vector(lam)
    g = ensure_finite(as_vector(g), "hypergradient")
    m1 = np.zeros_like(g) if state.m1 is None else state.m1
    m2 = np.zeros_like(g) if state.m2 is None else state.m2
    t = state.count + 1
    m1 = state.beta1 * m1 + (1.0 - state.beta1) * g
    m2 = state.beta2 * m2 + (1.0 - state.beta2) * g * g
    m1_hat = m1 / (1.0 - state.beta1 ** t)
    m2_hat = m2 / (1.0 - state.beta2 ** t)
    new_lam = lam - state.lr * m1_hat / (np.sqrt(m2_hat) + state.eps)
    new_state = AdamState(lr=state.lr, beta1=state.beta1, beta2=state.beta2,
                          eps=state.eps, count=t, m1=m1, m2=m2)
    return new_state, new_lam


# ---------------------------------------------------------------------------
# Projections (one constraint kind per hyper segment)


class Box:
    """Clip to [lo, hi] coordinatewise."""

    def __init__(self, lo, hi):
        if lo > hi:
            raise ValueError(f"empty box: lo={lo} > hi={hi}")
        self.lo = float(lo)
        self.hi = float(hi)

    def project(self, x):
        return np.clip(x, self.lo, self.hi)

    def contains(self, x, tol=1e-9):
        return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))


class UnitInterval(Box):
    def __init__(self):
        super().__init__(0.0, 1.0)


class NonNeg:
    def project(self, x):
        return np.maximum(x, 0.0)

    def contains(self, x, tol=1e-9):
        return bool(np.all(x >= -tol))


def _shift_for_sum(x, lo, hi, radius):
    """Largest-interval bisection for theta with sum(clip(x - theta)) = radius.

    The clipped sum is non-increasing in theta, so we shrink a bracket
    for 64 iterations and return the upper endpoint, whose clipped sum is
    <= radius by construction — that one-sided choice is what makes the
    projection exactly idempotent.
    """
    theta_lo = 0.0
    theta_hi = float(np.max(x) - lo)
    for _ in range(64):
        mid = 0.5 * (theta_lo + theta_hi)
        s = float(np.clip(x - mid, lo, hi).sum())
        if s > radius:
            theta_lo = mid
        else:
            theta_hi = mid
    return theta_hi


class BoxL1:
    """Intersection of a box [lo,hi]^n with the half-space sum(x) <= radius.

    For lo = 0 (the only case exercised) this is the usual
    box-intersect-L1-ball projection: clip to the box, and if the mass
    exceeds the budget, shift everything down by the theta that restores
    it before clipping again.
    """

    def __init__(self, lo, hi, radius):
        if lo > hi:
            raise ValueError(f"empty box: lo={lo} > hi={hi}")
        if radius < 0:
            raise ValueError(f"negative L1 radius {radius}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.radius = float(radius)

    def project(self, x):
        if self.lo * len(x) > self.radius:
            raise ValueError(
                f"empty feasible set: {len(x)} entries >= lo={self.lo} "
                f"cannot sum to <= radius={self.radius}"
            )
        clipped = np.clip(x, self.lo, self.hi)
        if float(clipped.sum()) <= self.radius:
            return clipped
        theta = _shift_for_sum(x, self.lo, self.hi, self.radius)
        return np.clip(x - theta, self.lo, self.hi)

    def contains(self, x, tol=1e-9):
        box_ok = np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol)
        return bool(box_ok and float(x.sum()) <= self.radius + tol)


class MTLCone:
    """Symmetric nonnegative matrices, optionally with a total-sum budget.

    Operates on a flattened k x k segment: symmetrize (C + C^T)/2, clamp
    negatives, then — if a radius is set and the mass exceeds it — apply
    the same downward shift-and-clamp used by BoxL1. Symmetrizing first
    is exact because the constraint set is invariant under transposition,
    and the output is bitwise symmetric by construction.
    """

    def __init__(self, radius=None):
        if radius is not None and radius < 0:
            raise ValueError(f"negative sum budget {radius}")
        self.radius = None if radius is None else float(radius)

    def project(self, x):
        k = math.isqrt(len(x))
        if k * k != len(x):
            raise ValueError(f"segment length {len(x)} is not a square")
        c = 0.5 * (x.reshape(k, k) + x.reshape(k, k).T)
        c = np.maximum(c, 0.0)
        if self.radius is not None and float(c.sum()) > self.radius:
            theta = _shift_for_sum(c, 0.0, np.inf, self.radius)
            c = np.maximum(c - theta, 0.0)
        return c.ravel()

    def contains(self, x, tol=1e-9):
        k = math.isqrt(len(x))
        c = x.reshape(k, k)
        ok = np.array_equal(c, c.T) and np.all(c >= -tol)
        if self.radius is not None:
            ok = ok and float(c.sum()) <= self.radius + tol
        return bool(ok)


class Constraints:
    """Segment-wise projection over a hyper layout.

    Segments without a rule pass through untouched.
    """

    def __init__(self, layout, rules: dict):
        for name in rules:
            if name not in layout:
                raise ValueError(f"constraint on unknown segment {name!r}")
        self.layout = layout
        self.rules = dict(rules)

    def project(self, x):
        out = as_vector(x).copy()
        for name, rule in self.rules.items():
            sl = self.layout.slice_of(name)
            out[sl] = rule.project(out[sl])
        return out

    def contains(self, x, tol=1e-9):
        return all(rule.contains(x[self.layout.slice_of(name)], tol)
                   for name, rule in self.rules.items())


class ProjectedAdam:
    """Adam followed by projection; usable directly as a stream updater."""

    def __init__(self, constraints: Constraints | None = None, lr=0.005,
                 beta1=0.9, beta2=0.999, eps=1e-8):
        self.state = AdamState(lr=lr, beta1=beta1, beta2=beta2, eps=eps)
        self.constraints = constraints

    def update(self, lam, g):
        self.state, raw = adam_update(self.state, lam, g)
        if self.constraints is None:
            return raw
        return self.constraints.project(raw)

    __call__ = update


# ---------------------------------------------------------------------------
# Random search


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def sample(self, rng, size):
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Exponential:
    """Exponential with the given mean (scale parameterization)."""

    scale: float

    def sample(self, rng, size):
        return rng.exponential(self.scale, size)


class SearchSpace:
    """Per-segment sampling distributions over a hyper layout."""

    def __init__(self, layout, dists: dict):
        for name in dists:
            if name not in layout:
                raise ValueError(f"distribution on unknown segment {name!r}")
        self.layout = layout
        self.dists = dict(dists)

    def sample(self, rng):
        lam = np.zeros(self.layout.size)
        for name, dist in self.dists.items():
            sl = self.layout.slice_of(name)
            lam[sl] = dist.sample(rng, sl.stop - sl.start)
        return lam


@dataclass
class Trial:
    index: int
    lam: np.ndarray
    score: float
    failed: bool = False


@dataclass
class RandomSearchResult:
    best: Trial
    trials: list


def random_search(space: SearchSpace, evaluate, budget, seed) -> RandomSearchResult:
    """Sample ``budget`` points i.i.d. and keep the lowest score.

    Each trial draws from its own seed-derived substream, so results are
    reproducible and independent of evaluation order. ``evaluate`` gets
    all the points at once, as a (budget, m) block whose row i is trial
    i, and returns one score per row; it may train the rows as one
    population (see ``engines.train``). A row whose score is not finite
    is a failed trial with an infinite score, and so is every row if
    ``evaluate`` raises a numerical error; failed trials never become
    ``best`` unless every trial failed.
    """
    if budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    lams = np.array([space.sample(make_rng(seed, 0x525348, i))
                     for i in range(budget)])
    try:
        scores = np.asarray(evaluate(lams), dtype=np.float64)
    except (NonFiniteError, FloatingPointError, OverflowError):
        scores = np.full(budget, np.inf)
    if scores.shape != (budget,):
        raise DimensionMismatchError(
            f"evaluate returned {scores.shape} scores for {budget} trials")
    trials = []
    best = None
    for i, (lam, score) in enumerate(zip(lams, scores.tolist())):
        failed = not math.isfinite(score)
        trial = Trial(index=i, lam=lam, score=math.inf if failed else score,
                      failed=failed)
        trials.append(trial)
        if not failed and (best is None or trial.score < best.score):
            best = trial
    if best is None:
        best = min(trials, key=lambda tr: tr.score)
    return RandomSearchResult(best=best, trials=trials)
