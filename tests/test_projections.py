"""Property tests of the constraint projections on random shapes.

For every rule, at random sizes, parameters and points drawn from a
seeded numpy generator:

* idempotence: projecting a projected point returns it bit for bit;
* feasibility: ``contains`` accepts every projected point;
* optimality: no feasible point is closer to x than proj(x), checked
  against feasible points drawn independently of the projection and
  against points on the segments from proj(x) towards them;
* the budget is inert below it: ``MTLCone(r).project(x)`` is bit-equal
  to ``MTLCone(None).project(x)`` whenever the latter sums to <= r.
"""

import numpy as np
import pytest

from hypergrad.numerics import make_rng
from hypergrad.outer import Box, BoxL1, MTLCone, NonNeg, UnitInterval

KINDS = ["box", "nonneg", "unit", "boxl1", "cone", "cone-radius"]
SEEDS = range(20)
N_FEASIBLE = 100
SEGMENT_STEPS = (1.0, 0.1, 1e-3)
DIST_TOL = 1e-9


def _symmetric_nonneg(rng, k):
    a = np.abs(rng.standard_normal((k, k)))
    return (a + a.T) * 0.5  # bitwise symmetric: float addition commutes


def random_rule(kind, rng):
    """(rule, dimension, feasible-point sampler) with drawn parameters."""
    if kind in ("cone", "cone-radius"):
        k = int(rng.integers(1, 6))
        radius = float(rng.uniform(0.1, 3.0) * k) if kind == "cone-radius" else None

        def feasible():
            c = _symmetric_nonneg(rng, k) * rng.uniform(0.0, 2.0)
            if radius is not None and c.sum() > radius:
                c = c * (radius * rng.random() / c.sum())
            return c.ravel()
        return MTLCone(radius), k * k, feasible
    n = int(rng.integers(1, 13))
    if kind == "box":
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        return Box(lo, hi), n, lambda: rng.uniform(lo, hi, n)
    if kind == "unit":
        return UnitInterval(), n, lambda: rng.random(n)
    if kind == "nonneg":
        return (NonNeg(), n,
                lambda: np.abs(rng.standard_normal(n)) * (rng.random(n) < 0.7))
    lo = float(rng.choice([0.0, rng.uniform(0.0, 0.2)]))
    hi = lo + float(rng.uniform(0.1, 1.5))
    radius = n * lo + float(rng.uniform(0.0, n * (hi - lo)))

    def feasible():
        v = rng.uniform(0.0, hi - lo, n)
        room = radius - n * lo
        if v.sum() > room:
            v = v * (room * rng.random() / v.sum())
        return lo + v
    return BoxL1(lo, hi, radius), n, feasible


def draw_point(rng, dim):
    return (rng.standard_normal(dim) * rng.uniform(0.1, 4.0)
            + rng.uniform(-1.0, 2.0))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_projection_is_idempotent_and_feasible(kind, seed):
    rng = make_rng(seed, 0x960, KINDS.index(kind))
    rule, dim, _ = random_rule(kind, rng)
    for _ in range(10):
        once = rule.project(draw_point(rng, dim))
        assert rule.contains(once)
        assert rule.project(once).tobytes() == once.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", KINDS)
def test_projection_is_closest_feasible_point(kind, seed):
    rng = make_rng(seed, 0x961, KINDS.index(kind))
    rule, dim, feasible = random_rule(kind, rng)
    x = draw_point(rng, dim)
    px = rule.project(x)
    d_star = np.linalg.norm(x - px)
    for _ in range(N_FEASIBLE):
        y = feasible()
        assert rule.contains(y)
        # every point of the segment [px, y] is feasible (convex sets)
        for step in SEGMENT_STEPS:
            z = px + step * (y - px)
            assert d_star <= np.linalg.norm(x - z) + DIST_TOL


@pytest.mark.parametrize("seed", SEEDS)
def test_cone_radius_is_inert_below_the_budget(seed):
    rng = make_rng(seed, 0x962)
    k = int(rng.integers(1, 6))
    x = draw_point(rng, k * k)
    free = MTLCone(None).project(x)
    mass = float(free.sum())
    for radius in (mass, mass * (1.0 + rng.random()), mass + 1.0):
        assert MTLCone(radius).project(x).tobytes() == free.tobytes()
    if mass > 0.0:
        radius = mass * rng.uniform(0.1, 0.9)
        capped = MTLCone(radius).project(x)
        assert capped.tobytes() != free.tobytes()
        assert float(capped.sum()) <= radius
