"""Outer loop pieces: Adam, constraint projections, random search."""

import warnings

import numpy as np
import pytest

from hypergrad.errors import NonFiniteError
from hypergrad.layouts import VectorLayout
from hypergrad.numerics import make_rng
from hypergrad.outer import (AdamState, Box, BoxL1, Constraints, Exponential,
                             MTLCone, NonNeg, ProjectedAdam, SearchSpace,
                             UnitInterval, Uniform, adam_update, random_search)


# ---------------------------------------------------------------------------
# Adam


def test_adam_first_step_is_almost_lr():
    state = AdamState(lr=0.005)
    state, lam = adam_update(state, np.array([1.0]), np.array([0.5]))
    # bias correction makes the first step lr * g/|g| up to eps rounding
    assert abs(lam[0] - 0.995) < 1e-6
    assert state.count == 1


def test_adam_zero_gradient_keeps_lambda():
    state = AdamState(lr=0.005)
    lam0 = np.array([1.0, -2.0, 0.25])
    state, lam = adam_update(state, lam0, np.zeros(3))
    assert np.array_equal(lam, lam0)


def test_adam_step_size_bounded_by_lr():
    state = AdamState(lr=0.01)
    lam = np.array([0.0, 0.0])
    g = np.array([3.0, -7.0])
    for _ in range(2):
        state, new = adam_update(state, lam, g)
        # normalized update: each coordinate moves at most lr (1 + tol)
        assert np.max(np.abs(new - lam)) <= 0.01 * (1 + 1e-6)
        lam = new
    # identical gradients keep pushing in the same direction
    assert np.all(np.sign(lam) == -np.sign(g))


def test_projected_adam_composes_update_and_projection():
    layout = VectorLayout([("eta", 1)])
    cons = Constraints(layout, {"eta": NonNeg()})
    opt = ProjectedAdam(constraints=cons, lr=0.1)
    lam = np.array([0.02])
    lam = opt.update(lam, np.array([5.0]))
    assert lam[0] == 0.0  # stepped negative, clipped back


def test_projected_adam_without_constraints_is_plain_adam():
    opt = ProjectedAdam(lr=0.005)
    lam = opt.update(np.array([1.0]), np.array([0.5]))
    assert abs(lam[0] - 0.995) < 1e-6


def test_an_overflowing_adam_moment_fails_instead_of_stalling():
    # 1e200 squared overflows: an inf second moment would make every
    # later step of the entry 0 (0.5 would come back for g = 1e200 and
    # again for g = 1.0), so it is a NonFiniteError under any filter
    opt = ProjectedAdam(None, lr=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match="Adam second moment"):
            opt(np.array([0.5]), np.array([1e200]))
        with pytest.raises(NonFiniteError):
            ProjectedAdam(None, lr=0.1)(np.array([0.5]), np.array([np.nan]))
    assert opt.state.count == 0  # the failed step left the state alone
    lam = opt(np.array([0.5]), np.array([1e150]))  # squares to 1e300
    assert lam[0] < 0.5


# ---------------------------------------------------------------------------
# projections: hand cases


def test_box_clips_coordinatewise():
    rule = Box(0.0, 2.0)
    out = rule.project(np.array([-1.0, 0.5, 3.0]))
    assert np.array_equal(out, [0.0, 0.5, 2.0])


def test_nonneg_and_unit_interval():
    assert np.array_equal(NonNeg().project(np.array([-0.2, 0.3])), [0.0, 0.3])
    assert np.array_equal(UnitInterval().project(np.array([-0.2, 0.3, 1.7])),
                          [0.0, 0.3, 1.0])


def test_box_l1_interior_point_untouched():
    rule = BoxL1(0.0, 1.0, radius=1.0)
    x = np.array([0.2, 0.3])
    assert np.array_equal(rule.project(x), x)


def test_box_l1_shifts_by_common_theta():
    # radius 1, point (0.5, 0.7): L1 excess 0.2 -> theta = 0.1
    rule = BoxL1(0.0, 1.0, radius=1.0)
    out = rule.project(np.array([0.5, 0.7]))
    assert np.max(np.abs(out - [0.4, 0.6])) < 1e-12
    assert abs(out.sum() - 1.0) < 1e-12


def test_box_l1_clips_before_shrinking():
    rule = BoxL1(0.0, 1.0, radius=1.0)
    out = rule.project(np.array([2.0, -0.5]))
    assert np.max(np.abs(out - [1.0, 0.0])) < 1e-12


def test_box_l1_rejects_empty_feasible_set():
    # three entries >= 0.5 cannot sum to <= 1.0
    with pytest.raises(ValueError, match="empty feasible set"):
        BoxL1(0.5, 1.0, radius=1.0).project(np.array([0.9, 0.9, 0.9]))
    with pytest.raises(ValueError, match="empty box"):
        BoxL1(1.0, 0.5, radius=1.0)
    # the boundary lo * n == radius is feasible: every entry at lo
    out = BoxL1(0.5, 1.0, radius=1.5).project(np.array([0.9, 0.9, 0.9]))
    assert np.max(np.abs(out - 0.5)) < 1e-12


def test_mtl_cone_hand_case():
    # [[0, -1], [3, 0]] -> symmetrize to [[0, 1], [1, 0]]: the (0,1) pair
    # averages to 1 after clipping the negative entry... the projection
    # symmetrizes first ((-1+3)/2 = 1), then clips, then caps the sum
    rule = MTLCone(radius=10.0)
    out = rule.project(np.array([[0.0, -1.0], [3.0, 0.0]]).ravel())
    assert np.array_equal(out.reshape(2, 2), [[0.0, 1.0], [1.0, 0.0]])


def test_mtl_cone_sum_cap():
    rule = MTLCone(radius=1.0)
    c = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = rule.project(c.ravel()).reshape(2, 2)
    assert out[0, 1] == out[1, 0]
    assert out.sum() <= 1.0 + 1e-12
    assert np.all(out >= 0)


def test_mtl_cone_output_is_bitwise_symmetric():
    rng = make_rng(3, 0xC0)
    for _ in range(5):
        c = rng.standard_normal((4, 4))
        out = MTLCone(radius=2.0).project(c.ravel()).reshape(4, 4)
        assert np.array_equal(out, out.T)
        assert np.all(out >= 0)
        assert out.sum() <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# projections: idempotence and optimality on random draws


def _feasible_samples(rule, dim, rng, n):
    """Rejection-free feasible points: project random draws (valid since
    each rule's feasible set is exactly its own fixed-point set)."""
    pts = []
    while len(pts) < n:
        raw = rng.standard_normal(dim) * 2.0
        pts.append(rule.project(raw))
    return pts


@pytest.mark.parametrize("rule,dim", [
    (Box(-1.0, 1.0), 6),
    (NonNeg(), 6),
    (UnitInterval(), 6),
    (BoxL1(0.0, 1.0, radius=2.0), 6),
    (MTLCone(radius=3.0), 9),
])
def test_projection_idempotent_bitwise(rule, dim):
    rng = make_rng(11, hash(type(rule).__name__) % (2**16))
    for _ in range(20):
        once = rule.project(rng.standard_normal(dim) * 3.0)
        twice = rule.project(once)
        assert np.array_equal(once, twice)


@pytest.mark.parametrize("rule,dim", [
    (Box(-1.0, 1.0), 5),
    (BoxL1(0.0, 1.0, radius=2.0), 5),
    (MTLCone(radius=3.0), 9),
])
def test_projection_beats_random_feasible_points(rule, dim):
    """proj(x) is the closest feasible point among 1000 feasible samples."""
    rng = make_rng(12, dim)
    x = rng.standard_normal(dim) * 2.5
    px = rule.project(x)
    d_star = np.linalg.norm(x - px)
    for other in _feasible_samples(rule, dim, rng, 1000):
        assert d_star <= np.linalg.norm(x - other) + 1e-10


# ---------------------------------------------------------------------------
# segment-wise constraint container


def test_constraints_apply_per_segment():
    layout = VectorLayout([("coupling", 4), ("rho", 2)])
    cons = Constraints(layout, {"coupling": MTLCone(radius=1.0),
                                "rho": NonNeg()})
    lam = layout.pack(coupling=np.array([0.0, 3.0, -1.0, 0.0]),
                      rho=np.array([-0.5, 0.2]))
    out = cons.project(lam)
    c = layout.get(out, "coupling").reshape(2, 2)
    assert np.array_equal(c, c.T) and c.sum() <= 1.0 + 1e-12
    assert np.array_equal(layout.get(out, "rho"), [0.0, 0.2])


def test_constraints_leave_unlisted_segments_alone():
    layout = VectorLayout([("eta", 1), ("weights", 3)])
    cons = Constraints(layout, {"eta": NonNeg()})
    lam = layout.pack(eta=-2.0, weights=np.array([-1.0, 5.0, 0.0]))
    out = cons.project(lam)
    assert out[0] == 0.0
    assert np.array_equal(layout.get(out, "weights"), [-1.0, 5.0, 0.0])


def test_constraints_contains_predicate():
    layout = VectorLayout([("eta", 1)])
    cons = Constraints(layout, {"eta": NonNeg()})
    assert cons.contains(np.array([0.3]))
    assert not cons.contains(np.array([-0.3]))


# ---------------------------------------------------------------------------
# random search


def _space():
    layout = VectorLayout([("eta", 1), ("mu", 1)])
    return SearchSpace(layout, {"eta": Exponential(0.1), "mu": Uniform(0, 1)})


# ``evaluate`` gets every trial at once, one row per trial, and returns
# one score per row


def test_random_search_budget_one():
    space = _space()
    calls = []

    def evaluate(lams):
        calls.append(lams.copy())
        return lams[:, 0]

    result = random_search(space, evaluate, budget=1, seed=5)
    assert len(calls) == 1 and calls[0].shape == (1, 2)
    assert np.array_equal(result.best.lam, calls[0][0])
    assert result.best.score == calls[0][0, 0]
    assert len(result.trials) == 1


def test_random_search_is_deterministic():
    space = _space()
    a = random_search(space, lambda lams: np.sum(lams**2, axis=1), 10, seed=9)
    b = random_search(space, lambda lams: np.sum(lams**2, axis=1), 10, seed=9)
    assert np.array_equal(a.best.lam, b.best.lam)
    assert [t.score for t in a.trials] == [t.score for t in b.trials]


def test_random_search_draws_each_trial_from_its_own_substream():
    space = _space()
    result = random_search(space, lambda lams: lams[:, 0], 6, seed=9)
    for trial in result.trials:
        want = space.sample(make_rng(9, 0x525348, trial.index))
        assert np.array_equal(trial.lam, want)


def test_random_search_fails_only_the_non_finite_rows():
    space = _space()
    result = random_search(
        space, lambda lams: [1.0, np.nan, 0.5, np.inf, 2.0], 5, seed=1)
    assert [t.failed for t in result.trials] == [False, True, False, True,
                                                 False]
    assert [t.score for t in result.trials] == [1.0, np.inf, 0.5, np.inf, 2.0]
    assert result.best.index == 2


def test_random_search_all_failed_keeps_the_lowest_score():
    from hypergrad.errors import NonFiniteError

    def diverge(lams):
        raise NonFiniteError("non-finite value in optimization state", step=3)

    for evaluate in (diverge, lambda lams: np.full(len(lams), np.nan)):
        result = random_search(_space(), evaluate, 4, seed=2)
        assert all(t.failed and t.score == np.inf for t in result.trials)
        assert result.best is min(result.trials, key=lambda tr: tr.score)


def test_random_search_rejects_a_score_count_mismatch():
    from hypergrad.errors import DimensionMismatchError
    with pytest.raises(DimensionMismatchError, match="3 trials"):
        random_search(_space(), lambda lams: [0.0], 3, seed=0)


def test_random_search_respects_distributions():
    space = _space()
    seen = []
    random_search(space, lambda lams: seen.append(lams.copy()) or
                  np.zeros(len(lams)), 200, seed=3)
    [arr] = seen
    assert np.all(arr[:, 0] >= 0)           # Exponential support
    assert np.all((arr[:, 1] >= 0) & (arr[:, 1] <= 1))
    assert 0.05 < arr[:, 0].mean() < 0.2    # scale 0.1
    assert arr[:, 1].std() > 0.2            # genuinely uniform, not constant


def test_random_search_finds_quartic_minimum():
    # f(eta) = 0.5 (1 - eta)^4 on eta ~ U(0, 2): 50 draws land within
    # 0.15 of the minimizer with overwhelming probability
    layout = VectorLayout([("eta", 1)])
    space = SearchSpace(layout, {"eta": Uniform(0.0, 2.0)})
    result = random_search(space, lambda lams: 0.5 * (1 - lams[:, 0]) ** 4,
                           budget=50, seed=0)
    assert abs(result.best.lam[0] - 1.0) < 0.15


def test_search_space_sampling_determinism():
    space = _space()
    rng1 = make_rng(4, 0xA)
    rng2 = make_rng(4, 0xA)
    assert np.array_equal(space.sample(rng1), space.sample(rng2))
