import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    ExtortionParams,
    check_extortion_factor,
    chicken_extortion,
    chicken_family,
    expected_scores,
    extortion_coefficients,
    extortion_factor_bounds,
    extortion_strategy,
    make_game,
    make_symmetric,
    n2_conditions,
    synthesize_zd_alpha,
    theta_max,
)

from helpers import SCALES, SHIFTS, extortable_symmetric_3x3, payoff_grid, rand_strategy

PD = make_symmetric([[3.0, 0.0], [5.0, 1.0]])


class TestParams:
    def test_generous_factor_rejected(self):
        with pytest.raises(ValueError):
            ExtortionParams(0.9, 0.1)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            ExtortionParams(2.0, 0.0)


class TestCheckFactor:
    def test_chicken_two_admissible(self):
        assert check_extortion_factor(chicken_family(0.5), 2.0).ok

    def test_chicken_four_violates_last_row(self):
        report = check_extortion_factor(chicken_family(0.5), 4.0)
        assert not report.ok
        assert report.violated == (("last-row", 2, 1),)

    def test_interior_diagonal_violation(self):
        # a_22 > a_33 makes the interior diagonal bracket (1 - lam)(a_22 - a_33) < 0
        A = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        report = check_extortion_factor(make_symmetric(A), 2.0)
        assert not report.ok
        assert ("interior", 2, 2) in report.violated

    def test_wider_interior_diagonal(self):
        A = np.zeros((4, 4))
        A[0, 0], A[1, 1], A[2, 2], A[3, 3] = 4.0, 1.0, 2.0, 1.0
        report = check_extortion_factor(make_symmetric(A), 2.0)
        assert ("interior", 3, 3) in report.violated

    def test_requires_symmetric(self, rng):
        game = make_game(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            check_extortion_factor(game, 2.0)

    def test_requires_normalized_diagonal(self):
        with pytest.raises(ValueError, match="relabel"):
            check_extortion_factor(make_symmetric([[0.0, 1.0], [1.0, 2.0]]), 2.0)


class TestFactorBounds:
    def test_chicken_half(self):
        bounds = extortion_factor_bounds(chicken_family(0.5))
        assert bounds.feasible
        assert bounds.lambda_min == 1.0
        assert abs(bounds.lambda_max - 3.0) <= 1e-12

    def test_chicken_steep(self):
        bounds = extortion_factor_bounds(chicken_family(1.5))
        assert bounds.feasible
        assert (bounds.lambda_min, bounds.lambda_max) == (1.0, math.inf)

    def test_vanishing_off_diagonals(self):
        bounds = extortion_factor_bounds(make_symmetric([[1.0, 0.0], [0.0, 0.0]]))
        assert bounds.feasible
        assert (bounds.lambda_min, bounds.lambda_max) == (1.0, math.inf)

    def test_tight_at_the_top(self, rng):
        for _ in range(10):
            game, _, _ = extortable_symmetric_3x3(rng)
            bounds = extortion_factor_bounds(game)
            if math.isinf(bounds.lambda_max):
                continue
            assert check_extortion_factor(game, bounds.lambda_max).ok
            assert not check_extortion_factor(game, bounds.lambda_max + 1e-6).ok


class TestExtortionStrategy:
    def test_chicken_reference_point(self):
        result = extortion_strategy(chicken_family(0.5), ExtortionParams(2.0, 0.1))
        assert result.feasible
        assert np.array_equal(result.p1, [0.9, 0.75, 0.05, 0.0])

    def test_fair_factor(self, rng):
        game, _, _ = extortable_symmetric_3x3(rng)
        result = extortion_strategy(game, ExtortionParams(1.0, 0.01))
        assert result.p1[0] == 1.0
        if result.feasible:
            p = result.complete()
            q = rand_strategy(rng, "beta", 3, 3)
            scores = expected_scores(game, p, q)
            assert abs(scores.pi_alpha - scores.pi_beta) < 1e-9

    def test_matches_coefficient_route(self, rng):
        for _ in range(5):
            game, lam, theta = extortable_symmetric_3x3(rng)
            direct = extortion_strategy(game, ExtortionParams(lam, theta))
            nn = float(game.A[-1, -1])
            routed = synthesize_zd_alpha(game, extortion_coefficients(lam, nn, theta))
            assert direct.feasible and routed.feasible
            assert np.allclose(direct.p1, routed.p1, rtol=0, atol=1e-14)

    def test_enforces_relation_on_3x3(self, rng):
        game, lam, theta = extortable_symmetric_3x3(rng)
        p = extortion_strategy(game, ExtortionParams(lam, theta)).complete()
        nn = float(game.A[-1, -1])
        for _ in range(10):
            q = rand_strategy(rng, "beta", 3, 3)
            scores = expected_scores(game, p, q)
            assert abs((scores.pi_alpha - nn) - lam * (scores.pi_beta - nn)) < 1e-9

    def test_custom_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            extortion_strategy(chicken_family(0.5), ExtortionParams(2.0, 0.1, delta=0.5))

    def test_requires_symmetric(self, rng):
        game = make_game(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            extortion_strategy(game, ExtortionParams(2.0, 0.1))


class TestThetaMax:
    def test_chicken_closed_form(self):
        assert theta_max(chicken_family(0.5), 2.0) == 0.4

    def test_feasibility_flips_at_limit(self):
        game = chicken_family(0.5)
        assert extortion_strategy(game, ExtortionParams(2.0, 0.4)).feasible
        assert not extortion_strategy(game, ExtortionParams(2.0, 0.4001)).feasible

    def test_unbounded_when_nothing_binds(self):
        game = make_symmetric([[1.0, 0.0], [0.0, 1.0]])
        assert theta_max(game, 1.0) == math.inf

    def test_inadmissible_factor_rejected(self):
        with pytest.raises(ValueError, match="not admissible"):
            theta_max(chicken_family(0.5), 4.0)

    def test_monotone_boundary(self, rng):
        for _ in range(5):
            game, lam, _ = extortable_symmetric_3x3(rng)
            limit = theta_max(game, lam)
            assert math.isfinite(limit)
            assert extortion_strategy(game, ExtortionParams(lam, 0.5 * limit)).feasible
            assert extortion_strategy(game, ExtortionParams(lam, limit)).feasible
            above = limit * (1.0 + 1e-6)
            assert not extortion_strategy(game, ExtortionParams(lam, above)).feasible


@st.composite
def extortion_problems(draw):
    """A normalized symmetric game and a factor, with some brackets tied at 0.

    A tie sets a_ij - a_nn = lam * (a_ji - a_nn) below the diagonal, so
    E_ij vanishes exactly; rescaled or shifted payoffs leave only rounding
    there, which a scale-free tolerance must still read as zero.
    """
    n = draw(st.integers(2, 4))
    lam = draw(st.integers(2, 20)) / 2.0
    A = draw(payoff_grid(n, n))
    if A[0, 0] < A[-1, -1]:
        A[0, 0], A[-1, -1] = A[-1, -1], A[0, 0]
    for i, j in zip(*np.tril_indices(n, -1)):
        if draw(st.booleans()):
            A[i, j] = A[-1, -1] + lam * (A[j, i] - A[-1, -1])
    return A, lam


@given(extortion_problems(), SCALES, SHIFTS)
def test_admissibility_ignores_payoff_scale_and_shift(problem, s, c):
    A, lam = problem
    game, moved = make_symmetric(A), make_symmetric(s * (A + c))
    report = check_extortion_factor(game, lam)
    assert check_extortion_factor(moved, lam).violated == report.violated
    assert extortion_factor_bounds(moved).feasible == extortion_factor_bounds(game).feasible
    if report.ok:
        limit = theta_max(game, lam)
        moved_limit = s * theta_max(moved, lam)
        assert moved_limit == limit or abs(moved_limit - limit) <= 1e-9 * limit


class TestChickenExtortion:
    def test_reference_point(self):
        assert tuple(chicken_extortion(0.5, 2.0, 0.1)) == (0.9, 0.75, 0.05, 0.0)

    def test_fair_factor_point(self):
        # lam = 1: third entry is theta*(1 + r - (1 - r)) = 2*theta*r
        assert np.allclose(
            chicken_extortion(0.5, 1.0, 0.1), [1.0, 0.9, 0.1, 0.0], rtol=0, atol=1e-15
        )

    def test_matches_strategy_construction(self, rng):
        for _ in range(20):
            r = rng.uniform(0.1, 2.0)
            top = (1.0 + r) / (1.0 - r) if r < 1.0 else 5.0
            lam = rng.uniform(1.0, min(top, 5.0))
            theta = rng.uniform(0.001, min(1.0, theta_max(chicken_family(r), lam)))
            closed = chicken_extortion(r, lam, theta)
            built = extortion_strategy(chicken_family(r), ExtortionParams(lam, theta))
            assert np.allclose(closed, built.p1, rtol=5e-16, atol=1e-15)

    def test_matches_exactly_at_reference(self):
        built = extortion_strategy(chicken_family(0.5), ExtortionParams(2.0, 0.1))
        assert tuple(chicken_extortion(0.5, 2.0, 0.1)) == tuple(built.p1)

    def test_factor_beyond_family_bound(self):
        with pytest.raises(ValueError, match="admissible"):
            chicken_extortion(0.5, 3.1, 0.01)

    def test_steep_family_unbounded(self):
        vec = chicken_extortion(1.5, 50.0, 1e-3)
        assert ((0.0 <= vec) & (vec <= 1.0)).all()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            chicken_extortion(0.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 2.0, 0.0)


class TestN2Conditions:
    def test_chicken_boundary(self):
        assert n2_conditions(chicken_family(0.5), 3.0)

    def test_just_past_boundary(self):
        assert not n2_conditions(chicken_family(0.5), 3.0 + 1e-6)

    def test_pd_factor_two(self):
        assert n2_conditions(PD, 2.0)

    def test_wrong_dimension(self, rng):
        game = make_symmetric(rng.normal(size=(3, 3)))
        with pytest.raises(ValueError, match="two-strategy"):
            n2_conditions(game, 2.0)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    def test_agrees_with_general_conditions(self, rng, scale):
        for _ in range(1000):
            entries = scale * rng.uniform(-2.0, 2.0, size=4)
            a11 = max(entries[0], entries[3])
            a22 = min(entries[0], entries[3])
            game = make_symmetric([[a11, entries[1]], [entries[2], a22]])
            lam = rng.uniform(1.0, 6.0)
            assert n2_conditions(game, lam) == check_extortion_factor(game, lam).ok
