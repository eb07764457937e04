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
    synthesize_zd_alpha,
    theta_max,
)

from helpers import (
    SCALES,
    SHIFTS,
    extortable_symmetric_3x3,
    n2_admissible,
    payoff_grid,
    rand_strategy,
)

PD = make_symmetric([[3.0, 0.0], [5.0, 1.0]])


class TestParams:
    def test_generous_factor_rejected(self):
        with pytest.raises(ValueError):
            ExtortionParams(0.9, 0.1)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            ExtortionParams(2.0, 0.0)

    @pytest.mark.parametrize("lam, theta", [(math.nan, 0.1), (math.inf, 0.1),
                                            (2.0, math.nan), (2.0, math.inf)])
    def test_non_finite_rejected(self, lam, theta):
        with pytest.raises(ValueError, match="must be finite"):
            ExtortionParams(lam, theta)
        with pytest.raises(ValueError, match="must be finite"):
            chicken_extortion(0.5, lam, theta)


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

    def test_factor_below_one_violates_first_row(self):
        # with a_11 == a_nn the bracket E_11 = (1 - lam)(a_11 - a_nn) vanishes,
        # so lam < 1 is ruled out on its own, as the interval [1, ...] does
        game = make_symmetric([[1.0, 0.0], [2.0, 1.0]])
        report = check_extortion_factor(game, 1.0 - 1e-9)
        assert (report.ok, report.violated, report.theta_max) == (
            False, (("first-row", 1, 1),), 0.0)
        assert check_extortion_factor(game, 1.0).ok
        assert extortion_factor_bounds(game).lambda_min == 1.0

    def test_requires_symmetric(self, rng):
        game = make_game(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            check_extortion_factor(game, 2.0)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_factor_rejected(self, lam):
        game = chicken_family(0.5)
        for check in (check_extortion_factor, theta_max):
            with pytest.raises(ValueError, match="extortion factor must be finite"):
                check(game, lam)

    def test_requires_normalized_diagonal(self):
        with pytest.raises(ValueError, match="relabel"):
            check_extortion_factor(make_symmetric([[0.0, 1.0], [1.0, 2.0]]), 2.0)

    def test_reports_theta_max(self):
        assert check_extortion_factor(chicken_family(0.5), 2.0).theta_max == 0.4
        assert check_extortion_factor(chicken_family(0.5), 4.0).theta_max == 0.0
        # huge factors whose brackets stay finite are judged as usual
        assert check_extortion_factor(chicken_family(0.5), 1e308).theta_max == 0.0
        assert check_extortion_factor(PD, 1e300).theta_max == 2.5e-301

    @pytest.mark.parametrize("game", [chicken_family(0.5), PD])
    def test_overflowing_factor_rejected(self, game):
        # u - lam*w overflows to -inf, which no tolerance may read as admissible
        for check in (check_extortion_factor, theta_max):
            with pytest.raises(ValueError, match="overflows"):
                check(game, 1.7e308)
        with pytest.raises(ValueError, match="overflows"):
            extortion_strategy(game, ExtortionParams(1.7e308, 0.1))


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

    def test_press_dyson_extort_3(self):
        # Extort-3 of Press & Dyson (2012) on the prisoner's dilemma
        # (T, R, P, S) = (5, 3, 1, 0)
        pd = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
        result = extortion_strategy(pd, ExtortionParams(3.0, 1 / 26))
        assert result.feasible
        assert np.allclose(result.p1, [11 / 13, 1 / 2, 7 / 26, 0.0], rtol=0, atol=1e-15)

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

    def test_requires_symmetric(self, rng):
        game = make_game(rng.normal(size=(2, 2)), rng.normal(size=(2, 2)))
        with pytest.raises(ValueError, match="symmetric"):
            extortion_strategy(game, ExtortionParams(2.0, 0.1))


class TestThetaMax:
    def test_chicken_closed_form(self):
        assert theta_max(chicken_family(0.5), 2.0) == 0.4

    def test_press_dyson_prisoners_dilemma(self):
        # Extort-3's scale 1/26 is half the ceiling at factor 3
        assert theta_max(make_symmetric([[3.0, 0.0], [5.0, 1.0]]), 3.0) == 1 / 13

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


# relative band around each end of [lambda_min, lambda_max], fixed before any
# run: the ends are ratios of rounded brackets, so at a tied bracket they are
# off by rounding (A = [[0, 1], [1.5, 0]] scaled by 10**2.5 and shifted by 2
# has lambda_max = 1.4999999999999998, yet the factor 1.5 is admissible)
ENDPOINT_BAND = 1e-12


@given(extortion_problems(), SCALES, SHIFTS)
def test_interval_agrees_with_pointwise_check(problem, s, c):
    A, lam = problem
    game = make_symmetric(s * (A + c))
    bounds = extortion_factor_bounds(game)
    ends = [x for x in (bounds.lambda_min, bounds.lambda_max) if math.isfinite(x)]
    for x in [lam] + [end * (1.0 + d) for end in ends for d in (-1e-9, 0.0, 1e-9)]:
        ok = check_extortion_factor(game, x).ok
        if any(abs(x - end) <= ENDPOINT_BAND * end for end in ends):
            # inside the band the ends of a feasible interval are still admitted
            assert ok or not bounds.feasible, x
        else:
            assert ok == (bounds.feasible and bounds.lambda_min <= x <= bounds.lambda_max), x


@given(extortion_problems(), st.integers(-100, 100), st.integers(-20, 20),
       st.floats(0.01, 1.0))
def test_bracket_route_is_exact_under_shift_and_power_of_two_scale(problem, c, k, share):
    # integer shifts and power-of-two scales leave u - lam*w exact, so the
    # bracket route gives the same bits; the coefficient route does not
    A, lam = problem
    game = make_symmetric(A)
    if not check_extortion_factor(game, lam).ok:
        return
    theta = share * min(theta_max(game, lam), 1.0)
    p1 = extortion_strategy(game, ExtortionParams(lam, theta)).p1
    moved = make_symmetric(math.ldexp(1.0, k) * (A + c))
    moved_p1 = extortion_strategy(moved, ExtortionParams(lam, math.ldexp(theta, -k))).p1
    assert moved_p1.tobytes() == p1.tobytes()


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

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_must_be_finite_and_positive(self, r):
        for build in (chicken_family, lambda r: chicken_extortion(r, 2.0, 0.1)):
            with pytest.raises(ValueError, match="ratio must be finite and positive"):
                build(r)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            chicken_extortion(0.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 2.0, 0.0)


class TestN2Conditions:
    """``check_extortion_factor`` at n = 2 against the closed-form oracle."""

    def test_chicken_boundary(self):
        assert check_extortion_factor(chicken_family(0.5), 3.0).ok
        assert n2_admissible(chicken_family(0.5), 3.0)

    def test_just_past_boundary(self):
        assert not check_extortion_factor(chicken_family(0.5), 3.0 + 1e-6).ok
        assert not n2_admissible(chicken_family(0.5), 3.0 + 1e-6)

    def test_pd_factor_two(self):
        assert check_extortion_factor(PD, 2.0).ok
        assert n2_admissible(PD, 2.0)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    def test_agrees_with_general_conditions(self, rng, scale):
        for _ in range(1000):
            entries = scale * rng.uniform(-2.0, 2.0, size=4)
            a11 = max(entries[0], entries[3])
            a22 = min(entries[0], entries[3])
            game = make_symmetric([[a11, entries[1]], [entries[2], a22]])
            lam = rng.uniform(1.0, 6.0)
            assert check_extortion_factor(game, lam).ok == n2_admissible(game, lam)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_non_finite_factor_rejected(self, lam):
        # a ValueError rather than a verdict
        with pytest.raises(ValueError, match="extortion factor must be finite"):
            check_extortion_factor(chicken_family(0.5), lam)

    @pytest.mark.parametrize("game", [chicken_family(0.5), PD])
    def test_overflowing_factor_rejected(self, game):
        # a ValueError rather than a warning and a verdict
        with pytest.raises(ValueError, match=r"factor 1\.7e\+308 overflows"):
            check_extortion_factor(game, 1.7e308)

    def test_largest_factors_keep_the_verdict(self):
        # at 1e308 chicken's brackets stay finite and give the oracle's
        # verdict; PD's bracket 1 + 4e308 overflows and raises
        assert check_extortion_factor(chicken_family(0.5), 1e308).ok is False
        assert not n2_admissible(chicken_family(0.5), 1e308)
        with pytest.raises(ValueError, match=r"factor 1e\+308 overflows"):
            check_extortion_factor(PD, 1e308)
