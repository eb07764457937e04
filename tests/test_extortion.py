import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zdgames import (
    ConditionReport,
    ExtortionParams,
    FactorBounds,
    NonUniqueStationary,
    check_extortion_factor,
    chicken_extortion,
    chicken_family,
    expected_scores,
    extortion_coefficients,
    extortion_factor_bounds,
    extortion_strategy,
    make_game,
    make_symmetric,
    payoff_vectors,
    stationary,
    synthesize_zd_alpha,
    theta_max,
    transition_matrix,
    verify_linear_relation,
)
import zdgames.extortion as extortion_module
from zdgames.extortion import CONDITION_TOL

from helpers import (
    SCALES,
    SHIFTS,
    assert_scaled_theta_max,
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
        # PD's E_12/2 overflows to -inf, which no tolerance may read as admissible;
        # chicken's halved brackets stay finite and miss the last-row half-line
        if game is PD:
            for check in (check_extortion_factor, theta_max):
                with pytest.raises(ValueError, match="overflows"):
                    check(game, 1.7e308)
            with pytest.raises(ValueError, match="overflows"):
                extortion_strategy(game, ExtortionParams(1.7e308, 0.1))
        else:
            assert check_extortion_factor(game, 1.7e308) == \
                ConditionReport(False, (("last-row", 2, 1),), 0.0)
            with pytest.raises(ValueError, match="not admissible"):
                theta_max(game, 1.7e308)
            assert not extortion_strategy(game, ExtortionParams(1.7e308, 0.1)).feasible

    def test_end_at_the_float_limit(self):
        # the (2,1) half-line ends at the largest float; widening it must not warn
        game = make_symmetric([[1.0, 1.0], [np.finfo(float).max, 0.0]])
        assert check_extortion_factor(game, 1.0).ok


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

    def test_end_at_zero_prints_as_zero(self):
        # U = -0.0 over W = 1 on the first row ends the interval at 0.0, not -0.0
        bounds = extortion_factor_bounds(make_symmetric([[1.0, 0.0], [-1.0, 0.0]]))
        assert bounds == FactorBounds(1.0, 0.0, False)
        assert math.copysign(1.0, bounds.lambda_max) == 1.0

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


def assert_one_rule(game, factors):
    """The check admits a factor x >= 1 exactly when the widened interval holds it.

    The interval is [lambda_min*(1 - 2*CONDITION_TOL), lambda_max*(1 +
    2*CONDITION_TOL)], empty unless ``feasible``.  Each factor tried is one
    of ``factors`` or a finite end times 1 - 1e-9, 1 or 1 + 1e-9.  Every
    admitted factor has theta_max > 0, a feasible strategy at theta_max itself
    when it is finite, and at half of it (of 1/max|A| when theta_max is inf) a
    feasible strategy that enforces the relation.
    """
    bounds = extortion_factor_bounds(game)
    low = bounds.lambda_min * (1.0 - 2.0 * CONDITION_TOL)
    high = bounds.lambda_max * (1.0 + 2.0 * CONDITION_TOL)
    ends = [x for x in (bounds.lambda_min, bounds.lambda_max) if math.isfinite(x)]
    tried = list(factors) + [end * (1.0 + d) for end in ends for d in (-1e-9, 0.0, 1e-9)]
    biggest = np.abs(game.A).max()
    for x in (x for x in tried if x >= 1.0):
        report = check_extortion_factor(game, x)
        assert report.ok == (bounds.feasible and low <= x <= high), (x, bounds, report)
        if report.ok:
            assert report.theta_max > 0.0, x
            limit = report.theta_max
            if math.isfinite(limit):
                assert extortion_strategy(game, ExtortionParams(x, limit)).feasible, (x, limit)
            theta = 0.5 * (limit if math.isfinite(limit) else 1.0 / biggest if biggest else 1.0)
            result = extortion_strategy(game, ExtortionParams(x, theta))
            assert result.feasible, (x, theta)
            assert_enforced(game, result.complete(), x, theta)


def assert_enforced(game, strategy, lam, theta):
    """pi_alpha - a_nn = lam*(pi_beta - a_nn) against one random opponent.

    Checked twice: by verify_linear_relation, whose bound scales with the
    coefficients (theta, -theta*lam), and as theta * v . (u - lam*w) = 0 for
    the stationary v, with u, w the payoff vectors less a_nn, which sums the
    relation over the brackets rather than over the payoffs and so holds to
    an absolute 1e-9 even at theta near 1e8.  A chain without a unique v
    (the strategy repeats its own move) is skipped.
    """
    rng = np.random.default_rng(17)
    opponent = rand_strategy(rng, "beta", game.n, game.n)
    try:
        v = stationary(transition_matrix(strategy, opponent)).v
    except NonUniqueStationary:
        return
    nn = game.A[-1, -1]
    coeffs = extortion_coefficients(lam, nn, theta)
    relation = verify_linear_relation(game, strategy, opponent, coeffs)
    assert relation.holds, (lam, theta, relation.residual)
    wa, wb = payoff_vectors(game)
    residual = theta * abs(v @ ((wa - nn) - lam * (wb - nn)))
    assert residual < 1e-9, (lam, theta, residual)


@given(extortion_problems(), SCALES, SHIFTS)
def test_interval_agrees_with_pointwise_check(problem, s, c):
    A, lam = problem
    assert_one_rule(make_symmetric(s * (A + c)), [lam])


@st.composite
def wide_games(draw):
    """A normalized symmetric game whose cells span 15 orders of magnitude.

    Each cell is 0 with probability 0.3, and +-10**U(-15, 0) otherwise, so
    some brackets sit far below 1e-12 of the largest.
    """
    n = draw(st.integers(2, 4))
    cell = st.tuples(st.integers(0, 9), st.sampled_from([-1.0, 1.0]), st.floats(-15.0, 0.0))
    cells = draw(st.lists(cell, min_size=n * n, max_size=n * n))
    A = np.array([0.0 if k < 3 else sign * 10.0**e for k, sign, e in cells]).reshape(n, n)
    if A[0, 0] < A[-1, -1]:
        A[0, 0], A[-1, -1] = A[-1, -1], A[0, 0]
    return A


@given(wide_games(), SCALES)
@example(np.array([[1.0, 0.0], [-1e-13, 0.0]]), 1.0)  # ties alone bound theta near 1
@example(np.array([[0.0023912007403269677, 0.0007970669134425616],
                   [0.0007970669134423226, -0.0023912007403272067]]), 1.0)  # tie at theta_max
def test_one_rule_on_wide_magnitudes(A, s):
    assert_one_rule(make_symmetric(s * A), [1.0, 1.5, 2.0, 3.0, 7.0])


@pytest.mark.parametrize("A, limits", [([[1.0, 0.0], [-1e-13, 0.0]], (1.0, 10.0)),
                                       ([[1e13, 0.0], [-1.0, 0.0]], (1e-13, 1e-12))],
                         ids=["1", "1e13"])
def test_pointwise_check_decides_a_bracket_under_the_zero_floor(A, limits, rng):
    # E_21 is nonzero but below 1e-12 of the bracket's own terms, so it is a
    # tie at every factor: the interval and the check both read it as zero.
    # Just above lambda_min the (1,1) bracket alone would allow theta ~ 1e9,
    # which the tie E_21 caps at PROB_TOL/|E_21|
    game = make_symmetric(A)
    assert extortion_factor_bounds(game) == FactorBounds(1.0, math.inf, True)
    assert check_extortion_factor(game, 1.05).ok
    assert check_extortion_factor(game, 2.0).theta_max == limits[0]
    for lam, limit in zip((2.0, 1.0 + 1e-9), limits):
        report = check_extortion_factor(game, lam)
        assert report.ok and report.theta_max == pytest.approx(limit, rel=1e-8)
        result = extortion_strategy(game, ExtortionParams(lam, 0.5 * report.theta_max))
        assert result.feasible
        coeffs = extortion_coefficients(lam, 0.0, 0.5 * report.theta_max)
        for _ in range(5):
            opponent = rand_strategy(rng, "beta", 2, 2)
            relation = verify_linear_relation(game, result.complete(), opponent, coeffs)
            assert relation.holds, (lam, relation.residual)


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


@pytest.mark.parametrize("k", [0, 500, 1000])
def test_payoffs_near_the_float_limit_keep_the_scaled_results(k):
    # a_21 - a_22 = 2e308 overflows, and so does E_12 = 1e308 - lam*2e308 past
    # lam = 1.399, but over the game's payoff scale s = 2 every bracket is finite
    # until lam*w overflows past lam = 1.7977, and over 2s up to lam = 2: the
    # exact interval is [1, 2], and the game and its copy scaled by 2^-k give the
    # same verdicts, theta_max times 2^k and the same bits; at lam = 1.4 the copy's
    # theta_max is rounded twice and lands one subnormal step off (see assert_scaled_theta_max)
    A = np.array([[1.0, 0.5], [1e308, -1e308]])
    game, small = make_symmetric(A), make_symmetric(np.ldexp(A, -k))
    assert extortion_factor_bounds(game) == extortion_factor_bounds(small) == \
        FactorBounds(1.0, 2.0, True)
    for lam in (1.0, 1.25, 1.4, 1.5, 1.75, 1.8, 1.9, 2.0):
        report, small_report = check_extortion_factor(game, lam), check_extortion_factor(small, lam)
        assert report.ok and small_report.ok
        if lam != 1.4:
            assert report.theta_max == math.ldexp(small_report.theta_max, -k)
        else:
            assert_scaled_theta_max(report.theta_max, small_report.theta_max, k)
        theta = 0.5 * report.theta_max
        p1 = extortion_strategy(game, ExtortionParams(lam, theta)).p1
        small_p1 = extortion_strategy(small, ExtortionParams(lam, math.ldexp(theta, k))).p1
        assert p1.tobytes() == small_p1.tobytes()


def test_a_scale_past_half_the_float_limit_leaves_zero_brackets_at_delta():
    # theta*s overflows at s = 2; the zero brackets E_11 and E_22 keep delta, not inf*0
    game = make_symmetric([[1.0, 0.5], [1e308, -1e308]])
    result = extortion_strategy(game, ExtortionParams(1.0, 1e308))
    assert not result.feasible
    assert (result.p1[0], result.p1[-1]) == (1.0, 0.0)
    assert [value for _, value in result.violations] == [-math.inf, math.inf]


def test_theta_max_at_the_float_limit_keeps_a_tie_inside_the_box():
    # lam lies in the check's band just past lambda_max, so E_21 is a tie and
    # theta_max is its cap PROB_TOL/|E_21|, below 2^-1022; rounded once there,
    # the strategy at theta_max stays feasible, where halving a cap already
    # rounded over the game's scale would put E_21's entry at -1.0000000000000002e-12
    game = make_symmetric([[-6.721651614944169e307, -7.772991812538314e307],
                           [-6.682604397586876e307, -1.0669612778128566e308]])
    lam = extortion_factor_bounds(game).lambda_max * (1.0 + 1.5e-12)
    report = check_extortion_factor(game, lam)
    assert report.ok and 0.0 < report.theta_max < 2.0**-1022
    assert extortion_strategy(game, ExtortionParams(lam, report.theta_max)).feasible


def test_vectors_below_the_float_limit_keep_their_bits():
    # u and w are always halved: doubled they give omega - a_nn to the last bit
    # where no nonzero payoff lies below 2^-1021, even at the float limit, and
    # a payoff below it may lose its last bit: 5e-324 halves to 0.0
    for A in ([[1.0, 1e-300], [8e307, -3.0]], [[1.5e308, -1e307], [1e308, 2e307]]):
        A = np.array(A)
        first, _, u, w = extortion_module._extortion_vectors(make_symmetric(A))
        wa, wb = payoff_vectors(make_symmetric(A))
        assert first.tobytes() == (wa / 2.0).tobytes()
        assert (2.0 * u).tobytes() == (wa - A[-1, -1]).tobytes()
        assert (2.0 * w).tobytes() == (wb - A[-1, -1]).tobytes()
    first, _, u, _ = extortion_module._extortion_vectors(
        make_symmetric([[1.0, 1e-310], [8e307, 5e-324]]))
    assert first[-1] == 0.0 and u[-1] == 0.0


@st.composite
def float_limit_factors(draw):
    """A symmetric 2x2 or 3x3 game with a_11 >= a_nn and payoffs up to the largest float,
    and a factor from 1 up to the largest float."""
    n = draw(st.integers(2, 3))
    near_limit = st.builds(math.ldexp, st.floats(-2.0, 2.0, exclude_min=True, exclude_max=True),
                           st.integers(1000, 1023))
    payoff = st.one_of(st.floats(-sys.float_info.max, sys.float_info.max),
                       st.floats(-1e3, 1e3), near_limit)
    A = np.array(draw(st.lists(payoff, min_size=n * n, max_size=n * n))).reshape(n, n)
    if A[0, 0] < A[-1, -1]:
        A[0, 0], A[-1, -1] = A[-1, -1], A[0, 0]
    lam = draw(st.one_of(st.floats(1.0, sys.float_info.max), st.floats(1.0, 16.0),
                         st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
                                   st.integers(0, 1023))))
    return A, lam


@given(float_limit_factors())
@example((np.array([[3.0, 0.0], [5.0, 1.0]]), 1.7e308))  # PD: E_12/2 = -1/2 - 2*lam
@example((np.array([[1.0, 0.5], [1.5, 0.0]]), 1.7e308))  # chicken: every E_ij/2 is finite
@example((np.array([[1.0, 0.5], [1e308, -1e308]]), 2.0))  # E_12/2 = -1.5e308
@example((np.array([[1.0, 0.5], [1e308, -1e308]]), 2.5))  # E_12/2 = -2e308
def test_a_factor_raises_exactly_where_a_halved_bracket_overflows(problem):
    # against exact brackets E_ij/2 = ((a_ij - a_nn) - lam*(a_ji - a_nn))/2: a raise
    # past the largest float by more than a few ulps, a verdict that far inside it
    A, lam = problem
    a = [[Fraction(x) for x in row] for row in A.tolist()]
    last = a[-1][-1]
    top = max(abs((a[i][j] - last) - Fraction(lam) * (a[j][i] - last)) / 2
              for i in range(len(a)) for j in range(len(a)))
    limit, margin = Fraction(sys.float_info.max), Fraction(8, 2**52)
    if top > limit * (1 + margin):
        with pytest.raises(ValueError, match="overflows the brackets"):
            check_extortion_factor(make_symmetric(A), lam)
    elif top < limit * (1 - margin):
        check_extortion_factor(make_symmetric(A), lam)


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

    def test_cap_reads_the_check_band(self):
        # the cap at r = 0.5 is 3, widened by the relative band the check allows
        inside, outside = 3.0 * (1.0 + 1e-12), 3.0 * (1.0 + 3e-12)
        assert check_extortion_factor(chicken_family(0.5), inside).ok
        vec = chicken_extortion(0.5, inside, 0.01)  # no ValueError
        assert vec[2] == 0.0 and ((0.0 <= vec) & (vec <= 1.0)).all()
        assert not check_extortion_factor(chicken_family(0.5), outside).ok
        with pytest.raises(ValueError, match="admissible"):
            chicken_extortion(0.5, outside, 0.01)

    def test_steep_family_unbounded(self):
        vec = chicken_extortion(1.5, 50.0, 1e-3)
        assert ((0.0 <= vec) & (vec <= 1.0)).all()

    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
    def test_ratio_must_be_finite_and_positive(self, r):
        for build in (chicken_family, lambda r: chicken_extortion(r, 2.0, 0.1)):
            with pytest.raises(ValueError, match="ratio must be finite and positive"):
                build(r)

    def test_rounding_at_theta_max_is_clipped(self):
        r, lam = 0.15000000000000002, 1.2941176470588234
        limit = theta_max(chicken_family(r), lam)
        assert limit == 1.5668202764976968
        vec = chicken_extortion(r, lam, limit)  # the second entry rounds to -6.7e-16
        assert vec[1] == 0.0 and ((0.0 <= vec) & (vec <= 1.0)).all()
        built = extortion_strategy(chicken_family(r), ExtortionParams(lam, limit))
        assert built.feasible and np.allclose(vec, built.p1, rtol=5e-16, atol=1e-15)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            chicken_extortion(0.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            chicken_extortion(0.5, 2.0, 0.0)
        with pytest.raises(ValueError, match="outside"):  # entries (-9, -24, 5, 0)
            chicken_extortion(0.5, 2.0, 10.0)


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
        # a ValueError rather than a warning and a verdict where E_ij/2 overflows,
        # as on PD; chicken's halved brackets stay finite and give the oracle's verdict
        if game is PD:
            with pytest.raises(ValueError, match=r"factor 1\.7e\+308 overflows"):
                check_extortion_factor(game, 1.7e308)
        else:
            assert check_extortion_factor(game, 1.7e308).ok is False
            with np.errstate(over="ignore"):  # the oracle's E_12 is -inf: still <= 0
                assert not n2_admissible(game, 1.7e308)

    def test_largest_factors_keep_the_verdict(self):
        # at 1e308 chicken's brackets stay finite and give the oracle's
        # verdict; PD's bracket 1 + 4e308 overflows and raises
        assert check_extortion_factor(chicken_family(0.5), 1e308).ok is False
        assert not n2_admissible(chicken_family(0.5), 1e308)
        with pytest.raises(ValueError, match=r"factor 1e\+308 overflows"):
            check_extortion_factor(PD, 1e308)
