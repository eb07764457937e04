import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    DegenerateDenominator,
    NoFeasiblePin,
    ZDCoefficients,
    chicken_family,
    expected_scores,
    extortion_coefficients,
    flatten_payoffs,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    pin_opponent_score,
    press_dyson_determinant,
    score_combination,
    stationary,
    synthesize_zd_alpha,
    synthesize_zd_beta,
    transition_matrix,
    verify_linear_relation,
)
from zdgames.zd import _zd_matrix

from helpers import SCALES, SHIFTS, feasible_zd_instance, payoff_grid, rand_game, rand_strategy

PD = make_symmetric([[3.0, 0.0], [5.0, 1.0]])


class TestCoefficients:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ZDCoefficients(0.0, 0.0, 0.0)

    def test_combine(self):
        coeffs = ZDCoefficients(2.0, -1.0, 0.5)
        wa = np.array([1.0, 2.0])
        wb = np.array([3.0, 4.0])
        assert np.array_equal(coeffs.combine(wa, wb), [-0.5, 0.5])


class TestDeterminant:
    def test_zero_vector(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        assert press_dyson_determinant(p, q, np.zeros(4)) == 0.0

    def test_ratio_matches_stationary(self, rng):
        for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)] * 3:
            p = rand_strategy(rng, "alpha", n, m)
            q = rand_strategy(rng, "beta", n, m)
            v = stationary(transition_matrix(p, q)).v
            d_one = press_dyson_determinant(p, q, np.ones(n * m))
            for _ in range(10):
                f = rng.normal(size=n * m)
                ratio = press_dyson_determinant(p, q, f) / d_one
                exact = float(v @ f)
                assert abs(ratio - exact) <= 1e-9 * max(1.0, abs(exact))

    def test_vanishes_on_synthesized_strategy(self, rng):
        for _ in range(5):
            game, coeffs = feasible_zd_instance(rng, 2, 2)
            p = synthesize_zd_alpha(game, coeffs).complete()
            wa = flatten_payoffs(game, "alpha").entries
            wb = flatten_payoffs(game, "beta").entries
            f = coeffs.combine(wa, wb)
            for _ in range(5):
                q = rand_strategy(rng, "beta", 2, 2)
                d_one = press_dyson_determinant(p, q, np.ones(4))
                assert abs(press_dyson_determinant(p, q, f)) <= 1e-9 * max(1.0, abs(d_one))

    def test_column_ops_preserve_singularity(self, rng):
        # before the f replacement the matrix is column-equivalent to P - I
        for n, m in [(2, 2), (3, 3)]:
            p = rand_strategy(rng, "alpha", n, m)
            q = rand_strategy(rng, "beta", n, m)
            hat = _zd_matrix(p, q)
            scale = max(1.0, float(np.prod(np.linalg.norm(hat, axis=0))))
            assert abs(np.linalg.det(hat)) <= 1e-9 * scale

    def test_single_move_side_rejected(self, rng):
        p = rand_strategy(rng, "alpha", 2, 1)
        q = rand_strategy(rng, "beta", 2, 1)
        with pytest.raises(ValueError, match="at least 2"):
            press_dyson_determinant(p, q, np.ones(2))

    def test_bad_f(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError):
            press_dyson_determinant(p, q, np.ones(5))
        with pytest.raises(ValueError):
            press_dyson_determinant(p, q, np.array([1.0, np.inf, 0.0, 0.0]))


class TestScoreCombination:
    def test_projects_alpha_score(self, rng):
        game = rand_game(rng, 2, 3)
        p = rand_strategy(rng, "alpha", 2, 3)
        q = rand_strategy(rng, "beta", 2, 3)
        scores = expected_scores(game, p, q)
        assert abs(score_combination(game, p, q, ZDCoefficients(1, 0, 0)) - scores.pi_alpha) < 1e-9
        assert abs(score_combination(game, p, q, ZDCoefficients(0, 1, 0)) - scores.pi_beta) < 1e-9

    def test_scaling_linearity(self, rng):
        game = rand_game(rng, 2, 2)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        base = score_combination(game, p, q, ZDCoefficients(0.5, -1.0, 0.25))
        # the scaled f column is bitwise 2x, but the LU inside det is only
        # homogeneous to rounding, so allow an ulp
        doubled = score_combination(game, p, q, ZDCoefficients(1.0, -2.0, 0.5))
        assert abs(doubled - 2.0 * base) <= 5e-16 * abs(2.0 * base)
        tripled = score_combination(game, p, q, ZDCoefficients(1.5, -3.0, 0.75))
        assert abs(tripled - 3.0 * base) <= 1e-12 * max(1.0, abs(base))

    def test_degenerate_denominator(self):
        p_rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
        q_rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        p = make_strategy("alpha", p_rows, order="alpha-major")
        q = make_strategy("beta", q_rows, order="alpha-major")
        with pytest.raises(DegenerateDenominator):
            score_combination(chicken_family(0.5), p, q, ZDCoefficients(1, 0, 0))

    def test_dimension_mismatch(self, rng):
        game = rand_game(rng, 2, 3)
        p = rand_strategy(rng, "alpha", 3, 2)
        q = rand_strategy(rng, "beta", 3, 2)
        with pytest.raises(ValueError, match="strategy dimensions do not match the game"):
            score_combination(game, p, q, ZDCoefficients(1, 0, 0))

    def test_non_finite_coefficient(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError, match="finite"):
            score_combination(chicken_family(0.5), p, q, ZDCoefficients(np.nan, 0, 0))


class TestSynthesis:
    def test_chicken_alpha(self):
        result = synthesize_zd_alpha(chicken_family(0.5), ZDCoefficients(0.1, -0.2, 0.0))
        assert result.feasible
        assert np.allclose(result.p1, [0.9, 0.75, 0.05, 0.0], rtol=0, atol=1e-15)

    def test_constant_shift_infeasible(self):
        result = synthesize_zd_alpha(chicken_family(0.5), ZDCoefficients(0.0, 0.0, 0.5))
        assert not result.feasible
        states = [(s.i, s.j) for s, _ in result.violations]
        values = [value for _, value in result.violations]
        assert states == [(1, 1), (1, 2)]
        assert values == [1.5, 1.5]
        with pytest.raises(ValueError, match="infeasible"):
            result.complete()

    def test_pd_pinning_coefficients(self, rng):
        result = synthesize_zd_alpha(PD, ZDCoefficients(0.0, -0.25, 0.5))
        assert result.feasible
        assert np.allclose(result.p1, [0.75, 0.25, 0.5, 0.25], rtol=0, atol=1e-15)
        p = result.complete()
        for _ in range(20):
            q = rand_strategy(rng, "beta", 2, 2)
            assert abs(expected_scores(PD, p, q).pi_beta - 2.0) < 1e-9

    def test_chicken_beta(self):
        result = synthesize_zd_beta(chicken_family(0.5), ZDCoefficients(-0.2, 0.1, 0.0))
        assert result.feasible
        assert np.allclose(result.p1, [0.9, 0.05, 0.75, 0.0], rtol=0, atol=1e-15)

    def test_beta_mirrors_alpha_on_symmetric_games(self, rng):
        for _ in range(5):
            game = make_symmetric(rng.uniform(-1.0, 3.0, size=(3, 3)))
            a, b, c = rng.normal(size=3)
            alpha = synthesize_zd_alpha(game, ZDCoefficients(a, b, c))
            beta = synthesize_zd_beta(game, ZDCoefficients(b, a, c))
            for i in range(3):
                for j in range(3):
                    assert beta.p1[i * 3 + j] == alpha.p1[j * 3 + i]

    def test_scaling_moves_candidates_toward_delta(self, rng):
        game, coeffs = feasible_zd_instance(rng, 2, 2)
        half = ZDCoefficients(0.5 * coeffs.a, 0.5 * coeffs.b, 0.5 * coeffs.c)
        delta = own_move_one_indicator("alpha", 2, 2)
        full = synthesize_zd_alpha(game, coeffs)
        scaled = synthesize_zd_alpha(game, half)
        assert scaled.feasible
        assert np.allclose(scaled.p1, delta + 0.5 * (full.p1 - delta), rtol=0, atol=1e-14)
        q = rand_strategy(rng, "beta", 2, 2)
        assert verify_linear_relation(game, full.complete(), q, coeffs).holds
        assert verify_linear_relation(game, scaled.complete(), q, half).holds


class TestPinning:
    def test_pd_target_two(self):
        result, coeffs = pin_opponent_score(PD, "alpha", 2.0)
        assert (coeffs.a, coeffs.b, coeffs.c) == (0.0, -0.25, 0.5)
        assert np.allclose(result.p1, [0.75, 0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    def test_unreachable_target(self):
        with pytest.raises(NoFeasiblePin):
            pin_opponent_score(PD, "alpha", 10.0)

    def test_beta_can_pin_alpha(self, rng):
        result, coeffs = pin_opponent_score(PD, "beta", 2.0)
        assert coeffs.b == 0.0 and coeffs.a != 0.0
        q = result.complete()
        for _ in range(10):
            p = rand_strategy(rng, "alpha", 2, 2)
            assert abs(expected_scores(PD, p, q).pi_alpha - 2.0) < 1e-9

    def test_agrees_with_extreme_extortion(self, rng):
        # pinning beta at a_nn is the lam -> infinity limit of extortion
        pin, _ = pin_opponent_score(PD, "alpha", 1.0)
        q = rand_strategy(rng, "beta", 2, 2)
        pinned = expected_scores(PD, pin.complete(), q).pi_beta
        assert abs(pinned - 1.0) < 1e-9
        for lam, theta, tol in [(1e3, 1e-4, 5e-3), (1e6, 1e-7, 5e-6)]:
            extort = synthesize_zd_alpha(PD, extortion_coefficients(lam, 1.0, theta))
            assert extort.feasible
            scores = expected_scores(PD, extort.complete(), q)
            assert abs(scores.pi_beta - pinned) < tol

    def test_bad_pinner(self):
        with pytest.raises(ValueError):
            pin_opponent_score(PD, "gamma", 2.0)

    def test_large_payoff_scale(self, rng):
        scale = 1e6
        game = make_symmetric(scale * PD.A)
        result, coeffs = pin_opponent_score(game, "alpha", 2.0 * scale)
        assert coeffs.a == 0.0 and coeffs.b < 0.0
        p = result.complete()
        for _ in range(20):
            q = rand_strategy(rng, "beta", 2, 2)
            assert abs(expected_scores(game, p, q).pi_beta - 2.0 * scale) < 1e-9 * scale

    def test_target_just_outside_window(self):
        # alpha can pin beta anywhere in [1, 3] on the PD, and nowhere else
        pin_opponent_score(PD, "alpha", 3.0)
        with pytest.raises(NoFeasiblePin, match="no feasible pin"):
            pin_opponent_score(PD, "alpha", 3.0 + 1e-9)

    def test_non_finite_target(self):
        with pytest.raises(ValueError):
            pin_opponent_score(PD, "alpha", float("inf"))


def _pinnable(game, pinner, target):
    try:
        pin_opponent_score(game, pinner, target)
    except NoFeasiblePin:
        return False
    return True


@st.composite
def pin_problems(draw):
    """A game with a nonempty pin window, and a target in it or just outside.

    The opponent's payoffs are sorted so the pinner's own-move-1 states get
    the smallest (or largest) values; the window lies between the two
    groups, and half-integer targets land on its edges as well.
    """
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    pinner = draw(st.sampled_from(["alpha", "beta"]))
    own = own_move_one_indicator(pinner, n, m) == 1.0
    values = np.sort(draw(payoff_grid(1, n * m)).ravel())
    if draw(st.booleans()):
        values = values[::-1]
    k = int(own.sum())
    edges = sorted(values[k - 1 : k + 1])
    opponent = np.empty(n * m)
    opponent[own], opponent[~own] = values[:k], values[k:]
    own_payoffs = draw(payoff_grid(n, m) if pinner == "alpha" else payoff_grid(m, n))
    if pinner == "alpha":
        game = make_game(own_payoffs, opponent.reshape(n, m).T)
    else:
        game = make_game(opponent.reshape(n, m), own_payoffs)
    target = draw(st.integers(int(2 * edges[0]) - 2, int(2 * edges[1]) + 2)) / 2.0
    return game, pinner, target


@given(pin_problems(), SCALES, SHIFTS)
def test_pin_verdict_ignores_payoff_scale_and_shift(problem, s, c):
    game, pinner, target = problem
    moved = make_game(s * (game.A + c), s * (game.B + c))
    assert _pinnable(moved, pinner, s * (target + c)) == _pinnable(game, pinner, target)


class TestExtortionCoefficients:
    def test_zero_offset(self):
        coeffs = extortion_coefficients(2.0, 0.0, 0.1)
        assert (coeffs.a, coeffs.b, coeffs.c) == (0.1, -0.2, 0.0)

    def test_fairness_line(self):
        coeffs = extortion_coefficients(1.0, 3.7, 1.0)
        assert (coeffs.a, coeffs.b, coeffs.c) == (1.0, -1.0, 0.0)

    def test_offset_arithmetic(self):
        coeffs = extortion_coefficients(3.0, 1.0, 0.05)
        assert abs(coeffs.c - 0.1) < 1e-15

    def test_offset_identity_exact(self, rng):
        for _ in range(20):
            lam = 1.0 + rng.uniform(0.0, 5.0)
            delta = rng.normal()
            theta = rng.uniform(0.01, 2.0)
            coeffs = extortion_coefficients(lam, delta, theta)
            assert coeffs.c == -(coeffs.a + coeffs.b) * delta

    def test_rejects_generous_factor(self):
        with pytest.raises(ValueError):
            extortion_coefficients(0.5, 0.0, 0.1)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            extortion_coefficients(2.0, 0.0, 0.0)


class TestVerifyLinearRelation:
    def test_synthesized_strategy_holds(self, rng):
        game, coeffs = feasible_zd_instance(rng, 3, 2)
        p = synthesize_zd_alpha(game, coeffs).complete()
        for _ in range(20):
            q = rand_strategy(rng, "beta", 3, 2)
            check = verify_linear_relation(game, p, q, coeffs)
            assert check.holds and check.residual < 1e-9

    def test_generic_strategy_fails(self, rng):
        game = chicken_family(0.5)
        coeffs = ZDCoefficients(0.1, -0.2, 0.0)
        exceed = 0
        for _ in range(100):
            p = rand_strategy(rng, "alpha", 2, 2)
            q = rand_strategy(rng, "beta", 2, 2)
            if verify_linear_relation(game, p, q, coeffs, tol=1e-6).residual > 1e-6:
                exceed += 1
        assert exceed >= 95

    def test_beta_synthesis_enforces(self, rng):
        game = chicken_family(0.5)
        coeffs = ZDCoefficients(-0.2, 0.1, 0.0)
        q = synthesize_zd_beta(game, coeffs).complete()
        for _ in range(10):
            p = rand_strategy(rng, "alpha", 2, 2)
            assert verify_linear_relation(game, p, q, coeffs).holds

    def test_chicken_extortion_relation(self, rng):
        game = chicken_family(0.5)
        coeffs = extortion_coefficients(2.0, 0.0, 0.1)
        p = synthesize_zd_alpha(game, coeffs).complete()
        for _ in range(20):
            q = rand_strategy(rng, "beta", 2, 2)
            scores = expected_scores(game, p, q)
            assert abs(scores.pi_alpha - 2.0 * scores.pi_beta) < 1e-9
