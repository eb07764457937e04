import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    FILL_RULES,
    DegenerateDenominator,
    ExtortionParams,
    NoFeasiblePin,
    ZDCoefficients,
    chicken_family,
    cofactor_row,
    complete_from_first_component,
    expected_scores,
    extortion_coefficients,
    extortion_strategy,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
    pin_opponent_score,
    press_dyson_determinant,
    score_combination,
    stationary,
    synthesize_zd_alpha,
    synthesize_zd_beta,
    theta_max,
    transition_matrix,
    verify_linear_relation,
    zd_feasibility_condition,
)
import zdgames.zd as zd_module
from zdgames.zd import _synthesis

from helpers import (
    SCALES,
    SHIFTS,
    feasible_zd_instance,
    payoff_grid,
    pin_oracle,
    press_dyson_matrix,
    rand_game,
    rand_mixed_pure_strategy,
    rand_strategy,
)

PD = make_symmetric([[3.0, 0.0], [5.0, 1.0]])


class TestCoefficients:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ZDCoefficients(0.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        for coeffs in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
            with pytest.raises(ValueError, match="coefficients must be finite"):
                ZDCoefficients(*coeffs)

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
            f = coeffs.combine(*payoff_vectors(game))
            for _ in range(5):
                q = rand_strategy(rng, "beta", 2, 2)
                d_one = press_dyson_determinant(p, q, np.ones(4))
                assert abs(press_dyson_determinant(p, q, f)) <= 1e-9 * max(1.0, abs(d_one))

    def test_column_ops_give_unilateral_columns(self, rng):
        # the paper's construction, kept as an oracle: the operated matrix is
        # column-equivalent to P - I, its columns at (alpha_1, beta_2) and
        # (alpha_1, beta_1) are the players' unilateral columns, and with the
        # final column replaced neither D(p, q, f) nor the Cramer ratio moves
        coeffs = ZDCoefficients(0.5, -1.0, 0.25)
        for n, m in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (2, 5)] * 50:
            game = rand_game(rng, n, m)
            p = rand_strategy(rng, "alpha", n, m)
            q = rand_strategy(rng, "beta", n, m)
            P = transition_matrix(p, q)
            hat = press_dyson_matrix(P)
            unilateral = p.rows[:, 0] - own_move_one_indicator("alpha", n, m)
            assert np.abs(hat[:, 1] - unilateral).max() <= 1e-12
            unilateral = q.rows[:, 0] - own_move_one_indicator("beta", n, m)
            assert np.abs(hat[:, 0] - unilateral).max() <= 1e-12
            scale = max(1.0, float(np.prod(np.linalg.norm(hat, axis=0))))
            assert abs(np.linalg.det(hat)) <= 1e-9 * scale

            f = rng.normal(size=n * m)
            hat[:, -1] = f
            # the size of D's Laplace expansion along f, free of cancellation
            terms = float(np.abs(cofactor_row(P).c) @ np.abs(f))
            assert abs(press_dyson_determinant(p, q, f) - np.linalg.det(hat)) <= 1e-12 * terms
            hat[:, -1] = 1.0
            target = coeffs.combine(*payoff_vectors(game))
            ratio = float(np.linalg.solve(hat, target)[-1])
            limit = 1e-12 * float(np.abs(target).max())
            assert abs(score_combination(game, p, q, coeffs) - ratio) <= limit

    def test_single_move_side_rejected(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            p = rand_strategy(rng, "alpha", 2, 1)
            q = rand_strategy(rng, "beta", 2, 1)
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

    def test_singular_solve_raises_and_keeps_the_chain(self, rng, monkeypatch):
        # a corank-1 chain whose Cramer solve still fails: the LinAlgError becomes
        # DegenerateDenominator, and the pair's kept chain is returned again
        game = rand_game(rng, 2, 2)
        p, q = rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 2)
        kept = transition_matrix(p, q)

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(zd_module, "_lapack_solve", singular)
        with pytest.raises(DegenerateDenominator,
                           match=r"^D\(p, q, 1\) vanishes: D is singular$") as raised:
            score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))
        assert raised.value.__suppress_context__
        assert transition_matrix(p, q) is kept

    def test_unique_10x10_mixed_pure_chain(self):
        # |D(p, q, 1)| = 0.0068 is far below 1e-12 of the matrix's Hadamard
        # bound (1.6e10), yet v is unique and the ratio is right to round-off
        rng = np.random.default_rng(22)
        game = rand_game(rng, 10, 10)
        p = rand_mixed_pure_strategy(rng, "alpha", 10, 10, 0.3)
        q = rand_mixed_pure_strategy(rng, "beta", 10, 10, 0.3)
        assert zd_feasibility_condition(transition_matrix(p, q)).holds
        scores = expected_scores(game, p, q)
        expected = 0.5 * scores.pi_alpha - scores.pi_beta + 0.25
        ratio = score_combination(game, p, q, ZDCoefficients(0.5, -1.0, 0.25))
        assert abs(ratio - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_dimension_mismatch(self, rng):
        game = rand_game(rng, 2, 3)
        p = rand_strategy(rng, "alpha", 3, 2)
        q = rand_strategy(rng, "beta", 3, 2)
        with pytest.raises(ValueError, match="strategy dimensions do not match the game"):
            score_combination(game, p, q, ZDCoefficients(1, 0, 0))

    def test_row_memory_order(self, rng):
        # strategy rows stored in Fortran order give the same matrix and ratio
        game = rand_game(rng, 3, 2)
        rows = [rng.dirichlet(np.ones(k), size=6) for k in (3, 2)]

        def pair(order):
            return [make_strategy(player, np.asarray(r, order=order), order="alpha-major")
                    for player, r in zip(("alpha", "beta"), rows)]

        assert np.array_equal(transition_matrix(*pair("F")).entries,
                              transition_matrix(*pair("C")).entries)
        coeffs = ZDCoefficients(0.5, -1.0, 0.25)
        assert score_combination(game, *pair("F"), coeffs) == score_combination(
            game, *pair("C"), coeffs
        )

    def test_non_finite_coefficient(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError, match="finite"):
            score_combination(chicken_family(0.5), p, q, ZDCoefficients(np.nan, 0, 0))


def kept_target(game, coeffs):
    """The target ``score_combination`` keeps for ``game`` and ``coeffs``, and the memo's misses."""
    bits = struct.pack("3d", coeffs.a, coeffs.b, coeffs.c)
    misses = zd_module._target.cache_info().misses
    kept = zd_module._target(game, bits)
    assert zd_module._target.cache_info().misses == misses  # a hit: it was kept
    return kept, misses


class TestTargetMemo:
    """One scaled target per game, by identity, and coefficients, by their exact bits."""

    def pair(self, rng):
        return rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 2)

    def test_signed_zeros_do_not_share_an_entry(self, rng):
        # f = a*wa + b*wb + c is -0.0 in state (1, 1) exactly when c is -0.0
        game = make_game([[-0.0, 1.0], [2.0, 3.0]], [[-1.0, 1.0], [2.0, 3.0]])
        p, q = self.pair(rng)
        signs, misses = [], []
        for c in (-0.0, 0.0):
            coeffs = ZDCoefficients(1.0, 0.0, c)
            score_combination(game, p, q, coeffs)
            (f, _), missed = kept_target(game, coeffs)
            signs.append(bool(np.signbit(f[0])))
            misses.append(missed)
        assert signs == [True, False]
        assert misses[1] == misses[0] + 1

    def test_equal_games_do_not_share_an_entry(self, rng):
        A, B = [[3.0, 0.0], [5.0, 1.0]], [[3.0, 0.0], [5.0, 1.0]]
        p, q = self.pair(rng)
        coeffs = ZDCoefficients(1.0, -1.0, 0.0)
        kept = []
        for game in (make_game(A, B), make_game(A, B)):
            score_combination(game, p, q, coeffs)
            kept.append(kept_target(game, coeffs))
        (first, missed), (second, missed_next) = kept
        assert first[0] is not second[0] and missed_next == missed + 1

    def test_kept_target_is_read_only(self, rng):
        game = rand_game(rng, 2, 2)
        coeffs = ZDCoefficients(0.5, -1.0, 0.25)
        score_combination(game, *self.pair(rng), coeffs)
        (f, _), _ = kept_target(game, coeffs)
        assert not f.flags.writeable
        with pytest.raises(ValueError):
            f[0] = 1.0

    def test_errors_are_raised_each_call(self, rng):
        game = make_game([[1e308, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]])
        overflowing = ZDCoefficients(10.0, 0.0, 0.0)  # f = 1e309 in state (1, 1)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^f must be finite$"):
                score_combination(game, *self.pair(rng), overflowing)
        p = make_strategy("alpha", [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                          order="alpha-major")
        q = make_strategy("beta", [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]],
                          order="alpha-major")
        for coeffs in (ZDCoefficients(1.0, 0.0, 0.0), overflowing):  # corank first, as before
            with pytest.raises(DegenerateDenominator,
                               match=r"^D\(p, q, 1\) vanishes: P - I has corank 4$"):
                score_combination(game, p, q, coeffs)

    @pytest.mark.parametrize("where", [0, 2, 3])
    def test_scaled_rejects_nan_anywhere(self, where):
        f = np.array([1.0, -2.0, 3.0, 4.0])
        f[where] = np.nan
        with pytest.raises(ValueError, match=r"^f must be finite$"):
            zd_module._scaled(f)


class TestFloatLimit:
    """Both Press-Dyson evaluators hold for payoffs up to the largest float."""

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 8e307, sys.float_info.max])
    def test_evaluators_at_payoff_scale(self, rng, scale):
        for n in (2, 3, 4):
            for _ in range(50):
                unit = rand_game(rng, n, n)
                size = max(np.abs(unit.A).max(), np.abs(unit.B).max())
                A, B = unit.A / size, unit.B / size  # payoffs at most 1 in size
                game = make_game(A * scale, B * scale)
                p = rand_strategy(rng, "alpha", n, n)
                q = rand_strategy(rng, "beta", n, n)
                pi_alpha = expected_scores(game, p, q).pi_alpha
                ratio = score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))
                assert abs(ratio - pi_alpha) <= 1e-9 * scale
                # D is linear in f: D(p, q, scale*w) = scale * (c . w)
                c = cofactor_row(transition_matrix(p, q)).c
                exact = scale * float(c @ payoff_vectors(make_game(A, B))[0])
                det = press_dyson_determinant(p, q, payoff_vectors(game)[0])
                if math.isinf(exact):  # |D| itself is past the largest float
                    assert det == exact
                else:
                    assert abs(det - exact) <= 1e-9 * scale * float(np.abs(c).sum())


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


    @pytest.mark.parametrize("scale", [1.0, 1e308])
    def test_target_is_taken_over_the_halved_payoffs(self, scale):
        # 2*omega and -2*omega overflow at 1e308, their halves do not: the
        # target a*omega_alpha + b*omega_beta + c is 0 at every payoff scale
        game = make_symmetric(np.full((2, 2), scale))
        coeffs = ZDCoefficients(2.0, -2.0, 0.0)
        for synthesize, player in ((synthesize_zd_alpha, "alpha"), (synthesize_zd_beta, "beta")):
            result = synthesize(game, coeffs)
            assert result.feasible
            assert result.p1.tolist() == own_move_one_indicator(player, 2, 2).tolist()

    def test_nan_entry_is_a_violation(self):
        # delta = (1, 1, 0, 0), so p1 = (0.5, nan, 1, 0)
        result = _synthesis("alpha", PD, np.array([-0.5, math.nan, 1.0, 0.0]) / 2)
        assert not result.feasible
        assert [state.flat for state, _ in result.violations] == [1]
        assert math.isnan(result.violations[0][1])

    @given(st.integers(2, 4), st.integers(2, 4), st.sampled_from(["alpha", "beta"]),
           st.integers(0, 2**32 - 1))
    def test_completion_is_what_make_strategy_accepts(self, n, m, player, seed):
        # complete() builds its strategy without make_strategy's checks: on
        # first components at, inside and just outside the box edges, its
        # rows pass them unchanged, bit for bit
        rng = np.random.default_rng(seed)
        edges = rng.choice([0.0, 1.0, -5e-13, 1.0 + 5e-13], size=n * m)
        p1 = np.where(rng.random(n * m) < 0.5, edges, rng.random(n * m))
        delta = own_move_one_indicator(player, n, m)
        g = p1 - delta
        result = _synthesis(player, make_game(np.zeros((n, m)), np.zeros((m, n))), g / 2)
        assert result.feasible
        for fill_rule in FILL_RULES:
            strategy = result.complete(fill_rule)
            for other in (make_strategy(player, strategy.rows, "alpha-major"),
                          complete_from_first_component(player, delta + g, n, m, fill_rule)):
                assert (other.player, other.n, other.m) == (player, n, m)
                assert other.rows.tobytes() == strategy.rows.tobytes()
            assert (strategy.player, strategy.n, strategy.m) == (player, n, m)
            assert not strategy.rows.flags.writeable


class TestPinning:
    def test_pd_target_two(self):
        result, coeffs = pin_opponent_score(PD, "alpha", 2.0)
        assert (coeffs.a, coeffs.b, coeffs.c) == (0.0, -0.25, 0.5)
        assert np.allclose(result.p1, [0.75, 0.25, 0.5, 0.25], rtol=0, atol=1e-15)

    def test_pd_equalizer_family(self, rng):
        # Press & Dyson (2012) pin beta's score on the prisoner's dilemma with
        # equalizers; the pins at 2 are delta + w * (omega_beta - 2), w < 0
        _, omega_beta = payoff_vectors(PD)
        delta = own_move_one_indicator("alpha", 2, 2)
        result, _ = pin_opponent_score(PD, "alpha", 2.0)
        assert np.allclose(result.p1, delta - (omega_beta - 2.0) / 4, rtol=0, atol=1e-15)
        p1 = delta - (omega_beta - 2.0) / 3
        assert np.allclose(p1, [2 / 3, 0.0, 2 / 3, 1 / 3], rtol=0, atol=1e-15)
        p = complete_from_first_component("alpha", p1, 2, 2)
        for _ in range(10):
            q = rand_strategy(rng, "beta", 2, 2)
            assert verify_linear_relation(PD, p, q, ZDCoefficients(0.0, 1.0, -2.0)).holds

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


@st.composite
def pin_targets(draw):
    """A 2x2..4x4 game at payoff scale 10^k, k in -6..12, a pinner and a target.

    The opponent's integer payoffs are sorted, so that the pinner's
    own-move-1 states get the smallest (or largest) values and the window
    between the two groups is nonempty, or left in drawn order.  The target
    lies inside that window, at one of its ends, on a payoff value (a tie),
    or just outside an end.
    """
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    pinner = draw(st.sampled_from(["alpha", "beta"]))
    scale = 10.0 ** draw(st.integers(-6, 12))
    own = own_move_one_indicator(pinner, n, m) == 1.0
    values = draw(payoff_grid(1, n * m)).ravel()
    if draw(st.booleans()):
        values = np.sort(values)[::draw(st.sampled_from([1, -1]))]
    k = int(own.sum())
    lo, hi = sorted(values[k - 1 : k + 1])
    width = 1e-9 * max(1.0, float(np.abs(values).max()))
    tie = draw(st.sampled_from(values.tolist()))
    target = draw(st.sampled_from([(lo + hi) / 2.0, lo, hi, tie, lo - width, hi + width]))
    opponent = np.empty(n * m)
    opponent[own], opponent[~own] = scale * values[:k], scale * values[k:]
    own_payoffs = scale * draw(payoff_grid(n, m) if pinner == "alpha" else payoff_grid(m, n))
    if pinner == "alpha":
        game = make_game(own_payoffs, opponent.reshape(n, m).T)
    else:
        game = make_game(opponent.reshape(n, m), own_payoffs)
    return game, pinner, scale * target


@given(pin_targets())
def test_pin_follows_the_sign_block_rule(case):
    game, pinner, target = case
    expected = pin_oracle(game, pinner, target)
    try:
        result, coeffs = pin_opponent_score(game, pinner, target)
    except NoFeasiblePin:
        assert expected is None
        return
    assert expected is not None
    weight, p1 = expected
    pinned = (coeffs.b, coeffs.a) if pinner == "alpha" else (coeffs.a, coeffs.b)
    assert (*pinned, coeffs.c) == (weight, 0.0, -weight * target)
    assert result.player == pinner and result.feasible
    assert np.array_equal(result.p1, p1)


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

    @pytest.mark.parametrize("lam, theta", [(math.nan, 0.1), (math.inf, 0.1),
                                            (2.0, math.nan), (2.0, math.inf)])
    def test_rejects_non_finite(self, lam, theta):
        with pytest.raises(ValueError, match="must be finite"):
            extortion_coefficients(lam, 0.0, theta)


class TestVerifyLinearRelation:
    def test_synthesized_strategy_holds(self, rng):
        game, coeffs = feasible_zd_instance(rng, 3, 2)
        p = synthesize_zd_alpha(game, coeffs).complete()
        for _ in range(20):
            q = rand_strategy(rng, "beta", 3, 2)
            check = verify_linear_relation(game, p, q, coeffs)
            assert check.holds and check.residual < 1e-9

    def test_tolerance_scales_with_the_coefficients(self, rng):
        # at lam = 1 + 1e-9 the extortioner's theta_max is about 3.3e8, and
        # theta multiplies the rounding of pi into a residual of 3e-8; the
        # relation is homogeneous, so the bound scales with max(|a|, |b|)
        game = make_symmetric([[0.0, -3.0], [-3.0, -3.0]])
        lam = 1.0 + 1e-9
        theta = 0.5 * theta_max(game, lam)
        coeffs = extortion_coefficients(lam, -3.0, theta)
        p = extortion_strategy(game, ExtortionParams(lam, theta)).complete()
        for _ in range(10):
            q = rand_strategy(rng, "beta", 2, 2)
            check = verify_linear_relation(game, p, q, coeffs)
            assert check.holds and check.residual > 1e-9
        # the same scale does not let a pair that misses its relation pass
        chicken, scaled = chicken_family(0.5), ZDCoefficients(1e8, -2e8, 0.0)
        for _ in range(10):
            p, q = rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 2)
            assert not verify_linear_relation(chicken, p, q, scaled).holds

    def test_generic_strategy_fails(self, rng):
        game = chicken_family(0.5)
        coeffs = ZDCoefficients(0.1, -0.2, 0.0)
        exceed = 0
        for _ in range(100):
            p = rand_strategy(rng, "alpha", 2, 2)
            q = rand_strategy(rng, "beta", 2, 2)
            if verify_linear_relation(game, p, q, coeffs).residual > 1e-6:
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
