import numpy as np
import pytest

from zdgames import (
    DegenerateRatio,
    ExtortionParams,
    SimulationConfig,
    StateIndex,
    chicken_family,
    compare_to_stationary,
    expected_scores,
    extortion_strategy,
    make_strategy,
    make_symmetric,
    play,
    stationary,
    transition_matrix,
    verify_extortion_empirically,
)

from helpers import rand_strategy


def always(player, move, n, m):
    k = n if player == "alpha" else m
    row = np.zeros(k)
    row[move - 1] = 1.0
    return make_strategy(player, np.tile(row, (n * m, 1)), order="alpha-major")


def uniform(player, n, m):
    k = n if player == "alpha" else m
    return make_strategy(player, np.full((n * m, k), 1.0 / k), order="alpha-major")


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(rounds=0), dict(rounds=1e3), dict(rounds=float("nan")), dict(rounds=10, seed=1.0),
         dict(rounds=10, seed=-1)],
        ids=["rounds=0", "rounds=1e3", "rounds=nan", "seed=1.0", "seed=-1"],
    )
    def test_zero_rounds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("burn_in", [10, 0.5, 5.0])
    def test_burn_in_must_leave_rounds(self, burn_in):
        with pytest.raises(ValueError):
            SimulationConfig(rounds=10, burn_in=burn_in)

    def test_default_burn_in(self):
        assert SimulationConfig(rounds=50).resolved_burn_in == 49
        assert SimulationConfig(rounds=10**4).resolved_burn_in == 100
        assert SimulationConfig(rounds=10**6).resolved_burn_in == 10**4
        assert SimulationConfig(rounds=10**4, burn_in=7).resolved_burn_in == 7


class TestPlay:
    def test_deterministic(self, rng):
        game = chicken_family(0.5)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        config = SimulationConfig(rounds=5000, seed=99)
        first = play(game, p, q, config)
        second = play(game, p, q, config)
        assert np.array_equal(first.state_frequencies, second.state_frequencies)
        assert first.empirical_pi_alpha == second.empirical_pi_alpha

    def test_absorbing_pair(self):
        game = chicken_family(0.5)
        report = play(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2),
                      SimulationConfig(rounds=2000, seed=3))
        assert np.array_equal(report.state_frequencies, [1.0, 0.0, 0.0, 0.0])
        assert report.empirical_pi_alpha == 1.0
        assert report.empirical_pi_beta == 1.0

    def test_draw_past_last_cumulative_sum_plays_last_move(self, monkeypatch):
        # rows summing to 1 - 1e-13 (within PROB_TOL) and every draw above that sum
        class Draws:
            def random(self, size):
                return np.full(size, 1 - 2**-53)

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Draws())
        rows = np.tile([0.5, 0.5 - 1e-13], (4, 1))
        p = make_strategy("alpha", rows, order="alpha-major")
        q = make_strategy("beta", rows, order="alpha-major")
        config = SimulationConfig(rounds=50, initial_state=StateIndex.from_pair(1, 1, 2, 2),
                                  burn_in=0)
        report = play(chicken_family(0.5), p, q, config)
        assert np.array_equal(report.state_frequencies, [0.02, 0.0, 0.0, 0.98])

    def test_uniform_play_score(self):
        game = chicken_family(0.5)
        report = play(game, uniform("alpha", 2, 2), uniform("beta", 2, 2),
                      SimulationConfig(rounds=2 * 10**5, seed=11))
        assert abs(report.empirical_pi_alpha - 0.75) < 1e-2
        assert abs(report.empirical_pi_beta - 0.75) < 1e-2

    def test_score_frequency_identity(self, rng):
        game = chicken_family(0.5)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        report = play(game, p, q, SimulationConfig(rounds=10**4, seed=5))
        wa = game.A.ravel()
        assert report.empirical_pi_alpha == float(report.state_frequencies @ wa)

    def test_fixed_initial_state_counted(self):
        game = chicken_family(0.5)
        config = SimulationConfig(
            rounds=10, seed=1, initial_state=StateIndex.from_pair(2, 2, 2, 2), burn_in=0
        )
        report = play(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2), config)
        # round 1 sits at (2,2); the remaining 9 land in (1,1)
        assert np.array_equal(report.state_frequencies, [0.9, 0.0, 0.0, 0.1])

    def test_initial_state_from_other_dimensions(self):
        # both players repeat their own last move, so play never leaves the start;
        # (2,1) is flat index 3 in a 3x3 game but 2 in this 2x2 one
        game = chicken_family(0.5)
        p = make_strategy("alpha", np.repeat(np.eye(2), 2, axis=0), order="alpha-major")
        q = make_strategy("beta", np.tile(np.eye(2), (2, 1)), order="alpha-major")
        start = StateIndex.from_pair(2, 1, 3, 3)
        config = SimulationConfig(rounds=10, seed=1, initial_state=start, burn_in=0)
        report = play(game, p, q, config)
        assert np.array_equal(report.state_frequencies, [0.0, 0.0, 1.0, 0.0])

    def test_burn_in_counts(self, rng):
        game = chicken_family(0.5)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        report = play(game, p, q, SimulationConfig(rounds=1000, seed=2, burn_in=250))
        assert report.rounds_counted == 750
        counts = report.state_frequencies * report.rounds_counted
        assert np.allclose(counts, np.round(counts), rtol=0, atol=1e-9)
        assert int(round(counts.sum())) == 750

    def test_initial_state_must_fit(self):
        game = chicken_family(0.5)
        config = SimulationConfig(rounds=10, initial_state=StateIndex.from_pair(3, 1, 3, 2))
        with pytest.raises(ValueError, match="outside"):
            play(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2), config)

    @pytest.mark.parametrize("start", ["uniform", (2, 1)], ids=["string", "pair"])
    def test_unknown_initial_state(self, start):
        game = chicken_family(0.5)
        config = SimulationConfig(rounds=10, initial_state=start)
        with pytest.raises(ValueError, match="neither a StateIndex nor 'uniform-random'"):
            play(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2), config)

    def test_dimension_mismatch(self, rng):
        config = SimulationConfig(rounds=10)
        with pytest.raises(ValueError):
            play(chicken_family(0.5), rand_strategy(rng, "alpha", 2, 3),
                 rand_strategy(rng, "beta", 2, 3), config)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError, match="alpha strategy followed by a beta"):
            play(chicken_family(0.5), q, p, config)
        with pytest.raises(ValueError, match="alpha strategy followed by a beta"):
            verify_extortion_empirically(chicken_family(0.5), q, [p], config)


class TestCompareToStationary:
    def test_ergodic_converges(self, rng):
        game = chicken_family(0.5)
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        report = compare_to_stationary(game, p, q, SimulationConfig(rounds=5 * 10**5, seed=8))
        assert report.tv_distance < 5e-3
        assert report.max_score_gap < 1e-2

    def test_absorbing_exact_after_burn_in(self):
        game = chicken_family(0.5)
        config = SimulationConfig(rounds=100, seed=4, burn_in=1)
        report = compare_to_stationary(
            game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2), config
        )
        assert report.tv_distance == 0.0
        assert report.max_score_gap == 0.0


class TestVerifyExtortion:
    def test_chicken_extortion_ratio(self, rng):
        game = chicken_family(0.5)
        p = extortion_strategy(game, ExtortionParams(2.0, 0.1)).complete()
        opponents = [rand_strategy(rng, "beta", 2, 2) for _ in range(3)]
        config = SimulationConfig(rounds=10**5, seed=42)
        estimates = verify_extortion_empirically(game, p, opponents, config)
        assert [e.seed for e in estimates] == [42, 43, 44]
        for estimate in estimates:
            assert 1.9 < estimate.lambda_hat < 2.1

    def test_fair_strategy_ratio_near_one(self, rng):
        game = chicken_family(0.5)
        p = extortion_strategy(game, ExtortionParams(1.0, 0.1)).complete()
        opponents = [rand_strategy(rng, "beta", 2, 2) for _ in range(3)]
        estimates = verify_extortion_empirically(
            game, p, opponents, SimulationConfig(rounds=10**5, seed=7)
        )
        for estimate in estimates:
            assert abs(estimate.lambda_hat - 1.0) < 0.05

    def test_all_defect_opponent_degenerates(self):
        # against always-beta_2 the extortioner is driven into the (2,2) sink,
        # where both scores hit the offset; the exact chain agrees
        game = chicken_family(0.5)
        p = extortion_strategy(game, ExtortionParams(2.0, 0.1)).complete()
        q = always("beta", 2, 2, 2)
        exact = stationary(transition_matrix(p, q)).v
        assert np.allclose(exact, [0.0, 0.0, 0.0, 1.0], rtol=0, atol=1e-12)
        assert expected_scores(game, p, q).pi_beta == 0.0
        with pytest.raises(DegenerateRatio):
            verify_extortion_empirically(
                game, p, [q], SimulationConfig(rounds=10**4, seed=1)
            )

    def test_ratio_at_the_float_limit(self, rng):
        # chicken less 0.75, scaled by 2^1024: against always-beta_1 pi_alpha - a_nn
        # is 2^1024 * 4/3, past the float limit, but over the game's payoff scale it
        # is finite, and each ratio is the unscaled game's to the bit
        small = make_symmetric([[0.25, -0.25], [0.75, -0.75]])
        game = make_symmetric(np.ldexp(small.A, 1024))
        p = extortion_strategy(small, ExtortionParams(2.0, 0.1)).complete()
        opponents = [always("beta", 1, 2, 2), rand_strategy(rng, "beta", 2, 2),
                     rand_strategy(rng, "beta", 2, 2)]
        config = SimulationConfig(rounds=10**5, seed=42)
        estimates = verify_extortion_empirically(game, p, opponents, config)
        small_estimates = verify_extortion_empirically(small, p, opponents, config)
        for estimate, small_estimate in zip(estimates, small_estimates):
            assert estimate.lambda_hat == small_estimate.lambda_hat
            assert 1.9 < estimate.lambda_hat < 2.1

    def test_ratio_is_taken_about_a_nn(self, rng):
        # on PD the offset a_nn = 1 is not 0: about 0 these runs read 1.28-1.45
        game = make_symmetric([[3, 0], [5, 1]])
        p = extortion_strategy(game, ExtortionParams(2.0, 0.05)).complete()
        opponents = [rand_strategy(rng, "beta", 2, 2) for _ in range(3)]
        estimates = verify_extortion_empirically(
            game, p, opponents, SimulationConfig(rounds=10**5, seed=42)
        )
        for estimate in estimates:
            assert abs(estimate.lambda_hat - 2.0) < 0.1
