import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    FILL_RULES,
    DegenerateDenominator,
    InaccurateStationary,
    NonUniqueStationary,
    SimulationConfig,
    TransitionMatrix,
    ZDCoefficients,
    ZDGamesError,
    chicken_family,
    cofactor_row,
    expected_scores,
    make_game,
    make_strategy,
    make_symmetric,
    payoff_vectors,
    pin_opponent_score,
    play,
    press_dyson_determinant,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)
import zdgames.chain as chain_module
import zdgames.model as model_module
import zdgames.zd as zd_module

from helpers import (
    adjugate_last_row_minors,
    near_degenerate_3x3,
    rand_game,
    rand_mixed_pure_strategy,
    rand_strategy,
)


def always(player, move, n, m):
    k = n if player == "alpha" else m
    row = np.zeros(k)
    row[move - 1] = 1.0
    return make_strategy(player, np.tile(row, (n * m, 1)), order="alpha-major")


def uniform(player, n, m):
    k = n if player == "alpha" else m
    return make_strategy(player, np.full((n * m, k), 1.0 / k), order="alpha-major")


def identity_pair():
    # alpha repeats own last move, beta repeats own last move: P = I
    p_rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    q_rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    p = make_strategy("alpha", p_rows, order="alpha-major")
    q = make_strategy("beta", q_rows, order="alpha-major")
    return p, q


def identity_chain():
    return transition_matrix(*identity_pair())


class TestTransitionMatrix:
    def test_product_formula(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        P = transition_matrix(p, q).entries
        for s in range(4):
            for k in range(2):
                for l in range(2):
                    assert P[s, 2 * k + l] == p.rows[s, k] * q.rows[s, l]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="expected 4x4 matrix, got \\(3, 3\\)"):
            TransitionMatrix((2, 2), np.eye(3))

    def test_both_always_first(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert np.array_equal(P.entries, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))

    def test_both_uniform(self):
        P = transition_matrix(uniform("alpha", 2, 2), uniform("beta", 2, 2))
        assert np.array_equal(P.entries, np.full((4, 4), 0.25))

    def test_rectangular_rows_stochastic(self, rng):
        p = rand_strategy(rng, "alpha", 2, 3)
        q = rand_strategy(rng, "beta", 2, 3)
        P = transition_matrix(p, q)
        assert P.entries.shape == (6, 6)
        assert np.abs(P.entries.sum(axis=1) - 1.0).max() < 1e-10

    def test_marginalization(self, rng):
        # summing over beta's next move recovers p's rows, and vice versa
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q = rand_strategy(rng, "beta", n, m)
        P = transition_matrix(p, q).entries.reshape(n * m, n, m)
        assert np.allclose(P.sum(axis=2), p.rows, rtol=0, atol=1e-12)
        assert np.allclose(P.sum(axis=1), q.rows, rtol=0, atol=1e-12)

    def test_player_order_enforced(self, rng):
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError):
            transition_matrix(q, q)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            transition_matrix(rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 3))

    def test_rejects_non_stochastic_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix((2, 2), np.full((4, 4), 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN fails every comparison, so a range test of the form
        # "any entry below 0 or above 1" lets it through
        entries = np.full((4, 4), 0.25)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TransitionMatrix((2, 2), entries)

    @pytest.mark.parametrize("low", [0.0, -1e-13])
    def test_leaves_caller_array_alone(self, low):
        entries = np.full((4, 4), 0.25)
        entries[0, :2] = [0.5 - low, low]
        before = entries.copy()
        P = TransitionMatrix((2, 2), entries)
        assert P.entries[0, 1] == 0.0
        assert np.array_equal(entries, before)
        assert entries.flags.writeable
        assert not np.shares_memory(P.entries, entries)
        assert not P.entries.flags.writeable
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0


def checked_strategy(rng, player, n, m, kind):
    """A strategy of pure, Dirichlet or 1e-12-perturbed rows, through make_strategy.

    Perturbed rows are pure or Dirichlet rows moved by at most 0.9e-12 / K
    per entry: entries up to just outside [0, 1] and row sums up to just off
    1, the edge of what make_strategy accepts and clips.
    """
    k = n if player == "alpha" else m
    if kind == "pure":
        rows = np.eye(k)[rng.integers(k, size=n * m)]
    else:
        rows = rng.dirichlet(np.ones(k), size=n * m)
    if kind == "perturbed":
        pure = rng.random(n * m) < 0.5
        rows[pure] = np.eye(k)[rng.integers(k, size=int(pure.sum()))]
        rows += rng.uniform(-1.0, 1.0, size=rows.shape) * 0.9e-12 / k
    return make_strategy(player, rows, order="alpha-major")


ROW_KINDS = st.sampled_from(["pure", "dirichlet", "perturbed"])


class TestPairChainTrustsCheckedStrategies:
    @given(st.integers(2, 4), st.integers(2, 4), ROW_KINDS, ROW_KINDS,
           st.integers(0, 2**32 - 1))
    def test_unvalidated_chain_is_what_validation_builds(self, n, m, kind_p, kind_q, seed):
        # the pair's chain skips TransitionMatrix's checks; on checked
        # strategies the checked constructor neither raises nor clips
        rng = np.random.default_rng(seed)
        p = checked_strategy(rng, "alpha", n, m, kind_p)
        q = checked_strategy(rng, "beta", n, m, kind_q)
        joint = chain_module._joint(p, q)
        checked = TransitionMatrix((n, m), joint)
        chain = transition_matrix(p, q)
        assert checked.entries.tobytes() == joint.tobytes()
        assert chain.entries.tobytes() == joint.tobytes()
        assert chain.entries.shape == (n * m, n * m) and chain.dims == (n, m)
        assert not chain.entries.flags.writeable

    def test_each_input_is_checked_once(self, rng, monkeypatch):
        # a fresh pair's chain is built without TransitionMatrix's checks and
        # solved by one SVD and two LU solves; a completion reuses none of
        # make_strategy's checks
        game = rand_game(rng, 3, 2)
        p, q = rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2)
        calls = dict.fromkeys(["__post_init__", "solve", "svd", "make_strategy"], 0)

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in [(TransitionMatrix, "__post_init__"), (np.linalg, "solve"),
                            (np.linalg, "svd"), (model_module, "make_strategy")]:
            counting(owner, name)
        stationary(transition_matrix(p, q))
        expected_scores(game, p, q)
        zd_feasibility_condition(transition_matrix(p, q))
        coeffs = ZDCoefficients(1.0, -1.0, 0.0)
        score_combination(game, p, q, coeffs)
        press_dyson_determinant(p, q, coeffs.combine(*payoff_vectors(game)))
        result, _ = pin_opponent_score(chicken_family(0.5), "alpha", 0.6)
        for fill_rule in FILL_RULES:
            result.complete(fill_rule)
        assert calls == {"__post_init__": 0, "solve": 2, "svd": 1, "make_strategy": 0}


class TestStationary:
    def test_uniform_chain(self):
        dist = stationary(transition_matrix(uniform("alpha", 2, 2), uniform("beta", 2, 2)))
        assert np.allclose(dist.v, 0.25, rtol=0, atol=1e-14)

    def test_absorbing_chain(self):
        dist = stationary(transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2)))
        assert np.allclose(dist.v, [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_identity_not_unique(self):
        with pytest.raises(NonUniqueStationary) as exc:
            stationary(identity_chain())
        assert exc.value.corank == 4

    def test_periodic_chain_is_unique(self):
        # a 4-cycle through every outcome: periodic, one closed class
        game = chicken_family(0.5)
        p = make_strategy("alpha", [[1, 0], [0, 1], [1, 0], [0, 1]], order="alpha-major")
        q = make_strategy("beta", [[0, 1], [0, 1], [1, 0], [1, 0]], order="alpha-major")
        P = transition_matrix(p, q)
        assert np.array_equal(np.linalg.matrix_power(P.entries, 4), np.eye(4))
        assert np.allclose(stationary(P).v, 0.25, rtol=0, atol=1e-14)
        assert zd_feasibility_condition(P).holds is True
        coeffs = ZDCoefficients(0.3, -0.7, 0.2)
        f = coeffs.combine(*payoff_vectors(game))
        assert abs(score_combination(game, p, q, coeffs) - f.mean()) <= 1e-14

    def test_residual_and_simplex(self, rng):
        for n, m in [(2, 2), (2, 3), (3, 3)] * 7:
            P = transition_matrix(rand_strategy(rng, "alpha", n, m), rand_strategy(rng, "beta", n, m))
            dist = stationary(P)
            assert np.linalg.norm(dist.v @ P.entries - dist.v, np.inf) < 1e-9
            assert abs(dist.v.sum() - 1.0) < 1e-12
            assert dist.v.min() >= 0.0

    def test_matches_eigenvector_oracle(self, rng):
        for _ in range(10):
            P = transition_matrix(rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2))
            values, vectors = np.linalg.eig(P.entries.T)
            lead = np.argmin(np.abs(values - 1.0))
            oracle = np.real(vectors[:, lead])
            oracle = oracle / oracle.sum()
            assert np.allclose(stationary(P).v, oracle, rtol=0, atol=1e-8)


class TestCofactorRow:
    def test_absorbing_hand_computed(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        c = cofactor_row(P).c
        # minors of P - I: only the first delete leaves a full-rank triangular block
        assert np.allclose(c, [-1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_identity_vanishes(self):
        assert np.array_equal(cofactor_row(identity_chain()).c, np.zeros(4))

    def test_proportional_to_stationary(self, rng):
        for n, m in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)] * 4:
            P = transition_matrix(rand_strategy(rng, "alpha", n, m), rand_strategy(rng, "beta", n, m))
            c = cofactor_row(P).c
            total = c.sum()
            assert abs(total) > 1e-10
            assert np.allclose(c / total, stationary(P).v, rtol=0, atol=1e-8)

    def test_annihilates_from_left(self, rng):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        M = P.entries - np.eye(9)
        c = cofactor_row(P).c
        assert np.linalg.norm(c @ M, np.inf) <= 1e-8 * max(1.0, np.abs(c).max())

    def test_minor_and_svd_paths_agree(self, rng):
        # interior, mixed-pure and pure pairs: pure rows give absorbing and
        # reducible chains whose vanishing cofactors must not flip the verdict
        for share in (1.0, 0.5, 0.0):
            for n, m in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)] * 4:
                p = rand_mixed_pure_strategy(rng, "alpha", n, m, share)
                q = rand_mixed_pure_strategy(rng, "beta", n, m, share)
                P = transition_matrix(p, q)
                oracle = adjugate_last_row_minors(P.entries - np.eye(n * m))
                assert np.allclose(cofactor_row(P).c, oracle, rtol=1e-8, atol=1e-12)
                one_signed = (oracle >= -1e-12).all() or (oracle <= 1e-12).all()
                holds = abs(oracle.sum()) > 1e-10 and one_signed
                assert zd_feasibility_condition(P).holds == holds

    def test_sign_follows_tree_theorem(self, rng):
        # Adj(I - P) >= 0 with a positive sum when v is unique, and
        # Adj(P - I) = (-1)^(N-1) Adj(I - P)
        for share in (1.0, 0.3):
            for n, m in [(2, 2), (2, 3), (3, 3), (4, 3), (5, 5), (10, 10)] * 3:
                p = rand_mixed_pure_strategy(rng, "alpha", n, m, share)
                q = rand_mixed_pure_strategy(rng, "beta", n, m, share)
                P = transition_matrix(p, q)
                try:
                    stationary(P)
                except ZDGamesError:
                    continue
                c = cofactor_row(P).c
                assert np.sign(c.sum()) == (-1) ** (n * m - 1)
                # the largest entry against its signed minor, taken by LU, not SVD
                k = int(np.argmax(np.abs(c)))
                minor = np.delete(np.delete(P.entries - np.eye(n * m), k, 0), -1, 1)
                assert np.sign(c[k]) == (-1) ** (k + n * m - 1) * np.sign(np.linalg.det(minor))

    def test_large_chain_uses_svd_path(self, rng):
        # 4x4 game: 16 states, larger than any chain the minors oracle checks
        P = transition_matrix(rand_strategy(rng, "alpha", 4, 4), rand_strategy(rng, "beta", 4, 4))
        c = cofactor_row(P).c
        assert np.allclose(c / c.sum(), stationary(P).v, rtol=0, atol=1e-8)


class TestStationaryFallback:
    """The SVD null vector stands in, computed once, when the LU solve fails."""

    def check_fallback(self, rng, monkeypatch, fake_solve):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        lu = stationary(P).v
        null_left = chain_module._null_left
        calls = []

        def counted(M):
            calls.append(M)
            return null_left(M)

        monkeypatch.setattr(chain_module, "_null_left", counted)
        monkeypatch.setattr(np.linalg, "solve", fake_solve)
        # P keeps its solved v, so solve again on a fresh chain of the same entries
        v = stationary(TransitionMatrix(P.dims, P.entries)).v
        assert len(calls) == 1
        assert np.abs(v - lu).max() <= 1e-12
        assert np.linalg.norm(v @ P.entries - v, np.inf) < 1e-9

    def test_solve_raises(self, rng, monkeypatch):
        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        self.check_fallback(rng, monkeypatch, singular)

    def test_solve_misses_residual(self, rng, monkeypatch):
        # a point mass on state (1, 1) is not stationary for an interior chain
        self.check_fallback(rng, monkeypatch, lambda A, b: np.eye(len(b))[0])


class TestInaccurateStationary:
    def test_near_degenerate_chain_raises(self):
        _, p, q = near_degenerate_3x3()
        with pytest.raises(InaccurateStationary) as exc:
            stationary(transition_matrix(p, q))
        # the offending mass prints as a plain float
        assert str(exc.value).startswith("stationary solve produced mass -1.1585")
        assert str(exc.value).endswith("e-09 below -1e-12")


class TestFeasibilityCondition:
    def test_ergodic_holds(self, rng):
        for _ in range(5):
            P = transition_matrix(rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3))
            report = zd_feasibility_condition(P)
            assert report.holds
            c = report.cofactors.c
            assert (c >= -1e-12).all() or (c <= 1e-12).all()

    def test_identity_fails(self):
        assert not zd_feasibility_condition(identity_chain()).holds

    def test_verdict_is_a_python_bool(self, rng):
        interior = transition_matrix(rand_strategy(rng, "alpha", 2, 2),
                                     rand_strategy(rng, "beta", 2, 2))
        for P in (identity_chain(), interior):
            assert type(zd_feasibility_condition(P).holds) is bool

    def test_zero_cofactor_row_fails(self):
        # P is within 1e-7 of I and has two closed classes, {(1,1)} and
        # {(2,1), (2,2)}: the largest singular value of P - I is 6.5e-8, so
        # only the corank test's floor of 1e-10 rejects the round-off one of
        # 5.2e-17; the row is exactly zero and enforces nothing
        P = TransitionMatrix((2, 2), [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.9999999544920568, 0.0, 4.550794318129011e-08],
            [0.0, 0.0, 0.999999989543351, 1.0456648968944562e-08],
            [0.0, 0.0, 2.1231947537247174e-10, 0.9999999997876806],
        ])
        report = zd_feasibility_condition(P)
        assert not report.cofactors.c.any()
        assert report.holds is False
        with pytest.raises(NonUniqueStationary):
            stationary(P)

    def test_absorbing_holds(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert zd_feasibility_condition(P).holds

    def test_verdicts_read_one_corank(self, rng, monkeypatch):
        # the chain's one SVD reports a second zero singular value: every
        # verdict reads the corank it gives, so all three flip together
        real_svd = np.linalg.svd

        def svd(a, *args, **kwargs):
            u, sv, vt = real_svd(a, *args, **kwargs)
            return u, np.concatenate([sv[:-2], [0.0, 0.0]]), vt

        monkeypatch.setattr(np.linalg, "svd", svd)
        game = rand_game(rng, 2, 3)
        p, q = rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3)
        P = transition_matrix(p, q)
        with pytest.raises(NonUniqueStationary):
            stationary(P)
        assert zd_feasibility_condition(P).holds is False
        with pytest.raises(DegenerateDenominator):
            score_combination(game, p, q, ZDCoefficients(1.0, -1.0, 0.0))

    def test_one_svd_per_chain(self, rng, monkeypatch):
        real_svd = np.linalg.svd
        calls = []

        def svd(*args, **kwargs):
            calls.append(args)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        game = rand_game(rng, 3, 2)
        p, q = rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2)
        stationary(transition_matrix(p, q))
        expected_scores(game, p, q)
        zd_feasibility_condition(transition_matrix(p, q))
        coeffs = ZDCoefficients(1.0, -1.0, 0.0)
        score_combination(game, p, q, coeffs)
        press_dyson_determinant(p, q, coeffs.combine(*payoff_vectors(game)))
        assert len(calls) == 1
        # the payoff vectors, too, are computed once per game and shared read-only
        pair = payoff_vectors(game)
        assert all(a is b for a, b in zip(payoff_vectors(game), pair))
        assert not any(w.flags.writeable for w in pair)


class TestExpectedScores:
    def test_locked_first_outcome(self):
        game = chicken_family(0.5)
        scores = expected_scores(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert scores.pi_alpha == scores.pi_beta == 1.0

    def test_uniform_play_means(self):
        game = chicken_family(0.5)
        scores = expected_scores(game, uniform("alpha", 2, 2), uniform("beta", 2, 2))
        assert abs(scores.pi_alpha - 0.75) < 1e-12
        assert abs(scores.pi_beta - 0.75) < 1e-12

    def test_within_payoff_range(self, rng):
        game = rand_game(rng, 3, 2)
        scores = expected_scores(game, rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2))
        assert game.A.min() - 1e-12 <= scores.pi_alpha <= game.A.max() + 1e-12
        assert game.B.min() - 1e-12 <= scores.pi_beta <= game.B.max() + 1e-12

    def test_against_simulation(self):
        game = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
        p = uniform("alpha", 2, 2)
        q = always("beta", 2, 2, 2)
        scores = expected_scores(game, p, q)
        # hand solve: the chain lives on column j=2, v = (0, 1/2, 0, 1/2)
        assert abs(scores.pi_alpha - 0.5) < 1e-12
        assert abs(scores.pi_beta - 3.0) < 1e-12
        report = play(game, p, q, SimulationConfig(rounds=10**6, seed=7))
        assert abs(report.empirical_pi_alpha - scores.pi_alpha) < 1e-2
        assert abs(report.empirical_pi_beta - scores.pi_beta) < 1e-2

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            expected_scores(chicken_family(0.5), rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3))

    def test_relabeling_invariance(self, rng):
        # swap both players' move labels and permute everything consistently
        n = m = 2
        game = rand_game(rng, n, m)
        p = rand_strategy(rng, "alpha", n, m)
        q = rand_strategy(rng, "beta", n, m)
        swap = [1, 0]
        A2 = game.A[swap][:, swap]
        B2 = game.B[swap][:, swap]
        p2_rows = np.empty_like(p.rows)
        q2_rows = np.empty_like(q.rows)
        for i in range(n):
            for j in range(m):
                src = swap[i] * m + swap[j]
                p2_rows[i * m + j] = p.rows[src][swap]
                q2_rows[i * m + j] = q.rows[src][swap]
        relabeled = expected_scores(
            make_game(A2, B2),
            make_strategy("alpha", p2_rows, order="alpha-major"),
            make_strategy("beta", q2_rows, order="alpha-major"),
        )
        original = expected_scores(game, p, q)
        assert abs(relabeled.pi_alpha - original.pi_alpha) < 1e-12
        assert abs(relabeled.pi_beta - original.pi_beta) < 1e-12


class TestChainMemo:
    """Exact functions on one pair share its chain, and never another pair's."""

    @staticmethod
    def fresh_ratio(game, P, coeffs):
        # score_combination's Cramer solve on P - I of an unshared chain
        D = zd_module._zd_matrix(P)
        D[:, -1] = 1.0
        return float(np.linalg.solve(D, coeffs.combine(*payoff_vectors(game)))[-1])

    def test_interleaved_pairs_match_fresh_chains(self, rng):
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q1, q2 = rand_strategy(rng, "beta", n, m), rand_strategy(rng, "beta", n, m)
        coeffs = ZDCoefficients(0.5, -1.0, 0.25)
        for game in (rand_game(rng, n, m), rand_game(rng, n, m)):
            for q in (q1, q2, q1):
                fresh = TransitionMatrix((n, m), chain_module._joint(p, q))
                v = stationary(fresh).v
                assert np.array_equal(stationary(transition_matrix(p, q)).v, v)
                assert expected_scores(game, p, q) == chain_module._scores(game, v)
                assert score_combination(game, p, q, coeffs) == self.fresh_ratio(game, fresh, coeffs)
        assert transition_matrix(p, q1) is transition_matrix(p, q1)

    def test_only_the_last_pair_keeps_its_chain(self, rng):
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q1, q2 = rand_strategy(rng, "beta", n, m), rand_strategy(rng, "beta", n, m)
        kept = weakref.ref(transition_matrix(p, q1))
        transition_matrix(p, q2)
        assert kept() is None

    def test_errors_are_raised_again(self):
        game = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
        p, q = identity_pair()
        near_game, near_p, near_q = near_degenerate_3x3()
        for _ in range(2):
            with pytest.raises(NonUniqueStationary):
                stationary(transition_matrix(p, q))
            with pytest.raises(NonUniqueStationary):
                expected_scores(game, p, q)
            with pytest.raises(DegenerateDenominator):
                score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))
            with pytest.raises(InaccurateStationary):
                expected_scores(near_game, near_p, near_q)
