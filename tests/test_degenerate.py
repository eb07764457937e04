"""Near-degenerate chains end in a documented error, never a traceback.

Pairs come from the near-pure generator in helpers: pure rows, some blurred
by 1e-14..1e-6 towards the simplex, which puts the chain on the edge of
reducibility.  Library calls may raise only ``ZDGamesError`` or
``ValueError``, and the CLI must return one of its exit codes 0-3.  pytest
turns warnings into errors, so a numpy warning fails these properties too.
The three exact verdicts on a degenerate chain (``stationary``'s
uniqueness, ``holds`` and ``score_combination``'s denominator) must agree
on these pairs and on interior ones.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    DegenerateDenominator,
    NonUniqueStationary,
    SimulationConfig,
    ZDCoefficients,
    ZDGamesError,
    expected_scores,
    make_game,
    make_strategy,
    play,
    press_dyson_determinant,
    save_game,
    save_strategy,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)
from zdgames.cli import main

from helpers import near_pure_pairs, seeded_pairs


@given(near_pure_pairs())
def test_library_raises_only_documented_errors(pair):
    game, p, q = pair
    calls = (
        lambda: stationary(transition_matrix(p, q)),
        lambda: zd_feasibility_condition(transition_matrix(p, q)),
        lambda: expected_scores(game, p, q),
        lambda: score_combination(game, p, q, ZDCoefficients(1.0, -1.0, 0.0)),
        lambda: press_dyson_determinant(p, q, np.ones(p.n * p.m)),
        lambda: play(game, p, q, SimulationConfig(rounds=200, seed=1)),
    )
    for call in calls:
        try:
            call()
        except (ZDGamesError, ValueError):
            pass


@pytest.mark.parametrize(
    "pairs", [near_pure_pairs(), seeded_pairs()], ids=["near-pure", "interior"]
)
@given(data=st.data())
def test_degenerate_verdicts_agree(pairs, data):
    # one corank test decides all three: by the Markov chain tree theorem
    # D(p, q, 1) is nonzero exactly when the stationary distribution is unique
    game, p, q = data.draw(pairs)
    P = transition_matrix(p, q)

    def raises(error, call, *args):
        try:
            call(*args)
        except error:
            return True
        except ZDGamesError:
            pass
        return False

    non_unique = raises(NonUniqueStationary, stationary, P)
    degenerate = raises(DegenerateDenominator, score_combination, game, p, q,
                        ZDCoefficients(1.0, -1.0, 0.0))
    holds = zd_feasibility_condition(P).holds
    assert non_unique == degenerate == (not holds)


def near_identity_rows(k, eps):
    """k x k rows that keep the move with probability 1 - eps, else switch uniformly."""
    return (1.0 - eps) * np.eye(k) + eps / (k - 1) * (1.0 - np.eye(k))


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-11])
def test_two_closed_classes_near_identity(eps):
    # alpha never moves and beta rarely does: two closed classes of two
    # states each.  Every singular value of P - I is 2 * eps or round-off
    # near 1e-17, so only the corank test's floor of 1e-10 keeps the
    # round-off ones from counting, and D(p, q, 1) from mixing the classes
    game = make_game([[3.0, 0.0], [5.0, 1.0]], [[3.0, 0.0], [5.0, 1.0]])
    p = make_strategy("alpha", np.repeat(np.eye(2), 2, axis=0), order="alpha-major")
    q = make_strategy("beta", np.tile(near_identity_rows(2, eps), (2, 1)), order="alpha-major")
    P = transition_matrix(p, q)
    with pytest.raises(NonUniqueStationary):
        stationary(P)
    assert zd_feasibility_condition(P).holds is False
    with pytest.raises(DegenerateDenominator):
        score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))


def lazy_walk(k, eps, seed=0):
    """k x k game with normal payoffs; each player switches with probability eps."""
    rng = np.random.default_rng(seed)
    game = make_game(rng.normal(size=(k, k)), rng.normal(size=(k, k)))
    rows = near_identity_rows(k, eps)
    p = make_strategy("alpha", np.repeat(rows, k, axis=0), order="alpha-major")
    q = make_strategy("beta", np.tile(rows, (k, 1)), order="alpha-major")
    return game, p, q


def assert_ratio_matches_scores(game, p, q):
    scores = expected_scores(game, p, q)
    for a, b, c in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, -2.0, 0.5)):
        ratio = score_combination(game, p, q, ZDCoefficients(a, b, c))
        assert abs(ratio - (a * scores.pi_alpha + b * scores.pi_beta + c)) <= 1e-12


def test_underflowing_cofactors_keep_the_verdict():
    # 6x6, both players switch with probability 1.5e-10: v is uniform and
    # unique (one singular value of P - I is round-off, the other 35 lie in
    # 1.8e-10..3.6e-10), but their product, the cofactor scale, underflows
    # to 0.0, and so does D(p, q, 1).  The corank alone decides the verdict,
    # and the ratio comes from a solve, which does not underflow
    game, p, q = lazy_walk(6, 1.5e-10)
    P = transition_matrix(p, q)
    assert np.allclose(stationary(P).v, 1.0 / 36, rtol=1e-5, atol=0)
    report = zd_feasibility_condition(P)
    assert not report.cofactors.c.any()
    assert report.holds is True
    assert_ratio_matches_scores(game, p, q)


@pytest.mark.parametrize("k", [10, 20])
def test_slow_mixing_lazy_walk_is_unique(k):
    # switch probability 0.01: v is uniform and the corank is 1, yet
    # D(p, q, 1), about the product of the 0.01-sized singular values of
    # P - I, is -5e-170 on the 100-state chain and underflows to -0.0 on
    # the 400-state one
    game, p, q = lazy_walk(k, 0.01)
    P = transition_matrix(p, q)
    assert np.allclose(stationary(P).v, 1.0 / k**2, rtol=1e-9, atol=0)
    assert zd_feasibility_condition(P).holds is True
    assert_ratio_matches_scores(game, p, q)


@given(near_pure_pairs())
def test_cli_returns_a_documented_exit_code(pair):
    game, p, q = pair
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(pathlib.Path(tmp, name)) for name in ("g.json", "p.json", "q.json")]
        save_game(game, paths[0])
        save_strategy(p, paths[1])
        save_strategy(q, paths[2])
        for argv in (["analyze", *paths], ["simulate", *paths, "--rounds", "200"]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()
