"""Near-degenerate chains end in a documented error, never a traceback.

Pairs come from the near-pure generator in helpers: pure rows, some blurred
by 1e-14..1e-6 towards the simplex, which puts the chain on the edge of
reducibility.  Library calls may raise only ``ZDGamesError`` or
``ValueError``, and the CLI must return one of its exit codes 0-3.  pytest
turns warnings into errors, so a numpy warning fails these properties too.
The three exact verdicts on a degenerate chain (``stationary``'s
uniqueness, ``holds`` and ``score_combination``'s denominator) must agree
on these pairs, on interior ones, and on mixed-pure chains with up to 15
moves per player.
"""

import contextlib
import io
import math
import pathlib
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from zdgames import (
    DegenerateDenominator,
    ExtortionParams,
    NoFeasiblePin,
    NonUniqueStationary,
    SimulationConfig,
    ZDCoefficients,
    ZDGamesError,
    check_extortion_factor,
    expected_scores,
    extortion_factor_bounds,
    extortion_strategy,
    make_game,
    make_strategy,
    make_symmetric,
    pin_opponent_score,
    play,
    press_dyson_determinant,
    save_game,
    save_strategy,
    score_combination,
    stationary,
    synthesize_zd_alpha,
    transition_matrix,
    zd_feasibility_condition,
)
from zdgames.cli import main

from helpers import (
    assert_scaled_theta_max,
    lazy_walk,
    near_identity_rows,
    near_pure_pairs,
    rand_mixed_pure_strategy,
    seeded_pairs,
)


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


def test_holds_iff_unique_on_large_mixed_pure_chains():
    # 2..15 moves per player, 70% of the rows pure: transient states put
    # exact zeros in v, and some chains have several closed classes.  By the
    # Markov chain tree theorem a corank-1 cofactor row is one-signed, so
    # the corank alone decides holds; the row's entries of the wrong sign
    # are round-off
    rng = np.random.default_rng(2026)
    verdicts = []
    for _ in range(60):
        n, m = (int(k) for k in rng.integers(2, 16, size=2))
        P = transition_matrix(rand_mixed_pure_strategy(rng, "alpha", n, m, 0.3),
                              rand_mixed_pure_strategy(rng, "beta", n, m, 0.3))
        try:
            stationary(P)
            unique = True
        except NonUniqueStationary:
            unique = False
        report = zd_feasibility_condition(P)
        assert report.holds is unique
        c = report.cofactors.c
        if unique:
            assert (np.sign(c.sum()) * c >= -1e-11 * np.abs(c).max()).all()
        verdicts.append(unique)
    assert 0 < verdicts.count(False) < len(verdicts)


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


# payoffs at the float limit overflow inside the library; each call must still
# end in the library's own verdict, not a numpy warning (an error under pytest)
HUGE = make_symmetric([[1e308, -1e308], [1e308, 0.0]])


def pin_at_the_limit():
    # max|A| < 2^1023, so the game's payoff scale is 1 and g = 8e307 + 1.7e308 overflows
    with pytest.raises(NoFeasiblePin):
        pin_opponent_score(make_symmetric([[8e307, -8e307], [8e307, 0.0]]), "alpha", -1.7e308)


def bounds_at_the_limit():
    bounds = extortion_factor_bounds(HUGE)
    assert (bounds.lambda_min, bounds.lambda_max) == (1.0, math.inf)


def synthesis_at_the_limit():
    result = synthesize_zd_alpha(HUGE, ZDCoefficients(1e300, 1e300, 0.0))
    values = [value for _, value in result.violations]
    assert not result.feasible
    assert np.isinf(values).any() and np.isnan(values).any()


def combination_at_the_limit():
    half = np.full((4, 2), 0.5)
    p = make_strategy("alpha", half, order="alpha-major")
    q = make_strategy("beta", half, order="alpha-major")
    with pytest.raises(ValueError, match="f must be finite"):
        score_combination(HUGE, p, q, ZDCoefficients(10.0, 10.0, 0.0))


@pytest.mark.parametrize("check", [pin_at_the_limit, bounds_at_the_limit,
                                   synthesis_at_the_limit, combination_at_the_limit],
                         ids=["pin", "bounds", "synthesis", "combination"])
def test_overflow_at_the_float_limit_gets_the_library_verdict(check):
    check()


# payoffs of either sign with magnitude in [0.5, 1] times the largest float
AT_THE_LIMIT = st.builds(lambda x, sign: sign * x * sys.float_info.max,
                         st.floats(0.5, 1.0), st.sampled_from([1.0, -1.0]))
POWERS = st.sampled_from([1, 3, 1000])  # the copies are scaled by 2^-k


def tables(rows, cols):
    return st.lists(st.lists(AT_THE_LIMIT, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(np.array)


@st.composite
def pins_at_the_limit(draw):
    """(A, B, pinner, target), the target inside the range of the opponent's payoffs."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    A, B = draw(tables(n, m)), draw(tables(m, n))
    pinner = draw(st.sampled_from(["alpha", "beta"]))
    opponent = B if pinner == "alpha" else A
    return A, B, pinner, draw(st.floats(opponent.min(), opponent.max()))


def pinned(game, pinner, target):
    """(p1, weight) of the pin, or None when there is none."""
    try:
        result, coeffs = pin_opponent_score(game, pinner, target)
    except NoFeasiblePin:
        return None
    return result.p1, coeffs.b if pinner == "alpha" else coeffs.a


@example((HUGE.A, HUGE.B, "alpha", 1e308), 1)
@given(pins_at_the_limit(), POWERS)
def test_a_pin_at_the_float_limit_is_its_scaled_copys(problem, k):
    # the pins of a game and of its copy scaled by 2^-k agree: same verdict, the
    # same p1 bits and the weight times 2^k, unless the copy's weight is capped at 16
    A, B, pinner, target = problem
    full = pinned(make_game(A, B), pinner, target)
    small = pinned(make_game(np.ldexp(A, -k), np.ldexp(B, -k)), pinner, math.ldexp(target, -k))
    assert (full is None) == (small is None)
    if full is not None and abs(small[1]) < 16.0:
        assert full[0].tobytes() == small[0].tobytes()
        assert small[1] == math.ldexp(full[1], k)


@given(tables(3, 3), st.integers(2, 3), st.floats(-1e-12, 1.0 + 1e-12), POWERS)
def test_extortion_at_the_float_limit_is_its_scaled_copys(A, n, share, k):
    # wherever the full-scale check does not raise (lam*w overflows), the game
    # and its copy scaled by 2^-k give the same verdict, theta_max times 2^k and
    # the same strategy bits at theta and theta times 2^k, feasible at theta_max;
    # lam is drawn from the admissible interval when there is one, its ends included
    A = A[:n, :n]
    A[0, 0], A[-1, -1] = max(A[0, 0], A[-1, -1]), min(A[0, 0], A[-1, -1])
    game, small = make_symmetric(A), make_symmetric(np.ldexp(A, -k))
    bounds = extortion_factor_bounds(game)
    low, high = (bounds.lambda_min, min(bounds.lambda_max, 4.0)) if bounds.feasible else (1.0, 4.0)
    lam = low + share * (high - low)
    try:
        report = check_extortion_factor(game, lam)
    except ValueError:
        return
    small_report = check_extortion_factor(small, lam)
    assert (report.ok, report.violated) == (small_report.ok, small_report.violated)
    assert_scaled_theta_max(report.theta_max, small_report.theta_max, k)
    if report.ok:
        theta = report.theta_max if math.isfinite(report.theta_max) else 1.0
        result = extortion_strategy(game, ExtortionParams(lam, theta))
        small_result = extortion_strategy(small, ExtortionParams(lam, math.ldexp(theta, k)))
        assert result.feasible and small_result.feasible
        assert result.p1.tobytes() == small_result.p1.tobytes()
