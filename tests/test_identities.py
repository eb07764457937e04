"""Properties for the paper's identities, over hypothesis-drawn games.

Every property runs on 2x2..4x4 pairs with interior rows and with half of
the rows pure, where reducible chains are common.

Press-Dyson: D(p, q, f) / D(p, q, 1) = v . f for the stationary vector v
(Press & Dyson 2012), and when the one-signed cofactor test holds the
cofactor row normalizes to v.  Affine payoffs: the scores of
(sA + t, sB + t) are s * score + t.

Role swap (a metamorphic relation): the game (A, B) with strategies p, q
and the game (B, A) with q's and p's rows moved from state (i, j) to
(j, i) are one chain with the players' names exchanged, so the scores come
back swapped and the determinant ratio under (a, b, c) equals the ratio
under (b, a, c).  This guards the orientation of B, the convention most
likely to hide a transposition.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    DegenerateDenominator,
    NonUniqueStationary,
    ZDCoefficients,
    ZDGamesError,
    expected_scores,
    flatten_payoffs,
    make_game,
    make_strategy,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)

from helpers import seeded_pairs

RTOL = 1e-12
# c / sum(c) against v: the worst of 10,000 seeded draws was 6.5e-13
COFACTOR_ATOL = 1e-10
MIXED_SHARES = pytest.mark.parametrize("mixed_share", [1.0, 0.5], ids=["interior", "mixed-pure"])
COEFFS = st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda abc: any(abc))


def swap_roles(game, p, q):
    """(B, A) with beta's rows as alpha's and alpha's as beta's, state (i, j) -> (j, i)."""

    def moved(strategy, player):
        rows = strategy.rows.reshape(game.n, game.m, -1).transpose(1, 0, 2)
        return make_strategy(player, rows.reshape(game.n * game.m, -1), order="alpha-major")

    return make_game(game.B, game.A), moved(q, "alpha"), moved(p, "beta")


def close(x, y):
    return abs(x - y) <= RTOL * max(1.0, abs(x), abs(y))


def outcome(call, *args):
    try:
        return call(*args)
    except ZDGamesError as exc:
        return type(exc)


@MIXED_SHARES
@given(data=st.data(), coeffs=st.tuples(*[st.floats(-2.0, 2.0)] * 3))
def test_role_swap(mixed_share, data, coeffs):
    game, p, q = data.draw(seeded_pairs(mixed_share, max_moves=4))
    swapped = swap_roles(game, p, q)
    a, b, c = coeffs

    scores = outcome(expected_scores, game, p, q)
    swapped_scores = outcome(expected_scores, *swapped)
    if scores is NonUniqueStationary:
        assert swapped_scores is NonUniqueStationary
    elif not isinstance(scores, type):
        assert close(scores.pi_alpha, swapped_scores.pi_beta)
        assert close(scores.pi_beta, swapped_scores.pi_alpha)

    if (a, b, c) != (0.0, 0.0, 0.0):
        ratio = outcome(score_combination, game, p, q, ZDCoefficients(a, b, c))
        swapped_ratio = outcome(score_combination, *swapped, ZDCoefficients(b, a, c))
        if ratio is DegenerateDenominator:
            assert swapped_ratio is DegenerateDenominator
        else:
            assert close(ratio, swapped_ratio)


@MIXED_SHARES
@given(data=st.data(), coeffs=COEFFS)
def test_press_dyson_ratio_is_the_stationary_average(mixed_share, data, coeffs):
    game, p, q = data.draw(seeded_pairs(mixed_share, max_moves=4))
    dist = outcome(stationary, transition_matrix(p, q))
    ratio = outcome(score_combination, game, p, q, ZDCoefficients(*coeffs))
    if dist is NonUniqueStationary:
        assert ratio is DegenerateDenominator
    elif not isinstance(dist, type):
        a, b, c = coeffs
        f = (a * flatten_payoffs(game, "alpha").entries
             + b * flatten_payoffs(game, "beta").entries + c)
        assert close(ratio, float(dist.v @ f))


@MIXED_SHARES
@given(data=st.data())
def test_cofactor_row_normalizes_to_v(mixed_share, data):
    # holds means corank 1, so the 15 or fewer singular values of P - I whose
    # product scales the row all exceed 1e-10: the row cannot underflow here
    game, p, q = data.draw(seeded_pairs(mixed_share, max_moves=4))
    P = transition_matrix(p, q)
    report = zd_feasibility_condition(P)
    if report.holds:
        c = report.cofactors.c
        assert np.abs(c / c.sum() - stationary(P).v).max() <= COFACTOR_ATOL


@MIXED_SHARES
@given(data=st.data(), s=st.floats(-1e3, 1e3), t=st.floats(-100.0, 100.0))
def test_affine_payoffs_move_scores_affinely(mixed_share, data, s, t):
    game, p, q = data.draw(seeded_pairs(mixed_share, max_moves=4))
    scores = outcome(expected_scores, game, p, q)
    moved = outcome(expected_scores, make_game(s * game.A + t, s * game.B + t), p, q)
    if isinstance(scores, type):
        assert moved is scores
    else:
        # the payoffs' rounding scales with them, so the tolerance does too
        tol = RTOL * max(1.0, abs(s) * max(abs(game.A).max(), abs(game.B).max()) + abs(t))
        assert abs(moved.pi_alpha - (s * scores.pi_alpha + t)) <= tol
        assert abs(moved.pi_beta - (s * scores.pi_beta + t)) <= tol
