"""Properties for the paper's identities, over hypothesis-drawn games.

Role swap (a metamorphic relation): the game (A, B) with strategies p, q
and the game (B, A) with q's and p's rows moved from state (i, j) to
(j, i) are one chain with the players' names exchanged, so the scores come
back swapped and the determinant ratio under (a, b, c) equals the ratio
under (b, a, c).  This guards the orientation of B, the convention most
likely to hide a transposition.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    DegenerateDenominator,
    NonUniqueStationary,
    ZDCoefficients,
    ZDGamesError,
    expected_scores,
    make_game,
    make_strategy,
    score_combination,
)

from helpers import seeded_pairs

RTOL = 1e-12


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


@pytest.mark.parametrize("mixed_share", [1.0, 0.5], ids=["interior", "mixed-pure"])
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
