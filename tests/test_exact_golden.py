"""Exact-path outputs against values recorded by make_exact_golden.py.

Transition matrices, stationary vectors, cofactor rows, expected scores,
determinant ratios and Press-Dyson determinants must match within 1e-12
relative to the largest recorded entry (or to a floor of 1 for chain
quantities and of the payoff magnitude for score quantities, so values that
vanish to round-off compare absolutely).  The feasibility verdict and every
NonUniqueStationary / DegenerateDenominator outcome must match exactly.
Rerun the script only when an output is meant to change.
"""

import json
import pathlib

import numpy as np
import pytest

from zdgames import (
    expected_scores,
    press_dyson_determinant,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)

from make_exact_golden import attempt, coefficients, final_column, scaled_game, strategies

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_exact.json").read_text(encoding="utf-8")
)
RTOL = 1e-12


def assert_close(got, want, floor):
    """Within RTOL of max(max|want|, floor), or the same error class name."""
    if isinstance(want, str):
        assert got == want
        return
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= RTOL * max(np.abs(want).max(), floor)


def record_id(record):
    return f"{len(record['A'])}x{len(record['B'])}"


@pytest.mark.parametrize("record", GOLDEN, ids=record_id)
def test_chain_matches_golden(record):
    p, q = strategies(record)
    P = transition_matrix(p, q)
    assert_close(P.entries, record["P"], 1.0)
    stat = attempt(stationary, P)
    assert_close(stat if isinstance(stat, str) else stat.v, record["v"], 1.0)
    feas = zd_feasibility_condition(P)
    assert feas.holds == record["holds"]
    assert_close(feas.cofactors.c, record["c"], 1.0)


@pytest.mark.parametrize("record", GOLDEN, ids=record_id)
def test_scores_match_golden(record):
    p, q = strategies(record)
    for want in record["scaled"]:
        game = scaled_game(record, want["scale"])
        coeffs = coefficients(record, want["scale"])
        f = final_column(game, coeffs)
        payoff = np.abs(np.concatenate([game.A.ravel(), game.B.ravel()])).max()

        scores = attempt(expected_scores, game, p, q)
        if not isinstance(scores, str):
            scores = [scores.pi_alpha, scores.pi_beta]
        assert_close(scores, want["scores"], payoff)
        assert_close(attempt(score_combination, game, p, q, coeffs),
                     want["combination"], np.abs(f).max())
        assert_close(press_dyson_determinant(p, q, f), want["determinant"], np.abs(f).max())
