"""Exact-path outputs against the values recorded in golden_exact.json.

Each recorded pair is replayed through the output functions of goldens.py.
Transition matrices, stationary vectors, cofactor rows, expected scores,
determinant ratios and Press-Dyson determinants must match within 1e-12
relative to the largest recorded entry (or to a floor of 1 for chain
quantities and of the payoff magnitude for score quantities, so values that
vanish to round-off compare absolutely).  The feasibility verdict and every
NonUniqueStationary / DegenerateDenominator outcome must match exactly.

The records are also certified against exact arithmetic (``exact.py``): each
recorded v and each ``scaled.combination`` lies within EXACT_TOL of the
rational value, which the code did not produce.
"""

from fractions import Fraction

import numpy as np
import pytest

import exact
from goldens import (
    chain_outputs, coefficients, final_column, recorded, scaled_game, score_outputs,
)

GOLDEN = recorded("golden_exact.json")
RTOL = 1e-12
# fixed before the first run; over the 58 certified records the worst observed
# were 6.7e-16 (3.0 eps) for v and 2.3e-16 * max|f| (1.0 eps) for the combination
EXACT_TOL = 1024 * np.finfo(float).eps


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
    got = chain_outputs(record)
    for key in ("P", "v", "c"):
        assert_close(got[key], record[key], 1.0)
    assert got["holds"] == record["holds"]


@pytest.mark.parametrize("record", GOLDEN, ids=record_id)
def test_scores_match_golden(record):
    for want in record["scaled"]:
        got = score_outputs(record, want["scale"])
        game = scaled_game(record, want["scale"])
        f = final_column(game, coefficients(record, want["scale"]))
        payoff = np.abs(np.concatenate([game.A.ravel(), game.B.ravel()])).max()
        assert_close(got["scores"], want["scores"], payoff)
        assert_close(got["combination"], want["combination"], np.abs(f).max())
        assert_close(got["determinant"], want["determinant"], np.abs(f).max())


def completed(rows):
    """Recorded rows in ``Fraction``, each last entry 1 minus the rest, so rows sum to 1.

    Read as bare doubles, the rows of the 2x2 record with two closed classes
    sum to 1 - 2**-53: their exact D(p, q, 1) is 9.2e-18, not 0, and the
    oracle would call that chain's v unique.
    """
    rows = [[Fraction(x) for x in row[:-1]] for row in rows]
    return [row + [1 - sum(row)] for row in rows]


# the two 6x6 records (N = 36) take about 4.4 s in exact arithmetic, so they are left out
@pytest.mark.parametrize("record", [r for r in GOLDEN if len(r["p"]) < 36], ids=record_id)
def test_record_agrees_with_exact(record):
    P = exact.transition_matrix(completed(record["p"]), completed(record["q"]))
    v = exact.stationary(P)
    D1 = exact.press_dyson_determinant(P, [1] * len(P))
    assert (v is None) == (D1 == 0) == (record["v"] == "NonUniqueStationary")
    if v is not None:
        assert max(abs(Fraction(x) - y) for x, y in zip(record["v"], v)) <= EXACT_TOL
    for want in record["scaled"]:
        f = final_column(scaled_game(record, want["scale"]), coefficients(record, want["scale"]))
        if v is None:
            assert want["combination"] == "DegenerateDenominator"
            continue
        ratio = exact.press_dyson_determinant(P, [Fraction(x) for x in f.tolist()]) / D1
        assert abs(Fraction(want["combination"]) - ratio) <= EXACT_TOL * float(np.abs(f).max())
