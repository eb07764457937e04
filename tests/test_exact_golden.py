"""Exact-path outputs against the values recorded in golden_exact.json.

Each recorded pair is replayed through the output functions of goldens.py.
Transition matrices, stationary vectors, cofactor rows, expected scores,
determinant ratios and Press-Dyson determinants must match within 1e-12
relative to the largest recorded entry (or to a floor of 1 for chain
quantities and of the payoff magnitude for score quantities, so values that
vanish to round-off compare absolutely).  The feasibility verdict and every
NonUniqueStationary / DegenerateDenominator outcome must match exactly.
"""

import numpy as np
import pytest

from goldens import (
    chain_outputs, coefficients, final_column, recorded, scaled_game, score_outputs,
)

GOLDEN = recorded("golden_exact.json")
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
