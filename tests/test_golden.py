"""Pin and extortion outputs against the values recorded in golden_synthesis.json.

Each recorded game, target, factor and theta is replayed through the output
functions of goldens.py.  Pin coefficients and first components must match
bit for bit, and so must the NoFeasiblePin verdicts.  Extortion factor
verdicts and violated ids must match exactly; theta_max and the
extortioner's (1,1) entry may move by rounding (within 1e-12), every other
entry must match bit for bit.
"""

import numpy as np
import pytest

from zdgames import make_game, make_symmetric

from goldens import factor_outputs, pin_outputs, recorded, strategy_outputs

GOLDEN = recorded("golden_synthesis.json")


@pytest.mark.parametrize("record", GOLDEN["pins"], ids=lambda r: r["pinner"])
def test_pin_matches_golden(record):
    game = make_game(record["A"], record["B"])
    for case in record["cases"]:
        got = pin_outputs(game, record["pinner"], case["target"])
        assert {"target": case["target"], **got} == case


@pytest.mark.parametrize("record", GOLDEN["extortion"], ids=lambda r: f"{len(r['A'])}x{len(r['A'])}")
def test_extortion_matches_golden(record):
    game = make_symmetric(record["A"])
    for entry in record["factors"]:
        lam = entry["lam"]
        got = factor_outputs(game, lam)
        assert got["violated"] == entry["violated"]
        if entry["violated"]:
            continue
        want = entry["theta_max"]
        assert got["theta_max"] == want or abs(got["theta_max"] - want) <= 1e-12 * want
        for strategy in entry["strategies"]:
            got = strategy_outputs(game, lam, strategy["theta"])
            assert got["feasible"] == strategy["feasible"]
            assert np.array_equal(got["p1"][1:], strategy["p1"][1:])
            assert abs(got["p1"][0] - strategy["p1"][0]) <= 1e-12
