"""Pin and extortion outputs against values recorded by make_golden.py.

Pin coefficients and first components must match bit for bit, and so must
the NoFeasiblePin verdicts.  Extortion factor verdicts and violated ids must
match exactly; theta_max and the extortioner's (1,1) entry may move by
rounding (within 1e-12), every other entry must match bit for bit.  Rerun
the script only when an output is meant to change.
"""

import json
import pathlib

import numpy as np
import pytest

from zdgames import (
    ExtortionParams,
    NoFeasiblePin,
    check_extortion_factor,
    extortion_strategy,
    make_game,
    make_symmetric,
    pin_opponent_score,
    theta_max,
)

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_synthesis.json").read_text(encoding="utf-8")
)


@pytest.mark.parametrize("record", GOLDEN["pins"], ids=lambda r: r["pinner"])
def test_pin_matches_golden(record):
    game = make_game(record["A"], record["B"])
    for case in record["cases"]:
        if case["coeffs"] is None:
            with pytest.raises(NoFeasiblePin):
                pin_opponent_score(game, record["pinner"], case["target"])
            continue
        result, coeffs = pin_opponent_score(game, record["pinner"], case["target"])
        assert [coeffs.a, coeffs.b, coeffs.c] == case["coeffs"]
        assert np.array_equal(result.p1, case["p1"])


@pytest.mark.parametrize("record", GOLDEN["extortion"], ids=lambda r: f"{len(r['A'])}x{len(r['A'])}")
def test_extortion_matches_golden(record):
    game = make_symmetric(record["A"])
    for entry in record["factors"]:
        lam = entry["lam"]
        violated = check_extortion_factor(game, lam).violated
        assert [list(v) for v in violated] == entry["violated"]
        if violated:
            continue
        want = entry["theta_max"]
        got = theta_max(game, lam)
        assert got == want or abs(got - want) <= 1e-12 * want
        for strategy in entry["strategies"]:
            result = extortion_strategy(game, ExtortionParams(lam, strategy["theta"]))
            assert result.feasible == strategy["feasible"]
            assert np.array_equal(result.p1[1:], strategy["p1"][1:])
            assert abs(result.p1[0] - strategy["p1"][0]) <= 1e-12
