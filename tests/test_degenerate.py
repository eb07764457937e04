"""Near-degenerate chains end in a documented error, never a traceback.

Pairs come from the near-pure generator in helpers: pure rows, some blurred
by 1e-14..1e-6 towards the simplex, which puts the chain on the edge of
reducibility.  Library calls may raise only ``ZDGamesError`` or
``ValueError``, and the CLI must return one of its exit codes 0-3.  pytest
turns warnings into errors, so a numpy warning fails these properties too.
"""

import contextlib
import io
import pathlib
import tempfile

import numpy as np
from hypothesis import given

from zdgames import (
    SimulationConfig,
    ZDCoefficients,
    ZDGamesError,
    expected_scores,
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

from helpers import near_pure_pairs


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
