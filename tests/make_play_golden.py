"""Write golden seeded-play state counts to tests/golden_play.json.

Run from the repository root:

    PYTHONPATH=src python tests/make_play_golden.py

Each record is one ``play`` run: a 2x2 or 3x4 game with seeded Dirichlet
strategies, a play seed, a round count, a burn-in (None, 0 or rounds - 1)
and an initial state ("uniform-random" or a fixed (i, j)).  Two runs are
longer than one block of 65,536 draws.  The recorded counts are the exact
integer tallies behind ``state_frequencies``; seeded play must reproduce
them bit for bit.
"""

import json
import pathlib

import numpy as np

from zdgames import SimulationConfig, StateIndex, make_game, make_strategy, play

PATH = pathlib.Path(__file__).with_name("golden_play.json")
SEED = 77
SHAPES = ((2, 2), (3, 4))
LONG_ROUNDS = 70_001


def instance(seed, n, m):
    """The seeded game and strategy pair of one shape."""
    rng = np.random.default_rng([seed, n, m])
    game = make_game(rng.normal(size=(n, m)), rng.normal(size=(m, n)))
    p = make_strategy("alpha", rng.dirichlet(np.ones(n), size=n * m), order="alpha-major")
    q = make_strategy("beta", rng.dirichlet(np.ones(m), size=n * m), order="alpha-major")
    return game, p, q


def config(record):
    start = record["initial_state"]
    if start != "uniform-random":
        i, j = start
        start = StateIndex.from_pair(i, j, *record["shape"])
    return SimulationConfig(
        rounds=record["rounds"],
        seed=record["seed"],
        initial_state=start,
        burn_in=record["burn_in"],
    )


def counts(report):
    """The integer tallies behind ``state_frequencies``."""
    return [int(round(x)) for x in report.state_frequencies * report.rounds_counted]


def cases():
    seed = 100
    for shape in SHAPES:
        for start in ("uniform-random", [2, 1]):
            for rounds in (1, 15, 1000):
                for burn_in in sorted({None, 0, rounds - 1}, key=str):
                    seed += 1
                    yield {"shape": list(shape), "rounds": rounds, "burn_in": burn_in,
                           "initial_state": start, "seed": seed}
        seed += 1
        yield {"shape": list(shape), "rounds": LONG_ROUNDS, "burn_in": None,
               "initial_state": "uniform-random", "seed": seed}


def main():
    records = []
    for record in cases():
        game, p, q = instance(SEED, *record["shape"])
        report = play(game, p, q, config(record))
        record["rounds_counted"] = report.rounds_counted
        record["counts"] = counts(report)
        records.append(record)
    lines = ",\n".join(json.dumps(record) for record in records)
    PATH.write_text(f'{{"seed": {SEED}, "records": [\n{lines}\n]}}\n', encoding="utf-8")
    print(f"wrote {PATH} ({len(records)} runs)")


if __name__ == "__main__":
    main()
