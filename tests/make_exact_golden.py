"""Write golden exact-path outputs to tests/golden_exact.json.

Run from the repository root:

    PYTHONPATH=src python tests/make_exact_golden.py

Each record is one seeded strategy pair with its base game.  The chain
outputs (transition matrix, stationary vector, cofactor row and its
feasibility verdict) depend only on the pair; the score outputs
(``expected_scores``, ``score_combination``, ``press_dyson_determinant``)
are recorded for the base game scaled by 1, 1e3 and 1e6.  Rows are
interior (Dirichlet) on even records and mixed-pure on odd ones, so
absorbing and reducible chains, and their error verdicts, are covered.
Floats go through ``repr``, which round-trips exactly through JSON.
"""

import json
import pathlib

import numpy as np

from zdgames import (
    DegenerateDenominator,
    NonUniqueStationary,
    ZDCoefficients,
    expected_scores,
    make_game,
    make_strategy,
    payoff_vectors,
    press_dyson_determinant,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)

PATH = pathlib.Path(__file__).with_name("golden_exact.json")
SEED = 2025
SHAPES = {(2, 2): 12, (2, 3): 10, (3, 2): 10, (3, 3): 12, (4, 3): 14, (6, 6): 2}
SCALES = (1.0, 1e3, 1e6)


def strategy_rows(rng, k, size, mixed_pure):
    if not mixed_pure:
        return rng.dirichlet(np.ones(k), size=size)
    rows = np.eye(k)[rng.integers(k, size=size)]
    mixed = rng.random(size) < 0.5
    rows[mixed] = rng.dirichlet(np.ones(k), size=int(mixed.sum()))
    return rows


def strategies(record):
    p = make_strategy("alpha", record["p"], order="alpha-major")
    q = make_strategy("beta", record["q"], order="alpha-major")
    return p, q


def scaled_game(record, scale):
    return make_game(scale * np.array(record["A"]), scale * np.array(record["B"]))


def coefficients(record, scale):
    a, b, c = record["coeffs"]
    return ZDCoefficients(a, b, c * scale)


def final_column(game, coeffs):
    return coeffs.combine(*payoff_vectors(game))


def attempt(fn, *args):
    """``fn(*args)``, or the name of the zdgames error class it raised."""
    try:
        return fn(*args)
    except (NonUniqueStationary, DegenerateDenominator) as exc:
        return type(exc).__name__


def chain_outputs(p, q):
    P = transition_matrix(p, q)
    stat = attempt(stationary, P)
    feas = zd_feasibility_condition(P)
    return {
        "P": P.entries.tolist(),
        "v": stat if isinstance(stat, str) else stat.v.tolist(),
        "c": feas.cofactors.c.tolist(),
        "holds": bool(feas.holds),
    }


def score_outputs(game, p, q, coeffs):
    scores = attempt(expected_scores, game, p, q)
    return {
        "scores": scores if isinstance(scores, str) else [scores.pi_alpha, scores.pi_beta],
        "combination": attempt(score_combination, game, p, q, coeffs),
        "determinant": press_dyson_determinant(p, q, final_column(game, coeffs)),
    }


def main():
    rng = np.random.default_rng(SEED)
    records = []
    for (n, m), count in SHAPES.items():
        for k in range(count):
            mixed_pure = k % 2 == 1
            record = {
                "A": rng.uniform(-1.0, 4.0, (n, m)).tolist(),
                "B": rng.uniform(-1.0, 4.0, (m, n)).tolist(),
                "p": strategy_rows(rng, n, n * m, mixed_pure).tolist(),
                "q": strategy_rows(rng, m, n * m, mixed_pure).tolist(),
                "coeffs": rng.normal(size=3).tolist(),
            }
            p, q = strategies(record)
            record.update(chain_outputs(p, q))
            record["scaled"] = [
                dict(scale=s, **score_outputs(
                    scaled_game(record, s), p, q, coefficients(record, s)))
                for s in SCALES
            ]
            records.append(record)
    # one record per line keeps the file's diffs readable
    PATH.write_text(
        "[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n", encoding="utf-8"
    )
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
