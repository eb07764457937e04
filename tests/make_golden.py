"""Write golden pin and extortion outputs to tests/golden_synthesis.json.

Run from the repository root:

    PYTHONPATH=src python tests/make_golden.py

Every case stores its inputs next to the outputs, so ``test_golden.py``
replays exactly these games, targets, factors and scales.  Floats go
through ``repr``, which round-trips exactly through JSON.
"""

import json
import pathlib

import numpy as np

from zdgames import (
    ExtortionParams,
    NoFeasiblePin,
    check_extortion_factor,
    chicken_family,
    extortion_factor_bounds,
    extortion_strategy,
    make_game,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
    pin_opponent_score,
    theta_max,
)

PATH = pathlib.Path(__file__).with_name("golden_synthesis.json")
SEED = 2024


def pin_windows(game, pinner):
    """Closed pinnable target windows for each sign of the pin weight."""
    wa, wb = payoff_vectors(game)
    w = wb if pinner == "alpha" else wa
    own = own_move_one_indicator(pinner, game.n, game.m) == 1.0
    windows = [(w[own].max(), w[~own].min()), (w[~own].max(), w[own].min())]
    return [(float(lo), float(hi)) for lo, hi in windows if lo <= hi]


def pin_cases(game, pinner):
    targets = []
    for lo, hi in pin_windows(game, pinner):
        width = hi - lo
        targets += [lo, hi] + [lo + u * width for u in (0.1, 0.5, 0.9)]
        targets += [lo - 0.5 * (width + 1.0), hi + 0.5 * (width + 1.0)]
    cases = []
    for target in targets:
        try:
            result, coeffs = pin_opponent_score(game, pinner, target)
        except NoFeasiblePin:
            cases.append({"target": target, "coeffs": None, "p1": None})
            continue
        cases.append({
            "target": target,
            "coeffs": [coeffs.a, coeffs.b, coeffs.c],
            "p1": result.p1.tolist(),
        })
    return cases


def pin_record(game, pinner):
    return {
        "A": game.A.tolist(),
        "B": game.B.tolist(),
        "pinner": pinner,
        "cases": pin_cases(game, pinner),
    }


def pinnable_games(rng, n, m, count):
    games = []
    while len(games) < count:
        game = make_game(rng.uniform(-1.0, 4.0, (n, m)), rng.uniform(-1.0, 4.0, (m, n)))
        if pin_windows(game, "alpha") and pin_windows(game, "beta"):
            games.append(game)
    return games


def extortable_game(rng, n):
    """Sorted diagonal and dominant lower triangle: admissible at lam = 1."""
    while True:
        A = rng.uniform(0.0, 5.0, size=(n, n))
        diag = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1]
        A[0, 0], A[-1, -1] = diag[0], diag[1]
        for i in range(1, n - 1):
            A[i, i] = diag[i + 1]
        for i in range(n):
            for j in range(i):
                A[i, j], A[j, i] = max(A[i, j], A[j, i]), min(A[i, j], A[j, i])
        game = make_symmetric(A)
        bounds = extortion_factor_bounds(game)
        if bounds.feasible and bounds.lambda_max > 1.05:
            return game


def normalized_symmetric(rng, n):
    A = rng.uniform(-1.0, 4.0, size=(n, n))
    if A[0, 0] < A[-1, -1]:
        A[0, 0], A[-1, -1] = A[-1, -1], A[0, 0]
    return make_symmetric(A)


def extortion_record(game, lams):
    entries = []
    for lam in lams:
        violated = check_extortion_factor(game, lam).violated
        entry = {"lam": lam, "violated": [list(v) for v in violated]}
        if not violated:
            limit = theta_max(game, lam)
            entry["theta_max"] = limit
            thetas = [0.01, 0.1] if np.isinf(limit) else [f * limit for f in (0.1, 0.5, 1.0)]
            entry["strategies"] = []
            for theta in thetas:
                result = extortion_strategy(game, ExtortionParams(lam, theta))
                entry["strategies"].append(
                    {"theta": theta, "feasible": result.feasible, "p1": result.p1.tolist()}
                )
        entries.append(entry)
    return {"A": game.A.tolist(), "factors": entries}


def factor_grid(game):
    bounds = extortion_factor_bounds(game)
    lo, hi = bounds.lambda_min, bounds.lambda_max
    top = min(hi, lo + 3.0)
    lams = [lo] + [lo + u * (top - lo) for u in (0.25, 0.5, 0.75)]
    if np.isfinite(hi):
        lams += [hi, 1.5 * hi + 0.5]
    return [float(x) for x in lams]


def main():
    rng = np.random.default_rng(SEED)
    pd = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
    pins = [pin_record(game, pinner)
            for game in [pd, chicken_family(0.5)]
            for pinner in ("alpha", "beta")]
    for n, m in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for game in pinnable_games(rng, n, m, 5):
            pins += [pin_record(game, "alpha"), pin_record(game, "beta")]

    extortion = [extortion_record(chicken_family(r), factor_grid(chicken_family(r)))
                 for r in (0.25, 0.5, 0.75, 1.5)]
    extortion.append(extortion_record(pd, factor_grid(pd)))
    for n in (2, 3, 4):
        for _ in range(5):
            game = extortable_game(rng, n)
            extortion.append(extortion_record(game, factor_grid(game)))
        for _ in range(5):
            lams = [float(x) for x in 1.0 + rng.uniform(0.0, 4.0, size=3)]
            extortion.append(extortion_record(normalized_symmetric(rng, n), lams))

    # one record per line keeps the file small and its diffs readable
    lines = ",\n".join(json.dumps(r) for r in pins)
    lines += "\n], \"extortion\": [\n" + ",\n".join(json.dumps(r) for r in extortion)
    PATH.write_text("{\"pins\": [\n" + lines + "\n]}\n", encoding="utf-8")
    print(f"wrote {PATH}")


if __name__ == "__main__":
    main()
