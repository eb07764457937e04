"""The four golden files of tests/: seeded inputs, recorded outputs, one writer.

Check every file against what the code computes today, run from the
repository root:

    PYTHONPATH=src python tests/goldens.py

Each file is regenerated in memory and compared with the file at tolerance
0.  For every field (dotted object keys, list positions dropped) the check
prints the values changed out of those recorded, the largest relative
change over nonzero records and the largest absolute change over records
of 0, and it exits 1 if any file's bytes differ.  ``--write`` rewrites
the files instead; use it only when an output is meant to change.

Each golden owns its seeded inputs and the functions that compute its
recorded outputs from them.  The ``test_*golden.py`` modules replay the
recorded inputs through those same functions and compare at their own
tolerances.  ``tests/test_goldens.py`` runs the tolerance-0 check in the
test suite too.  Byte identity holds across BLAS thread counts on one host,
but is not guaranteed across hosts or BLAS builds: on a new host, a drift
of a few ulps in that test's output is the host, not the code.  Floats go
through ``repr``, which round-trips exactly through JSON.
"""

import argparse
import collections
import contextlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile
from unittest import mock

import numpy as np

from zdgames import (
    DegenerateDenominator,
    ExtortionParams,
    NoFeasiblePin,
    NonUniqueStationary,
    SimulationConfig,
    StateIndex,
    ZDCoefficients,
    check_extortion_factor,
    chicken_family,
    expected_scores,
    extortion_factor_bounds,
    extortion_strategy,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
    pin_opponent_score,
    play,
    press_dyson_determinant,
    save_game,
    save_strategy,
    score_combination,
    stationary,
    theta_max,
    transition_matrix,
    zd_feasibility_condition,
)
from zdgames.cli import main as cli_main

HERE = pathlib.Path(__file__).parent
PD = [[3.0, 0.0], [5.0, 1.0]]


# golden_exact.json: one seeded strategy pair with its base game per record.
# The chain outputs (transition matrix, stationary vector, cofactor row and
# its feasibility verdict) depend only on the pair; the score outputs
# (expected_scores, score_combination, press_dyson_determinant) are recorded
# for the base game scaled by 1, 1e3 and 1e6.  Rows are interior (Dirichlet)
# on even records and mixed-pure on odd ones, so absorbing and reducible
# chains, and their error verdicts, are covered.

EXACT_SEED = 2025
EXACT_SHAPES = {(2, 2): 12, (2, 3): 10, (3, 2): 10, (3, 3): 12, (4, 3): 14, (6, 6): 2}
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


def chain_outputs(record):
    p, q = strategies(record)
    P = transition_matrix(p, q)
    stat = attempt(stationary, P)
    feas = zd_feasibility_condition(P)
    return {
        "P": P.entries.tolist(),
        "v": stat if isinstance(stat, str) else stat.v.tolist(),
        "c": feas.cofactors.c.tolist(),
        "holds": bool(feas.holds),
    }


def score_outputs(record, scale):
    p, q = strategies(record)
    game, coeffs = scaled_game(record, scale), coefficients(record, scale)
    scores = attempt(expected_scores, game, p, q)
    return {
        "scale": scale,
        "scores": scores if isinstance(scores, str) else [scores.pi_alpha, scores.pi_beta],
        "combination": attempt(score_combination, game, p, q, coeffs),
        "determinant": press_dyson_determinant(p, q, final_column(game, coeffs)),
    }


def exact_golden():
    rng = np.random.default_rng(EXACT_SEED)
    records = []
    for (n, m), count in EXACT_SHAPES.items():
        for k in range(count):
            mixed_pure = k % 2 == 1
            record = {
                "A": rng.uniform(-1.0, 4.0, (n, m)).tolist(),
                "B": rng.uniform(-1.0, 4.0, (m, n)).tolist(),
                "p": strategy_rows(rng, n, n * m, mixed_pure).tolist(),
                "q": strategy_rows(rng, m, n * m, mixed_pure).tolist(),
                "coeffs": rng.normal(size=3).tolist(),
            }
            record.update(chain_outputs(record))
            record["scaled"] = [score_outputs(record, s) for s in SCALES]
            records.append(record)
    return render(records)


# golden_synthesis.json: pin cases (a game, a pinner and targets inside,
# on and outside the pinnable windows) and extortion factors (each factor's
# verdict and theta_max, and strategies at fractions of theta_max).

SYNTHESIS_SEED = 2024


def pin_windows(game, pinner):
    """Closed pinnable target windows for each sign of the pin weight."""
    wa, wb = payoff_vectors(game)
    w = wb if pinner == "alpha" else wa
    own = own_move_one_indicator(pinner, game.n, game.m) == 1.0
    windows = [(w[own].max(), w[~own].min()), (w[~own].max(), w[own].min())]
    return [(float(lo), float(hi)) for lo, hi in windows if lo <= hi]


def pin_outputs(game, pinner, target):
    """The pin's coefficients and first component, both None if none is feasible."""
    try:
        result, coeffs = pin_opponent_score(game, pinner, target)
    except NoFeasiblePin:
        return {"coeffs": None, "p1": None}
    return {"coeffs": [coeffs.a, coeffs.b, coeffs.c], "p1": result.p1.tolist()}


def pin_record(game, pinner):
    targets = []
    for lo, hi in pin_windows(game, pinner):
        width = hi - lo
        targets += [lo, hi] + [lo + u * width for u in (0.1, 0.5, 0.9)]
        targets += [lo - 0.5 * (width + 1.0), hi + 0.5 * (width + 1.0)]
    return {
        "A": game.A.tolist(),
        "B": game.B.tolist(),
        "pinner": pinner,
        "cases": [{"target": t, **pin_outputs(game, pinner, t)} for t in targets],
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


def factor_grid(game):
    bounds = extortion_factor_bounds(game)
    lo, hi = bounds.lambda_min, bounds.lambda_max
    top = min(hi, lo + 3.0)
    lams = [lo] + [lo + u * (top - lo) for u in (0.25, 0.5, 0.75)]
    if np.isfinite(hi):
        lams += [hi, 1.5 * hi + 0.5]
    return [float(x) for x in lams]


def factor_outputs(game, lam):
    """The factor's violated ids, and theta_max when there are none."""
    violated = [list(v) for v in check_extortion_factor(game, lam).violated]
    if violated:
        return {"violated": violated}
    return {"violated": violated, "theta_max": theta_max(game, lam)}


def strategy_outputs(game, lam, theta):
    result = extortion_strategy(game, ExtortionParams(lam, theta))
    return {"feasible": result.feasible, "p1": result.p1.tolist()}


def extortion_record(game, lams):
    entries = []
    for lam in lams:
        entry = {"lam": lam, **factor_outputs(game, lam)}
        if not entry["violated"]:
            limit = entry["theta_max"]
            thetas = [0.01, 0.1] if np.isinf(limit) else [f * limit for f in (0.1, 0.5, 1.0)]
            entry["strategies"] = [{"theta": t, **strategy_outputs(game, lam, t)}
                                   for t in thetas]
        entries.append(entry)
    return {"A": game.A.tolist(), "factors": entries}


def synthesis_golden():
    rng = np.random.default_rng(SYNTHESIS_SEED)
    pd = make_symmetric(PD)
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
    return render({"pins": pins, "extortion": extortion})


# golden_cli.json: each case runs ``zdgames.cli.main`` in a fresh directory
# holding only the input documents, with relative paths, and records the
# exit code, stdout, stderr and the text of every file the command wrote.

CLI_SEED = 7
CLI_CASES = [
    ["analyze", "chicken.json", "p.json", "q.json", "--csv", "analyze.csv"],
    ["analyze", "g4.json", "p4.json", "q4.json", "--csv", "analyze4.csv"],
    ["analyze", "chicken.json", "pr.json", "qr.json"],
    ["analyze", "chicken.json", "q.json", "p.json"],
    ["analyze", "chicken.json", "missing.json", "missing.json"],
    ["analyze", "bad.json", "p.json", "q.json"],
    ["zd", "chicken.json", "0.1", "-0.2", "0", "--out", "zd.json"],
    ["zd", "chicken.json", "0", "0", "0.5"],
    ["zd", "g3.json", "0.1", "-0.12", "0.02", "--fill", "all-to-last", "--out", "zd3.json"],
    ["zd", "pd.json", "-0.2", "0.1", "0.1", "--player", "beta", "--out", "zdb.json"],
    ["extort", "chicken.json", "--bounds"],
    ["extort", "pd.json", "--bounds"],
    ["extort", "chicken.json", "--lambda", "2", "--theta-max"],
    ["extort", "chicken.json", "--lambda", "0.5", "--theta-max"],
    ["extort", "chicken.json", "--lambda", "2", "--theta", "0.1", "--out", "extort.json"],
    ["extort", "chicken.json", "--lambda", "2", "--theta", "0.5"],
    ["extort", "chicken.json", "--lambda", "2"],
    ["extort", "chicken.json"],
    ["pin", "chicken.json", "--target", "0.6", "--opponents", "10",
     "--report", "pin.csv", "--out", "pin.json"],
    ["pin", "pd.json", "--target", "2", "--player", "beta", "--opponents", "5", "--seed", "3"],
    ["pin", "chicken.json", "--target", "9"],
    ["simulate", "chicken.json", "p.json", "q.json", "--rounds", "2000", "--seed", "7",
     "--csv", "sim.csv"],
    ["simulate", "chicken.json", "ext.json", "qi.json", "--rounds", "5000", "--lambda", "2",
     "--burn-in", "10", "--csv", "simlam.csv"],
    ["simulate", "chicken.json", "pr.json", "qr.json", "--rounds", "1000", "--csv", "simnu.csv"],
    ["simulate", "chicken.json", "p2.json", "q2.json", "--rounds", "100", "--lambda", "2"],
    ["simulate", "chicken.json", "p.json", "q.json", "--rounds", "0"],
    ["scan", "chicken.json", "--lambda-grid", "1,2,3,4", "--out", "scan.csv"],
    ["scan", "chicken.json", "--lambda-grid", "2,4", "--theta-grid", "0.1,0.4,0.5",
     "--opponents", "5", "--out", "scan2.csv"],
    ["scan", "chicken.json", "--lambda-grid", "0.5", "--out", "scan3.csv"],
    ["simulate", "chicken.json", "p.json", "q.json", "--rounds", "1e6"],
    # each subcommand's usage line, and one help text
    ["analyze", "chicken.json"],
    ["zd", "chicken.json"],
    ["extort"],
    ["pin", "chicken.json"],
    ["scan", "chicken.json"],
    ["analyze", "-h"],
]


def _text(save, obj):
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / "doc.json"
        save(obj, path)
        return path.read_text(encoding="utf-8")


def _interior(rng, player, n, m):
    k = n if player == "alpha" else m
    rows = rng.dirichlet(np.ones(k), size=n * m)
    return make_strategy(player, rows, order="alpha-major")


def cli_inputs():
    """Input documents by file name, as the text the CLI reads."""
    rng = np.random.default_rng(CLI_SEED)
    chicken = chicken_family(0.5)
    half = np.full((4, 2), 0.5)
    strategies = {
        "p.json": make_strategy("alpha", half, order="alpha-major"),
        "q.json": make_strategy("beta", half, order="alpha-major"),
        # each player repeats a move forever: two absorbing states
        "pr.json": make_strategy("alpha", [[1, 0], [1, 0], [0, 1], [0, 1]],
                                 order="alpha-major"),
        "qr.json": make_strategy("beta", [[1, 0], [0, 1], [1, 0], [0, 1]],
                                 order="alpha-major"),
        # both always play move 2: chicken pays 0 to each, a degenerate ratio
        "p2.json": make_strategy("alpha", np.tile([0.0, 1.0], (4, 1)), order="alpha-major"),
        "q2.json": make_strategy("beta", np.tile([0.0, 1.0], (4, 1)), order="alpha-major"),
        "ext.json": extortion_strategy(chicken, ExtortionParams(2.0, 0.1)).complete(),
        "qi.json": _interior(rng, "beta", 2, 2),
        "p4.json": _interior(rng, "alpha", 4, 4),
        "q4.json": _interior(rng, "beta", 4, 4),
    }
    games = {
        "chicken.json": chicken,
        "pd.json": make_symmetric(PD),
        "g3.json": make_symmetric([[2.0, 0.5, 0.2], [1.0, 0.1, 0.3], [1.5, 0.4, 0.0]]),
        "g4.json": make_game(rng.uniform(-1.0, 4.0, (4, 4)), rng.uniform(-1.0, 4.0, (4, 4))),
    }
    inputs = {name: _text(save_game, g) for name, g in games.items()}
    inputs.update({name: _text(save_strategy, s) for name, s in strategies.items()})
    inputs["bad.json"] = "{"
    return inputs


def run_case(argv, inputs, workdir):
    """Run one invocation in ``workdir`` seeded with ``inputs``; return its record."""
    workdir = pathlib.Path(workdir)
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # argparse wraps usage and help text to COLUMNS, else to the terminal
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.dict(os.environ, COLUMNS="80"):
            code = cli_main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        os.chdir(cwd)
    written = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(workdir.iterdir())
        if path.name not in inputs
    }
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "files": written}


def cli_golden():
    inputs = cli_inputs()
    cases = []
    for argv in CLI_CASES:
        with tempfile.TemporaryDirectory() as workdir:
            cases.append(run_case(argv, inputs, workdir))
    return render({"inputs": inputs, "cases": cases}, indent=1)


# golden_play.json: each record is one ``play`` run of a 2x2 or 3x4 game
# with seeded Dirichlet strategies, a play seed, a round count, a burn-in
# (None, 0 or rounds - 1) and an initial state ("uniform-random" or a fixed
# (i, j)).  Two runs span many blocks of simulate._DRAW_BLOCK (2,048) rounds.

PLAY_SEED = 77
PLAY_SHAPES = ((2, 2), (3, 4))
LONG_ROUNDS = 70_001


def instance(seed, n, m):
    """The seeded game and strategy pair of one shape."""
    rng = np.random.default_rng([seed, n, m])
    game = make_game(rng.normal(size=(n, m)), rng.normal(size=(m, n)))
    p = make_strategy("alpha", rng.dirichlet(np.ones(n), size=n * m), order="alpha-major")
    q = make_strategy("beta", rng.dirichlet(np.ones(m), size=n * m), order="alpha-major")
    return game, p, q


def play_cases():
    seed = 100
    for shape in PLAY_SHAPES:
        for start in ("uniform-random", [2, 1]):
            for rounds in (1, 15, 1000):
                for burn_in in sorted({None, 0, rounds - 1}, key=str):
                    seed += 1
                    yield {"shape": list(shape), "rounds": rounds, "burn_in": burn_in,
                           "initial_state": start, "seed": seed}
        seed += 1
        yield {"shape": list(shape), "rounds": LONG_ROUNDS, "burn_in": None,
               "initial_state": "uniform-random", "seed": seed}


def play_run(seed, record):
    """The ``play`` report of one run, on the instance of ``seed``."""
    start = record["initial_state"]
    if start != "uniform-random":
        start = StateIndex.from_pair(*start, *record["shape"])
    config = SimulationConfig(rounds=record["rounds"], seed=record["seed"],
                              initial_state=start, burn_in=record["burn_in"])
    return play(*instance(seed, *record["shape"]), config)


def play_outputs(report):
    """Rounds counted and the integer tallies behind ``state_frequencies``."""
    counts = report.state_frequencies * report.rounds_counted
    return {"rounds_counted": report.rounds_counted,
            "counts": [int(round(x)) for x in counts]}


def play_golden():
    records = [{**record, **play_outputs(play_run(PLAY_SEED, record))}
               for record in play_cases()]
    return render({"seed": PLAY_SEED, "records": records})


# The writer, the registry and the tolerance-0 comparer.

def render(doc, indent=None):
    """The text of a golden file.

    With ``indent``, indented JSON.  Without it, each list at the top level,
    or as a value of the top-level object, holds one record per line, which
    keeps the large files' diffs readable.
    """
    if indent is not None:
        return json.dumps(doc, indent=indent) + "\n"

    def block(value):
        if isinstance(value, list):
            return "[\n" + ",\n".join(json.dumps(r) for r in value) + "\n]"
        return json.dumps(value)

    if isinstance(doc, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {block(v)}" for k, v in doc.items()) + "}\n"
    return block(doc) + "\n"


GOLDENS = {
    "golden_exact.json": exact_golden,
    "golden_synthesis.json": synthesis_golden,
    "golden_cli.json": cli_golden,
    "golden_play.json": play_golden,
}


def recorded(name):
    """The recorded document of one golden file."""
    return json.loads((HERE / name).read_text(encoding="utf-8"))


def _leaves(node, path):
    """(path, value) for every leaf under ``node``; a path is its object keys."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for value in node:
            yield from _leaves(value, path)
    else:
        yield path, node


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _change(want, got):
    """(relative change, 0.0), or (0.0, absolute change) where ``want`` is the number 0.

    Either change is inf where the two values are not finite numbers.
    """
    finite = all(_number(x) and math.isfinite(x) for x in (want, got))
    size = abs(got - want) if finite else math.inf
    if _number(want) and want == 0:
        return 0.0, size
    return (size / abs(want) if finite else math.inf), 0.0


def _changes(want, got, path):
    """(path, relative, absolute change) of each recorded value ``got`` does not reproduce."""
    if type(want) is dict and type(got) is dict and want.keys() == got.keys():
        for key in want:
            yield from _changes(want[key], got[key], path + (key,))
    elif type(want) is list and type(got) is list and len(want) == len(got):
        for w, g in zip(want, got):
            yield from _changes(w, g, path)
    elif any(isinstance(x, (dict, list)) for x in (want, got)):
        # a changed shape: every value recorded under it counts as changed
        for leaf, value in list(_leaves(want, path)) or [(path, None)]:
            yield leaf, *_change(value, None)
    elif json.dumps(want) != json.dumps(got):
        yield path, *_change(want, got)


def drift(want, got):
    """Per field: [values changed, values recorded, largest relative change, largest at 0].

    A field is the dotted object keys leading to a value, list positions
    dropped, so ``scaled.combination`` counts one value per record and
    scale.  A value is changed unless it writes the same JSON text, so 0.0 and -0.0
    differ.  The relative change is taken over nonzero recorded values, and
    where a recorded value is 0 the absolute change is reported separately,
    so one moved zero does not hide the others' size.  Either is inf where
    the two values are not finite numbers, or where the shape changed.
    """
    fields = collections.defaultdict(lambda: [0, 0, 0.0, 0.0])
    for path, _ in _leaves(want, ()):
        fields[".".join(path)][1] += 1
    for path, rel, at_zero in _changes(want, got, ()):
        field = fields[".".join(path)]
        field[0] += 1
        field[2], field[3] = max(field[2], rel), max(field[3], at_zero)
    return dict(fields)


def compare(name, recorded_text, fresh_text):
    """Print the per-field drift of one golden; True if the texts are the same bytes."""
    fields = drift(json.loads(recorded_text), json.loads(fresh_text))
    for field, (changed, total, rel, at_zero) in fields.items():
        print(f"{name} {field} {changed}/{total} {rel:.2g} at-zero {at_zero:.2g}")
    same = recorded_text == fresh_text
    if not same and not any(changed for changed, *_ in fields.values()):
        print(f"{name}: same values, different layout")
    print(f"{name}: {'identical' if same else 'DIFFERS'}")
    return same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the files instead of checking them")
    args = parser.parse_args(argv)
    clean = True
    for name, build in GOLDENS.items():
        path = HERE / name
        if args.write:
            path.write_text(build(), encoding="utf-8")
            print(f"wrote {path}")
        else:
            clean &= compare(name, path.read_text(encoding="utf-8"), build())
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
