"""Write the CLI golden transcript to tests/golden_cli.json.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_golden.py

Each case runs ``zdgames.cli.main`` in a fresh directory holding only the
input documents, with relative paths, and records the exit code, stdout,
stderr and the text of every file the command wrote.  ``test_cli_golden.py``
replays the cases through :func:`run_case` and compares byte for byte, so a
refactor of the CLI that changes any text, exit code or written file fails.
Rerun the script only when an output is meant to change.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import numpy as np

from zdgames import (
    ExtortionParams,
    chicken_family,
    extortion_strategy,
    make_game,
    make_strategy,
    save_game,
    save_strategy,
)
from zdgames.cli import main

PATH = pathlib.Path(__file__).with_name("golden_cli.json")
SEED = 7


def _text(save, obj):
    with tempfile.TemporaryDirectory() as workdir:
        path = pathlib.Path(workdir) / "doc.json"
        save(obj, path)
        return path.read_text(encoding="utf-8")


def _interior(rng, player, n, m):
    k = n if player == "alpha" else m
    rows = rng.dirichlet(np.ones(k), size=n * m)
    return make_strategy(player, rows, order="alpha-major")


def build_inputs():
    """Input documents by file name, as the text the CLI reads."""
    rng = np.random.default_rng(SEED)
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
        "pd.json": make_game([[3.0, 0.0], [5.0, 1.0]], [[3.0, 0.0], [5.0, 1.0]]),
        "g3.json": make_game([[2.0, 0.5, 0.2], [1.0, 0.1, 0.3], [1.5, 0.4, 0.0]],
                             [[2.0, 0.5, 0.2], [1.0, 0.1, 0.3], [1.5, 0.4, 0.0]]),
        "g4.json": make_game(rng.uniform(-1.0, 4.0, (4, 4)), rng.uniform(-1.0, 4.0, (4, 4))),
    }
    inputs = {name: _text(save_game, g) for name, g in games.items()}
    inputs.update({name: _text(save_strategy, s) for name, s in strategies.items()})
    inputs["bad.json"] = "{"
    return inputs


CASES = [
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
]


def run_case(argv, inputs, workdir):
    """Run one invocation in ``workdir`` seeded with ``inputs``; return its record."""
    workdir = pathlib.Path(workdir)
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
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


def write_golden():
    inputs = build_inputs()
    cases = []
    for argv in CASES:
        with tempfile.TemporaryDirectory() as workdir:
            cases.append(run_case(argv, inputs, workdir))
    PATH.write_text(json.dumps({"inputs": inputs, "cases": cases}, indent=1) + "\n",
                    encoding="utf-8")
    codes = sorted({case["exit"] for case in cases})
    print(f"wrote {PATH} ({len(cases)} cases, exit codes {codes})", file=sys.stderr)


if __name__ == "__main__":
    write_golden()
