"""The CLI's exit-code contract on generated documents and arguments.

Every run of the six subcommands ends in exit 0, 1 (no such strategy),
2 (a degenerate chain) or 3 (bad input), never in a traceback, and prints
no numpy warning; a run that exits 0 prints no nan.  The grammar keeps most
documents well formed and fills them with extreme numbers (the float limit,
subnormals, signed zeros), so the numeric paths are reached; a few get one
structural defect, and a few arguments are not finite.
"""

import contextlib
import io
import json
import pathlib
import re
import tempfile
import warnings

from hypothesis import event, example, given
from hypothesis import strategies as st

from zdgames.cli import main

BIG = 1.7976931348623157e308
EXTREME = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e6, 1e300, -1e300, 1e308, -1e308, BIG, -BIG,
           1e-300, 1e-320, -1e-320, 5e-324]
PAYOFFS = st.one_of(st.sampled_from(EXTREME), st.integers(-5, 5),
                    st.floats(allow_nan=False, allow_infinity=False))
PROBABILITIES = st.sampled_from([0.0, 1.0, 0.5, 0.25, 1e-16, 1.0 - 1e-16, 1e-300, 1e-320,
                                 5e-324])
ARGUMENTS = st.one_of(st.sampled_from(EXTREME).map(repr), st.integers(-3, 3).map(str),
                      st.sampled_from(["nan", "inf", "-inf", "1e400", "x"]))
DEFECTS = [None, True, "x", "NaN", [], [[]], {}, [1], 10**400, -0.0]


def grid(rows, cols):
    return st.lists(st.lists(PAYOFFS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def game_documents(draw, n, m):
    document = {"n": n, "m": m, "A": draw(grid(n, m))}
    if n != m or draw(st.integers(0, 3)) == 0:
        document["B"] = draw(grid(m, n))
    return document


@st.composite
def strategy_documents(draw, player, n, m):
    k = n if player == "alpha" else m
    rows = []
    for _ in range(n * m):
        head = draw(st.lists(PROBABILITIES, min_size=k - 1, max_size=k - 1))
        rows.append(head + [1.0 - sum(head)])
    return {"player": player, "n": n, "m": m, "order": "alpha-major", "rows": rows}


@st.composite
def defective(draw, document):
    """``document``, or, one time in eight, a copy with one field or cell replaced or dropped."""
    if draw(st.integers(0, 7)):
        return document
    document = json.loads(json.dumps(document))
    key = draw(st.sampled_from(sorted(document)))
    if draw(st.booleans()):
        del document[key]
    elif isinstance(document[key], list) and document[key]:
        row = document[key][draw(st.integers(0, len(document[key]) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(DEFECTS))
    else:
        document[key] = draw(st.sampled_from(DEFECTS))
    return document


def grid_argument(draw):
    return ",".join(draw(st.lists(ARGUMENTS, min_size=1, max_size=2)))


@st.composite
def invocations(draw):
    """(files, argv): the documents to write, by name, and a command line that reads them.

    Options take their values as ``--name=value`` and positionals follow
    ``--``, so argparse reads a value such as -1e+300 as a number.
    """
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    command = draw(st.sampled_from(["analyze", "zd", "extort", "pin", "simulate", "scan"]))
    symmetric = command in ("extort", "scan") and draw(st.integers(0, 3)) > 0
    game = draw(game_documents(n, n if symmetric else m))
    if symmetric:
        m = n
        game.pop("B", None)  # extortion needs a symmetric game
    files = {"game.json": draw(defective(game))}
    positionals = ["game.json"]
    if command in ("analyze", "simulate"):
        files["p.json"] = draw(defective(draw(strategy_documents("alpha", n, m))))
        files["q.json"] = draw(defective(draw(strategy_documents("beta", n, m))))
        positionals += ["p.json", "q.json"]
    player = "--player=" + draw(st.sampled_from(["alpha", "beta"]))
    if command == "analyze":
        options = ["--csv=out.csv"]
    elif command == "zd":
        options = [player, "--out=out.json"]
        positionals += [draw(ARGUMENTS) for _ in range(3)]
    elif command == "extort":
        mode = draw(st.sampled_from(["--bounds", "--theta-max", "--theta"]))
        options = [mode] if mode == "--bounds" else ["--lambda=" + draw(ARGUMENTS)]
        if mode == "--theta-max":
            options.append(mode)
        elif mode == "--theta":
            options += ["--theta=" + draw(ARGUMENTS), "--out=out.json"]
    elif command == "pin":
        options = ["--target=" + draw(ARGUMENTS), player, "--opponents=2", "--out=out.json",
                   "--report=out.csv"]
    elif command == "simulate":
        options = ["--rounds=50", "--csv=out.csv"]
        if draw(st.booleans()):
            options.append("--lambda=" + draw(ARGUMENTS))
    else:
        options = ["--lambda-grid=" + grid_argument(draw), "--opponents=2", "--out=out.csv"]
        if draw(st.booleans()):
            options.append("--theta-grid=" + grid_argument(draw))
    return files, [command, *options, "--", *positionals]


def run(files, argv):
    """Exit code, stdout, stderr and caught warnings of ``main(argv)`` run among ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name, document in files.items():
            (root / name).write_text(json.dumps(document), encoding="utf-8")
        argv = [str(root / arg) if arg in files else arg.replace("=out.", f"={root}/out.")
                for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


OVERFLOWING_SUBTRACTION = {"n": 2, "m": 2, "A": [[1.0, 0.5], [1e308, -1e308]]}
ROWS = [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]]
AT_THE_LIMIT = {"game.json": {"n": 2, "m": 2, "A": [[-BIG, -BIG], [-BIG, -BIG]]},
                "p.json": {"player": "alpha", "n": 2, "m": 2, "order": "alpha-major", "rows": ROWS},
                "q.json": {"player": "beta", "n": 2, "m": 2, "order": "alpha-major", "rows": ROWS}}
OVERFLOWING_RATIO = {
    "game.json": {"n": 2, "m": 2, "A": [[-1.7e308, -1.7e308], [-1.7e308, 1.7e308]]},
    "p.json": {"player": "alpha", "n": 2, "m": 2, "order": "alpha-major", "rows": [[0.9, 0.1]] * 4},
    "q.json": {"player": "beta", "n": 2, "m": 2, "order": "alpha-major", "rows": [[0.8, 0.2]] * 4}}


@example(({"game.json": OVERFLOWING_SUBTRACTION}, ["extort", "--bounds", "--", "game.json"]))
@example(({"game.json": OVERFLOWING_SUBTRACTION},
          ["scan", "--lambda-grid=1,2", "--opponents=2", "--out=out.csv", "--", "game.json"]))
@example(({"game.json": OVERFLOWING_SUBTRACTION},
          ["extort", "--lambda=1", "--theta=1e308", "--", "game.json"]))
@example(({"game.json": OVERFLOWING_SUBTRACTION},
          ["scan", "--lambda-grid=1", "--theta-grid=1e308", "--opponents=2", "--out=out.csv",
           "--", "game.json"]))
@example((AT_THE_LIMIT, ["analyze", "--", "game.json", "p.json", "q.json"]))
@example((OVERFLOWING_RATIO, ["simulate", "--rounds=50", "--lambda=1", "--",
                              "game.json", "p.json", "q.json"]))
@given(invocations())
def test_every_run_ends_in_a_contract_exit_code(invocation):
    code, out, err, caught = run(*invocation)
    event(f"exit {code}")
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err and "Warning" not in err
    assert caught == []
    assert code != 0 or not re.search(r"\bnan\b", out)
