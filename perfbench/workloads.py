"""The four benchmark workloads: inputs from a seed, operations, oracles.

Every workload is a closed loop of one client: a list of operations (one
"cycle") that the runner repeats, each operation starting after the last
one returned.  An operation returns ``Outcome(problems, pairs, rounds)``;
a problem is a ``(cause, message)`` pair with cause "mismatch" (an output
missed its oracle), "exit" (a CLI call returned the wrong exit code) or
"known-defect" (the library's documented ``NoFeasiblePin`` on a pinnable
target at payoff scale ``KNOWN_DEFECT_SCALE``, tallied apart from failures).
The runner adds cause "raised" for exceptions.

Oracles are computed independently of the code path under test wherever
that is cheap: payoff vectors are flattened with numpy here, pinnability
and theta_max come from the box constraint on ``delta + t*g`` in closed
form, and seeded simulations are compared against recorded golden counts.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from zdgames import chain, extortion, model, simulate, zd
from zdgames.errors import NoFeasiblePin
from zdgames.zd import ZDCoefficients

RELATION_TOL = 1e-9  # |a*pi_alpha + b*pi_beta + c| through expected_scores
RATIO_RTOL = 1e-9  # D(p,q,f)/D(p,q,1) against v.f, relative to the payoff scale
COFACTOR_TOL = 1e-8  # normalized cofactor row against v
PIN_TOL = 1e-9  # |pinned score - target| per unit of payoff scale
LAMBDA_TOL = 0.1  # |lambda_hat - 2| on million-round runs
TV_TOL = 0.05  # total variation between empirical and exact frequencies

SCALES = (1.0, 1e3, 1e6)
# Every pin on a game scaled by 1e6 raises NoFeasiblePin although the target
# is pinnable in closed form: the grid scan in pin_opponent_score stops at
# 2^-20.  Those operations stay in the workloads and are reported as
# "known-defect" outcomes; any other failure to pin counts as failed.
KNOWN_DEFECT_SCALE = 1e6
SMALL_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))
SMALL_OPPONENTS = 8
SMALL_INSTANCES = 2
LARGE_INSTANCES = 8

# (shape, synthesis kind, opponents): the two N = 400 operations each take
# about ten times as long as one at N = 100, so most time goes to N = 400
# factorizations while the latency median lands inside the N = 100 group
LARGE_OPS = (
    ((6, 6), "zd-alpha", 4),
    ((10, 10), "pin-alpha", 2),
    ((10, 10), "zd-beta", 2),
    ((20, 20), "zd-alpha", 1),
    ((8, 50), "pin-beta", 1),
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_PATH = HERE / "golden_counts.json"

# fixed pool for the seeded simulations, so every run can be checked
# against counts recorded from the current simulator
POOL_SEED = 20140905
POOL_VARIANTS = 8
MC_VARIANTS = 1  # pooled variants of each category in one run
CHICKEN_R, CHICKEN_LAM, CHICKEN_THETA = 0.5, 2.0, 0.1
# (pair, rounds, initial state, burn_in); a cycle holds one million-round
# run and MC_VARIANTS of each 1e5-round category, so the latency median
# stays among the 1e5-round runs
MC_CATEGORIES = (
    ("chicken", 1_000_000, "uniform-random", None),
    ("chicken", 100_000, "uniform-random", None),
    ("chicken", 100_000, "uniform-random", 0),
    ("chicken", 100_000, (1, 1), None),
    ("chicken", 100_000, (2, 2), 0),
    ("asym3x4", 100_000, "uniform-random", None),
    ("asym3x4", 100_000, "uniform-random", 0),
    ("asym3x4", 100_000, (1, 1), None),
    ("asym3x4", 100_000, (3, 4), 0),
)

CLI_COMMAND = ("-c", "import sys; from zdgames.cli import main; sys.exit(main())")
CLI_CASES = 1
CLI_SIM_ROUNDS = 20_000
CLI_PIN_OPPONENTS = 20
CLI_SCAN_OPPONENTS = 5
EXIT_INFEASIBLE = 1  # the CLI's exit status for NoFeasiblePin


class Outcome(NamedTuple):
    problems: list
    pairs: int = 0
    rounds: int = 0


class Op(NamedTuple):
    kind: str
    run: object  # callable(tracer) -> Outcome


# ---------------------------------------------------------------- inputs


def interior_strategy(rng, player, n, m):
    """Random memory-one strategy with every probability at least 0.1/k."""
    k = n if player == "alpha" else m
    rows = 0.1 / k + 0.9 * rng.dirichlet(np.ones(k), size=n * m)
    return model.make_strategy(player, rows, order="alpha-major")


def payoff_vectors(game):
    """(omega_alpha, omega_beta) in alpha-major order, without the library."""
    return np.asarray(game.A).ravel(), np.asarray(game.B).T.ravel()


def own_move_one(player, n, m):
    delta = np.zeros(n * m)
    if player == "alpha":
        delta[:m] = 1.0
    else:
        delta[::m] = 1.0
    return delta


def mutual_game(rng, n, m, scale):
    """Each player earns 2..3 when the other plays move 1 and 0..1 otherwise.

    Either player can then pin the other's score anywhere strictly between
    the two payoff bands, and ZD relations dominated by the opponent's
    payoff are feasible for both players.
    """
    A = rng.uniform(0.0, 1.0, size=(n, m))
    A[:, 0] = rng.uniform(2.0, 3.0, size=n)
    B = rng.uniform(0.0, 1.0, size=(m, n))
    B[:, 0] = rng.uniform(2.0, 3.0, size=m)
    return model.make_game(scale * A, scale * B)


def pin_window(game, pinner):
    """Open interval of targets at which ``pinner`` can hold the opponent."""
    wa, wb = payoff_vectors(game)
    w = wb if pinner == "alpha" else wa
    delta = own_move_one(pinner, game.n, game.m) == 1.0
    return float(w[~delta].max()), float(w[delta].min())


def pinnable(game, pinner, target):
    """Closed-form pin feasibility from the box constraint on delta + t*g.

    With g = w - target (w the opponent's payoffs), p1 = delta + t*g stays in
    [0, 1] for some t != 0 exactly when g is <= 0 where delta = 1 and >= 0
    elsewhere (t > 0), or the reverse (t < 0).
    """
    wa, wb = payoff_vectors(game)
    g = (wb if pinner == "alpha" else wa) - target
    delta = own_move_one(pinner, game.n, game.m) == 1.0
    up = (g[delta] <= 0).all() and (g[~delta] >= 0).all()
    down = (g[delta] >= 0).all() and (g[~delta] <= 0).all()
    return bool(up or down)


def feasible_coefficients(rng, game, player):
    """Coefficients whose synthesis for ``player`` lies strictly inside the box."""
    wa, wb = payoff_vectors(game)
    delta = own_move_one(player, game.n, game.m) == 1.0
    while True:
        small = rng.uniform(-0.2, 0.2)
        a0, b0 = (small, -1.0) if player == "alpha" else (-1.0, small)
        h = a0 * wa + b0 * wb
        lo, hi = -h[~delta].min(), -h[delta].max()
        if hi > lo:
            break
    c0 = lo + rng.uniform(0.2, 0.8) * (hi - lo)
    t = rng.uniform(0.2, 0.9) / np.abs(h + c0).max()
    return ZDCoefficients(float(t * a0), float(t * b0), float(t * c0))


def extortable_game(rng, n, scale):
    """Symmetric n x n game with an admissible factor window past 1.

    Sorted diagonal (a_11 largest, a_nn next) and a dominant lower triangle
    satisfy every condition at lam = 1; draws whose window ends at 1, or
    whose scale ceiling is unbounded at the chosen factor, are redrawn.
    """
    while True:
        A = rng.uniform(0.0, 5.0, size=(n, n))
        diag = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1]
        A[0, 0], A[-1, -1] = diag[0], diag[1]
        for i in range(1, n - 1):
            A[i, i] = diag[i + 1]
        for i in range(n):
            for j in range(i):
                A[i, j], A[j, i] = max(A[i, j], A[j, i]), min(A[i, j], A[j, i])
        game = model.make_symmetric(scale * A)
        bounds = extortion.extortion_factor_bounds(game)
        if not bounds.feasible or bounds.lambda_max <= 1.05:
            continue
        u = rng.uniform(0.1, 0.9)
        lam = extortion_factor(bounds, u)
        if math.isfinite(extortion.theta_max(game, lam)):
            return game, u


def extortion_factor(bounds, u):
    top = min(bounds.lambda_max, bounds.lambda_min + 3.0)
    return bounds.lambda_min + u * (top - bounds.lambda_min)


def extortion_oracle(A, lam):
    """Bracket signs and theta_max for factor ``lam``, straight from the payoffs.

    Returns (admissible, theta_max) where p1 = base + theta*g entrywise:
    base is 1 on the first row and 0 elsewhere, g is -(lam-1)(a_11-a_nn) at
    (1,1), E_ij elsewhere, and 0 at (n,n).
    """
    nn = A[-1, -1]
    E = (A - nn) - lam * (A.T - nn)
    g = E.copy()
    g[0, 0] = -(lam - 1.0) * (A[0, 0] - nn)
    g[-1, -1] = 0.0
    tol = 1e-12 * max(1.0, np.abs(A).max())
    admissible = (
        (E[0, 1:] <= tol).all() and (E[1:-1] >= -tol).all() and (E[-1, :-1] >= -tol).all()
    )
    base = np.zeros_like(A)
    base[0] = 1.0
    limits = [1.0 / -x for x in g[base == 1.0] if x < 0] + [1.0 / x for x in g[base == 0.0] if x > 0]
    return bool(admissible), min(limits, default=math.inf)


# --------------------------------------------------------------- checking


def verify_pair(game, p, q, coeffs=None):
    """The three exact checks on one strategy pair.

    Returns (scores, stationary vector, problems).  The relation residual
    goes through ``expected_scores``; the determinant ratio with f =
    omega_alpha must match v.f; the normalized cofactor row must match v.
    """
    problems = []
    P = chain.transition_matrix(p, q)
    v = chain.stationary(P).v
    scores = chain.expected_scores(game, p, q)
    if coeffs is not None:
        residual = abs(coeffs.a * scores.pi_alpha + coeffs.b * scores.pi_beta + coeffs.c)
        if not residual < RELATION_TOL:
            problems.append(("mismatch", f"relation residual {residual:.3e}"))
    feas = chain.zd_feasibility_condition(P)
    c = feas.cofactors.c
    gap = float(np.abs(c / c.sum() - v).max())
    if not (feas.holds and gap < COFACTOR_TOL):
        problems.append(("mismatch", f"cofactor certificate holds={feas.holds} gap {gap:.3e}"))
    wa, _ = payoff_vectors(game)
    ratio = zd.score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))
    expected = float(v @ wa)
    if not abs(ratio - expected) <= RATIO_RTOL * max(abs(expected), np.abs(wa).max()):
        problems.append(("mismatch", f"determinant ratio {ratio!r} vs v.f {expected!r}"))
    return scores, v, problems


def verify_against(game, strategy, opponents, coeffs=None):
    problems = []
    scores = []
    for opponent in opponents:
        p, q = (strategy, opponent) if strategy.player == "alpha" else (opponent, strategy)
        pair_scores, _, pair_problems = verify_pair(game, p, q, coeffs)
        scores.append(pair_scores)
        problems += pair_problems
    return scores, problems


# ------------------------------------------------------------ exact-*


def synthesis_op(label, kind, game, scale, opponents, rng, u_lam=None):
    """One synthesize-then-verify operation of the given kind."""
    if kind.startswith("pin-"):
        pinner = kind[4:]
        lo, hi = pin_window(game, pinner)
        target = float(lo + rng.uniform(0.2, 0.8) * (hi - lo))
        if not pinnable(game, pinner, target):
            raise AssertionError("generated pin target is not pinnable")

        def run(tracer):
            try:
                result, _ = zd.pin_opponent_score(game, pinner, target)
            except NoFeasiblePin as exc:
                if scale < KNOWN_DEFECT_SCALE:
                    raise
                return Outcome([("known-defect", f"NoFeasiblePin at scale {scale:g}: {exc}")])
            scores, problems = verify_against(game, result.complete(), opponents)
            for s in scores:
                pinned = s.pi_beta if pinner == "alpha" else s.pi_alpha
                if not abs(pinned - target) < PIN_TOL * scale:
                    problems.append(("mismatch", f"pin deviation {abs(pinned - target):.3e}"))
            return Outcome(problems, len(opponents))

    elif kind.startswith("zd-"):
        player = kind[3:]
        coeffs = feasible_coefficients(rng, game, player)
        wa, wb = payoff_vectors(game)
        p1 = own_move_one(player, game.n, game.m) + coeffs.a * wa + coeffs.b * wb + coeffs.c

        def run(tracer):
            synthesize = zd.synthesize_zd_alpha if player == "alpha" else zd.synthesize_zd_beta
            result = synthesize(game, coeffs)
            if not result.feasible:
                return Outcome([("mismatch", f"{len(result.violations)} violations")])
            problems = []
            if not np.abs(result.p1 - p1).max() <= 1e-12:
                problems.append(("mismatch", "first components differ from delta + g"))
            _, pair_problems = verify_against(game, result.complete(), opponents, coeffs)
            return Outcome(problems + pair_problems, len(opponents))

    elif kind == "extort":
        u_theta = rng.uniform(0.2, 0.9)
        A = np.asarray(game.A)
        nn = float(A[-1, -1])

        def run(tracer):
            bounds = extortion.extortion_factor_bounds(game)
            lam = extortion_factor(bounds, u_lam)
            limit = extortion.theta_max(game, lam)
            theta = u_theta * limit
            result = extortion.extortion_strategy(game, extortion.ExtortionParams(lam, theta))
            problems = []
            admissible, limit_ref = extortion_oracle(A, lam)
            if not admissible:
                problems.append(("mismatch", f"factor {lam!r} from the bounds is not admissible"))
            if not abs(limit - limit_ref) <= 1e-12 * limit_ref:
                problems.append(("mismatch", f"theta_max {limit!r} vs {limit_ref!r}"))
            if not result.feasible:
                return Outcome(problems + [("mismatch", "extortion strategy infeasible")])
            coeffs = zd.extortion_coefficients(lam, nn, theta)
            _, pair_problems = verify_against(game, result.complete(), opponents, coeffs)
            return Outcome(problems + pair_problems, len(opponents))

    else:
        raise ValueError(f"unknown synthesis kind {kind!r}")
    return Op(label, run)


def opponent_of(kind):
    return "alpha" if kind in ("pin-beta", "zd-beta") else "beta"


class Workload:
    """A workload's inputs are built by ``__init__``, which ``setup_s`` times.

    ``cycle`` is the fixed list of distinct operations the runner repeats;
    ``prepare`` computes expected outputs that need the library (untimed)
    and ``warmup`` lists operations run once before timing.  ``runner`` is
    set when operations run in subprocesses, whose peak memory it records.
    ``timing`` says which executions the latency metrics are taken over:
    the fastest of each distinct operation, or every one.
    """

    cycle = ()
    runner = None
    timing = "fastest"

    def prepare(self):
        pass

    def warmup(self):
        return self.cycle

    def play_probe(self):
        """(game, p, q, config) of the workload's largest simulation, if any."""
        return None

    def close(self):
        """Stop any helper process the workload started."""
        if self.runner is not None:
            self.runner.close()


class ExactSmall(Workload):
    """Synthesis on 2x2..3x3 games at payoff scales 1, 1e3 and 1e6."""

    def __init__(self, seed, scratch):
        rng = np.random.default_rng([seed, 1])
        ops = []
        for _ in range(SMALL_INSTANCES):
            for n, m in SMALL_SHAPES:
                kinds = ["pin-alpha", "pin-beta", "zd-alpha", "zd-beta"]
                if n == m:
                    kinds.append("extort")
                for scale in SCALES:
                    for kind in kinds:
                        ops.append(self._op(rng, kind, n, m, scale))
        self.cycle = [ops[i] for i in rng.permutation(len(ops))]

    @staticmethod
    def _op(rng, kind, n, m, scale):
        u_lam = None
        if kind == "extort":
            game, u_lam = extortable_game(rng, n, scale)
        else:
            game = mutual_game(rng, n, m, scale)
        opponents = [interior_strategy(rng, opponent_of(kind), n, m) for _ in range(SMALL_OPPONENTS)]
        return synthesis_op(f"{kind}@{n}x{m}x{scale:g}", kind, game, scale, opponents, rng, u_lam)


class ExactLarge(Workload):
    """The same checks at N = 36, 100 and 400, where factorizations dominate."""

    def __init__(self, seed, scratch):
        rng = np.random.default_rng([seed, 2])
        self.cycle = []
        for _ in range(LARGE_INSTANCES):
            for (n, m), kind, count in LARGE_OPS:
                game = mutual_game(rng, n, m, 1.0)
                opponents = [interior_strategy(rng, opponent_of(kind), n, m) for _ in range(count)]
                self.cycle.append(synthesis_op(f"{kind}@{n}x{m}", kind, game, 1.0, opponents, rng))

    def warmup(self):
        return self.cycle[: len(LARGE_OPS)]


# ------------------------------------------------------------- montecarlo


def pool_entry(category, variant):
    """Game, strategies and simulation config of one pooled simulation."""
    pair, rounds, start, burn_in = MC_CATEGORIES[category]
    rng = np.random.default_rng([POOL_SEED, category, variant])
    if pair == "chicken":
        game = model.chicken_family(CHICKEN_R)
        params = extortion.ExtortionParams(CHICKEN_LAM, CHICKEN_THETA)
        p = extortion.extortion_strategy(game, params).complete()
        q = interior_strategy(rng, "beta", 2, 2)
        coeffs = zd.extortion_coefficients(CHICKEN_LAM, 0.0, CHICKEN_THETA)
    else:
        game = model.make_game(rng.uniform(-1.0, 4.0, (3, 4)), rng.uniform(-1.0, 4.0, (4, 3)))
        p = interior_strategy(rng, "alpha", 3, 4)
        q = interior_strategy(rng, "beta", 3, 4)
        coeffs = None
    if start != "uniform-random":
        start = model.StateIndex.from_pair(*start, game.n, game.m)
    seed = int(rng.integers(2**31))
    config = simulate.SimulationConfig(rounds=rounds, seed=seed, initial_state=start, burn_in=burn_in)
    return game, p, q, coeffs, config


def state_counts(report):
    return [int(x) for x in np.rint(report.state_frequencies * report.rounds_counted)]


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["counts"]


class MonteCarlo(Workload):
    """Seeded play, checked against golden counts and the exact chain."""

    def __init__(self, seed, scratch):
        rng = np.random.default_rng([seed, 3])
        golden = load_golden()
        picks = [rng.permutation(POOL_VARIANTS)[:MC_VARIANTS] for _ in MC_CATEGORIES]
        # one million-round run opens the cycle, then one block of the
        # 1e5-round categories per variant
        self.cycle = [self._op(0, int(picks[0][0]), golden)] + [
            self._op(category, int(picks[category][k]), golden)
            for k in range(MC_VARIANTS)
            for category in map(int, 1 + rng.permutation(len(MC_CATEGORIES) - 1))
        ]

    @staticmethod
    def _op(category, variant, golden):
        game, p, q, coeffs, config = pool_entry(category, variant)
        expected = golden[f"{category}/{variant}"]
        pair = MC_CATEGORIES[category][0]

        def run(tracer):
            report = simulate.play(game, p, q, config)
            problems = []
            if state_counts(report) != expected:
                problems.append(("mismatch", f"state counts differ from golden {category}/{variant}"))
            if pair == "chicken" and config.rounds >= 1_000_000:
                lambda_hat = report.empirical_pi_alpha / report.empirical_pi_beta
                if not abs(lambda_hat - CHICKEN_LAM) <= LAMBDA_TOL:
                    problems.append(("mismatch", f"lambda_hat {lambda_hat!r}"))
            _, v, pair_problems = verify_pair(game, p, q, coeffs)
            tv = 0.5 * float(np.abs(report.state_frequencies - v).sum())
            if not tv <= TV_TOL:
                problems.append(("mismatch", f"tv distance {tv:.3e}"))
            return Outcome(problems + pair_problems, 1, config.rounds)

        return Op(f"{pair}@{config.rounds:g}", run)

    def warmup(self):
        game, p, q, coeffs, config = pool_entry(1, 0)
        short = simulate.SimulationConfig(rounds=1000, seed=config.seed)

        def run(tracer):
            simulate.play(game, p, q, short)
            verify_pair(game, p, q, coeffs)
            return Outcome([])

        return [Op("warmup", run)]

    def play_probe(self):
        game, p, q, _, config = pool_entry(0, 0)
        return game, p, q, config


# -------------------------------------------------------------------- cli


def write_json(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


def game_document(game):
    doc = {"n": game.n, "m": game.m, "A": np.asarray(game.A).tolist()}
    if not game.is_symmetric:
        doc["B"] = np.asarray(game.B).tolist()
    return doc


def strategy_document(strategy):
    return {
        "player": strategy.player,
        "n": strategy.n,
        "m": strategy.m,
        "order": "alpha-major",
        "rows": np.asarray(strategy.rows).tolist(),
    }


def first_column(path):
    with open(path, encoding="utf-8") as handle:
        return np.array([row[0] for row in json.load(handle)["rows"]])


def chicken_theta_max(r, lam):
    """Scale ceiling of the chicken extortioner from its closed form."""
    slopes = [lam - 1.0, (lam + 1.0) * r + lam - 1.0, 1.0 + r - lam * (1.0 - r)]
    return min((1.0 / s for s in slopes if s > 0), default=math.inf)


def _field(text, label):
    match = re.search(rf"^{re.escape(label)}\s*(\S+)", text, re.MULTILINE)
    return float(match.group(1)) if match else math.nan


class CliRunner:
    """Runs CLI calls one at a time; records exit code, output and peak RSS.

    Calls are started by ``spawner.py``, a small helper process, so their
    peak RSS is their own.  A traced call goes through ``cli_shim.py``,
    which records spans in the child and leaves them in ``span_file`` for
    the tracer to merge.
    """

    def __init__(self, cwd):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spawner = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            cwd=cwd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.peak_rss_kb = 0

    def __call__(self, args, tracer=None, span_file=None):
        if tracer is None:
            command = [sys.executable, *CLI_COMMAND, *args]
        else:
            command = [sys.executable, str(HERE / "cli_shim.py"), str(span_file), *args]
        self.spawner.stdin.write(json.dumps(command) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        self.peak_rss_kb = max(self.peak_rss_kb, reply["maxrss_kb"])
        if tracer is not None:
            with open(span_file, encoding="utf-8") as handle:
                recorded = json.load(handle)
            os.remove(span_file)
            tracer.extend(recorded["spans"], tracer.op)
            tracer.counts.update(recorded["counts"])
        return reply["code"], reply["out"]

    def close(self):
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()


class CliCase:
    """One set of JSON documents and the nine CLI calls made on them.

    Files live in ``name/`` under the directory the calls run in, so the
    calls name them as ``name/<file>``.
    """

    def __init__(self, rng, scratch, name):
        self.name = name
        self.dir = d = Path(scratch) / name
        d.mkdir()
        self.r = r = float(rng.uniform(0.3, 0.7))
        lam_max = (1.0 + r) / (1.0 - r)
        self.lam = lam = float(1.0 + rng.uniform(0.2, 0.8) * (lam_max - 1.0))
        self.theta = float(rng.uniform(0.2, 0.9) * chicken_theta_max(r, lam))
        self.chicken = model.chicken_family(r)
        write_json(d / "chicken.json", game_document(self.chicken))

        self.zd_game = mutual_game(rng, 3, 3, 1.0)
        self.coeffs = feasible_coefficients(rng, self.zd_game, "alpha")
        write_json(d / "mutual.json", game_document(self.zd_game))
        write_json(d / "q3.json", strategy_document(interior_strategy(rng, "beta", 3, 3)))
        self.q2 = interior_strategy(rng, "beta", 2, 2)
        write_json(d / "q2.json", strategy_document(self.q2))

        self.pins = []
        for scale in (1.0, 1e6):
            game = mutual_game(rng, 2, 2, scale)
            lo, hi = pin_window(game, "alpha")
            target = float(lo + rng.uniform(0.2, 0.8) * (hi - lo))
            if not pinnable(game, "alpha", target):
                raise AssertionError("generated pin target is not pinnable")
            write_json(d / f"pin{scale:g}.json", game_document(game))
            self.pins.append((f"pin{scale:g}.json", target, scale))

        self.lam_grid = [1.0, float(1.0 + rng.uniform(0.1, 0.9) * (lam_max - 1.0)), lam, 1.5 * lam_max]
        limits = [chicken_theta_max(r, x) for x in self.lam_grid[:3]]
        self.theta_grid = [0.5 * min(limits), 2.0 * max(limits)]
        self.sim_seed = int(rng.integers(2**31))

    def sim_inputs(self):
        params = extortion.ExtortionParams(self.lam, self.theta)
        p = extortion.extortion_strategy(self.chicken, params).complete()
        config = simulate.SimulationConfig(rounds=CLI_SIM_ROUNDS, seed=self.sim_seed)
        return self.chicken, p, self.q2, config

    def ops(self, runner):
        """The calls in dependency order: ``zd`` and ``extort`` write the
        strategy files that ``analyze`` and ``simulate`` read."""
        d, c = self.dir, self.coeffs
        r, lam, theta = self.r, self.lam, self.theta
        wa, wb = payoff_vectors(self.zd_game)
        zd_p1 = np.clip(own_move_one("alpha", 3, 3) + c.a * wa + c.b * wb + c.c, 0.0, 1.0)
        report = simulate.play(*self.sim_inputs())
        sim_freq = np.asarray(report.state_frequencies)
        sim_lambda = report.empirical_pi_alpha / report.empirical_pi_beta

        def call(kind, args, check, scale=1.0):
            def run(tracer):
                span_file = d / f"spans-{kind}.json" if tracer is not None else None
                code, out = runner(args, tracer, span_file)
                if code != 0:
                    last = out.strip().splitlines()[-1:] or [""]
                    message = f"exit {code}, expected 0: {last[0][:120]}"
                    known = scale >= KNOWN_DEFECT_SCALE and code == EXIT_INFEASIBLE
                    if known and "no feasible pin" in out:
                        return Outcome([("known-defect", message)])
                    return Outcome([("exit", message)])
                return Outcome(*check(out))

            return Op(kind, run)

        def check_zd(out):
            got = first_column(d / "zd.json")
            ok = got.shape == zd_p1.shape and np.abs(got - zd_p1).max() <= 1e-12
            return ([] if ok else [("mismatch", "zd strategy file differs")]), 0, 0

        def check_analyze(out):
            pa, pb = _field(out, "pi_alpha ="), _field(out, "pi_beta  =")
            residual = abs(c.a * pa + c.b * pb + c.c)
            problems = []
            if not residual < RELATION_TOL:
                problems.append(("mismatch", f"analyze relation residual {residual!r}"))
            if "zd feasibility: holds" not in out or "D(p, q, 1) =" not in out:
                problems.append(("mismatch", "analyze certificate lines missing"))
            return problems, 1, 0

        def check_bounds(out):
            match = re.search(r"admissible factors: \[(\S+), (\S+)\]", out)
            want = (1.0 + r) / (1.0 - r)
            ok = bool(match) and float(match.group(1)) == 1.0 and "feasible: True" in out
            ok = ok and abs(float(match.group(2)) - want) <= 1e-12 * want
            return ([] if ok else [("mismatch", "factor interval differs from [1, (1+r)/(1-r)]")]), 0, 0

        def check_theta_max(out):
            got, want = _field(out, "theta_max ="), chicken_theta_max(r, lam)
            ok = abs(got - want) <= 1e-12 * want
            return ([] if ok else [("mismatch", f"theta_max {got!r} vs {want!r}")]), 0, 0

        def check_extort(out):
            want = np.array([
                1.0 - theta * (lam - 1.0),
                1.0 - theta * ((lam + 1.0) * r + lam - 1.0),
                theta * (1.0 + r - lam * (1.0 - r)),
                0.0,
            ])
            ok = np.abs(first_column(d / "ext.json") - want).max() <= 1e-12
            return ([] if ok else [("mismatch", "extortion strategy differs from closed form")]), 0, 0

        def check_simulate(out):
            match = re.search(r"state frequencies: \[([^\]]*)\]", out)
            freq = np.array([float(x) for x in match.group(1).split()]) if match else np.zeros(0)
            ok = freq.shape == sim_freq.shape and np.abs(freq - sim_freq).max() <= 1e-11
            ok = ok and abs(_field(out, "lambda_hat =") - sim_lambda) <= 1e-12 * abs(sim_lambda)
            return ([] if ok else [("mismatch", "simulation differs from in-process play")]), 0, CLI_SIM_ROUNDS

        def check_pin(scale, target):
            def check(out):
                dev = _field(out, "max deviation:")
                ok = dev < PIN_TOL * scale and f"target: {target!r}" in out
                return ([] if ok else [("mismatch", f"pin deviation {dev!r}")]), 0, 0

            return check

        def check_scan(out):
            with open(d / "scan.csv", encoding="utf-8") as handle:
                rows = handle.read().splitlines()[1:]
            expected_rows = [(x, t) for x in self.lam_grid for t in self.theta_grid]
            if len(rows) != len(expected_rows):
                return [("mismatch", f"scan wrote {len(rows)} rows")], 0, 0
            problems = []
            for row, (x, t) in zip(rows, expected_rows):
                _, _, ok_text, limit_text, feasible_text, residual_text = row.split(",")
                admissible = x <= (1.0 + r) / (1.0 - r)
                limit = chicken_theta_max(r, x) if admissible else None
                good = ok_text == str(admissible) and feasible_text == str(admissible and t <= limit)
                if admissible:
                    good = good and abs(float(limit_text) - limit) <= 1e-12 * limit
                if feasible_text == "True":
                    good = good and float(residual_text) < RELATION_TOL
                if not good:
                    problems.append(("mismatch", f"scan row {row}"))
            return problems, 0, 0

        def path(file):
            return f"{self.name}/{file}"

        fmt = repr
        grid = ",".join(fmt(x) for x in self.lam_grid)
        thetas = ",".join(fmt(x) for x in self.theta_grid)
        chicken = path("chicken.json")
        ops = [
            call("zd", ["zd", path("mutual.json"), fmt(c.a), fmt(c.b), fmt(c.c), "--out", path("zd.json")], check_zd),
            call("analyze", ["analyze", path("mutual.json"), path("zd.json"), path("q3.json")], check_analyze),
            call("extort", ["extort", chicken, "--bounds"], check_bounds),
            call("extort", ["extort", chicken, "--lambda", fmt(lam), "--theta-max"], check_theta_max),
            call(
                "extort",
                ["extort", chicken, "--lambda", fmt(lam), "--theta", fmt(theta), "--out", path("ext.json")],
                check_extort,
            ),
            call(
                "simulate",
                ["simulate", chicken, path("ext.json"), path("q2.json"), "--rounds", str(CLI_SIM_ROUNDS),
                 "--seed", str(self.sim_seed), "--lambda", fmt(lam)],
                check_simulate,
            ),
        ]
        for name, target, scale in self.pins:
            args = ["pin", path(name), "--target", fmt(target), "--opponents", str(CLI_PIN_OPPONENTS)]
            ops.append(call("pin", args, check_pin(scale, target), scale))
        ops.append(call(
            "scan",
            ["scan", chicken, "--lambda-grid", grid, "--theta-grid", thetas,
             "--opponents", str(CLI_SCAN_OPPONENTS), "--out", path("scan.csv")],
            check_scan,
        ))
        return ops


class Cli(Workload):
    """zdgames subcommands as sequential subprocesses on JSON documents."""

    timing = "every"

    def __init__(self, seed, scratch):
        rng = np.random.default_rng([seed, 4])
        self.scratch = scratch
        self.cases = [CliCase(rng, scratch, f"case{k}") for k in range(CLI_CASES)]

    def prepare(self):
        self.runner = CliRunner(self.scratch)
        self.cycle = [op for case in self.cases for op in case.ops(self.runner)]

    def warmup(self):
        return self.cycle[2:3]

    def play_probe(self):
        return self.cases[0].sim_inputs()


WORKLOADS = {
    "exact-small": ExactSmall,
    "exact-large": ExactLarge,
    "montecarlo": MonteCarlo,
    "cli": Cli,
}
