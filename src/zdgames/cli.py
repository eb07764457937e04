"""Command-line front end.

Subcommands::

    analyze   chain diagnostics for a game and a strategy pair
    zd        synthesize a zero-determinant strategy from coefficients
    extort    admissible factors, theta bounds and strategies (symmetric games)
    pin       fix the opponent's long-run score
    simulate  seeded Monte Carlo play
    scan      feasibility and residual grid over (lambda, theta)

Exit codes are a stable contract: 0 success, 1 infeasible or no solution,
2 degenerate input (non-unique or inaccurate stationary distribution,
degenerate ratio), 3 I/O, schema or usage errors.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .chain import (
    expected_scores,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)
from .documents import load_game, load_strategy, save_strategy
from .errors import (
    DegenerateDenominator,
    DegenerateRatio,
    InaccurateStationary,
    NoFeasiblePin,
    NonUniqueStationary,
    SchemaError,
)
from .extortion import (
    ExtortionParams,
    check_extortion_factor,
    extortion_factor_bounds,
    extortion_strategy,
)
from .model import FILL_RULES, make_strategy
from .simulate import SimulationConfig, _ratio, _tv_distance, play
from .zd import (
    ZDCoefficients,
    _check_factor,
    extortion_coefficients,
    pin_opponent_score,
    press_dyson_determinant,
    synthesize_zd_alpha,
    synthesize_zd_beta,
    verify_linear_relation,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_DEGENERATE = 2
EXIT_SCHEMA = 3


class _UsageError(Exception):
    pass


# exit code by exception class; main uses the most specific class that matches
_EXIT_CODES = {
    _UsageError: EXIT_SCHEMA,
    SchemaError: EXIT_SCHEMA,
    OSError: EXIT_SCHEMA,
    ValueError: EXIT_SCHEMA,
    NonUniqueStationary: EXIT_DEGENERATE,
    InaccurateStationary: EXIT_DEGENERATE,
    DegenerateDenominator: EXIT_DEGENERATE,
    DegenerateRatio: EXIT_DEGENERATE,
    NoFeasiblePin: EXIT_INFEASIBLE,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2, so remap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SCHEMA, f"{self.prog}: error: {message}\n")


def _int_at_least(low, noun):
    """argparse type: an integer of at least ``low``; ``noun`` names it in errors."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text}")
        return value

    return parse


def _float_list(text):
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")
    if not values:
        raise argparse.ArgumentTypeError("grid must contain at least one value")
    return values


def _fmt_vec(v):
    return "[" + " ".join(format(float(x), ".12g") for x in v) + "]"


def _load_expected(path, expected_player, game):
    strategy = load_strategy(path)
    if strategy.player != expected_player:
        raise SchemaError(
            f"{path}: strategy is for player {strategy.player!r}, "
            f"expected {expected_player!r}"
        )
    if (strategy.n, strategy.m) != (game.n, game.m):
        raise SchemaError(
            f"{path}: strategy is for a {strategy.n}x{strategy.m} game, "
            f"not {game.n}x{game.m}"
        )
    return strategy


def _random_opponents(player, game, count, seed):
    n, m = game.n, game.m
    rng = np.random.default_rng(seed)
    k = n if player == "alpha" else m
    return [
        make_strategy(player, rng.dirichlet(np.ones(k), size=n * m), order="alpha-major")
        for _ in range(count)
    ]


def _write_csv(path, header, rows, note=""):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {path}{note}")


def _print_violations(result):
    for state, value in result.violations:
        print(f"  state ({state.i},{state.j}): {value!r} outside [0, 1]")


def _save(strategy, path):
    if path:
        save_strategy(strategy, path)
        print(f"wrote {path}")


def cmd_analyze(args):
    game = load_game(args.game)
    p = _load_expected(args.p, "alpha", game)
    q = _load_expected(args.q, "beta", game)
    nm = game.n * game.m

    P = transition_matrix(p, q)
    dist = stationary(P)
    scores = expected_scores(game, p, q)
    feas = zd_feasibility_condition(P)
    d_one = press_dyson_determinant(p, q, np.ones(nm))

    kind = "symmetric" if game.is_symmetric else "asymmetric"
    print(f"game: {game.n}x{game.m} ({kind})")
    print(f"transition matrix: {nm}x{nm}")
    if nm <= 12:
        for row in P.entries:
            print("  " + _fmt_vec(row))
    print(f"stationary distribution: {_fmt_vec(dist.v)}")
    print(f"pi_alpha = {scores.pi_alpha!r}")
    print(f"pi_beta  = {scores.pi_beta!r}")
    verdict = "holds" if feas.holds else "fails"
    print(f"zd feasibility: {verdict} (cofactor sum {float(feas.cofactors.c.sum())!r})")
    print(f"D(p, q, 1) = {d_one!r}")

    if args.csv:
        header = ["n", "m", "pi_alpha", "pi_beta", "det_one", "zd_feasible"]
        header += [f"v{s}" for s in range(nm)]
        row = [game.n, game.m, scores.pi_alpha, scores.pi_beta, d_one, feas.holds]
        row += [float(x) for x in dist.v]
        _write_csv(args.csv, header, [row])
    return EXIT_OK


def cmd_zd(args):
    game = load_game(args.game)
    coeffs = ZDCoefficients(args.a, args.b, args.c)
    synthesize = synthesize_zd_alpha if args.player == "alpha" else synthesize_zd_beta
    result = synthesize(game, coeffs)

    print(f"coefficients: a={coeffs.a!r} b={coeffs.b!r} c={coeffs.c!r}")
    print(f"player: {args.player}")
    print(f"first components: {_fmt_vec(result.p1)}")
    if not result.feasible:
        print(f"infeasible: {len(result.violations)} entries outside [0, 1]")
        _print_violations(result)
        return EXIT_INFEASIBLE
    print("feasible")
    _save(result.complete(args.fill), args.out)
    return EXIT_OK


def cmd_extort(args):
    game = load_game(args.game)

    if args.bounds:
        bounds = extortion_factor_bounds(game)
        top = "inf)" if math.isinf(bounds.lambda_max) else f"{bounds.lambda_max!r}]"
        print(f"admissible factors: [{bounds.lambda_min!r}, {top}")
        print(f"feasible: {bounds.feasible}")
        return EXIT_OK

    if args.lam is None:
        raise _UsageError("--lambda is required unless --bounds is given")
    report = check_extortion_factor(game, args.lam)
    if not report.ok:
        print(f"factor {args.lam} is not admissible; violated conditions:")
        for family, i, j in report.violated:
            print(f"  {family} ({i},{j})")
        return EXIT_INFEASIBLE

    if args.theta_max:
        print(f"theta_max = {report.theta_max!r}")
        return EXIT_OK

    if args.theta is None:
        raise _UsageError("--theta is required (or use --bounds / --theta-max)")
    result = extortion_strategy(game, ExtortionParams(args.lam, args.theta))
    if not result.feasible:
        print(f"infeasible: theta {args.theta} exceeds theta_max {report.theta_max!r}")
        _print_violations(result)
        return EXIT_INFEASIBLE

    nn = float(game.A[-1, -1])
    print(f"first components: {_fmt_vec(result.p1)}")
    print(f"enforces: pi_alpha - {nn!r} = {args.lam!r} * (pi_beta - {nn!r})")
    print(f"theta_max at this factor: {report.theta_max!r}")
    _save(result.complete(args.fill), args.out)
    return EXIT_OK


def cmd_pin(args):
    game = load_game(args.game)
    result, coeffs = pin_opponent_score(game, args.player, args.target)
    strategy = result.complete("uniform")

    alpha = args.player == "alpha"
    opponents = _random_opponents("beta" if alpha else "alpha", game, args.opponents, args.seed)
    pinned = []
    rows = []
    for idx, opponent in enumerate(opponents):
        scores = expected_scores(game, *((strategy, opponent) if alpha else (opponent, strategy)))
        value = scores.pi_beta if alpha else scores.pi_alpha
        pinned.append(value)
        rows.append([idx, scores.pi_alpha, scores.pi_beta, abs(value - args.target)])

    print(f"pinner: {args.player}, target: {args.target!r}")
    print(f"coefficients: a={coeffs.a!r} b={coeffs.b!r} c={coeffs.c!r}")
    print(f"first components: {_fmt_vec(result.p1)}")
    print(f"opponents: {args.opponents} (seed {args.seed})")
    print(f"max deviation: {max(row[3] for row in rows)!r}")
    print(f"score variance: {float(np.var(pinned))!r}")
    if args.report:
        _write_csv(args.report, ["opponent", "pi_alpha", "pi_beta", "deviation"], rows)
    _save(strategy, args.out)
    return EXIT_OK


def cmd_simulate(args):
    if args.lam is not None:
        _check_factor(args.lam)
    game = load_game(args.game)
    p = _load_expected(args.p, "alpha", game)
    q = _load_expected(args.q, "beta", game)
    config = SimulationConfig(rounds=args.rounds, seed=args.seed, burn_in=args.burn_in)
    report = play(game, p, q, config)

    print(f"rounds: {args.rounds} (counted {report.rounds_counted}), seed {args.seed}")
    print(f"empirical pi_alpha = {report.empirical_pi_alpha!r}")
    print(f"empirical pi_beta  = {report.empirical_pi_beta!r}")
    print(f"state frequencies: {_fmt_vec(report.state_frequencies)}")

    # an unavailable quantity is an empty CSV cell
    tv = lambda_hat = ""
    try:
        tv = _tv_distance(report, stationary(transition_matrix(p, q)).v)
        print(f"tv distance to exact stationary: {tv!r}")
    except (NonUniqueStationary, InaccurateStationary) as exc:
        kind = "non-unique" if isinstance(exc, NonUniqueStationary) else "inaccurate"
        print(f"exact stationary unavailable ({kind}); skipping comparison")

    if args.lam is not None:
        lambda_hat = _ratio(report, args.delta)
        print(f"lambda_hat = {lambda_hat!r} (configured lambda {args.lam!r})")

    if args.csv:
        fields = {
            "seed": args.seed,
            "rounds": args.rounds,
            "rounds_counted": report.rounds_counted,
            "empirical_pi_alpha": report.empirical_pi_alpha,
            "empirical_pi_beta": report.empirical_pi_beta,
            "tv_distance": tv,
            "lambda_hat": lambda_hat,
        }
        _write_csv(args.csv, list(fields), [list(fields.values())])
    return EXIT_OK


def cmd_scan(args):
    game = load_game(args.game)
    if any(lam < 1.0 for lam in args.lambda_grid):
        raise _UsageError("lambda grid values must be at least 1")
    if args.theta_grid is not None and not all(0.0 < t < math.inf for t in args.theta_grid):
        raise _UsageError("theta grid values must be positive and finite")

    opponents = _random_opponents("beta", game, args.opponents, args.seed)
    nn = float(game.A[-1, -1])

    rows = []
    for lam in args.lambda_grid:
        report = check_extortion_factor(game, lam)
        limit_text = report.theta_max if report.ok else ""
        if args.theta_grid is None:
            rows.append([lam, "", report.ok, limit_text, report.ok, ""])
            continue
        for theta in args.theta_grid:
            feasible = False
            residual = ""
            if report.ok:
                result = extortion_strategy(game, ExtortionParams(lam, theta))
                feasible = result.feasible
                if feasible:
                    strategy = result.complete("uniform")
                    coeffs = extortion_coefficients(lam, nn, theta)
                    residual = max(
                        verify_linear_relation(game, strategy, opp, coeffs).residual
                        for opp in opponents
                    )
            rows.append([lam, theta, report.ok, limit_text, feasible, residual])

    header = ["lambda", "theta", "lambda_ok", "theta_max", "feasible", "max_residual"]
    _write_csv(args.out, header, rows, note=f" ({len(rows)} rows)")
    return EXIT_OK


def _build_parser():
    parser = _Parser(prog="zdgames", description=__doc__.splitlines()[0])
    count = _int_at_least(1, "a positive count")
    seed = _int_at_least(0, "a non-negative seed")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="chain diagnostics for a strategy pair")
    analyze.add_argument("game")
    analyze.add_argument("p", help="alpha strategy file")
    analyze.add_argument("q", help="beta strategy file")
    analyze.add_argument("--csv", help="write scalar results to this CSV file")
    analyze.set_defaults(run=cmd_analyze)

    zd = commands.add_parser("zd", help="synthesize a ZD strategy from (a, b, c)")
    zd.add_argument("game")
    zd.add_argument("a", type=float)
    zd.add_argument("b", type=float)
    zd.add_argument("c", type=float)
    zd.add_argument("--player", choices=["alpha", "beta"], default="alpha")
    zd.add_argument("--fill", choices=list(FILL_RULES), default="uniform")
    zd.add_argument("--out", help="write the strategy document here")
    zd.set_defaults(run=cmd_zd)

    extort = commands.add_parser("extort", help="extortion tools for symmetric games")
    extort.add_argument("game")
    extort.add_argument("--lambda", dest="lam", type=float, default=None)
    extort.add_argument("--theta", type=float, default=None)
    extort.add_argument("--theta-max", action="store_true", dest="theta_max")
    extort.add_argument("--bounds", action="store_true")
    extort.add_argument("--fill", choices=list(FILL_RULES), default="uniform")
    extort.add_argument("--out", help="write the strategy document here")
    extort.set_defaults(run=cmd_extort)

    pin = commands.add_parser("pin", help="pin the opponent's long-run score")
    pin.add_argument("game")
    pin.add_argument("--target", type=float, required=True)
    pin.add_argument("--player", choices=["alpha", "beta"], default="alpha")
    pin.add_argument("--opponents", type=count, default=100)
    pin.add_argument("--seed", type=seed, default=42)
    pin.add_argument("--out", help="write the strategy document here")
    pin.add_argument("--report", help="write per-opponent verification rows here")
    pin.set_defaults(run=cmd_pin)

    simulate = commands.add_parser("simulate", help="seeded Monte Carlo play")
    simulate.add_argument("game")
    simulate.add_argument("p", help="alpha strategy file")
    simulate.add_argument("q", help="beta strategy file")
    simulate.add_argument("--rounds", type=count, required=True)
    simulate.add_argument("--seed", type=seed, default=42)
    simulate.add_argument("--burn-in", dest="burn_in",
                          type=_int_at_least(0, "a non-negative count"), default=None)
    simulate.add_argument("--lambda", dest="lam", type=float, default=None)
    simulate.add_argument("--delta", type=float, default=0.0)
    simulate.add_argument("--csv", help="write the report row to this CSV file")
    simulate.set_defaults(run=cmd_simulate)

    scan = commands.add_parser("scan", help="grid scan of extortion feasibility")
    scan.add_argument("game")
    scan.add_argument("--lambda-grid", dest="lambda_grid", type=_float_list, required=True)
    scan.add_argument("--theta-grid", dest="theta_grid", type=_float_list, default=None)
    scan.add_argument("--out", required=True)
    scan.add_argument("--seed", type=seed, default=42)
    scan.add_argument("--opponents", type=count, default=20)
    scan.set_defaults(run=cmd_scan)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        label = "usage error" if isinstance(exc, _UsageError) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())
