"""Acceptance suite: one test per numbered end-to-end criterion.

Every test emits a single verdict line of the form

    criterion N PASS: <what was checked> (<measured numbers>)

before asserting.  The lines print as they happen under ``-s`` and are
echoed as a scoreboard in the terminal summary of any plain ``pytest`` run
(see conftest).  Tolerances and instance counts are part of the contract;
do not loosen them to make a red line green.
"""

import math
import time

import numpy as np
import pytest

from zdgames import (
    FILL_RULES,
    ExtortionParams,
    NonUniqueStationary,
    SimulationConfig,
    TransitionMatrix,
    chicken_extortion,
    chicken_family,
    expected_scores,
    extortion_coefficients,
    extortion_factor_bounds,
    extortion_strategy,
    make_symmetric,
    pin_opponent_score,
    press_dyson_determinant,
    stationary,
    synthesize_zd_alpha,
    theta_max,
    transition_matrix,
    verify_extortion_empirically,
    verify_linear_relation,
    zd_feasibility_condition,
)

from helpers import extortable_symmetric_3x3, feasible_zd_instance, rand_strategy

PD = make_symmetric([[3.0, 0.0], [5.0, 1.0]])

VERDICTS = []


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num} {status}: {label}{tail}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _ergodic_pair(rng):
    n = int(rng.integers(2, 4))
    m = int(rng.integers(2, 4))
    p = rand_strategy(rng, "alpha", n, m)
    q = rand_strategy(rng, "beta", n, m)
    return n, m, p, q


def test_criterion_1_determinant_ratio_matches_stationary_average():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    accepted = 0
    while accepted < 200:
        n, m, p, q = _ergodic_pair(rng)
        try:
            v = stationary(transition_matrix(p, q)).v
        except NonUniqueStationary:
            continue
        d1 = press_dyson_determinant(p, q, np.ones(n * m))
        for _ in range(5):
            f = rng.normal(size=n * m)
            lhs = press_dyson_determinant(p, q, f) / d1
            rhs = float(v @ f)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        accepted += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "determinant ratio equals the stationary average on 200 random instances",
        worst < 1e-9 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_synthesized_strategies_enforce_their_relation():
    rng = np.random.default_rng(202)
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    worst = 0.0
    for k in range(50):
        n, m = dims[k % 4]
        game, coeffs = feasible_zd_instance(rng, n, m)
        # one completion per fill rule; the enforced combination must not
        # depend on how the free columns are filled
        completions = {
            rule: synthesize_zd_alpha(game, coeffs).complete(rule)
            for rule in FILL_RULES
        }
        for idx in range(100):
            q = rand_strategy(rng, "beta", n, m)
            rules = FILL_RULES if idx < 5 else FILL_RULES[:1]
            for rule in rules:
                check = verify_linear_relation(game, completions[rule], q, coeffs)
                worst = max(worst, check.residual)
    _verdict(
        2,
        "50 synthesized strategies hold their payoff combination for every "
        "opponent and fill rule",
        worst < 1e-9,
        f"max residual {worst:.2e}",
    )


def test_criterion_3_pinned_score_is_flat_across_opponents():
    rng = np.random.default_rng(303)
    result, _ = pin_opponent_score(PD, "alpha", 2.0)
    p = result.complete()
    scores = np.array(
        [
            expected_scores(PD, p, rand_strategy(rng, "beta", 2, 2)).pi_beta
            for _ in range(100)
        ]
    )
    dev = float(np.abs(scores - 2.0).max())
    var = float(scores.var())
    _verdict(
        3,
        "pinning holds the opponent at 2.0 across 100 opponents",
        dev < 1e-9 and var < 1e-16,
        f"max deviation {dev:.2e}, variance {var:.2e}",
    )


def test_criterion_4_admissible_factor_interval_closed_form():
    worst = 0.0
    ok = True
    for r in (0.25, 0.5, 0.75):
        bounds = extortion_factor_bounds(chicken_family(r))
        ok = ok and bounds.feasible
        worst = max(
            worst,
            abs(bounds.lambda_min - 1.0),
            abs(bounds.lambda_max - (1.0 + r) / (1.0 - r)),
        )
    for r in (1.0, 1.5):
        bounds = extortion_factor_bounds(chicken_family(r))
        ok = ok and bounds.feasible and bounds.lambda_min == 1.0
        ok = ok and math.isinf(bounds.lambda_max)
    _verdict(
        4,
        "factor interval is [1, (1+r)/(1-r)] below r=1 and [1, inf) above",
        ok and worst <= 1e-12,
        f"max endpoint err {worst:.2e}",
    )


def test_criterion_5_closed_form_equals_general_constructions():
    reference = (0.9, 0.75, 0.05, 0.0)
    direct = chicken_extortion(0.5, 2.0, 0.1)
    exact = tuple(direct) == reference

    game = chicken_family(0.5)
    via_brackets = extortion_strategy(game, ExtortionParams(2.0, 0.1)).p1
    via_coefficients = synthesize_zd_alpha(
        game, extortion_coefficients(2.0, 0.0, 0.1)
    ).p1
    ref = np.asarray(reference)
    gap = max(
        float(np.abs(via_brackets - ref).max()),
        float(np.abs(via_coefficients - ref).max()),
    )
    _verdict(
        5,
        "closed-form extortion equals the bracket and coefficient routes",
        exact and gap < 1e-14,
        f"tuple exact: {exact}, route gap {gap:.2e}",
    )


def test_criterion_6_extortion_exact_and_monte_carlo():
    rng = np.random.default_rng(606)
    game = chicken_family(0.5)
    p = extortion_strategy(game, ExtortionParams(2.0, 0.1)).complete()

    worst = 0.0
    for _ in range(100):
        s = expected_scores(game, p, rand_strategy(rng, "beta", 2, 2))
        worst = max(worst, abs(s.pi_alpha - 2.0 * s.pi_beta))

    start = time.perf_counter()
    opponents = [rand_strategy(rng, "beta", 2, 2) for _ in range(20)]
    config = SimulationConfig(rounds=1_000_000, seed=97)
    estimates = verify_extortion_empirically(game, p, opponents, config)
    elapsed = time.perf_counter() - start
    off = max(abs(e.lambda_hat - 2.0) for e in estimates)
    _verdict(
        6,
        "factor 2 holds exactly for 100 opponents and within 0.1 over 20 "
        "million-round runs",
        worst < 1e-9 and off <= 0.1 and elapsed < 60.0,
        f"max exact residual {worst:.2e}, max |lambda_hat - 2| {off:.3f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_theta_ceiling_confirmed_by_feasibility_flip():
    game = chicken_family(0.5)
    limit = theta_max(game, 2.0)
    # step 1e-4 across the ceiling: everything at or below 0.4000 must be
    # feasible, everything from 0.4001 up must not
    flags = [
        extortion_strategy(game, ExtortionParams(2.0, k / 10000.0)).feasible
        for k in range(3900, 4101)
    ]
    flip_clean = all(flags[:101]) and not any(flags[101:])
    _verdict(
        7,
        "theta ceiling is 0.4 and the grid flips exactly there",
        abs(limit - 0.4) <= 1e-12 and flip_clean,
        f"theta_max {limit!r}, last feasible {(3900 + max(i for i, f in enumerate(flags) if f)) / 10000.0}",
    )


def test_criterion_8_cofactor_certificate_matches_stationary():
    rng = np.random.default_rng(808)
    worst = 0.0
    all_hold = True
    accepted = 0
    while accepted < 200:
        _, _, p, q = _ergodic_pair(rng)
        P = transition_matrix(p, q)
        try:
            v = stationary(P).v
        except NonUniqueStationary:
            continue
        report = zd_feasibility_condition(P)
        all_hold = all_hold and report.holds
        c = report.cofactors.c
        worst = max(worst, float(np.abs(c / c.sum() - v).max()))
        accepted += 1
    identity = zd_feasibility_condition(TransitionMatrix((2, 2), np.eye(4)))
    _verdict(
        8,
        "one-signed cofactors normalize to the stationary vector on 200 "
        "ergodic instances; the identity chain is rejected",
        all_hold and worst < 1e-8 and not identity.holds,
        f"max |c/sum - v| {worst:.2e}",
    )


def test_criterion_9_extortion_on_random_symmetric_3x3_games():
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(10):
        game, lam, theta = extortable_symmetric_3x3(rng)
        p = extortion_strategy(game, ExtortionParams(lam, theta)).complete()
        delta = float(game.A[-1, -1])
        for _ in range(50):
            s = expected_scores(game, p, rand_strategy(rng, "beta", 3, 3))
            worst = max(
                worst, abs((s.pi_alpha - delta) - lam * (s.pi_beta - delta))
            )
    _verdict(
        9,
        "surplus relation holds on 10 random symmetric 3x3 games x 50 opponents",
        worst < 1e-9,
        f"max residual {worst:.2e}",
    )
