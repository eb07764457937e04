"""Seeded Monte Carlo play between two memory-one strategies.

Serves as the empirical oracle for the linear-algebra results: long runs of
actual play must reproduce stationary scores and enforced score relations.
Runs are deterministic given the configuration; the generator is numpy's
PCG64 seeded once per run, consumed as one uniform pair per round (alpha's
draw first), after a single draw for a random initial state if requested.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .chain import _check_pair, _scores, stationary, transition_matrix
from .errors import DegenerateRatio
from .model import StateIndex, _frozen

RATIO_TOL = 1e-9
# rounds per rng.random call (PCG64 yields the same uniforms however the draws are
# split); turning a block into Python floats takes ~40 bytes per draw, ~160 KB here
_DRAW_BLOCK = 2_048


@dataclass(frozen=True)
class SimulationConfig:
    """Length, seed, starting state and burn-in of one run.

    ``initial_state`` is a :class:`StateIndex` or the string
    "uniform-random".  ``burn_in`` rounds are discarded from the front;
    None selects the default 1% of rounds, at least 100, capped at
    rounds - 1 so at least one round is always counted.  ``rounds``,
    ``seed`` (non-negative) and ``burn_in`` are integers: ValueError for
    any value that ``operator.index`` rejects, such as 1e3, 0.5 or NaN.
    """

    rounds: int
    seed: int = 42
    initial_state: object = "uniform-random"
    burn_in: int | None = None

    def __post_init__(self):
        for name in ("rounds", "seed", "burn_in"):
            value = getattr(self, name)
            if value is None and name == "burn_in":
                continue
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.burn_in is not None and not 0 <= self.burn_in < self.rounds:
            raise ValueError(
                f"burn_in must lie in [0, rounds), got {self.burn_in} "
                f"with rounds={self.rounds}"
            )

    @property
    def resolved_burn_in(self):
        if self.burn_in is not None:
            return self.burn_in
        return min(max(100, self.rounds // 100), self.rounds - 1)


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Post-burn-in outcome frequencies and the scores they imply.

    The empirical scores are exactly ``state_frequencies @ payoffs``, so
    the frequency vector is the complete sufficient summary of a run.
    """

    empirical_pi_alpha: float
    empirical_pi_beta: float
    state_frequencies: np.ndarray
    rounds_counted: int


@dataclass(frozen=True)
class ComparisonReport:
    max_score_gap: float
    tv_distance: float


@dataclass(frozen=True)
class ExtortionEstimate:
    """Per-opponent empirical extortion ratio."""

    opponent: int
    seed: int
    lambda_hat: float
    empirical_pi_alpha: float
    empirical_pi_beta: float


def _initial_flat(config, n, m, rng):
    start = config.initial_state
    if isinstance(start, StateIndex):  # start.flat may index other dims
        return StateIndex.from_pair(start.i, start.j, n, m).flat
    if isinstance(start, str) and start == "uniform-random":
        return int(rng.integers(n * m))
    raise ValueError(f"initial state {start!r} is neither a StateIndex nor 'uniform-random'")


def play(game, p, q, config):
    """Simulate ``config.rounds`` rounds of play and tally joint outcomes.

    Round 1 is the initial state; every later round samples alpha's move
    from p's row and beta's move from q's row at the current state.  Rounds
    numbered at most ``burn_in`` are discarded.  Raises ValueError unless p
    and q are alpha's and beta's strategies, in that order, for ``game``.
    """
    _check_pair(p, q, game)
    n, m = game.n, game.m
    burn_in = config.resolved_burn_in

    rng = np.random.default_rng(config.seed)
    state = _initial_flat(config, n, m, rng)

    # each row's first K - 1 cumulative sums: bisect_right is the move, K - 1 past the last
    cum_p = [row.cumsum()[:-1].tolist() for row in p.rows]
    cum_q = [row.cumsum()[:-1].tolist() for row in q.rows]

    counts = [0] * (n * m)
    if burn_in == 0:
        counts[state] += 1
    for first in range(0, config.rounds - 1, _DRAW_BLOCK):
        draws = iter(rng.random(2 * min(_DRAW_BLOCK, config.rounds - 1 - first)).tolist())
        # pair k of this block plays round first + k + 2
        for t, (u_alpha, u_beta) in enumerate(zip(draws, draws), first + 2):
            state = bisect_right(cum_p[state], u_alpha) * m + bisect_right(cum_q[state], u_beta)
            if t > burn_in:
                counts[state] += 1

    counted = config.rounds - burn_in
    freq = np.asarray(counts, dtype=float) / counted
    scores = _scores(game, freq)
    return SimulationReport(scores.pi_alpha, scores.pi_beta, _frozen(freq), counted)


def _ratio(report, game, where=""):
    """Empirical (pi_alpha - a_nn) / (pi_beta - a_nn), a_nn = ``game.A[-1, -1]``."""
    a_nn = float(game._halved_payoffs[0][-1])  # both differences over the halved payoffs
    denominator = report.empirical_pi_beta / 2.0 - a_nn
    if abs(denominator) * 2.0 < RATIO_TOL:
        raise DegenerateRatio(f"{where}empirical pi_beta - a_nn = {denominator * 2.0!r}; "
                              "ratio undefined")
    return (report.empirical_pi_alpha / 2.0 - a_nn) / denominator


def _tv_distance(report, v):
    return 0.5 * float(np.abs(report.state_frequencies - v).sum())


def compare_to_stationary(game, p, q, config):
    """Gap between one simulated run and the exact stationary quantities."""
    report = play(game, p, q, config)
    v = stationary(transition_matrix(p, q)).v
    exact = _scores(game, v)
    gap = max(
        abs(report.empirical_pi_alpha - exact.pi_alpha),
        abs(report.empirical_pi_beta - exact.pi_beta),
    )
    return ComparisonReport(gap, _tv_distance(report, v))


def verify_extortion_empirically(game, p_extort, opponents, config):
    """Empirical extortion ratios of one strategy against many opponents.

    Opponent k runs with seed ``config.seed + k`` (recorded in the
    estimate) so runs are independent yet reproducible.  The ratio is
    (empirical_pi_alpha - a_nn) / (empirical_pi_beta - a_nn), a_nn = ``game.A[-1, -1]``.

    Raises
    ------
    ValueError
        When ``p_extort`` is not alpha's strategy, or an opponent beta's, for ``game``.
    DegenerateRatio
        When an empirical denominator is within ``RATIO_TOL`` of zero.
    """
    estimates = []
    for k, q in enumerate(opponents):
        seed = config.seed + k
        report = play(game, p_extort, q, replace(config, seed=seed))
        estimates.append(
            ExtortionEstimate(
                opponent=k,
                seed=seed,
                lambda_hat=_ratio(report, game, where=f"opponent {k}: "),
                empirical_pi_alpha=report.empirical_pi_alpha,
                empirical_pi_beta=report.empirical_pi_beta,
            )
        )
    return estimates
