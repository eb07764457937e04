"""Extortion in symmetric games with any number of strategies.

With the offset fixed at the mutual-full-noncooperation payoff a_nn, an
extortionate player demands

    pi_alpha - a_nn = lam * (pi_beta - a_nn),    lam >= 1.

In alpha-major state order, with u = omega_alpha - a_nn and
w = omega_beta - a_nn, the extortioner's first components are

    p1 = delta + theta * g,    g = u - lam * w,

where delta is 1 on the first row and 0 elsewhere, so g_ij is the bracket
E_ij = (a_ij - a_nn) - lam * (a_ji - a_nn).  The entries stay in [0, 1] for
small theta > 0 exactly when E_1j <= 0 on the first row and E_ij >= 0 on
the others; the states that fail are the violated conditions.  Each
bracket is affine in lam, so the admissible factors form an interval, and
for an admissible lam the largest feasible theta is the closed-form t_max
of :func:`zdgames.zd._feasible_scale`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _check_ratio, own_move_one_indicator, payoff_vectors
from .zd import _check_extortion, _check_factor, _feasible_scale, _synthesis

CONDITION_TOL = 1e-12

FIRST_ROW = "first-row"
INTERIOR = "interior"
LAST_ROW = "last-row"


@dataclass(frozen=True)
class ExtortionParams:
    """Finite extortion factor ``lam`` >= 1 and scale ``theta`` > 0.

    The offset is always the game's a_nn; use the coefficient route in
    :mod:`zdgames.zd` for arbitrary offsets.
    """

    lam: float
    theta: float

    def __post_init__(self):
        _check_extortion(self.lam, self.theta)


@dataclass(frozen=True)
class FactorBounds:
    """Admissible extortion factors as the interval [lambda_min, lambda_max].

    ``lambda_min`` is at least 1; ``lambda_max`` may be ``math.inf``.
    ``feasible`` is False when the interval is empty or some condition fails
    for every lam.  The endpoints are exact only up to rounding; at a tie,
    :func:`check_extortion_factor` gives the verdict.
    """

    lambda_min: float
    lambda_max: float
    feasible: bool


@dataclass(frozen=True)
class ConditionReport:
    """Admissibility verdict with the violated condition ids.

    Ids are (family, i, j) triples naming the bracket E_ij that failed, in
    alpha-major state order; family is "first-row" (E_1j <= 0), "interior"
    (rows 2..n-1, E_ij >= 0) or "last-row" (E_nj >= 0, j < n).  An
    "interior" violation at i == j means the diagonal payoff a_ii exceeds
    a_nn, which rules out every lam > 1 on its own; a "first-row" violation
    at (1, 1) means lam < 1.  ``theta_max`` is the largest feasible scale
    theta for the factor (``math.inf`` when nothing binds), and 0.0 when the
    factor is not admissible.
    """

    ok: bool
    violated: tuple
    theta_max: float


def _require_symmetric(game):
    if not game.is_symmetric:
        raise ValueError("extortion analysis requires a symmetric game")
    return game.A


def _require_normalized(A):
    # the condition derivation assumes a_11 >= a_nn
    if A[0, 0] < A[-1, -1]:
        raise ValueError(
            f"expected a_11 >= a_nn, got a_11={A[0, 0]} < a_nn={A[-1, -1]}; "
            "relabel the strategies first"
        )


def _extortion_vectors(game):
    """delta, u = omega_alpha - a_nn and w = omega_beta - a_nn, alpha-major."""
    wa, wb = payoff_vectors(game)
    nn = game.A[-1, -1]
    return own_move_one_indicator("alpha", game.n, game.n), wa - nn, wb - nn


def _extortion_direction(game, lam):
    """delta and g = u - lam*w for the factor ``lam``; ValueError if g overflows."""
    delta, u, w = _extortion_vectors(game)
    with np.errstate(over="ignore"):
        g = u - lam * w
    if not np.isfinite(g).all():
        raise ValueError(f"extortion factor {lam} overflows the brackets E_ij")
    return delta, g


def check_extortion_factor(game, lam):
    """Evaluate all admissibility conditions for the factor ``lam``, with theta_max."""
    _check_factor(lam)
    _require_normalized(_require_symmetric(game))
    limit, blocking = _feasible_scale(*_extortion_direction(game, lam))
    if lam < 1.0:  # E_11 = (1 - lam)(a_11 - a_nn) misses lam < 1 when a_11 == a_nn
        limit, blocking = 0.0, sorted({0, *blocking})
    violated = []
    for s in blocking:
        i, j = divmod(s, game.n)
        family = FIRST_ROW if i == 0 else LAST_ROW if i == game.n - 1 else INTERIOR
        violated.append((family, i + 1, j + 1))
    return ConditionReport(not violated, tuple(violated), limit)


def extortion_factor_bounds(game):
    """Intersect the affine-in-lam conditions with [1, inf).

    With the sign flipped on the first row, every state needs
    U - lam*W >= 0 (U, W = +-u, +-w), a half-line of admissible lam; a zero
    W with U below -CONDITION_TOL times the payoff spread rules out every
    factor.
    """
    A = _require_symmetric(game)
    _require_normalized(A)
    delta, u, w = _extortion_vectors(game)
    sign = 1.0 - 2.0 * delta
    U, W = sign * u, sign * w
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = U / W
    lo = float(ratio[W < 0.0].max(initial=1.0))
    hi = float(ratio[W > 0.0].min(initial=math.inf))
    dead = bool(((W == 0.0) & (U < -CONDITION_TOL * np.ptp(A))).any())
    return FactorBounds(lo, hi, not dead and lo <= hi + CONDITION_TOL)


def extortion_strategy(game, params):
    """First components delta + theta*g of the extortionate strategy.

    g holds the brackets E_ij directly (see the module docstring) rather
    than going through :func:`zdgames.zd.extortion_coefficients`, so the
    result is bit for bit the same after an integer shift of the payoffs.
    """
    _require_symmetric(game)
    _, g = _extortion_direction(game, params.lam)
    return _synthesis("alpha", game, g, params.theta)


def theta_max(game, lam):
    """Largest scale theta keeping every strategy entry inside [0, 1].

    The entries are delta + theta*g with g = u - lam*w, so this is the
    closed form min over states of 1/(-g) on the first row (where g < 0)
    and 1/g elsewhere (where g > 0): 1/((lam-1)*(a_11 - a_nn)) from the
    (1,1) entry up to rounding, 1/(-E_1j) and 1/E_ij from the brackets.
    Returns ``math.inf`` when nothing binds.

    Raises
    ------
    ValueError
        If ``lam`` is not admissible for the game, or so large that a
        bracket E_ij overflows.
    """
    report = check_extortion_factor(game, lam)
    if not report.ok:
        raise ValueError(
            f"factor {lam} is not admissible ({len(report.violated)} conditions fail)"
        )
    return report.theta_max


def chicken_extortion(r, lam, theta):
    """Closed-form extortion strategy for the chicken family.

    Returns the four first components (against states (1,1), (1,2), (2,1),
    (2,2)) of the factor-``lam`` extortioner in ``chicken_family(r)``:

        (1 - theta*(lam - 1),
         1 - theta*((lam + 1)*r + lam - 1),
         theta*(1 + r - lam*(1 - r)),
         0)
    """
    _check_ratio(r)
    _check_extortion(lam, theta)
    if r < 1.0 and lam > (1.0 + r) / (1.0 - r) + CONDITION_TOL:
        raise ValueError(
            f"factor {lam} exceeds the admissible maximum {(1.0 + r) / (1.0 - r)} "
            f"at r={r}"
        )
    return np.array(
        [
            1.0 - theta * (lam - 1.0),
            1.0 - theta * ((lam + 1.0) * r + lam - 1.0),
            theta * (1.0 + r - lam * (1.0 - r)),
            0.0,
        ]
    )
