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
the others; :func:`_half_lines` decides which fail.  Each bracket is
affine in lam, so the admissible factors form an interval, and for an
admissible lam the largest feasible theta is 1/max|g|, capped where a
tie is nonzero: ``extortion_strategy`` is feasible at every theta <= theta_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _check_ratio, _in_box, own_move_one_indicator
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

    ``lambda_min`` is at least 1 and ``lambda_max`` may be ``math.inf``.
    ``feasible`` holds when some factor passes :func:`check_extortion_factor`,
    and then a lam >= 1 passes exactly when lambda_min*(1 - 2*CONDITION_TOL)
    <= lam <= lambda_max*(1 + 2*CONDITION_TOL), the check's tie band.
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
    factor is not admissible: ``extortion_strategy`` is feasible at every
    theta <= theta_max.
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
    return A


def _extortion_vectors(game):
    """omega_alpha, sigma = 1 - 2*delta, u = omega_alpha - a_nn and w = omega_beta - a_nn.

    All but sigma are halved, over ``BimatrixGame._halved_payoffs``, so none overflows.
    """
    wa, wb = game._halved_payoffs
    sigma = 1.0 - 2.0 * own_move_one_indicator("alpha", game.n, game.n)
    return wa, sigma, wa - wa[-1], wb - wa[-1]


def _brackets(u, w, lam):
    """E_ij/2 = u - lam*w of halved u, w, taken as twice E_ij/4; ValueError if one overflows."""
    with np.errstate(over="ignore"):
        g = (u / 2.0 - lam * (w / 2.0)) * 2.0
    if not np.isfinite(g).all():
        raise ValueError(f"extortion factor {lam} overflows the brackets E_ij")
    return g


def _half_lines(wa, sigma, u, w):
    """The one zero rule: ends U/W and masks for lam >= U/W, lam <= U/W, no lam.

    A live state, max(|u|, |w|) > CONDITION_TOL * ptp(wa), needs U - lam*W >= 0
    with U, W = sigma*u, sigma*w; the brackets of the other states are 0.
    """
    scaled = CONDITION_TOL * wa  # scaled first, so the spread stays finite
    live = np.maximum(np.abs(u), np.abs(w)) > scaled.max() - scaled.min()
    U, W = sigma * u, sigma * w
    with np.errstate(all="ignore"):  # W == 0 is masked out; a huge ratio is inf
        ends = U / W
    return ends, live & (W < 0.0), live & (W > 0.0), live & (W == 0.0) & (U < 0.0)


def check_extortion_factor(game, lam):
    """Evaluate all admissibility conditions for the factor ``lam``, with theta_max.

    ``lam`` fails a state of :func:`_half_lines` whose half-line, its end
    widened to end*(1 -+ 2*CONDITION_TOL), misses it.  theta_max is then
    :func:`zdgames.zd._feasible_scale` of sigma*g, so a bracket left with the
    wrong sign (a tie) moves its entry out of [0, 1] by PROB_TOL at most and
    ``extortion_strategy`` is feasible at every theta <= theta_max.  g holds the halved
    brackets of :func:`_brackets`; ValueError if some E_ij/2 overflows.
    """
    _check_factor(lam)
    _require_normalized(_require_symmetric(game))
    wa, sigma, u, w = _extortion_vectors(game)
    g = _brackets(u, w, lam)
    ends, lower, upper, failing = _half_lines(wa, sigma, u, w)
    with np.errstate(over="ignore"):  # an end at the float limit widens to inf
        failing |= lower & (lam < ends * (1.0 - 2.0 * CONDITION_TOL))
        failing |= upper & (lam > ends * (1.0 + 2.0 * CONDITION_TOL))
    failing[0] |= lam < 1.0  # E_11 = (1 - lam)(a_11 - a_nn) misses lam < 1 when a_11 == a_nn
    families = [FIRST_ROW] + [INTERIOR] * (game.n - 2) + [LAST_ROW]
    violated = tuple((families[i], i + 1, j + 1) for i, j in
                     (divmod(k, game.n) for k in failing.nonzero()[0].tolist()))
    if violated:
        return ConditionReport(False, violated, 0.0)
    return ConditionReport(True, (), _feasible_scale(sigma * g))  # sigma*g < 0 at a tie


def extortion_factor_bounds(game):
    """Intersect the half-lines of :func:`_half_lines` with [1, inf)."""
    _require_normalized(_require_symmetric(game))
    ends, lower, upper, dead = _half_lines(*_extortion_vectors(game))
    lo = float(ends[lower].max(initial=1.0))
    hi = float(ends[upper].min(initial=math.inf)) + 0.0  # U = -0.0 ends at 0.0
    fits = max(1.0, lo * (1.0 - 2.0 * CONDITION_TOL)) <= hi * (1.0 + 2.0 * CONDITION_TOL)
    return FactorBounds(lo, hi, fits and not dead.any())


def extortion_strategy(game, params):
    """First components delta + theta*g of the extortionate strategy.

    g holds the brackets E_ij directly (see the module docstring) rather
    than going through :func:`zdgames.zd.extortion_coefficients`, so the
    result is bit for bit the same after an integer shift of the payoffs.
    A tie keeps its sign: past theta_max its entry may be a violation.
    """
    _require_symmetric(game)
    *_, u, w = _extortion_vectors(game)
    return _synthesis("alpha", game, _brackets(u, w, params.lam), params.theta)


def theta_max(game, lam):
    """Largest scale theta keeping every strategy entry inside [0, 1].

    The entries are delta + theta*g with g = u - lam*w, so this is the
    closed form min over states of 1/(-g) on the first row (where g < 0)
    and 1/g elsewhere (where g > 0): 1/((lam-1)*(a_11 - a_nn)) from the
    (1,1) entry up to rounding, 1/(-E_1j) and 1/E_ij from the brackets, and
    PROB_TOL/|g| from a tie, rounded down so that ``extortion_strategy`` is
    feasible at every theta <= theta_max.  Returns ``math.inf`` when nothing
    binds.

    Raises
    ------
    ValueError
        If ``lam`` is not admissible for the game, or so large that some
        halved bracket E_ij/2 overflows.
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
         theta*max(1 + r - lam*(1 - r), 0),
         0)

    clipped to [0, 1]; ValueError when an entry fails the box test, PROB_TOL wide.
    """
    _check_ratio(r)
    _check_extortion(lam, theta)
    if r < 1.0 and lam > (1.0 + r) / (1.0 - r) * (1.0 + 2.0 * CONDITION_TOL):
        raise ValueError(
            f"factor {lam} exceeds the admissible maximum {(1.0 + r) / (1.0 - r)} "
            f"at r={r}"
        )
    third = max(1.0 + r - lam * (1.0 - r), 0.0)  # a tie in the band above the maximum
    p1 = np.array([1.0 - theta * (lam - 1.0),
                   1.0 - theta * ((lam + 1.0) * r + lam - 1.0), theta * third, 0.0])
    if not _in_box(p1).all():
        raise ValueError(f"scale {theta} puts an entry outside [0, 1]: {p1.tolist()}")
    return np.clip(p1, 0.0, 1.0)
