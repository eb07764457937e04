"""Zero-determinant strategy machinery.

A memory-one player can force a linear relation

    a * pi_alpha + b * pi_beta + c = 0

between the two long-run scores by choosing first-component probabilities
whose unilateral column equals a*omega_alpha + b*omega_beta + c*1.  The key
object is the Press-Dyson style determinant D(p, q, f): column operations
turn P - I into a matrix whose column at state (alpha_1, beta_2) is alpha's
unilateral column and whose column at (alpha_1, beta_1) is beta's; replacing
the final column by an arbitrary vector f then gives

    D(p, q, f) / D(p, q, 1) = (v . f) / (v . 1)

whenever the denominator is nonzero, because the column operations leave the
cofactors of the final column (a scaled copy of the stationary vector v)
untouched.  Setting the unilateral column equal to f collapses two columns
of the determinant and forces v . f = 0, which is the score relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import _chain, _check_pair, expected_scores
from .errors import DegenerateDenominator, NoFeasiblePin
from .model import (
    PROB_TOL,
    StateIndex,
    _completed,
    _frozen,
    own_move_one_indicator,
    payoff_vectors,
)

SCALE_RTOL = 1e-12


@dataclass(frozen=True)
class ZDCoefficients:
    """Coefficients (a, b, c) of the target relation a*pi_alpha + b*pi_beta + c = 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b) and math.isfinite(self.c)):
            raise ValueError(
                f"coefficients must be finite, got a={self.a}, b={self.b}, c={self.c}"
            )
        if self.a == 0.0 and self.b == 0.0 and self.c == 0.0:
            raise ValueError("coefficients must not all vanish")

    def combine(self, wa, wb):
        """The target vector a*omega_alpha + b*omega_beta + c."""
        return self.a * wa + self.b * wb + self.c


@dataclass(frozen=True, eq=False)
class SynthesisResult:
    """Candidate first components for one player, with feasibility report.

    ``p1`` holds the synthesizing player's first-component probabilities in
    alpha-major state order (also for beta).  When every entry lies in
    [0, 1] up to 1e-12 the result is feasible, boundary values are clamped,
    and ``violations`` is empty; otherwise ``violations`` lists the
    offending (state, value) pairs, NaN entries among them, and ``p1`` is
    left unclamped.
    """

    player: str
    n: int
    m: int
    p1: np.ndarray
    feasible: bool
    violations: tuple

    def complete(self, fill_rule="uniform"):
        """Extend to a full strategy; rejects infeasible results.

        ``p1`` is not checked again: the synthesis already checked and clipped it.
        """
        if not self.feasible:
            raise ValueError(
                f"cannot complete an infeasible synthesis ({len(self.violations)} "
                f"entries outside [0, 1])"
            )
        return _completed(self.player, self.p1, self.n, self.m, fill_rule)


def _synthesis(player, game, g, t=1.0):
    """``player``'s first components delta + t*g, delta its own-move-1 indicator."""
    n, m = game.n, game.m
    raw = own_move_one_indicator(player, n, m) + t * g
    outside = ~((raw >= -PROB_TOL) & (raw <= 1.0 + PROB_TOL))  # NaN fails it too
    violations = tuple(
        (StateIndex.from_flat(s, n, m), float(raw[s]))
        for s in np.flatnonzero(outside).tolist()
    )
    feasible = not violations
    if feasible:
        np.clip(raw, 0.0, 1.0, out=raw)
    return SynthesisResult(player, n, m, _frozen(raw), feasible, violations)


def _feasible_scale(delta, g):
    """Largest t >= 0 keeping delta + t*g inside [0, 1], and the blocking states.

    Each state bounds t by (1 - delta)/g where g > 0 and by delta/(-g) where
    g < 0, so the feasible scales are [0, t_max].  A state blocks when its
    bound is 0 (g pushes delta straight out of the box); t_max is then 0.
    Entries of g below SCALE_RTOL * max|g| count as zero, which makes the
    answer independent of the payoff scale; g == 0 gives ``math.inf``.  Pass
    -g for the negative direction.
    """
    tol = SCALE_RTOL * np.abs(g).max(initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        limits = np.where(g < -tol, delta / -g, math.inf)
        limits = np.where(g > tol, (1.0 - delta) / g, limits)
    blocking = tuple(np.flatnonzero(limits == 0.0).tolist())
    return float(limits.min(initial=math.inf)), blocking


def _zd_matrix(P):
    """P - I of the chain ``P`` after the two unilateral column operations.

    Adds every column whose next alpha-move is alpha_1 into the column of
    state (alpha_1, beta_2), and every column whose next beta-move is beta_1
    into the column of (alpha_1, beta_1); both operations read the original
    columns, which is exactly the sequential elementary-operation result.
    Returns a new array: callers overwrite its final column with the vector
    f of D(p, q, f).
    """
    M, m = P._shifted.copy(), P.dims[1]
    M[:, 0], M[:, 1] = M[:, 0::m].sum(axis=1), M[:, 0:m].sum(axis=1)
    return M


def press_dyson_determinant(p, q, f):
    """Evaluate D(p, q, f).

    Only ratios of two D values are meaningful; the sign convention is fixed
    by the column placement described in :func:`_zd_matrix`.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (p.n * p.m,):
        raise ValueError(f"f must have length {p.n * p.m}, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("f must be finite")
    _check_pair(p, q)
    D = _zd_matrix(_chain(p, q))
    D[:, -1] = f
    return float(np.linalg.det(D))


def score_combination(game, p, q, coeffs):
    """a*pi_alpha + b*pi_beta + c evaluated as a determinant ratio.

    Independent of the stationary solve.  By Cramer's rule the ratio
    D(p, q, f) / D(p, q, 1) is the last unknown of D x = f, D the matrix of
    D(p, q, 1), so no determinant is formed: those underflow on long chains.

    Raises
    ------
    ValueError
        When p and q are not an alpha and a beta strategy for ``game``.
    DegenerateDenominator
        When the chain's corank, which :func:`chain.stationary` also reads,
        is above 1 (by the Markov chain tree theorem, exactly when
        D(p, q, 1) = 0), or the solve finds D singular.
    """
    _check_pair(p, q, game)
    P = _chain(p, q)
    if P._corank > 1:
        raise DegenerateDenominator(f"D(p, q, 1) vanishes: P - I has corank {P._corank}")
    f = coeffs.combine(*payoff_vectors(game))
    if not np.isfinite(f).all():  # huge coefficients overflow
        raise ValueError("f must be finite")
    D = _zd_matrix(P)
    D[:, -1] = 1.0
    try:
        return float(np.linalg.solve(D, f)[-1])
    except np.linalg.LinAlgError:
        raise DegenerateDenominator("D(p, q, 1) vanishes: D is singular") from None


def synthesize_zd_alpha(game, coeffs):
    """First components with which alpha enforces the coefficient relation.

    ``p1[s(i,j)] = delta_{i,1} + a*a_ij + b*b_ji + c``.  Infeasibility is
    reported in the result, never raised.
    """
    return _synthesis("alpha", game, coeffs.combine(*payoff_vectors(game)))


def synthesize_zd_beta(game, coeffs):
    """Beta's counterpart: ``q1[s(i,j)] = delta_{j,1} + a*a_ij + b*b_ji + c``."""
    return _synthesis("beta", game, coeffs.combine(*payoff_vectors(game)))


def pin_opponent_score(game, pinner, target):
    """Coefficients with which ``pinner`` fixes the opponent's score at ``target``.

    Alpha pins beta with (0, w, -w*target) and beta pins alpha with
    (w, 0, -w*target), so the first components are delta + w*g with
    g = omega_opponent - target, and the feasible weights form the closed
    interval [-t_neg, t_pos] given by :func:`_feasible_scale`.  The weight is
    the largest power of two up to min(16, max(t_pos, t_neg)), positive when
    it fits under t_pos; a power of two keeps c = -w*target exact.

    Raises
    ------
    NoFeasiblePin
        When both t_pos and t_neg are 0, i.e. the target lies outside the
        window the pinner can enforce, or when rounding leaves the one
        synthesis outside [0, 1].
    """
    if not math.isfinite(target):
        raise ValueError("target score must be finite")
    delta = own_move_one_indicator(pinner, game.n, game.m)
    wa, wb = payoff_vectors(game)
    g = (wb if pinner == "alpha" else wa) - target
    t_pos = _feasible_scale(delta, g)[0]
    t_max = min(16.0, max(t_pos, _feasible_scale(delta, -g)[0]))
    if t_max > 0.0:
        weight = math.ldexp(0.5, math.frexp(t_max)[1])  # largest 2^k <= t_max
        if weight > t_pos:
            weight = -weight
        result = _synthesis(pinner, game, g, weight)
        if result.feasible:
            a, b = (0.0, weight) if pinner == "alpha" else (weight, 0.0)
            return result, ZDCoefficients(a, b, -weight * target)
    raise NoFeasiblePin(
        f"no feasible pin of the opponent's score at {target!r}: "
        "it lies outside the window the pinner can enforce"
    )


def _check_factor(lam):
    """ValueError unless the extortion factor lam is finite."""
    if not math.isfinite(lam):
        raise ValueError(f"extortion factor must be finite, got {lam}")


def _check_extortion(lam, theta):
    """ValueError unless lam is a finite factor >= 1 and theta a finite scale > 0."""
    _check_factor(lam)
    if lam < 1.0:
        raise ValueError(f"extortion factor must be at least 1, got {lam}")
    if not math.isfinite(theta):
        raise ValueError(f"scale theta must be finite, got {theta}")
    if theta <= 0.0:
        raise ValueError(f"scale theta must be positive, got {theta}")


def extortion_coefficients(lam, delta, theta):
    """Coefficients enforcing pi_alpha - delta = lam * (pi_beta - delta).

    Returns (theta, -theta*lam, -(a + b)*delta); the identity c = -(a+b)*delta
    holds exactly by construction.
    """
    _check_extortion(lam, theta)
    a = theta
    b = -theta * lam
    return ZDCoefficients(a, b, -(a + b) * delta)


@dataclass(frozen=True)
class RelationCheck:
    residual: float
    holds: bool


def verify_linear_relation(game, p, q, coeffs):
    """|a*pi_alpha + b*pi_beta + c| via the stationary solve; holds below 1e-9.

    Deliberately avoids the determinant path so the two computations stay
    independent cross-checks of each other.
    """
    scores = expected_scores(game, p, q)
    residual = abs(coeffs.a * scores.pi_alpha + coeffs.b * scores.pi_beta + coeffs.c)
    return RelationCheck(residual, residual < 1e-9)
