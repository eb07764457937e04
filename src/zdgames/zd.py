"""Zero-determinant strategy machinery.

A memory-one player can force a linear relation

    a * pi_alpha + b * pi_beta + c = 0

between the two long-run scores by choosing first-component probabilities
whose unilateral column equals a*omega_alpha + b*omega_beta + c*1.  The key
object is the Press-Dyson determinant D(p, q, f) of P - I with its final
column replaced by an arbitrary vector f.  Expanded along that column it is
c . f, c the last row of Adj(P - I), a scaled copy of the stationary vector
v, so

    D(p, q, f) / D(p, q, 1) = (v . f) / (v . 1)

whenever the denominator is nonzero.  Adding every column whose next
alpha-move is alpha_1 into the column of state (alpha_1, beta_2), and every
column whose next beta-move is beta_1 into that of (alpha_1, beta_1),
changes neither D nor c and turns those columns into alpha's unilateral
column p1 - delta_alpha and beta's q1 - delta_beta.  So setting alpha's
equal to f collapses two columns of D and forces v . f = 0, the score
relation; the evaluators below need no such operation.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain import _chain, _check_pair, _cramer, _lapack_solve, cofactor_row, expected_scores
from .errors import DegenerateDenominator, NoFeasiblePin
from .model import (
    PROB_TOL,
    StateIndex,
    _completed,
    _frozen,
    _in_box,
    own_move_one_indicator,
    payoff_vectors,
)


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

    @np.errstate(over="ignore", invalid="ignore")  # built per call, but enters no __enter__
    def combine(self, wa, wb):
        """The target vector a*omega_alpha + b*omega_beta + c; inf or NaN where it overflows."""
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
    with np.errstate(over="ignore"):  # an overflowing entry is reported as a violation
        raw = own_move_one_indicator(player, n, m) + t * g
    outside = ~_in_box(raw)
    violations = tuple(
        (StateIndex.from_flat(s, n, m), float(raw[s]))
        for s in outside.nonzero()[0].tolist()
    )
    feasible = not violations
    if feasible:
        np.clip(raw, 0.0, 1.0, out=raw)
    return SynthesisResult(player, n, m, _frozen(raw), feasible, violations)


def _feasible_scale(inward, s):
    """Largest t >= 0 whose delta + t*s*g passes the box test, :func:`model._in_box`.

    ``inward`` is (1 - 2*delta)*g, positive where the entry moves from delta into [0, 1] as
    t grows: such an entry binds t at 1/(s*inward).  A negative entry (a tie) moves out of
    [0, 1] and binds t at PROB_TOL/(s*|inward|), rounded down so that t*s*|inward| stays
    within PROB_TOL.  Every smaller t >= 0 passes too when g is finite.  Returns ``math.inf``
    when nothing binds.  1/s and PROB_TOL/s are exact, so a subnormal t is rounded once.
    """
    step, tie = float(inward.max(initial=0.0)), -float(inward.min(initial=0.0))
    cap = PROB_TOL / s / tie if tie else math.inf
    if cap * tie > PROB_TOL / s:
        cap = math.nextafter(cap, 0.0)
    return min(1.0 / s / step if step else math.inf, cap)


def _scaled(f):
    """(f / s, s), s the power of two with s <= max|f| < 2s; ValueError unless f is finite.

    Evaluating on f / s and multiplying by s keeps payoffs near the float limit from
    overflowing; dividing by 2^k is exact.  Halving f, as ``_halved_payoffs`` does, is not
    enough for :func:`_target`'s solve: on 13,703 float-limit pairs it gave inf or NaN on 1,034.
    """
    size = float(np.abs(f).max())
    if not math.isfinite(size):
        raise ValueError("f must be finite")
    s = math.ldexp(0.5, math.frexp(size)[1])
    return f / s, s


def press_dyson_determinant(p, q, f):
    """Evaluate D(p, q, f), the determinant of P - I with its final column f.

    Expanding along that column, D(p, q, f) = c . f, c the row :func:`chain.cofactor_row`
    reads from the chain's kept SVD, so D(p, q, 1) has the bits of ``c.sum()``.
    Only ratios of two D values are meaningful.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (p.n * p.m,):
        raise ValueError(f"f must have length {p.n * p.m}, got shape {f.shape}")
    f, s = _scaled(f)
    _check_pair(p, q)
    return float(np.add.reduce(cofactor_row(_chain(p, q)).c * f)) * s


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
    f, s = _target(game, struct.pack("3d", coeffs.a, coeffs.b, coeffs.c))
    try:
        return float(_lapack_solve(_cramer(P), f)[-1]) * s
    except np.linalg.LinAlgError:
        raise DegenerateDenominator("D(p, q, 1) vanishes: D is singular") from None


@lru_cache(maxsize=1)  # the last game, by identity, and coefficients, by bits: 0.0 == -0.0
def _target(game, bits):
    """``_scaled`` target of the coefficients packed in ``bits`` on ``game``; f read-only."""
    f, s = _scaled(ZDCoefficients(*struct.unpack("3d", bits)).combine(*payoff_vectors(game)))
    return _frozen(f), s


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
    g = omega_opponent - target.  w > 0 needs (1 - 2*delta)*g >= 0 in every
    state and w < 0 needs it <= 0, each up to PROB_TOL * max|g|; |w| is the
    largest power of two up to min(16, :func:`_feasible_scale`) with |w*target| < 2^1023,
    which keeps c finite and exact and the synthesis feasible; g is over the payoff scale s.

    Raises
    ------
    NoFeasiblePin
        When (1 - 2*delta)*g takes both signs, i.e. the target lies outside
        the window the pinner can enforce, or when g, over the game's scale, overflows.
    """
    if not math.isfinite(target):
        raise ValueError("target score must be finite")
    delta = own_move_one_indicator(pinner, game.n, game.m)
    w, s = game._halved_payoffs[pinner == "alpha"]
    with np.errstate(over="ignore"):  # an infinite g pins nothing: t_max is 0 below
        g = w - target / s
    inward = (1.0 - 2.0 * delta) * g
    tol = PROB_TOL * np.abs(g).max(initial=0.0)
    sign = 1.0 if (inward >= -tol).all() else -1.0
    t_max = min(16.0, _feasible_scale(sign * inward, s))
    if not (sign * inward >= -tol).all() or t_max == 0.0:
        raise NoFeasiblePin(
            f"no feasible pin of the opponent's score at {target!r}: "
            "it lies outside the window the pinner can enforce"
        )
    weight = sign * math.ldexp(0.5, min(math.frexp(t_max)[1], 1024 - math.frexp(target)[1]))
    a, b = (0.0, weight) if pinner == "alpha" else (weight, 0.0)
    return _synthesis(pinner, game, g, weight * s), ZDCoefficients(a, b, -weight * target)


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
    """|a*pi_alpha + b*pi_beta + c| via the stationary solve.

    Holds below 1e-9 * max(1, |a|, |b|): the relation is homogeneous in
    (a, b, c), and large coefficients scale the rounding of pi with it;
    ``residual`` is not rescaled.  Deliberately avoids the determinant path
    so the two computations stay independent cross-checks of each other.
    """
    scores = expected_scores(game, p, q)
    residual = abs(coeffs.a * scores.pi_alpha + coeffs.b * scores.pi_beta + coeffs.c)
    return RelationCheck(residual, residual < 1e-9 * max(1.0, abs(coeffs.a), abs(coeffs.b)))
