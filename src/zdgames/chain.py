"""Markov chain induced by a pair of memory-one strategies.

The joint play of alpha's strategy p and beta's strategy q is a Markov
chain on the nm joint states: starting from state (i, j), the players move
independently, so

    P[s(i,j), s(k,l)] = p_rows[s(i,j)][k] * q_rows[s(i,j)][l].

This module computes stationary distributions, the last row of the adjugate
of P - I (whose entries are proportional to the stationary vector when the
chain has a one-dimensional fixed space), expected long-run scores, and the
one-signedness condition under which zero-determinant synthesis is feasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InaccurateStationary, NonUniqueStationary
from .model import PROB_TOL, _payoff_vectors, _readonly

ROW_SUM_TOL = 1e-10
STATIONARY_RESIDUAL_TOL = 1e-9
CORANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic nm x nm matrix over alpha-major joint states."""

    dims: tuple
    entries: np.ndarray

    def __post_init__(self):
        n, m = self.dims
        entries = np.array(self.entries, dtype=float)  # a copy, clipped in place
        if entries.shape != (n * m, n * m):
            raise ValueError(f"expected {n * m}x{n * m} matrix, got {entries.shape}")
        lo, hi = entries.min(), entries.max()
        if not (lo >= -PROB_TOL and hi <= 1.0 + PROB_TOL):  # NaN fails it too
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.abs(entries.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("transition rows must sum to 1")
        if lo < 0.0 or hi > 1.0:
            np.clip(entries, 0.0, 1.0, out=entries)
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """Stationary vector v (v P = v, sum 1) with its uniqueness certificate.

    ``corank_flag`` is True when the singular-value test found exactly one
    vanishing singular value of P - I, i.e. the fixed space is a line.
    """

    v: np.ndarray
    corank_flag: bool


@dataclass(frozen=True, eq=False)
class CofactorVector:
    """Last row of Adj(P - I); proportional to v for corank-1 chains."""

    c: np.ndarray


@dataclass(frozen=True)
class ScorePair:
    pi_alpha: float
    pi_beta: float


@dataclass(frozen=True, eq=False)
class FeasibilityReport:
    """Outcome of the one-signed cofactor test."""

    holds: bool
    cofactors: CofactorVector


def _check_pair(p, q, game=None):
    """ValueError unless p is alpha's and q beta's, of one shape (``game``'s if given)."""
    if p.player != "alpha" or q.player != "beta":
        raise ValueError("expected an alpha strategy followed by a beta strategy")
    if (p.n, p.m) != (q.n, q.m):
        raise ValueError(
            f"strategy dimensions disagree: ({p.n}, {p.m}) vs ({q.n}, {q.m})"
        )
    if game is not None and (game.n, game.m) != (p.n, p.m):
        raise ValueError("strategy dimensions do not match the game")


def transition_matrix(p, q):
    """Build the joint chain of alpha strategy ``p`` against beta ``q``."""
    _check_pair(p, q)
    return TransitionMatrix((p.n, p.m), _joint(p, q))


def _joint(p, q):
    """Unvalidated nm x nm product ``p.rows[s, k] * q.rows[s, l]``; new and C-ordered."""
    joint = np.multiply(p.rows[:, :, None], q.rows[:, None, :], order="C")
    return joint.reshape(p.n * p.m, -1)


def _corank(sv):
    """The one degenerate-chain test: how many singular values of P - I vanish."""
    # round-off in P - I is set by its unit diagonal, not by sv[0], hence the floor of 1
    return int(np.count_nonzero(sv <= CORANK_RTOL * max(sv[0], 1.0)))


def _null_left(M):
    # left null vector of M = right null vector of M^T, via SVD
    v = np.linalg.svd(M)[0][:, -1]
    return -v if v.sum() < 0 else v


def stationary(P):
    """Solve v P = v, sum(v) = 1 for the unique stationary distribution.

    Replaces the last equation of (P - I)^T x = 0 with the normalization
    and solves the dense system directly; falls back, once, to the SVD null
    vector if that system is singular or its solution is not accepted.

    Raises
    ------
    NonUniqueStationary
        If P - I has more than one singular value at most 1e-10 times the
        largest or 1e-10, whichever is bigger, i.e. the chain is reducible or
        periodic and the long-run outcome depends on the starting state.
    InaccurateStationary
        If the fallback is not accepted either: the chain is too close to
        degenerate for double precision.
    """
    M = P.entries - np.eye(P.entries.shape[0])
    corank = _corank(np.linalg.svd(M, compute_uv=False))
    if corank > 1:
        raise NonUniqueStationary(corank)

    A = M.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(A.shape[0])
    rhs[-1] = 1.0
    try:
        v = _accepted(np.linalg.solve(A, rhs), P)
    except (np.linalg.LinAlgError, InaccurateStationary):
        v = _accepted(_null_left(M), P)
    return StationaryDistribution(_readonly(v), corank == 1)


def _accepted(v, P):
    """``v`` clipped to >= 0 and normalized; InaccurateStationary if it is not stationary."""
    lo = v.min()
    if not lo >= -PROB_TOL:
        raise InaccurateStationary(
            f"stationary solve produced mass {float(lo)!r} below -{PROB_TOL}"
        )
    if lo <= 0.0:  # the clip also turns -0.0 into 0.0
        v = np.clip(v, 0.0, None)
    v = v / v.sum()
    if not np.abs(v @ P.entries - v).max() <= STATIONARY_RESIDUAL_TOL:
        raise InaccurateStationary("stationary residual above tolerance after fallback")
    return v


def cofactor_row(P):
    """Last row of Adj(P - I).

    For a unique stationary distribution the row is a scaled copy of it of
    sign (-1)^(N-1): by the Markov chain tree theorem (Leighton & Rivest
    1986) Adj(I - P) >= 0, with a positive sum exactly then.  For corank > 1
    the adjugate vanishes: round-off of either sign, zeros for the identity.
    Its scale, all but the smallest singular value of P - I multiplied, can
    underflow to 0.0 on long slow-mixing chains whose v is unique.
    """
    return CofactorVector(_adjugate_row(P)[0])


def _adjugate_row(P):
    """(read-only cofactor row, singular values of P - I) from one SVD."""
    u, sv, vt = np.linalg.svd(P.entries - np.eye(P.entries.shape[0]))
    # corank-1 Adj(M) = +-prod(sv[:-1]) outer(V[:,-1], U[:,-1]), sign by the tree theorem
    scale = (-1.0) ** (len(sv) - 1) * np.sign(vt[-1, -1] * u[:, -1].sum()) * sv[:-1].prod()
    return _readonly(scale * vt[-1, -1] * u[:, -1]), sv


def zd_feasibility_condition(P):
    """One-signedness test for the cofactor row.

    Linear score relations need D(p, q, 1), the row's sum, nonzero (by the
    tree theorem, exactly when :func:`stationary`'s corank test finds corank
    1; its value may underflow) and entries of one sign (tolerance 1e-12).
    """
    c, sv = _adjugate_row(P)
    one_signed = (c >= -1e-12).all() or (c <= 1e-12).all()
    holds = bool(_corank(sv) == 1 and one_signed)
    return FeasibilityReport(holds, CofactorVector(c))


def expected_scores(game, p, q):
    """Long-run average payoffs (v . omega) for both players."""
    _check_pair(p, q, game)
    return _scores(game, stationary(TransitionMatrix((p.n, p.m), _joint(p, q))).v)


def _scores(game, v):
    """Both players' average payoffs v . omega under the state weights ``v``."""
    wa, wb = _payoff_vectors(game)
    return ScorePair(float(v @ wa), float(v @ wb))
