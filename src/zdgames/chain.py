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

from .errors import NonUniqueStationary
from .model import _payoff_vectors, _readonly

ROW_SUM_TOL = 1e-10
STATIONARY_RESIDUAL_TOL = 1e-9
CORANK_RTOL = 1e-10
CLAMP_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic nm x nm matrix over alpha-major joint states."""

    dims: tuple
    entries: np.ndarray

    def __post_init__(self):
        n, m = self.dims
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (n * m, n * m):
            raise ValueError(f"expected {n * m}x{n * m} matrix, got {entries.shape}")
        if (entries < -CLAMP_TOL).any() or (entries > 1.0 + CLAMP_TOL).any():
            raise ValueError("transition probabilities must lie in [0, 1]")
        if np.abs(entries.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "entries", _readonly(np.clip(entries, 0.0, 1.0)))


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
    entries = np.einsum("sk,sl->skl", p.rows, q.rows).reshape(p.n * p.m, p.n * p.m)
    return TransitionMatrix((p.n, p.m), entries)


def _corank(M):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return M.shape[0]
    return int(np.count_nonzero(sv < CORANK_RTOL * sv[0]))


def _null_left(M):
    # left null vector of M = right null vector of M^T, via SVD
    u, _, _ = np.linalg.svd(M)
    v = u[:, -1]
    if v.sum() < 0:
        v = -v
    return v


def stationary(P):
    """Solve v P = v, sum(v) = 1 for the unique stationary distribution.

    Replaces the last equation of (P - I)^T x = 0 with the normalization
    and solves the dense system directly; falls back, once, to the SVD null
    vector if that system is singular or its solution fails the residual check.

    Raises
    ------
    NonUniqueStationary
        If P - I has more than one vanishing singular value (relative
        threshold 1e-10), i.e. the chain is reducible or periodic and the
        long-run outcome depends on the starting state.
    """
    M = P.entries - np.eye(P.entries.shape[0])
    corank = _corank(M)
    if corank > 1:
        raise NonUniqueStationary(corank)

    A = M.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(A.shape[0])
    rhs[-1] = 1.0
    try:
        v = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        v = None
    if (
        v is None
        or np.linalg.norm(v @ P.entries - v, np.inf) > STATIONARY_RESIDUAL_TOL
        or v.min() < -CLAMP_TOL
    ):
        v = _null_left(M)
    if v.min() < -CLAMP_TOL:
        raise ArithmeticError(
            f"stationary solve produced mass {v.min()!r} below -{CLAMP_TOL}"
        )
    v = np.clip(v, 0.0, None)
    v = v / v.sum()
    if np.linalg.norm(v @ P.entries - v, np.inf) > STATIONARY_RESIDUAL_TOL:
        raise ArithmeticError("stationary residual above tolerance after fallback")
    return StationaryDistribution(_readonly(v), corank == 1)


def cofactor_row(P):
    """Last row of Adj(P - I).

    Every row of the adjugate of a singular corank-1 matrix is proportional
    to the left null vector, so this row is a scaled copy of the stationary
    distribution whenever one exists uniquely.  For corank > 1 the adjugate
    vanishes and the zero vector is returned.
    """
    M = P.entries - np.eye(P.entries.shape[0])
    # Adj(M) = det(U) det(V) * prod(leading singular values) * outer(V[:,-1], U[:,-1])
    # for corank-1 M; higher corank makes the product (hence the row) vanish.
    u, sv, vt = np.linalg.svd(M)
    sign = np.sign(np.linalg.det(u)) * np.sign(np.linalg.det(vt))
    scale = sign * sv[:-1].prod()
    return CofactorVector(_readonly(scale * vt[-1, -1] * u[:, -1]))


def zd_feasibility_condition(P):
    """One-signedness test for the cofactor row.

    Linear score relations can be enforced only when the cofactor sum is
    nonzero and the entries do not change sign; holds exactly when both are
    true (tolerances 1e-10 on the sum, 1e-12 on the sign test).
    """
    cof = cofactor_row(P)
    c = cof.c
    one_signed = bool((c >= -1e-12).all() or (c <= 1e-12).all())
    holds = abs(c.sum()) > 1e-10 and one_signed
    return FeasibilityReport(holds, cof)


def expected_scores(game, p, q):
    """Long-run average payoffs (v . omega) for both players."""
    _check_pair(p, q, game)
    return _scores(game, stationary(transition_matrix(p, q)).v)


def _scores(game, v):
    """Both players' average payoffs v . omega under the state weights ``v``."""
    wa, wb = _payoff_vectors(game)
    return ScorePair(float(v @ wa), float(v @ wb))
