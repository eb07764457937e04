"""Markov chain induced by a pair of memory-one strategies.

The joint play of alpha's strategy p and beta's strategy q is a Markov
chain on the nm joint states: starting from state (i, j), the players move
independently, so

    P[s(i,j), s(k,l)] = p_rows[s(i,j)][k] * q_rows[s(i,j)][l].

This module computes stationary distributions, the last row of the adjugate
of P - I (whose entries are proportional to the stationary vector when the
chain has a one-dimensional fixed space), expected long-run scores, and the
corank verdict under which zero-determinant synthesis is feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy._core._multiarray_umath import _make_extobj
from numpy._core._ufunc_config import _extobj_contextvar
from numpy.linalg import _umath_linalg

from .errors import InaccurateStationary, NonUniqueStationary
from .model import PROB_TOL, _frozen, _stochastic

ROW_SUM_TOL = 1e-10
STATIONARY_RESIDUAL_TOL = 1e-9
CORANK_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic nm x nm matrix over alpha-major joint states.

    Immutable: construction computes P - I, D of D(p, q, 1), the SVD of P - I and its
    corank, which decides every degenerate-chain verdict; the stationary vector is computed
    on first use.  All are kept on the instance.  Direct construction checks ``entries`` by
    the strategies' rule (:func:`model._stochastic`, rows summing to 1 within 1e-10) and
    keeps a read-only copy; a strategy pair's chain (:func:`transition_matrix`) holds the
    joint product itself, which its checked strategies already make stochastic.
    """

    dims: tuple
    entries: np.ndarray

    def __post_init__(self):
        n, m = self.dims
        entries = np.array(self.entries, dtype=float)  # a copy, clipped in place
        if entries.shape != (n * m, n * m):
            raise ValueError(f"expected {n * m}x{n * m} matrix, got {entries.shape}")
        _factor(self, _stochastic(entries, ROW_SUM_TOL))


def _factor(P, entries):
    """Set the chain ``P``'s ``entries`` (kept, not copied), P - I, D, the SVD and the corank.

    Each is read-only: copy it before writing.  D, the matrix of D(p, q, 1), is P - I
    with a last column of ones, which both LU solves read.  ``_corank`` counts the
    singular values of P - I that vanish; ``_stationary`` starts unset.
    """
    shifted = entries - _eye(len(entries))  # x - 0.0 is x: the bits of a diagonal -= 1
    D = shifted.copy()
    D[:, -1] = 1.0
    svd = tuple(map(_frozen, _lapack_svd(shifted)))
    sv = svd[1].tolist()
    # round-off in P - I is set by its unit diagonal, not by sv[0], hence the floor of 1
    tol = CORANK_RTOL * max(sv[0], 1.0)
    corank = len([s for s in sv if s <= tol])  # NaN compares false: never counted
    vars(P).update(entries=_frozen(entries), _shifted=_frozen(shifted), _D=_frozen(D),
                   _svd=svd, _corank=corank, _stationary=None)


@lru_cache(maxsize=None)  # one per chain size
def _eye(n):
    """The n x n identity, read-only; its last row is the stationary solve's right side."""
    return _frozen(np.eye(n))


def _linalg_errstate(message):
    """numpy.linalg's error state: LAPACK's failure flag raises LinAlgError(message)."""
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)
    return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")


# built once, at import, and set per call through the context variable np.errstate sets
_SVD_STATE, _SOLVE_STATE = map(_linalg_errstate, ["SVD did not converge", "Singular matrix"])


def _lapack_svd(a):
    """``np.linalg.svd(a)`` of a float matrix: the gufunc it calls, in its error state."""
    token = _extobj_contextvar.set(_SVD_STATE)
    try:
        return _umath_linalg.svd_f(a, signature="d->ddd")
    finally:
        _extobj_contextvar.reset(token)


def _lapack_solve(a, b):
    """``np.linalg.solve(a, b)`` for a vector ``b``, likewise; numpy's wrapper costs more."""
    token = _extobj_contextvar.set(_SOLVE_STATE)
    try:
        return _umath_linalg.solve1(a, b, signature="dd->d")
    finally:
        _extobj_contextvar.reset(token)


@dataclass(frozen=True, eq=False)
class StationaryDistribution:
    """The unique stationary vector v (v P = v, sum 1) of a corank-1 chain."""

    v: np.ndarray


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
    """Whether P - I has corank 1, with its cofactor row."""

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


@lru_cache(maxsize=1)  # the last pair queried keeps its chain
def transition_matrix(p, q):
    """The joint chain of alpha strategy ``p`` against beta ``q``.

    Strategies are immutable and hash by identity, so one pair's chain is checked, built
    and factorized once: the last pair queried keeps its chain, which every exact function
    on that pair shares, and a pair that fails the check raises and leaves it kept.  The
    chain skips the constructor's checks: rows in [0, 1] summing to 1 within PROB_TOL give
    products in [0, 1] whose rows sum to 1 within ROW_SUM_TOL.
    """
    _check_pair(p, q)
    P = object.__new__(TransitionMatrix)
    object.__setattr__(P, "dims", (p.n, p.m))
    _factor(P, _joint(p, q))
    return P


def _joint(p, q):
    """Unvalidated nm x nm product ``p.rows[s, k] * q.rows[s, l]``; new and C-ordered."""
    joint = np.multiply(p.rows[:, :, None], q.rows[:, None, :], order="C")
    return joint.reshape(p.n * p.m, -1)


def _null_left(P):
    # left null vector of P - I = its last left singular vector
    v = P._svd[0][:, -1]
    return -v if v.sum() < 0 else v


def stationary(P):
    """Solve v P = v, sum(v) = 1 for the unique stationary distribution.

    Replaces the last equation of (P - I)^T x = 0 with the normalization
    and solves the dense system directly; falls back, once, to the SVD null
    vector if that system is singular or its solution is not accepted.
    The result is kept on ``P``, so later calls on the same chain return
    it without solving again; a raised error is not kept.

    Raises
    ------
    NonUniqueStationary
        If P - I has more than one singular value at most 1e-10 times the
        largest or 1e-10, whichever is bigger, i.e. the chain has several
        closed classes, or a coupling under the 1e-10 floor, and the long-run
        outcome depends on the starting state.  A periodic chain with one
        closed class has a unique v and does not raise.
    InaccurateStationary
        If the fallback is not accepted either: the chain is too close to
        degenerate for double precision.
    """
    if P._stationary is None:  # a raised error is not kept
        if P._corank > 1:
            raise NonUniqueStationary(P._corank)
        try:  # solve1 copies D^T into its own buffer: the bits of a C-ordered copy
            v = _accepted(_lapack_solve(P._D.T, _eye(len(P._D))[-1]), P)
        except (np.linalg.LinAlgError, InaccurateStationary):
            v = _accepted(_null_left(P), P)
        object.__setattr__(P, "_stationary", StationaryDistribution(_frozen(v)))  # v is new
    return P._stationary


def _accepted(v, P):
    """``v`` clipped to >= 0 and normalized; InaccurateStationary if it is not stationary."""
    mass = v.tolist()  # Python's min and max skip a NaN that is not first, hence isnan
    lo = min(mass)
    if not lo >= -PROB_TOL or any(map(math.isnan, mass)):
        raise InaccurateStationary(
            f"stationary solve produced mass {float(v.min())!r} below -{PROB_TOL}"
        )
    if lo <= 0.0:  # the clip also turns -0.0 into 0.0
        v = np.clip(v, 0.0, None)
    v = v / np.add.reduce(v)
    residual = v.dot(P._shifted).tolist()
    if not max(map(abs, residual)) <= STATIONARY_RESIDUAL_TOL or any(map(math.isnan, residual)):
        raise InaccurateStationary("stationary residual above tolerance after fallback")
    return v


def cofactor_row(P):
    """Last row of Adj(P - I), from the chain's SVD of P - I.

    For a unique stationary distribution the row is a scaled copy of it of
    sign (-1)^(N-1): by the Markov chain tree theorem (Leighton & Rivest
    1986) Adj(I - P) >= 0, with a positive sum exactly then.  For corank > 1
    the adjugate vanishes: round-off of either sign, zeros for the identity.
    Its scale, all but the smallest singular value of P - I multiplied, can
    underflow to 0.0 on long slow-mixing chains whose v is unique.  It is
    the chain's SVD, which the LU solve for v never reads, so the row
    certifies :func:`stationary`'s v independently.
    """
    u, sv, vt = P._svd
    # corank-1 Adj(M) = +-prod(sv[:-1]) outer(V[:,-1], U[:,-1]), sign by the tree theorem
    w = float(vt[-1, -1])
    dot = w * float(np.add.reduce(u[:, -1]))
    sign = (-1.0) ** (len(sv) - 1) * ((dot > 0.0) - (dot < 0.0))
    scale = sign * float(np.multiply.reduce(sv[:-1]))
    return CofactorVector(_frozen(scale * w * u[:, -1]))


def zd_feasibility_condition(P):
    """Corank verdict for linear score relations, with the cofactor row.

    Linear score relations need D(p, q, 1), the cofactor row's sum, nonzero.
    ``holds`` is the chain's own corank test, the one :func:`stationary`
    reads: corank 1.  By the Markov chain tree theorem (Leighton & Rivest
    1986) the row of a corank-1 chain is then one-signed with a nonzero
    sum, though its value may underflow to 0.0.
    """
    return FeasibilityReport(P._corank == 1, cofactor_row(P))


def expected_scores(game, p, q):
    """Long-run average payoffs (v . omega) for both players."""
    _check_pair(p, q, game)
    return _scores(game, stationary(transition_matrix(p, q)).v)


def _scores(game, v):
    """Both players' average payoffs v . omega, as s * v . (omega / s): see ``_halved_payoffs``."""
    (wa, sa), (wb, sb) = game._halved_payoffs
    return ScorePair(float(v.dot(wa)) * sa, float(v.dot(wb)) * sb)
