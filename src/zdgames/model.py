"""Bimatrix games, joint-state indexing, and memory-one strategies.

Conventions used throughout the package:

* Joint outcomes of one round are indexed alpha-major: the flat position of
  outcome (alpha_i, beta_j) is ``s(i, j) = (i - 1) * m + (j - 1)`` with
  1-based move indices, so the order is (1,1), (1,2), ..., (1,m), (2,1), ...
* ``A`` is alpha's n x m payoff table, ``A[i-1][j-1]`` the payoff when alpha
  plays i and beta plays j.  ``B`` is beta's m x n table written from beta's
  own perspective: ``B[j-1][i-1]`` is beta's payoff at the same outcome.  In
  a symmetric game both players face the same table, so ``B`` equals ``A``
  entrywise.
* Beta's memory-one strategy is natively conditioned on (own move, opponent
  move) = (beta_j, alpha_i); it is stored reindexed into the alpha-major
  state order so that all length-nm vectors in the package share one index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12

FILL_RULES = ("uniform", "all-to-last", "all-to-second")

_PLAYERS = ("alpha", "beta")


def _in_box(x):
    """The box test: which entries lie in [0, 1] up to PROB_TOL (NaN does not)."""
    return (x >= -PROB_TOL) & (x <= 1.0 + PROB_TOL)


def _check_player(player):
    if player not in _PLAYERS:
        raise ValueError(f"player must be 'alpha' or 'beta', got {player!r}")
    return player


def _check_moves(n, m):
    if n < 2 or m < 2:
        raise ValueError(f"each player needs at least 2 strategies, got n={n}, m={m}")


def _frozen(a):
    """``a`` itself, made read-only: for an array or view the caller just made."""
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StateIndex:
    """One joint outcome (alpha's move ``i``, beta's move ``j``).

    ``i`` runs over 1..n, ``j`` over 1..m, and ``flat`` is the zero-based
    alpha-major position ``(i - 1) * m + (j - 1)``.
    """

    i: int
    j: int
    flat: int

    @classmethod
    def from_pair(cls, i, j, n, m):
        if not (1 <= i <= n and 1 <= j <= m):
            raise ValueError(f"state ({i}, {j}) outside 1..{n} x 1..{m}")
        return cls(i, j, (i - 1) * m + (j - 1))

    @classmethod
    def from_flat(cls, flat, n, m):
        if not 0 <= flat < n * m:
            raise ValueError(f"flat index {flat} outside [0, {n * m})")
        return cls(flat // m + 1, flat % m + 1, flat)


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """A two-player game in normal form.

    Attributes
    ----------
    n, m : int
        Number of strategies for alpha and beta; n >= 2 and m >= 2.
    A : ndarray, shape (n, m)
        Alpha's payoffs, ``A[i-1, j-1]`` at outcome (alpha_i, beta_j).
    B : ndarray, shape (m, n)
        Beta's payoffs from beta's perspective, ``B[j-1, i-1]`` at the
        same outcome.
    """

    n: int
    m: int
    A: np.ndarray
    B: np.ndarray

    @cached_property
    def is_symmetric(self):
        """True when both players face the identical payoff table."""
        return self.n == self.m and np.array_equal(self.A, self.B)

    @cached_property
    def _payoffs(self):
        """:func:`payoff_vectors`' pair, kept read-only on the game."""
        return _frozen(self.A.ravel()), _frozen(self.B.T.ravel())

    @cached_property
    def _halved_payoffs(self):
        """Each of :func:`payoff_vectors`' pair as (omega / s, s), s the game's payoff scale.

        s = 2 if max|omega| >= 2^1023, where a difference or a running sum can overflow
        though its result does not, else 1; halving is exact but on subnormals.
        """
        return tuple((_frozen(f / 2.0), 2.0) if float(np.abs(f).max()) >= 2.0**1023 else (f, 1.0)
                     for f in self._payoffs)


def make_game(A, B):
    """Validate payoff tables and build a :class:`BimatrixGame`."""
    A = np.array(A, dtype=float)  # copies, kept read-only
    B = np.array(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("payoff tables must be two-dimensional")
    n, m = A.shape
    _check_moves(n, m)
    if B.shape != (m, n):
        raise ValueError(
            f"B must be {m}x{n} (beta's own perspective), got {B.shape[0]}x{B.shape[1]}"
        )
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("payoff entries must be finite")
    return BimatrixGame(n, m, _frozen(A), _frozen(B))


def make_symmetric(A):
    """Build the symmetric game in which beta faces alpha's table.

    Beta's payoff at (alpha_i, beta_j) is ``A[j-1, i-1]``: the table read
    from beta's seat.  Stored as B == A under the B-orientation convention.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("symmetric games need a square payoff table")
    return make_game(A, A)


def _check_ratio(r):
    if not 0.0 < r < np.inf:  # NaN fails it too
        raise ValueError(f"profit and loss ratio must be finite and positive, got {r}")


def chicken_family(r):
    """The one-parameter Chicken/Snowdrift/Hawk-Dove family.

    ``A = [[1, 1 - r], [1 + r, 0]]`` with a finite profit-and-loss ratio r > 0.
    """
    _check_ratio(r)
    return make_symmetric([[1.0, 1.0 - r], [1.0 + r, 0.0]])


def payoff_vectors(game):
    """(omega_alpha, omega_beta): both players' payoffs over the nm states, alpha-major.

    ``A`` raveled, and ``B`` transposed and then raveled: beta's payoff at
    state (i, j), ``B[j-1, i-1]``, sits at the flat index of (i, j).  Both
    arrays are read-only and computed once per game.
    """
    return game._payoffs


@dataclass(frozen=True, eq=False)
class MemoryOneStrategy:
    """A strategy whose move distribution depends only on the last outcome.

    ``rows[s]`` is the distribution over the player's K moves conditional on
    the previous joint state with flat index s (alpha-major for both
    players); K = n for alpha, m for beta.  Build one with
    :func:`make_strategy`, :func:`complete_from_first_component`,
    ``SynthesisResult.complete`` or ``load_strategy``: the bare dataclass
    does not validate, and the exact and simulation paths trust its rows.
    """

    player: str
    n: int
    m: int
    rows: np.ndarray


def _infer_dims(player, n_rows, k):
    if k == 0 or n_rows % k != 0:
        raise ValueError(f"{n_rows} rows not divisible by {k} columns")
    other = n_rows // k
    n, m = (k, other) if player == "alpha" else (other, k)
    _check_moves(n, m)
    return n, m


def make_strategy(player, rows, order="native"):
    """Validate conditional-probability rows and build a strategy.

    Parameters
    ----------
    player : "alpha" or "beta"
    rows : array-like, shape (nm, K)
        One distribution per previous joint state.
    order : "native" or "alpha-major"
        "native" means the player's own conditioning order: alpha-major for
        alpha, (beta_j, alpha_i)-major for beta (the order beta would write
        down herself).  Beta-native input is reindexed on construction.
        "alpha-major" accepts rows already in canonical state order.
    """
    _check_player(player)
    if order not in ("native", "alpha-major"):
        raise ValueError(f"unknown row order {order!r}")
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-d array")
    n_rows, k = rows.shape
    n, m = _infer_dims(player, n_rows, k)
    _stochastic(rows, PROB_TOL)  # rows is a copy of the input
    if player == "beta" and order == "native":
        # (beta_j, alpha_i)-major -> alpha-major is the block transpose
        rows = rows.reshape(m, n, k).transpose(1, 0, 2).reshape(n_rows, k)
    return MemoryOneStrategy(player, n, m, _frozen(rows))


def _stochastic(rows, row_tol):
    """``rows``, a new float array, checked as distributions and clipped into [0, 1] in place.

    ValueError unless every entry passes the box test, :func:`_in_box`, and every row
    sums to 1 within ``row_tol``; it names the first row with an entry outside the box,
    else the row whose sum is farthest from 1.  Only a table with an entry < 0 or > 1
    is clipped: np.clip leaves every other entry, -0.0 too, as it is.
    """
    lo, hi = float(rows.min()), float(rows.max())
    if not (_in_box(lo) and _in_box(hi)):  # NaN fails it too
        if not (np.isfinite(lo) and np.isfinite(hi)):  # a NaN or an infinity
            what, bad = "probabilities must be finite and in [0, 1]", ~np.isfinite(rows)
        elif lo < -PROB_TOL:
            what, bad = "negative probability entry", rows < -PROB_TOL
        else:
            what, bad = "probability entry exceeds 1", rows > 1.0 + PROB_TOL
        raise ValueError(f"row {int(bad.any(axis=1).argmax())}: {what}")
    sums = rows.sum(axis=1)
    worst = int(np.abs(sums - 1.0).argmax())
    if abs(float(sums[worst]) - 1.0) > row_tol:
        raise ValueError(f"row {worst} sums to {float(sums[worst])!r}, expected 1")
    if lo < 0.0 or hi > 1.0:
        np.clip(rows, 0.0, 1.0, out=rows)
    return rows


def own_move_one_indicator(player, n, m):
    """Indicator vector of states where the player's own move was 1."""
    _check_player(player)
    ind = np.zeros(n * m)
    if player == "alpha":
        ind[:m] = 1.0
    else:
        ind[::m] = 1.0
    return ind


def complete_from_first_component(player, p1, n, m, fill_rule="uniform"):
    """Extend first-component probabilities to a full strategy.

    The remaining mass ``1 - p1[s]`` in each row is distributed over moves
    2..K by ``fill_rule``: spread evenly ("uniform"), placed on the last
    move ("all-to-last"), or on move 2 ("all-to-second").  The rules
    coincide when K = 2.  ``p1`` is checked once, against [0, 1] up to
    1e-12, and clipped; the rows built from it are stochastic by
    construction and are not validated again.
    """
    _check_player(player)
    _check_moves(n, m)
    p1 = np.asarray(p1, dtype=float)
    if p1.shape != (n * m,):
        raise ValueError(f"expected {n * m} first components, got shape {p1.shape}")
    if not _in_box(p1).all():
        bad = int(np.argmax(np.clip(-p1, 0, None) + np.clip(p1 - 1.0, 0, None)))
        raise ValueError(
            f"first component at state {bad} is {float(p1[bad])!r}, outside [0, 1]"
        )
    return _completed(player, np.clip(p1, 0.0, 1.0), n, m, fill_rule)


def _completed(player, p1, n, m, fill_rule):
    """The strategy whose first components are ``p1``, already inside [0, 1]."""
    if fill_rule not in FILL_RULES:
        raise ValueError(f"unknown fill rule {fill_rule!r}; choose from {FILL_RULES}")
    k = n if player == "alpha" else m
    rows = np.zeros((n * m, k))
    rows[:, 0] = p1
    rest = 1.0 - p1
    if fill_rule == "uniform":
        rows[:, 1:] = rest[:, None] / (k - 1)
    elif fill_rule == "all-to-last":
        rows[:, -1] = rest
    else:
        rows[:, 1] = rest
    return MemoryOneStrategy(player, n, m, _frozen(rows))
