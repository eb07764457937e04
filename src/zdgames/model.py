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

import numpy as np

PROB_TOL = 1e-12

FILL_RULES = ("uniform", "all-to-last", "all-to-second")

_PLAYERS = ("alpha", "beta")


def _check_player(player):
    if player not in _PLAYERS:
        raise ValueError(f"player must be 'alpha' or 'beta', got {player!r}")
    return player


def _readonly(a):
    a = np.array(a, dtype=float)
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


def state_order(n, m):
    """All nm states in flat order."""
    return [StateIndex.from_flat(s, n, m) for s in range(n * m)]


@dataclass(frozen=True, eq=False)
class BimatrixGame:
    """A two-player game in normal form.

    Attributes
    ----------
    n, m : int
        Number of strategies for alpha and beta; n >= 2.
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

    @property
    def is_symmetric(self):
        """True when both players face the identical payoff table."""
        return self.n == self.m and np.array_equal(self.A, self.B)

    def state(self, i, j):
        return StateIndex.from_pair(i, j, self.n, self.m)


def make_game(A, B):
    """Validate payoff tables and build a :class:`BimatrixGame`."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("payoff tables must be two-dimensional")
    n, m = A.shape
    if n < 2:
        raise ValueError(f"alpha needs at least 2 strategies, got n={n}")
    if m < 1:
        raise ValueError("beta needs at least 1 strategy")
    if B.shape != (m, n):
        raise ValueError(
            f"B must be {m}x{n} (beta's own perspective), got {B.shape[0]}x{B.shape[1]}"
        )
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ValueError("payoff entries must be finite")
    return BimatrixGame(n, m, _readonly(A), _readonly(B))


def make_symmetric(A):
    """Build the symmetric game in which beta faces alpha's table.

    Beta's payoff at (alpha_i, beta_j) is ``A[j-1, i-1]``: the table read
    from beta's seat.  Stored as B == A under the B-orientation convention.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("symmetric games need a square payoff table")
    return make_game(A, A)


def chicken_family(r):
    """The one-parameter Chicken/Snowdrift/Hawk-Dove family.

    ``A = [[1, 1 - r], [1 + r, 0]]`` with profit-and-loss ratio r > 0.
    """
    if r <= 0:
        raise ValueError(f"profit and loss ratio must be positive, got {r}")
    return make_symmetric([[1.0, 1.0 - r], [1.0 + r, 0.0]])


@dataclass(frozen=True, eq=False)
class PayoffVector:
    """A player's payoffs flattened over the nm joint states."""

    entries: np.ndarray
    owner: str


def flatten_payoffs(game, owner):
    """Flatten one player's payoffs into alpha-major state order.

    For alpha this is ``A`` raveled; for beta the entry at state (i, j) is
    ``B[j-1, i-1]``, i.e. B transposed and then raveled.
    """
    _check_player(owner)
    grid = game.A if owner == "alpha" else game.B.T
    return PayoffVector(_readonly(grid.ravel()), owner)


def _payoff_vectors(game):
    """(omega_alpha, omega_beta): both players' flattened payoff entries."""
    return flatten_payoffs(game, "alpha").entries, flatten_payoffs(game, "beta").entries


@dataclass(frozen=True, eq=False)
class MemoryOneStrategy:
    """A strategy whose move distribution depends only on the last outcome.

    ``rows[s]`` is the distribution over the player's K moves conditional on
    the previous joint state with flat index s (alpha-major for both
    players); K = n for alpha, m for beta.
    """

    player: str
    n: int
    m: int
    rows: np.ndarray

    @property
    def moves(self):
        """Number of own moves K."""
        return self.n if self.player == "alpha" else self.m

    def first_component(self):
        """Probability of playing own strategy 1, per state."""
        return self.rows[:, 0].copy()


def _infer_dims(player, n_rows, k):
    if n_rows % k != 0:
        raise ValueError(f"{n_rows} rows not divisible by {k} columns")
    other = n_rows // k
    n, m = (k, other) if player == "alpha" else (other, k)
    if n < 2:
        raise ValueError(f"inferred n={n}; alpha needs at least 2 strategies")
    if m < 1:
        raise ValueError("inferred m=0")
    return n, m


def make_strategy(player, rows, order="native", renormalize=False):
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
    renormalize : bool
        Rescale each row to sum to 1 instead of rejecting row-sum drift.
    """
    _check_player(player)
    if order not in ("native", "alpha-major"):
        raise ValueError(f"unknown row order {order!r}")
    rows = np.array(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-d array")
    n_rows, k = rows.shape
    n, m = _infer_dims(player, n_rows, k)
    if not np.isfinite(rows).all():
        raise ValueError("probabilities must be finite")
    if (rows < -PROB_TOL).any():
        raise ValueError("negative probability entry")
    if (rows > 1.0 + PROB_TOL).any():
        raise ValueError("probability entry exceeds 1")
    sums = rows.sum(axis=1)
    if renormalize:
        if (sums <= 0).any():
            raise ValueError("cannot renormalize a zero row")
        rows = rows / sums[:, None]
    elif (np.abs(sums - 1.0) > PROB_TOL).any():
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"row {worst} sums to {sums[worst]!r}, expected 1")
    if player == "beta" and order == "native":
        # (beta_j, alpha_i)-major -> alpha-major is the block transpose
        rows = rows.reshape(m, n, k).transpose(1, 0, 2).reshape(n_rows, k)
    rows = np.clip(rows, 0.0, 1.0)
    return MemoryOneStrategy(player, n, m, _readonly(rows))


@dataclass(frozen=True, eq=False)
class UnilateralColumn:
    """The transition-matrix column one player fully controls.

    For alpha the entry at state (i, j) is ``p1 - delta_{i,1}``; for beta it
    is ``q1 - delta_{j,1}``, both in alpha-major order.
    """

    entries: np.ndarray
    owner: str


def own_move_one_indicator(player, n, m):
    """Indicator vector of states where the player's own move was 1."""
    _check_player(player)
    ind = np.zeros(n * m)
    if player == "alpha":
        ind[:m] = 1.0
    else:
        ind[::m] = 1.0
    return ind


def unilateral_column(strategy):
    """First component minus the own-move-1 indicator."""
    delta = own_move_one_indicator(strategy.player, strategy.n, strategy.m)
    return UnilateralColumn(_readonly(strategy.rows[:, 0] - delta), strategy.player)


def complete_from_first_component(player, p1, n, m, fill_rule="uniform"):
    """Extend first-component probabilities to a full strategy.

    The remaining mass ``1 - p1[s]`` in each row is distributed over moves
    2..K by ``fill_rule``: spread evenly ("uniform"), placed on the last
    move ("all-to-last"), or on move 2 ("all-to-second").  The rules
    coincide when K = 2.
    """
    _check_player(player)
    if fill_rule not in FILL_RULES:
        raise ValueError(f"unknown fill rule {fill_rule!r}; choose from {FILL_RULES}")
    p1 = np.asarray(p1, dtype=float)
    if p1.shape != (n * m,):
        raise ValueError(f"expected {n * m} first components, got shape {p1.shape}")
    if (p1 < -PROB_TOL).any() or (p1 > 1.0 + PROB_TOL).any():
        bad = int(np.argmax(np.clip(-p1, 0, None) + np.clip(p1 - 1.0, 0, None)))
        raise ValueError(f"first component at state {bad} is {p1[bad]!r}, outside [0, 1]")
    p1 = np.clip(p1, 0.0, 1.0)
    k = n if player == "alpha" else m
    if k == 1:
        if (1.0 - p1 > PROB_TOL).any():
            raise ValueError("single-move player cannot absorb leftover mass")
        rows = np.ones((n * m, 1))
    else:
        rows = np.zeros((n * m, k))
        rows[:, 0] = p1
        rest = 1.0 - p1
        if fill_rule == "uniform":
            rows[:, 1:] = rest[:, None] / (k - 1)
        elif fill_rule == "all-to-last":
            rows[:, -1] = rest
        else:
            rows[:, 1] = rest
    return make_strategy(player, rows, order="alpha-major")
