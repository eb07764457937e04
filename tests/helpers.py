"""Shared instance builders for the test suite.

Everything is driven by an explicit numpy Generator so test modules stay
reproducible; interior (Dirichlet) strategy rows keep the joint chain
strictly positive, hence ergodic with a unique stationary vector.
"""

import numpy as np
from hypothesis import strategies as st

from zdgames import (
    ZDCoefficients,
    check_extortion_factor,
    extortion_factor_bounds,
    flatten_payoffs,
    make_game,
    make_strategy,
    make_symmetric,
    theta_max,
)


# payoff rescalings and shifts under which feasibility verdicts must not move
SCALES = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
SHIFTS = st.floats(-100.0, 100.0)


def payoff_grid(n, m):
    """Hypothesis strategy for an n x m matrix of small integer payoffs.

    Integer payoffs make exact ties (brackets and pin offsets that vanish)
    common, which is where a scale-dependent tolerance would show.
    """
    cells = st.lists(st.integers(-5, 5), min_size=n * m, max_size=n * m)
    return cells.map(lambda xs: np.array(xs, dtype=float).reshape(n, m))


def rand_strategy(rng, player, n, m):
    k = n if player == "alpha" else m
    rows = rng.dirichlet(np.ones(k), size=n * m)
    return make_strategy(player, rows, order="alpha-major")


def rand_mixed_pure_strategy(rng, player, n, m, mixed_share):
    """Pure rows, each replaced by an interior one with probability ``mixed_share``.

    Pure rows make absorbing and reducible chains common, where cofactors
    vanish exactly and the one-signedness verdict is decided at the tolerance.
    """
    k = n if player == "alpha" else m
    rows = np.eye(k)[rng.integers(k, size=n * m)]
    mixed = rng.random(n * m) < mixed_share
    rows[mixed] = rng.dirichlet(np.ones(k), size=int(mixed.sum()))
    return make_strategy(player, rows, order="alpha-major")


def adjugate_last_row_minors(M):
    """Last row of Adj(M) from explicit signed minors, the textbook definition.

    Reference for the SVD adjugate in ``cofactor_row``: entry r is
    (-1)^(r + N - 1) times the determinant of M without row r and column N - 1.
    """
    size = M.shape[0]
    c = np.empty(size)
    for r in range(size):
        minor = np.delete(np.delete(M, r, axis=0), size - 1, axis=1)
        c[r] = (-1.0) ** (r + size - 1) * np.linalg.det(minor)
    return c


def rand_game(rng, n, m, low=-1.0, high=4.0):
    A = rng.uniform(low, high, size=(n, m))
    B = rng.uniform(low, high, size=(m, n))
    return make_game(A, B)


def rand_symmetric(rng, n, low=-1.0, high=4.0):
    return make_symmetric(rng.uniform(low, high, size=(n, n)))


def feasible_zd_instance(rng, n, m, margin=0.05):
    """A random game plus coefficients whose alpha synthesis is strictly interior.

    The vector g = a*omega_alpha + b*omega_beta + c must be nonpositive on
    first-row states and nonnegative elsewhere; sampling (a, b) and solving
    the resulting interval for c, then shrinking everything into the
    probability box, produces such triples by construction.  Not every game
    admits one (the two point clouds need not be separable), so games are
    resampled alongside the coefficients.
    """
    while True:
        game = rand_game(rng, n, m)
        wa = flatten_payoffs(game, "alpha").entries
        wb = flatten_payoffs(game, "beta").entries
        for _ in range(200):
            a0, b0 = rng.normal(size=2)
            h = a0 * wa + b0 * wb
            lo = -h[m:].min()
            hi = -h[:m].max()
            if hi - lo < margin:
                continue
            c0 = 0.5 * (lo + hi)
            g = h + c0
            t = 0.9 / max(1.0, np.abs(g).max())
            return game, ZDCoefficients(t * a0, t * b0, t * c0)


def extortable_symmetric_3x3(rng):
    """A symmetric 3x3 game with an admissible factor window above 1.

    Sorts the diagonal (a_11 >= a_33 >= a_22) and makes the lower triangle
    dominate so every condition holds at lam = 1, then rejects draws whose
    window does not extend past 1.  Returns (game, lam, theta) with theta
    safely below theta_max.
    """
    while True:
        A = rng.uniform(0.0, 5.0, size=(3, 3))
        diag = np.sort(rng.uniform(0.0, 5.0, size=3))
        A[0, 0], A[2, 2], A[1, 1] = diag[2], diag[1], diag[0]
        for i in range(3):
            for j in range(i):
                hi, lo = max(A[i, j], A[j, i]), min(A[i, j], A[j, i])
                A[i, j], A[j, i] = hi, lo
        game = make_symmetric(A)
        bounds = extortion_factor_bounds(game)
        if not bounds.feasible or bounds.lambda_max <= 1.0 + 1e-6:
            continue
        if np.isinf(bounds.lambda_max):
            lam = 2.0
        else:
            lam = 1.0 + 0.5 * (bounds.lambda_max - 1.0)
        if not check_extortion_factor(game, lam).ok:
            continue
        limit = theta_max(game, lam)
        if limit <= 1e-6:
            continue
        return game, lam, 0.5 * min(1.0, limit)
