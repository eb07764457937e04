"""Shared instance builders for the test suite.

Everything is driven by an explicit numpy Generator so test modules stay
reproducible; interior (Dirichlet) strategy rows keep the joint chain
strictly positive, hence ergodic with a unique stationary vector.
"""

import math

import numpy as np
from hypothesis import strategies as st

from zdgames import (
    ZDCoefficients,
    check_extortion_factor,
    extortion_factor_bounds,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
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
    vanish exactly and the corank verdict is decided at its threshold.
    """
    k = n if player == "alpha" else m
    rows = np.eye(k)[rng.integers(k, size=n * m)]
    mixed = rng.random(n * m) < mixed_share
    rows[mixed] = rng.dirichlet(np.ones(k), size=int(mixed.sum()))
    return make_strategy(player, rows, order="alpha-major")


def near_identity_rows(k, eps):
    """k x k rows that keep the move with probability 1 - eps, else switch uniformly."""
    return (1.0 - eps) * np.eye(k) + eps / (k - 1) * (1.0 - np.eye(k))


def lazy_walk(k, eps, seed=0):
    """k x k game with normal payoffs; each player switches with probability eps."""
    rng = np.random.default_rng(seed)
    game = make_game(rng.normal(size=(k, k)), rng.normal(size=(k, k)))
    rows = near_identity_rows(k, eps)
    p = make_strategy("alpha", np.repeat(rows, k, axis=0), order="alpha-major")
    q = make_strategy("beta", np.tile(rows, (k, 1)), order="alpha-major")
    return game, p, q


# a 3x3 pair from the near-pure generator (seed 12, draw 150) whose chain
# defeats double precision: P - I has one tiny singular value (2.5e-18, the
# next is 2.3e-8), so the chain passes as unique, yet the LU solve and the
# SVD fallback both leave about -1.2e-9 of stationary mass on one state
NEAR_DEGENERATE_3X3 = {
    "A": [[1.1003729768060178, 0.5716344400306443, -0.10127756762260326],
          [1.5841558877632465, -0.694719531802558, -0.22116575414363146],
          [-0.6057484912319621, -0.42182679525676403, -0.33992404588082936]],
    "B": [[-0.4240484493895286, 2.719216081972907, -0.5422286416732707],
          [0.30496654950028285, 0.22039011228242705, 0.40690655809256465],
          [-1.016537779802029, -0.43083438834090837, -0.24506240575650373]],
    "p": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
          [3.412054053382522e-07, 0.9999994154794759, 2.433151188113522e-07],
          [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
          [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
    "q": [[0.9999999677284904, 9.277309176882233e-09, 2.2994200443872113e-08],
          [0.9999999999998305, 7.217132411603277e-14, 9.740165969591988e-14],
          [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
          [1.919287639987022e-09, 2.4962426964505495e-09, 0.9999999955844696],
          [3.0944346342474145e-13, 0.9999999999991879, 5.027205079574469e-13],
          [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
}


def near_degenerate_3x3():
    """(game, p, q) of :data:`NEAR_DEGENERATE_3X3`."""
    case = NEAR_DEGENERATE_3X3
    return (
        make_game(case["A"], case["B"]),
        make_strategy("alpha", case["p"], order="alpha-major"),
        make_strategy("beta", case["q"], order="alpha-major"),
    )


def near_pure_rows(k, size):
    """Hypothesis strategy for ``size`` near-pure rows over ``k`` moves.

    Each row is a pure move e_j, or (1 - eps) * e_j + eps * w with
    eps = 10^x, x in [-14, -6], and w a point of the simplex: chains on the
    edge of reducibility, where the stationary solve loses its digits.
    """
    weights = st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)
    blur = st.none() | st.tuples(st.floats(-14.0, -6.0), weights)

    def row(args):
        j, noise = args
        r = np.zeros(k)
        r[j] = 1.0
        if noise is not None:
            eps = 10.0 ** noise[0]
            w = np.array(noise[1])
            r = (1.0 - eps) * r + eps * (w / w.sum())
        return r

    one = st.tuples(st.integers(0, k - 1), blur).map(row)
    return st.lists(one, min_size=size, max_size=size).map(np.array)


@st.composite
def near_pure_pairs(draw):
    """Hypothesis strategy for (game, p, q): normal payoffs, near-pure rows, 2x2..3x3."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    payoffs = st.floats(-3.0, 3.0)
    A = draw(st.lists(payoffs, min_size=n * m, max_size=n * m))
    B = draw(st.lists(payoffs, min_size=n * m, max_size=n * m))
    game = make_game(np.reshape(A, (n, m)), np.reshape(B, (m, n)))
    p = make_strategy("alpha", draw(near_pure_rows(n, n * m)), order="alpha-major")
    q = make_strategy("beta", draw(near_pure_rows(m, n * m)), order="alpha-major")
    return game, p, q


@st.composite
def seeded_pairs(draw, mixed_share=1.0, max_moves=3):
    """Hypothesis strategy for (game, p, q) built by the seeded helpers below.

    A drawn seed feeds :func:`rand_game` and :func:`rand_mixed_pure_strategy`
    (interior rows at ``mixed_share`` 1); each player has 2 to ``max_moves``
    moves.  Drawing a seed, not every entry, keeps an example cheap.
    """
    n, m = draw(st.integers(2, max_moves)), draw(st.integers(2, max_moves))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    game = rand_game(rng, n, m)
    p = rand_mixed_pure_strategy(rng, "alpha", n, m, mixed_share)
    q = rand_mixed_pure_strategy(rng, "beta", n, m, mixed_share)
    return game, p, q


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


def press_dyson_matrix(P):
    """P - I of the chain ``P`` after the paper's two unilateral column operations.

    Adds every column whose next alpha-move is alpha_1 into the column of
    state (alpha_1, beta_2), and every column whose next beta-move is beta_1
    into the column of (alpha_1, beta_1); both operations read the original
    columns, which is exactly the sequential elementary-operation result.
    Reference for the Press-Dyson lemma: the two columns become the players'
    unilateral columns, and neither D(p, q, f) nor its Cramer ratio moves.
    """
    M, m = P._shifted.copy(), P.dims[1]
    M[:, 0], M[:, 1] = M[:, 0::m].sum(axis=1), M[:, 0:m].sum(axis=1)
    return M


def n2_admissible(game, lam):
    """Closed-form admissibility of a finite factor on a symmetric 2x2 game.

    Reference for ``check_extortion_factor`` at n = 2: True iff
    a_12 - a_22 - lam*(a_21 - a_22) <= 0 and a_21 - a_22 - lam*(a_12 - a_22) >= 0,
    up to 1e-12 times the payoff spread, so the verdict ignores the payoff scale.
    """
    A = game.A
    first = (A[0, 1] - A[1, 1]) - lam * (A[1, 0] - A[1, 1])
    last = (A[1, 0] - A[1, 1]) - lam * (A[0, 1] - A[1, 1])
    tol = 1e-12 * np.ptp(A)
    return bool(first <= tol and last >= -tol)


def pin_oracle(game, pinner, target):
    """Reference pin of the opponent's score: (weight, p1), or None if there is none.

    The sign-block rule, restated from the payoff matrices.  With g the
    opponent's payoff less ``target`` and delta the pinner's own-move-1
    indicator, a positive weight needs (1 - 2*delta)*g >= 0 in every state and
    a negative one needs it <= 0, both up to 1e-12*max|g|.  The weight is the
    largest power of two <= min(16, 1/max|g|), signed, and p1 is
    delta + weight*g clipped to [0, 1].
    """
    n, m = game.n, game.m
    i, j = np.divmod(np.arange(n * m), m)  # state (i, j) at flat index i*m + j
    if pinner == "alpha":
        g, delta = np.asarray(game.B)[j, i] - target, (i == 0).astype(float)
    else:
        g, delta = np.asarray(game.A)[i, j] - target, (j == 0).astype(float)
    inward = np.where(delta == 1.0, -g, g)
    size = float(np.abs(g).max())
    if (inward >= -1e-12 * size).all():
        sign = 1.0
    elif (inward <= 1e-12 * size).all():
        sign = -1.0
    else:
        return None
    limit = min(16.0, 1.0 / size) if size else 16.0
    weight = 2.0 ** math.floor(math.log2(limit))
    while weight > limit:
        weight /= 2.0
    while 2.0 * weight <= limit:
        weight *= 2.0
    return sign * weight, np.clip(delta + sign * weight * g, 0.0, 1.0)


def rand_game(rng, n, m, low=-1.0, high=4.0):
    A = rng.uniform(low, high, size=(n, m))
    B = rng.uniform(low, high, size=(m, n))
    return make_game(A, B)


def rand_symmetric(rng, n, low=-1.0, high=4.0):
    return make_symmetric(rng.uniform(low, high, size=(n, n)))


def feasible_zd_instance(rng, n, m, margin=0.05, player="alpha"):
    """A random game plus coefficients whose ``player`` synthesis is strictly interior.

    The vector g = a*omega_alpha + b*omega_beta + c must be nonpositive on
    the states where the player's own move was 1 and nonnegative elsewhere;
    sampling (a, b) and solving the resulting interval for c, then shrinking
    everything into the probability box, produces such triples by
    construction.  Not every game admits one (the two point clouds need not
    be separable), so games are resampled alongside the coefficients: up to
    200 directions (a, b) per game, tried in one array operation.
    """
    own = own_move_one_indicator(player, n, m) == 1.0
    while True:
        game = rand_game(rng, n, m)
        wa, wb = payoff_vectors(game)
        state = rng.bit_generator.state
        ab = rng.normal(size=(200, 2))
        h = ab[:, :1] * wa + ab[:, 1:] * wb
        lo = -h[:, ~own].min(axis=1)
        hi = -h[:, own].max(axis=1)
        found = np.flatnonzero(hi - lo >= margin)
        if found.size:
            k = found[0]
            # rewind and redraw only directions 0..k, so that rng ends where a
            # one-direction-at-a-time search ends and later draws do not move
            rng.bit_generator.state = state
            rng.normal(size=(k + 1, 2))
            c0 = 0.5 * (lo[k] + hi[k])
            g = h[k] + c0
            t = 0.9 / max(1.0, np.abs(g).max())
            return game, ZDCoefficients(t * ab[k, 0], t * ab[k, 1], t * c0)


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


def assert_scaled_theta_max(full, small, k):
    """``full`` is ``small`` times 2^-k, to one step of the subnormal grid.

    At the float limit theta_max lies below 2^-1022, where floats are 2^-1074
    apart; the game's own theta_max is rounded once there, while its copy's,
    rounded at 53 bits, rounds again when it is multiplied by 2^-k.
    """
    scaled = math.ldexp(small, -k)
    assert full == scaled or abs(full - scaled) <= math.ulp(full) == 2.0**-1074
