"""The float chain against the exact rational oracle in ``exact.py``.

Instances are rational: integer payoffs 0..5 and strategy rows whose
entries are multiples of 1/8, so P is exact in floating point too.  Rows
may hold zeros, so some chains have several closed classes.

- D(p, q, f) / D(p, q, 1) = v . f holds exactly, in ``Fraction``, and
  D(p, q, 1) is nonzero of sign (-1)^(N-1) (the Markov chain tree theorem).
- ``cofactor_row``'s c lies within FLOAT_TOL * |D(p, q, 1)| of D(p, q, 1) v,
  since c . f = D(p, q, f).
- ``stationary`` and ``score_combination`` (scaled by max|f|) lie within
  FLOAT_TOL of the exact values.
- A strategy synthesized as delta + t*g, with g = a*omega_alpha +
  b*omega_beta + c, enforces a*pi_alpha + b*pi_beta + c = 0 exactly against
  every opponent, for either player and for the pin; the float synthesis
  gives the same first components.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import exact
from zdgames import (
    ZDCoefficients,
    cofactor_row,
    make_game,
    make_strategy,
    own_move_one_indicator,
    payoff_vectors,
    pin_opponent_score,
    score_combination,
    stationary,
    synthesize_zd_alpha,
    synthesize_zd_beta,
    transition_matrix,
)

# fixed before the first run; on the 20 draws per size the worst observed were
# 2.0e-16 for v and 1.8e-16 * max|f| for the combination, both on 4x4, and
# 1.7e-15 * |D(p, q, 1)| for the cofactor row, on 3x3
FLOAT_TOL = 1024 * np.finfo(float).eps


def eighths(k):
    """Distributions over k moves with every entry a multiple of 1/8."""
    return st.sampled_from([
        [Fraction(b - a, 8) for a, b in zip([0, *cuts], [*cuts, 8])]
        for cuts in itertools.combinations_with_replacement(range(9), k - 1)
    ])


@st.composite
def rational_instances(draw, n):
    payoffs = st.lists(st.lists(st.integers(0, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n)
    A, B = draw(payoffs), draw(payoffs)
    p_rows, q_rows = (draw(st.lists(eighths(n), min_size=n * n, max_size=n * n))
                      for _ in range(2))
    coeffs = draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any))
    return A, B, p_rows, q_rows, coeffs


@pytest.mark.parametrize("n", [2, 3, 4], ids=["2x2", "3x3", "4x4"])
@settings(max_examples=20)
@given(data=st.data())
def test_float_chain_agrees_with_exact(n, data):
    A, B, p_rows, q_rows, (a, b, c) = data.draw(rational_instances(n))
    game = make_game(A, B)
    p = make_strategy("alpha", p_rows, order="alpha-major")
    q = make_strategy("beta", q_rows, order="alpha-major")

    P = exact.transition_matrix(p_rows, q_rows)
    assert np.array_equal(transition_matrix(p, q).entries, np.array(P, dtype=float))
    v = exact.stationary(P)
    assume(v is not None)  # one draw in hundreds has several closed classes
    omega_alpha, omega_beta = payoff_vectors(game)
    f = [int(x) for x in a * omega_alpha + b * omega_beta + c]  # integers, so exact
    vf = sum(x * y for x, y in zip(v, f))
    D1 = exact.press_dyson_determinant(P, [1] * len(f))
    assert D1 != 0 and (D1 > 0) == (len(f) % 2 == 1)  # sign (-1)^(N-1)
    assert exact.press_dyson_determinant(P, f) / D1 == vf

    row = cofactor_row(transition_matrix(p, q)).c
    assert np.abs(row - np.array([D1 * x for x in v], dtype=float)).max() <= FLOAT_TOL * abs(D1)
    float_v = stationary(transition_matrix(p, q)).v
    assert np.abs(float_v - np.array(v, dtype=float)).max() <= FLOAT_TOL
    combination = score_combination(game, p, q, ZDCoefficients(a, b, c))
    assert abs(combination - float(vf)) <= FLOAT_TOL * max(abs(x) for x in f)


DYADIC = st.sampled_from([Fraction(k, 2) for k in (-4, -2, -1, 1, 2, 4)])


@st.composite
def synthesis_instances(draw, n, player, kind):
    """A rational game on which ``player``'s ``kind`` ("zd" or "pin") synthesis is feasible.

    The synthesis follows h = a*omega_alpha + b*omega_beta, drawn as sign * base:
    base is an integer in 0..3 where ``player`` last moved 1 and in 3..6
    elsewhere, so its midpoint ``mid`` separates the two.  The pin takes the
    opponent's payoffs as h, so (a, b) is (0, 1) or (1, 0), and the target
    sign * mid; zd takes a, b in DYADIC.  Either relation is
    a*pi_alpha + b*pi_beta - sign * mid = 0.
    Returns (omega_alpha, omega_beta), (a, b, sign, mid) and the opponent's rows
    in eighths.
    """
    delta = own_move_one_indicator(player, n, n).tolist()
    base = [draw(st.integers(0, 3)) if d else draw(st.integers(3, 6)) for d in delta]
    mid = Fraction(max(x for x, d in zip(base, delta) if d)
                   + min(x for x, d in zip(base, delta) if not d), 2)
    sign = draw(st.sampled_from([1, -1]))
    h = [sign * x for x in base]
    free = draw(st.lists(st.integers(0, 5), min_size=n * n, max_size=n * n))
    if kind == "pin":
        a, b = (0, 1) if player == "alpha" else (1, 0)
        omega = (free, h) if player == "alpha" else (h, free)
    else:
        a, b = draw(DYADIC), draw(DYADIC)
        omega = ([(x - b * y) / a for x, y in zip(h, free)], free)
    opponent = draw(st.lists(eighths(n), min_size=n * n, max_size=n * n))
    return omega, (a, b, sign, mid), opponent


@pytest.mark.parametrize("kind", ["zd", "pin"])
@pytest.mark.parametrize("player", ["alpha", "beta"])
@pytest.mark.parametrize("n", [2, 3], ids=["2x2", "3x3"])
@settings(max_examples=10)
@given(data=st.data())
def test_synthesized_strategy_enforces_its_relation_exactly(n, player, kind, data):
    omega, (a, b, sign, mid), opponent = data.draw(synthesis_instances(n, player, kind))
    A = [[float(omega[0][i * n + j]) for j in range(n)] for i in range(n)]
    B = [[float(omega[1][i * n + j]) for i in range(n)] for j in range(n)]  # beta's own view
    game = make_game(A, B)
    c = -sign * mid
    if kind == "pin":  # the library picks the weight t
        result, coeffs = pin_opponent_score(game, player, float(sign * mid))
        t = Fraction(coeffs.a + coeffs.b)
        assert (coeffs.a, coeffs.b, coeffs.c) == tuple(float(t * x) for x in (a, b, c))
    else:  # t = sign/8 keeps delta + t*g inside [0, 1], since |base - mid| <= 6
        t = Fraction(sign, 8)
        synthesize = synthesize_zd_alpha if player == "alpha" else synthesize_zd_beta
        result = synthesize(game, ZDCoefficients(*(float(t * x) for x in (a, b, c))))
    g = [a * x + b * y + c for x, y in zip(*omega)]
    rows = exact.synthesized(own_move_one_indicator(player, n, n).tolist(), g, t, n)
    assert result.feasible and [row[0] for row in rows] == result.p1.tolist()
    p_rows, q_rows = (rows, opponent) if player == "alpha" else (opponent, rows)
    v = exact.stationary(exact.transition_matrix(p_rows, q_rows))
    assume(v is not None)  # several closed classes: no unique scores
    pi_alpha, pi_beta = (sum(x * y for x, y in zip(v, w)) for w in omega)
    assert a * pi_alpha + b * pi_beta + c == 0
