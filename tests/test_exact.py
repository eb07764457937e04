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
    payoff_vectors,
    score_combination,
    stationary,
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
