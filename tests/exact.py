"""Exact rational counterparts of the chain quantities, for checking the floats.

Stdlib ``fractions`` only.  Inputs are nested lists of numbers that
``Fraction`` takes exactly (integers, fractions, dyadic floats); states are
alpha-major, as in ``zdgames``.

- ``transition_matrix(p_rows, q_rows)`` is P, with P[s][i*m + j] = p[s][i]*q[s][j].
- ``stationary(P)`` is the exact v: Gaussian elimination on D(p, q, 1)^T, which
  is (P - I)^T with its last row set to ones, against the last unit vector.
  None when D(p, q, 1) = 0, i.e. the chain has several closed classes.
- ``press_dyson_determinant(P, f)`` is D(p, q, f), the determinant of P - I
  with its last column set to f, by rational elimination.
- ``synthesized(delta, g, t, k)`` is the strategy whose first components are
  delta + t*g, its other k - 1 moves sharing the rest evenly, as rows.
"""

from fractions import Fraction


def transition_matrix(p_rows, q_rows):
    return [
        [Fraction(x) * Fraction(y) for x in p_row for y in q_row]
        for p_row, q_row in zip(p_rows, q_rows)
    ]


def _last_column_set(P, f):
    """P - I with its last column replaced by f."""
    return [
        [x - (s == t) for t, x in enumerate(row[:-1])] + [Fraction(f[s])]
        for s, row in enumerate(P)
    ]


def _eliminate(M):
    """Forward-eliminate M (a list of rows, changed in place) over its first len(M) columns.

    Returns the determinant of that square block; when it is nonzero, M ends
    upper triangular there, ready for back substitution.
    """
    size = len(M)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        lead = M[col][col]
        det *= lead
        for r in range(col + 1, size):
            if M[r][col] != 0:
                factor = M[r][col] / lead
                M[r][col:] = [x - factor * y for x, y in zip(M[r][col:], M[col][col:])]
    return det


def press_dyson_determinant(P, f):
    return _eliminate(_last_column_set(P, f))


def stationary(P):
    size = len(P)
    D = _last_column_set(P, [1] * size)
    # D^T augmented with the last unit vector: v D = (0, ..., 0, 1)
    M = [[D[s][t] for s in range(size)] + [Fraction(t == size - 1)] for t in range(size)]
    if _eliminate(M) == 0:
        return None
    v = [Fraction(0)] * size
    for t in reversed(range(size)):
        v[t] = (M[t][-1] - sum(M[t][u] * v[u] for u in range(t + 1, size))) / M[t][t]
    return v


def synthesized(delta, g, t, k):
    rows = []
    for d, x in zip(delta, g):
        first = Fraction(d) + Fraction(t) * Fraction(x)
        rows.append([first] + [(1 - first) / (k - 1)] * (k - 1))
    return rows
