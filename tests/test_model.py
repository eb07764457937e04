import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    FILL_RULES,
    SchemaError,
    StateIndex,
    TransitionMatrix,
    chicken_family,
    complete_from_first_component,
    load_game,
    make_game,
    make_strategy,
    make_symmetric,
    own_move_one_indicator,
    payoff_vectors,
)
from zdgames.model import _in_box


class TestStateIndex:
    def test_alpha_major_order(self):
        states = [StateIndex.from_flat(k, 2, 3) for k in range(6)]
        order = [(s.i, s.j) for s in states]
        assert order == [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]

    def test_flat_formula(self):
        assert StateIndex.from_pair(2, 3, 2, 3).flat == 5
        assert StateIndex.from_pair(1, 1, 4, 4).flat == 0

    @given(
        st.integers(2, 6),
        st.integers(1, 6),
        st.data(),
    )
    def test_bijection(self, n, m, data):
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, m))
        s = StateIndex.from_pair(i, j, n, m)
        back = StateIndex.from_flat(s.flat, n, m)
        assert (back.i, back.j, back.flat) == (i, j, s.flat)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            StateIndex.from_pair(3, 1, 2, 2)
        with pytest.raises(ValueError):
            StateIndex.from_pair(0, 1, 2, 2)
        with pytest.raises(ValueError):
            StateIndex.from_flat(4, 2, 2)


class TestMakeGame:
    def test_chicken_matrix_is_valid(self):
        A = [[1.0, 0.5], [1.5, 0.0]]
        game = make_game(A, np.transpose(A))
        assert (game.n, game.m) == (2, 2)

    def test_random_asymmetric(self, rng):
        game = make_game(rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
        assert not game.is_symmetric

    def test_single_strategy_alpha_rejected(self):
        with pytest.raises(ValueError):
            make_game(np.zeros((1, 1)), np.zeros((1, 1)))

    def test_single_move_beta_rejected(self, tmp_path):
        # beta needs a move 2 for the leftover mass 1 - q1 and for D's beta_2 column
        with pytest.raises(ValueError, match="at least 2"):
            make_game(np.zeros((2, 1)), np.zeros((1, 2)))
        for player, k in (("alpha", 2), ("beta", 1)):
            with pytest.raises(ValueError, match="at least 2"):
                make_strategy(player, np.full((2, k), 1.0 / k), order="alpha-major")
        with pytest.raises(ValueError, match="at least 2"):
            complete_from_first_component("alpha", [0.5, 0.5], 2, 1)
        path = tmp_path / "game.json"
        path.write_text('{"n": 2, "m": 1, "A": [[1], [0]], "B": [[1, 0]]}', encoding="utf-8")
        with pytest.raises(SchemaError, match="invalid dimensions n=2, m=1"):
            load_game(path)

    def test_b_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_game(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_one_dimensional_tables_rejected(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            make_game([1, 2], [3, 4])

    def test_non_finite_rejected(self):
        A = np.zeros((2, 2))
        B = np.zeros((2, 2))
        B[0, 1] = np.nan
        with pytest.raises(ValueError):
            make_game(A, B)

    def test_payoffs_read_only(self):
        game = chicken_family(0.5)
        with pytest.raises(ValueError):
            game.A[0, 0] = 7.0


class TestMakeSymmetric:
    def test_bimatrix_cells(self):
        R, S, T, P = 3.0, 0.0, 5.0, 1.0
        game = make_symmetric([[R, S], [T, P]])
        # cell (alpha_1, beta_2) pays (S, T); cell (alpha_2, beta_1) pays (T, S);
        # beta's payoff at (i, j) is B[j-1, i-1], the table read from beta's seat
        assert game.A[0, 1] == S and game.B[1, 0] == T
        assert game.A[1, 0] == T and game.B[0, 1] == S
        assert game.A[0, 0] == game.B[0, 0] == R
        assert game.A[1, 1] == game.B[1, 1] == P
        assert game.is_symmetric

    def test_diagonal_table(self):
        game = make_symmetric(np.diag([2.0, 1.0]))
        assert np.array_equal(game.A, game.B)

    def test_matches_chicken_family(self):
        game = make_symmetric([[1.0, 0.5], [1.5, 0.0]])
        chicken = chicken_family(0.5)
        assert np.array_equal(game.A, chicken.A)
        assert np.array_equal(game.B, chicken.B)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            make_symmetric(np.zeros((2, 3)))


class TestChickenFamily:
    def test_half(self):
        assert np.array_equal(chicken_family(0.5).A, [[1.0, 0.5], [1.5, 0.0]])

    def test_one(self):
        assert np.array_equal(chicken_family(1.0).A, [[1.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("r", [0.0, -0.5])
    def test_nonpositive_rejected(self, r):
        with pytest.raises(ValueError):
            chicken_family(r)


class TestFlattenPayoffs:
    def test_alpha(self):
        wa, _ = payoff_vectors(chicken_family(0.5))
        assert np.array_equal(wa, [1.0, 0.5, 1.5, 0.0])

    def test_beta_is_transpose_flatten(self):
        _, wb = payoff_vectors(chicken_family(0.5))
        assert np.array_equal(wb, [1.0, 1.5, 0.5, 0.0])

    def test_symmetric_state_swap(self, rng):
        game = make_symmetric(rng.normal(size=(3, 3)))
        wa, wb = payoff_vectors(game)
        for flat in range(9):
            s = StateIndex.from_flat(flat, 3, 3)
            assert wb[s.flat] == wa[StateIndex.from_pair(s.j, s.i, 3, 3).flat]


class TestMakeStrategy:
    def test_always_first_move(self):
        p = make_strategy("alpha", [[1.0, 0.0]] * 4)
        assert np.array_equal(p.rows[:, 0], np.ones(4))
        assert p.rows.shape[1] == 2

    def test_zero_columns_rejected(self):
        with pytest.raises(ValueError, match="not divisible by 0 columns"):
            make_strategy("alpha", np.zeros((4, 0)))

    def test_row_sum_violation(self):
        rows = [[1.0, 0.0], [0.5, 0.4], [1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="sums to"):
            make_strategy("alpha", rows)

    def test_row_sum_message_prints_a_float(self):
        # the sum as a Python float, not numpy 2's repr np.float64(1.4)
        with pytest.raises(ValueError, match=r"row 0 sums to 1\.4, expected 1"):
            make_strategy("alpha", [[0.7, 0.7]] + [[1.0, 0.0]] * 3)

    def test_uniform_rows(self):
        p = make_strategy("alpha", np.full((6, 3), 1.0 / 3.0))
        assert (p.n, p.m) == (3, 2)

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            make_strategy("alpha", [[1.1, -0.1]] * 4)

    def test_entry_above_one(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            make_strategy("alpha", [[1.0 + 1e-6, 0.0]] * 4)

    def test_nan_row_rejected(self):
        with pytest.raises(ValueError, match="probabilities must be finite"):
            make_strategy("alpha", [[np.nan, np.nan]] + [[1.0, 0.0]] * 3)

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            make_strategy("alpha", np.ones(4))

    def test_beta_native_reindex(self):
        # native rows are (beta_j, alpha_i)-major; row (j, i) one-hot at (j + i) mod 3
        n, m = 2, 3
        native = np.zeros((n * m, m))
        for j in range(m):
            for i in range(n):
                native[j * n + i, (j + i) % m] = 1.0
        q = make_strategy("beta", native, order="native")
        for i in range(n):
            for j in range(m):
                expected = np.zeros(m)
                expected[(j + i) % m] = 1.0
                assert np.array_equal(q.rows[i * m + j], expected)

    def test_alpha_major_passthrough(self, rng):
        rows = rng.dirichlet(np.ones(3), size=6)
        q = make_strategy("beta", rows, order="alpha-major")
        assert np.array_equal(q.rows, rows)

    def test_alpha_native_is_alpha_major(self, rng):
        rows = rng.dirichlet(np.ones(2), size=6)
        assert np.array_equal(
            make_strategy("alpha", rows, order="native").rows,
            make_strategy("alpha", rows, order="alpha-major").rows,
        )

    def test_unknown_order(self):
        with pytest.raises(ValueError):
            make_strategy("beta", np.full((4, 2), 0.5), order="beta-major")


# an entry set to one of these: non-finite, a signed zero, the box's edges and just past them
SPECIAL_ENTRIES = [None, np.nan, np.inf, -np.inf, -0.0, -1e-12, 1.0 + 1e-12,
                   np.nextafter(-1e-12, -1.0), np.nextafter(1.0 + 1e-12, 2.0)]


class TestStochasticRows:
    """make_strategy and TransitionMatrix share one rule, restated here from the box test.

    Rows are accepted exactly when every entry passes ``_in_box`` and every row sums
    to 1 within the builder's tolerance; the kept rows are ``np.clip(rows, 0, 1)``.
    """

    BUILDERS = {
        "make_strategy": (1e-12, lambda rows, n, m: make_strategy("alpha", rows, "alpha-major").rows),
        "TransitionMatrix": (1e-10, lambda rows, n, m: TransitionMatrix((n, m), rows).entries),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    @given(st.integers(2, 3), st.integers(2, 3), st.sampled_from(["pure", "dirichlet"]),
           st.sampled_from([0.0, 2e-13, 2e-12]), st.sampled_from(SPECIAL_ENTRIES),
           st.integers(0, 2**32 - 1))
    def test_accepts_exactly_the_box_and_row_sum_rule(self, builder, n, m, base, spread,
                                                      special, seed):
        # perturbed by up to +-spread per entry; the special entry replaces a row's smallest,
        # so a pure row keeps its sum
        rng = np.random.default_rng(seed)
        row_tol, build = self.BUILDERS[builder]
        n_rows, k = (n * m, n) if builder == "make_strategy" else (n * m, n * m)
        if base == "pure":
            rows = np.eye(k)[rng.integers(k, size=n_rows)]
        else:
            rows = rng.dirichlet(np.ones(k), size=n_rows)
        rows += rng.uniform(-spread, spread, size=rows.shape)
        if special is not None:
            row = rng.integers(n_rows)
            rows[row, rows[row].argmin()] = special
        before = rows.copy()
        accepted = _in_box(rows).all() and (np.abs(rows.sum(axis=1) - 1.0) <= row_tol).all()
        if accepted:
            assert build(rows, n, m).tobytes() == np.clip(rows, 0.0, 1.0).tobytes()
        else:
            with pytest.raises(ValueError, match=r"^row \d+"):
                build(rows, n, m)
        assert rows.tobytes() == before.tobytes()

    @pytest.mark.parametrize("bad, message", [
        (np.nan, "row 2: probabilities must be finite and in [0, 1]"),
        (-0.5, "row 2: negative probability entry"),
        (1.5, "row 2: probability entry exceeds 1"),
        (0.5, "row 2 sums to 1.5, expected 1"),
    ])
    def test_messages_name_the_failing_row(self, bad, message):
        for k, build in [(2, lambda rows: make_strategy("alpha", rows, "alpha-major")),
                         (4, lambda rows: TransitionMatrix((2, 2), rows))]:
            rows = np.full((4, k), 1.0 / k)
            rows[2] = np.eye(k)[0]
            rows[2, 1] = bad
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(rows)


class TestOwnMoveIndicator:
    def test_indicator_patterns(self):
        assert np.array_equal(own_move_one_indicator("alpha", 2, 3), [1, 1, 1, 0, 0, 0])
        assert np.array_equal(own_move_one_indicator("beta", 2, 3), [1, 0, 0, 1, 0, 0])


class TestCompleteFromFirstComponent:
    def test_binary_complement(self):
        p1 = np.array([0.9, 0.75, 0.05, 0.0])
        p = complete_from_first_component("alpha", p1, 2, 2)
        assert np.allclose(p.rows[:, 1], [0.1, 0.25, 0.95, 1.0])

    def test_uniform_split_three_moves(self):
        p1 = np.full(6, 0.4)
        p = complete_from_first_component("alpha", p1, 3, 2)
        assert np.allclose(p.rows, np.tile([0.4, 0.3, 0.3], (6, 1)))

    def test_out_of_range_entry(self):
        with pytest.raises(ValueError, match="outside"):
            complete_from_first_component("alpha", [1.2, 0.5, 0.5, 0.5], 2, 2)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="expected 4 first components"):
            complete_from_first_component("alpha", [0.5] * 3, 2, 2)

    @pytest.mark.parametrize("player", ["alpha", "beta"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.5])
    def test_bad_entry_names_its_state(self, player, bad):
        # NaN fails every comparison, so a range test of the form
        # "any entry below 0 or above 1" lets it through
        p1 = np.full(6, 0.5)
        p1[4] = bad
        message = rf"state 4 is {re.escape(repr(bad))}, outside \[0, 1\]"
        with pytest.raises(ValueError, match=message):
            complete_from_first_component(player, p1, 2, 3)

    def test_all_to_last(self):
        p = complete_from_first_component("alpha", np.full(6, 0.4), 3, 2, "all-to-last")
        assert np.allclose(p.rows, np.tile([0.4, 0.0, 0.6], (6, 1)))

    def test_all_to_second(self):
        p = complete_from_first_component("alpha", np.full(6, 0.4), 3, 2, "all-to-second")
        assert np.allclose(p.rows, np.tile([0.4, 0.6, 0.0], (6, 1)))

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="fill rule"):
            complete_from_first_component("alpha", np.full(4, 0.5), 2, 2, "halve")

    @pytest.mark.parametrize("fill_rule", FILL_RULES)
    def test_round_trip_exact(self, rng, fill_rule):
        p1 = rng.uniform(size=12)
        p = complete_from_first_component("alpha", p1, 4, 3, fill_rule)
        assert np.array_equal(p.rows[:, 0], p1)

    @given(st.floats(0.0, 1.0), st.sampled_from(FILL_RULES))
    def test_rows_stochastic(self, value, fill_rule):
        p = complete_from_first_component("beta", np.full(6, value), 2, 3, fill_rule)
        assert np.abs(p.rows.sum(axis=1) - 1.0).max() <= 1e-12
