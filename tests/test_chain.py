import ast
import pathlib
import pickle
import re
import types
import warnings
import weakref

import numpy as np
import numpy._core._ufunc_config as numpy_ufunc_config
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zdgames import (
    FILL_RULES,
    DegenerateDenominator,
    InaccurateStationary,
    NonUniqueStationary,
    SimulationConfig,
    TransitionMatrix,
    ZDCoefficients,
    ZDGamesError,
    chicken_family,
    cofactor_row,
    expected_scores,
    make_game,
    make_strategy,
    make_symmetric,
    payoff_vectors,
    pin_opponent_score,
    play,
    press_dyson_determinant,
    score_combination,
    stationary,
    transition_matrix,
    zd_feasibility_condition,
)
import zdgames.chain as chain_module
from zdgames.chain import CORANK_RTOL
import zdgames.model as model_module
import zdgames.zd as zd_module

from helpers import (
    adjugate_last_row_minors,
    near_degenerate_3x3,
    rand_game,
    rand_mixed_pure_strategy,
    rand_strategy,
)


def always(player, move, n, m):
    k = n if player == "alpha" else m
    row = np.zeros(k)
    row[move - 1] = 1.0
    return make_strategy(player, np.tile(row, (n * m, 1)), order="alpha-major")


def uniform(player, n, m):
    k = n if player == "alpha" else m
    return make_strategy(player, np.full((n * m, k), 1.0 / k), order="alpha-major")


def identity_pair():
    # alpha repeats own last move, beta repeats own last move: P = I
    p_rows = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]
    q_rows = [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
    p = make_strategy("alpha", p_rows, order="alpha-major")
    q = make_strategy("beta", q_rows, order="alpha-major")
    return p, q


def identity_chain():
    return transition_matrix(*identity_pair())


class TestTransitionMatrix:
    def test_product_formula(self, rng):
        p = rand_strategy(rng, "alpha", 2, 2)
        q = rand_strategy(rng, "beta", 2, 2)
        P = transition_matrix(p, q).entries
        for s in range(4):
            for k in range(2):
                for l in range(2):
                    assert P[s, 2 * k + l] == p.rows[s, k] * q.rows[s, l]

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="expected 4x4 matrix, got \\(3, 3\\)"):
            TransitionMatrix((2, 2), np.eye(3))

    def test_both_always_first(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert np.array_equal(P.entries, np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)))

    def test_both_uniform(self):
        P = transition_matrix(uniform("alpha", 2, 2), uniform("beta", 2, 2))
        assert np.array_equal(P.entries, np.full((4, 4), 0.25))

    def test_rectangular_rows_stochastic(self, rng):
        p = rand_strategy(rng, "alpha", 2, 3)
        q = rand_strategy(rng, "beta", 2, 3)
        P = transition_matrix(p, q)
        assert P.entries.shape == (6, 6)
        assert np.abs(P.entries.sum(axis=1) - 1.0).max() < 1e-10

    def test_marginalization(self, rng):
        # summing over beta's next move recovers p's rows, and vice versa
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q = rand_strategy(rng, "beta", n, m)
        P = transition_matrix(p, q).entries.reshape(n * m, n, m)
        assert np.allclose(P.sum(axis=2), p.rows, rtol=0, atol=1e-12)
        assert np.allclose(P.sum(axis=1), q.rows, rtol=0, atol=1e-12)

    def test_player_order_enforced(self, rng):
        q = rand_strategy(rng, "beta", 2, 2)
        with pytest.raises(ValueError):
            transition_matrix(q, q)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError, match="disagree"):
            transition_matrix(rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 3))

    def test_rejects_non_stochastic_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix((2, 2), np.full((4, 4), 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # NaN fails every comparison, so a range test of the form
        # "any entry below 0 or above 1" lets it through
        entries = np.full((4, 4), 0.25)
        entries[1, 2] = bad
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TransitionMatrix((2, 2), entries)

    @pytest.mark.parametrize("low", [0.0, -1e-13])
    def test_leaves_caller_array_alone(self, low):
        entries = np.full((4, 4), 0.25)
        entries[0, :2] = [0.5 - low, low]
        before = entries.copy()
        P = TransitionMatrix((2, 2), entries)
        assert P.entries[0, 1] == 0.0
        assert np.array_equal(entries, before)
        assert entries.flags.writeable
        assert not np.shares_memory(P.entries, entries)
        assert not P.entries.flags.writeable
        with pytest.raises(ValueError):
            P.entries[0, 0] = 1.0


def checked_strategy(rng, player, n, m, kind):
    """A strategy of pure, Dirichlet or 1e-12-perturbed rows, through make_strategy.

    Perturbed rows are pure or Dirichlet rows moved by at most 0.9e-12 / K
    per entry: entries up to just outside [0, 1] and row sums up to just off
    1, the edge of what make_strategy accepts and clips.
    """
    k = n if player == "alpha" else m
    if kind == "pure":
        rows = np.eye(k)[rng.integers(k, size=n * m)]
    else:
        rows = rng.dirichlet(np.ones(k), size=n * m)
    if kind == "perturbed":
        pure = rng.random(n * m) < 0.5
        rows[pure] = np.eye(k)[rng.integers(k, size=int(pure.sum()))]
        rows += rng.uniform(-1.0, 1.0, size=rows.shape) * 0.9e-12 / k
    return make_strategy(player, rows, order="alpha-major")


ROW_KINDS = st.sampled_from(["pure", "dirichlet", "perturbed"])


class TestPairChainTrustsCheckedStrategies:
    @given(st.integers(2, 4), st.integers(2, 4), ROW_KINDS, ROW_KINDS,
           st.integers(0, 2**32 - 1))
    def test_unvalidated_chain_is_what_validation_builds(self, n, m, kind_p, kind_q, seed):
        # the pair's chain skips TransitionMatrix's checks; on checked
        # strategies the checked constructor neither raises nor clips
        rng = np.random.default_rng(seed)
        p = checked_strategy(rng, "alpha", n, m, kind_p)
        q = checked_strategy(rng, "beta", n, m, kind_q)
        joint = chain_module._joint(p, q)
        checked = TransitionMatrix((n, m), joint)
        chain = transition_matrix(p, q)
        assert checked.entries.tobytes() == joint.tobytes()
        assert chain.entries.tobytes() == joint.tobytes()
        assert chain.entries.shape == (n * m, n * m) and chain.dims == (n, m)
        assert not chain.entries.flags.writeable

    def test_each_input_is_checked_once(self, rng, monkeypatch):
        # a fresh pair's chain is built without TransitionMatrix's checks and
        # solved by one SVD and two LU solves; a completion reuses none of
        # make_strategy's checks
        game = rand_game(rng, 3, 2)
        p, q = rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2)
        calls = dict.fromkeys(["__post_init__", "_lapack_solve", "_lapack_svd", "make_strategy"], 0)

        def counting(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        # zd calls the chain's solve under its own import of the name
        for owner, name in [(TransitionMatrix, "__post_init__"), (chain_module, "_lapack_solve"),
                            (zd_module, "_lapack_solve"), (chain_module, "_lapack_svd"),
                            (model_module, "make_strategy")]:
            counting(owner, name)
        stationary(transition_matrix(p, q))
        expected_scores(game, p, q)
        zd_feasibility_condition(transition_matrix(p, q))
        coeffs = ZDCoefficients(1.0, -1.0, 0.0)
        score_combination(game, p, q, coeffs)
        press_dyson_determinant(p, q, coeffs.combine(*payoff_vectors(game)))
        result, _ = pin_opponent_score(chicken_family(0.5), "alpha", 0.6)
        for fill_rule in FILL_RULES:
            result.complete(fill_rule)
        assert calls == {"__post_init__": 0, "_lapack_solve": 2, "_lapack_svd": 1,
                         "make_strategy": 0}


class TestStationary:
    def test_uniform_chain(self):
        dist = stationary(transition_matrix(uniform("alpha", 2, 2), uniform("beta", 2, 2)))
        assert np.allclose(dist.v, 0.25, rtol=0, atol=1e-14)

    def test_absorbing_chain(self):
        dist = stationary(transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2)))
        assert np.allclose(dist.v, [1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_identity_not_unique(self):
        with pytest.raises(NonUniqueStationary) as exc:
            stationary(identity_chain())
        assert exc.value.corank == 4

    def test_periodic_chain_is_unique(self):
        # a 4-cycle through every outcome: periodic, one closed class
        game = chicken_family(0.5)
        p = make_strategy("alpha", [[1, 0], [0, 1], [1, 0], [0, 1]], order="alpha-major")
        q = make_strategy("beta", [[0, 1], [0, 1], [1, 0], [1, 0]], order="alpha-major")
        P = transition_matrix(p, q)
        assert np.array_equal(np.linalg.matrix_power(P.entries, 4), np.eye(4))
        assert np.allclose(stationary(P).v, 0.25, rtol=0, atol=1e-14)
        assert zd_feasibility_condition(P).holds is True
        coeffs = ZDCoefficients(0.3, -0.7, 0.2)
        f = coeffs.combine(*payoff_vectors(game))
        assert abs(score_combination(game, p, q, coeffs) - f.mean()) <= 1e-14

    def test_residual_and_simplex(self, rng):
        for n, m in [(2, 2), (2, 3), (3, 3)] * 7:
            P = transition_matrix(rand_strategy(rng, "alpha", n, m), rand_strategy(rng, "beta", n, m))
            dist = stationary(P)
            assert np.linalg.norm(dist.v @ P.entries - dist.v, np.inf) < 1e-9
            assert abs(dist.v.sum() - 1.0) < 1e-12
            assert dist.v.min() >= 0.0

    def test_matches_eigenvector_oracle(self, rng):
        for _ in range(10):
            P = transition_matrix(rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2))
            values, vectors = np.linalg.eig(P.entries.T)
            lead = np.argmin(np.abs(values - 1.0))
            oracle = np.real(vectors[:, lead])
            oracle = oracle / oracle.sum()
            assert np.allclose(stationary(P).v, oracle, rtol=0, atol=1e-8)


class TestCofactorRow:
    def test_absorbing_hand_computed(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        c = cofactor_row(P).c
        # minors of P - I: only the first delete leaves a full-rank triangular block
        assert np.allclose(c, [-1.0, 0.0, 0.0, 0.0], rtol=0, atol=1e-14)

    def test_identity_vanishes(self):
        assert np.array_equal(cofactor_row(identity_chain()).c, np.zeros(4))

    def test_proportional_to_stationary(self, rng):
        for n, m in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)] * 4:
            P = transition_matrix(rand_strategy(rng, "alpha", n, m), rand_strategy(rng, "beta", n, m))
            c = cofactor_row(P).c
            total = c.sum()
            assert abs(total) > 1e-10
            assert np.allclose(c / total, stationary(P).v, rtol=0, atol=1e-8)

    def test_annihilates_from_left(self, rng):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        M = P.entries - np.eye(9)
        c = cofactor_row(P).c
        assert np.linalg.norm(c @ M, np.inf) <= 1e-8 * max(1.0, np.abs(c).max())

    def test_minor_and_svd_paths_agree(self, rng):
        # interior, mixed-pure and pure pairs: pure rows give absorbing and
        # reducible chains whose vanishing cofactors must not flip the verdict
        for share in (1.0, 0.5, 0.0):
            for n, m in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 3)] * 4:
                p = rand_mixed_pure_strategy(rng, "alpha", n, m, share)
                q = rand_mixed_pure_strategy(rng, "beta", n, m, share)
                P = transition_matrix(p, q)
                oracle = adjugate_last_row_minors(P.entries - np.eye(n * m))
                assert np.allclose(cofactor_row(P).c, oracle, rtol=1e-8, atol=1e-12)
                one_signed = (oracle >= -1e-12).all() or (oracle <= 1e-12).all()
                holds = abs(oracle.sum()) > 1e-10 and one_signed
                assert zd_feasibility_condition(P).holds == holds

    def test_sign_follows_tree_theorem(self, rng):
        # Adj(I - P) >= 0 with a positive sum when v is unique, and
        # Adj(P - I) = (-1)^(N-1) Adj(I - P)
        for share in (1.0, 0.3):
            for n, m in [(2, 2), (2, 3), (3, 3), (4, 3), (5, 5), (10, 10)] * 3:
                p = rand_mixed_pure_strategy(rng, "alpha", n, m, share)
                q = rand_mixed_pure_strategy(rng, "beta", n, m, share)
                P = transition_matrix(p, q)
                try:
                    stationary(P)
                except ZDGamesError:
                    continue
                c = cofactor_row(P).c
                assert np.sign(c.sum()) == (-1) ** (n * m - 1)
                # the largest entry against its signed minor, taken by LU, not SVD
                k = int(np.argmax(np.abs(c)))
                minor = np.delete(np.delete(P.entries - np.eye(n * m), k, 0), -1, 1)
                assert np.sign(c[k]) == (-1) ** (k + n * m - 1) * np.sign(np.linalg.det(minor))

    def test_large_chain_uses_svd_path(self, rng):
        # 4x4 game: 16 states, larger than any chain the minors oracle checks
        P = transition_matrix(rand_strategy(rng, "alpha", 4, 4), rand_strategy(rng, "beta", 4, 4))
        c = cofactor_row(P).c
        assert np.allclose(c / c.sum(), stationary(P).v, rtol=0, atol=1e-8)


def linalg_outcome(f, *args):
    """``f(*args)`` as (its arrays or LinAlgError text, the texts of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = f(*args)
        except np.linalg.LinAlgError as exc:
            result = str(exc)
    arrays = result if isinstance(result, (str, tuple)) else (result,)
    return arrays, [str(w.message) for w in caught]


def same_outcome(ours, theirs):
    (a, warned_a), (b, warned_b) = ours, theirs
    if isinstance(a, str) or isinstance(b, str):
        return a == b and warned_a == warned_b
    return (len(a) == len(b) and warned_a == warned_b
            and all(np.array_equal(x, y, equal_nan=True) for x, y in zip(a, b)))


class TestLapackKernels:
    """The chain's LAPACK helpers give numpy.linalg's bits, errors and warnings.

    A numpy that renames or re-signs a gufunc fails here, not in a verdict.
    """

    def kernel_pairs(self, a, b):
        return [(chain_module._lapack_svd, np.linalg.svd, (a,)),
                (chain_module._lapack_solve, np.linalg.solve, (a, b))]

    @pytest.mark.parametrize("n", range(1, 21))
    def test_bits_match_numpy_linalg(self, rng, n):
        a, b = rng.standard_normal((n, n)), rng.standard_normal(n)
        for matrix in (a, a.T):  # C-ordered, then Fortran-ordered
            for ours, theirs, args in self.kernel_pairs(matrix, b):
                assert same_outcome(linalg_outcome(ours, *args), linalg_outcome(theirs, *args))

    @pytest.mark.parametrize("kind", ["singular", "nan"])
    def test_errors_match_numpy_linalg(self, kind):
        a = np.ones((3, 3)) if kind == "singular" else np.full((3, 3), np.nan)
        expected = "Singular matrix" if kind == "singular" else "SVD did not converge"
        outcomes = [(linalg_outcome(ours, *args), linalg_outcome(theirs, *args))
                    for ours, theirs, args in self.kernel_pairs(a, np.ones(3))]
        assert all(same_outcome(*pair) for pair in outcomes)
        assert expected in [ours[0] for ours, _ in outcomes]


SPECIAL_ENTRIES = [-0.0, 0.0, 5e-324, 1e-310, np.nan, 1.0]


def dispatch_pairs(S, v, w):
    """(ours, theirs): each numpy call of the per-pair path and the form it replaced."""
    shifted = S.copy()
    shifted.ravel()[:: len(S) + 1] -= 1.0
    return [(v.dot(S), v @ S), (v.dot(w), v @ w), (np.add.reduce(v), v.sum()),
            (np.multiply.reduce(v), v.prod()), (S - np.eye(len(S)), shifted)]


class TestDispatchBits:
    """ndarray.dot, the ufunc reductions and P - I from the identity give the bits they replaced."""

    @given(st.integers(4, 400), st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.sampled_from(SPECIAL_ENTRIES), st.floats(0, 1, exclude_max=True),
                              st.sampled_from(["S", "v", "w"])), max_size=6))
    def test_bits_match_the_replaced_forms(self, n, seed, specials):
        rng = np.random.default_rng(seed)
        arrays = {"S": rng.random((n, n)), "v": rng.dirichlet(np.ones(n)),
                  "w": rng.uniform(-5.0, 5.0, n)}
        for value, where, name in specials:  # -0.0, subnormal and NaN entries
            arrays[name].ravel()[int(where * arrays[name].size)] = value
        for ours, theirs in dispatch_pairs(arrays["S"], arrays["v"], arrays["w"]):
            assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


LAPACK_KERNELS = ("_lapack_svd", "_lapack_solve")
ERROR_STATE = ("_extobj_contextvar", "_make_extobj")  # numpy's private error-state internals
ERROR_STATE_USERS = LAPACK_KERNELS + ("_linalg_errstate",)  # may use ERROR_STATE, nothing more


def lapack_entries(path):
    """``file:line: name`` of each numpy.linalg route in ``path`` but the chain's kernels.

    A route is a call to a numpy.linalg function other than LinAlgError or
    to a gufunc of ``_umath_linalg``, or an import of such a function; or a
    use of numpy's error-state internals, which only chain.py may import.
    """
    tree = ast.parse(path.read_text(), filename=str(path))

    def spans(names):
        return [(node.lineno, node.end_lineno) for node in tree.body if path.name == "chain.py"
                and isinstance(node, ast.FunctionDef) and node.name in names]

    kernels, state_users = spans(LAPACK_KERNELS), spans(ERROR_STATE_USERS)
    allowed = {"LinAlgError", "_umath_linalg"}
    entries = []
    for node in ast.walk(tree):
        exempt = kernels
        if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            names = [alias.name for alias in node.names if alias.name not in allowed]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names
                     if alias.name in ERROR_STATE and path.name != "chain.py"]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.startswith("numpy.linalg")]
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func)
            routed = name.startswith(("np.linalg.", "numpy.linalg.", "_umath_linalg."))
            names = [name] if routed and name.rsplit(".", 1)[-1] != "LinAlgError" else []
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            names, exempt = [name] if name in ERROR_STATE else [], state_users
        else:
            continue
        if not any(a <= node.lineno <= b for a, b in exempt):
            entries += [f"{path.name}:{node.lineno}: {name}" for name in names]
    return entries


def test_lapack_kernels_are_the_only_entry():
    # every factorization goes through the chain's two kernels, whose bits
    # TestLapackKernels pins to numpy.linalg's; only they and _linalg_errstate
    # touch numpy's error-state internals, and _linalg_errstate opens no route
    package = pathlib.Path(chain_module.__file__).parent
    assert [e for path in sorted(package.glob("*.py")) for e in lapack_entries(path)] == []


def test_error_state_outside_the_kernels_is_an_entry(tmp_path):
    path = tmp_path / "zd.py"
    path.write_text("from numpy._core._ufunc_config import _extobj_contextvar\n"
                    "import numpy._core._ufunc_config as config\n"
                    "token = config._extobj_contextvar.set(config._make_extobj(all='ignore'))\n")
    assert lapack_entries(path) == ["zd.py:1: _extobj_contextvar",
                                    "zd.py:3: _extobj_contextvar", "zd.py:3: _make_extobj"]


def test_a_determinant_kernel_is_an_entry(tmp_path):
    # D(p, q, f) reads the cofactor row: a det kernel in chain.py is no longer exempt
    path = tmp_path / "chain.py"
    path.write_text("def _lapack_det(a):\n"
                    "    return _umath_linalg.det(a, signature='d->d')\n")
    assert lapack_entries(path) == ["chain.py:2: _umath_linalg.det"]


def test_linalg_route_in_the_error_state_builder_is_an_entry(tmp_path):
    path = tmp_path / "chain.py"
    path.write_text("def _linalg_errstate(message):\n"
                    "    np.linalg.svd(np.eye(2))\n"
                    "    return _make_extobj(call=None)\n")
    assert lapack_entries(path) == ["chain.py:2: np.linalg.svd"]


def fresh_verified_pair(n, seed=7):
    """A new game and strategy pair, equal for equal seeds, and the per-pair results on them.

    New objects miss every kept chain and target, as each pair of a batch does.
    """
    rng = np.random.default_rng(seed)
    game = rand_game(rng, n, n)
    p, q = rand_strategy(rng, "alpha", n, n), rand_strategy(rng, "beta", n, n)
    P = transition_matrix(p, q)
    return [stationary(P).v, expected_scores(game, p, q), zd_feasibility_condition(P).cofactors.c,
            score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))]


def same_bits(a, b):
    return pickle.dumps(a) == pickle.dumps(b)


class TestErrorState:
    """numpy.linalg's error state is built at import, once per helper, and set per call.

    The helpers set it through the context variable ``np.errstate`` uses and
    reset it in ``finally``, so it never leaks to the caller.
    """

    def test_a_verified_pair_builds_no_error_state(self, monkeypatch):
        # np.errstate's decorator and context manager both build their state on
        # every call; the pairs share a game, whose score_combination target is kept
        built = []
        make = numpy_ufunc_config._make_extobj

        def counted(*args, **kwargs):
            built.append(kwargs)
            return make(*args, **kwargs)

        rng = np.random.default_rng(7)
        game = rand_game(rng, 3, 3)

        def verify():
            p, q = rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3)
            P = transition_matrix(p, q)
            stationary(P)
            expected_scores(game, p, q)
            zd_feasibility_condition(P)
            score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))

        verify()
        monkeypatch.setattr(numpy_ufunc_config, "_make_extobj", counted)
        verify()
        verify()
        assert built == []

    def test_a_verified_pair_enters_no_errstate(self, monkeypatch):
        entered = []
        enter = np.errstate.__enter__

        def counted(self):
            entered.append(self)
            return enter(self)

        monkeypatch.setattr(np.errstate, "__enter__", counted)
        for n in (2, 3):
            fresh_verified_pair(n)
        assert entered == []

    def test_caller_state_is_restored(self):
        before = np.geterr(), np.geterrcall()
        fresh_verified_pair(3)
        assert (np.geterr(), np.geterrcall()) == before
        failing = [(chain_module._lapack_solve, (np.ones((3, 3)), np.ones(3))),
                   (chain_module._lapack_svd, (np.full((3, 3), np.nan),))]
        for kernel, args in failing:
            with pytest.raises(np.linalg.LinAlgError):
                kernel(*args)
            assert (np.geterr(), np.geterrcall()) == before

    @pytest.mark.parametrize("kernel, args, message", [
        ("_lapack_svd", (np.eye(2),), "SVD did not converge"),
        ("_lapack_solve", (np.eye(2), np.ones(2)), "Singular matrix")])
    def test_state_reads_back_as_numpys_errstate(self, monkeypatch, kernel, args, message):
        # the state built with numpy's private _make_extobj is the one np.errstate
        # sets with numpy.linalg's settings, under any caller state
        def read(*args, **kwargs):
            return np.geterr(), np.getbufsize(), np.geterrcall()

        def fail(err, flag):
            raise AssertionError

        monkeypatch.setattr(chain_module, "_umath_linalg",
                            types.SimpleNamespace(svd_f=read, solve1=read))
        with np.errstate(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore"):
            expected = np.geterr(), np.getbufsize()
        with np.errstate(all="raise"):
            *got, call = getattr(chain_module, kernel)(*args)
        assert got == list(expected)
        with pytest.raises(np.linalg.LinAlgError, match=f"^{message}$"):
            call("invalid value", 8)

    @pytest.mark.parametrize("state", ["raise", "ignore"])
    def test_caller_state_changes_no_bit(self, state):
        expected = [fresh_verified_pair(n, seed) for n in (2, 3) for seed in (1, 2)]
        with np.errstate(all=state):
            got = [fresh_verified_pair(n, seed) for n in (2, 3) for seed in (1, 2)]
            assert np.geterr() == dict.fromkeys(["divide", "over", "under", "invalid"], state)
        assert same_bits(got, expected)


class TestPythonFloatReductions:
    """Python's min and max skip a NaN that is not first; numpy's do not, nor may the checks."""

    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_nan_mass_fails(self, rng, where):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        v = stationary(P).v.copy()
        v[where] = np.nan
        with pytest.raises(InaccurateStationary,
                           match=r"^stationary solve produced mass nan below -1e-12$"):
            chain_module._accepted(v, P)

    @pytest.mark.parametrize("where", [0, 4, 8])
    def test_nan_residual_fails(self, rng, where):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        shifted = P._shifted.copy()
        shifted[:, where] = np.nan  # a NaN in the residual's entry ``where`` alone
        chain = types.SimpleNamespace(_shifted=shifted)
        assert chain_module._accepted(stationary(P).v, P) is not None
        with pytest.raises(InaccurateStationary,
                           match="^stationary residual above tolerance after fallback$"):
            chain_module._accepted(stationary(P).v, chain)

    @pytest.mark.parametrize("sv", [[np.nan, 1.0, 0.0, 0.0], [2.0, np.nan, 0.0, 1e-11],
                                    [2.0, 1.0, 0.0, np.nan], [np.nan, np.nan, np.nan, np.nan]])
    def test_corank_counts_as_numpy_did(self, monkeypatch, sv):
        sv = np.array(sv)
        u = np.eye(4)
        monkeypatch.setattr(chain_module, "_lapack_svd", lambda a: (u, sv.copy(), u))
        P = TransitionMatrix((2, 2), np.full((4, 4), 0.25))
        assert P._corank == int(np.count_nonzero(sv <= CORANK_RTOL * max(sv[0], 1.0)))


class TestStationaryFallback:
    """The SVD null vector stands in, computed once, when the LU solve fails."""

    def check_fallback(self, rng, monkeypatch, fake_solve):
        P = transition_matrix(rand_strategy(rng, "alpha", 3, 3), rand_strategy(rng, "beta", 3, 3))
        lu = stationary(P).v
        null_left = chain_module._null_left
        calls = []

        def counted(M):
            calls.append(M)
            return null_left(M)

        monkeypatch.setattr(chain_module, "_null_left", counted)
        monkeypatch.setattr(chain_module, "_lapack_solve", fake_solve)
        # P keeps its solved v, so solve again on a fresh chain of the same entries
        v = stationary(TransitionMatrix(P.dims, P.entries)).v
        assert len(calls) == 1
        assert np.abs(v - lu).max() <= 1e-12
        assert np.linalg.norm(v @ P.entries - v, np.inf) < 1e-9

    def test_solve_raises(self, rng, monkeypatch):
        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        self.check_fallback(rng, monkeypatch, singular)

    def test_solve_misses_residual(self, rng, monkeypatch):
        # a point mass on state (1, 1) is not stationary for an interior chain
        self.check_fallback(rng, monkeypatch, lambda A, b: np.eye(len(b))[0])


class TestInaccurateStationary:
    def test_near_degenerate_chain_raises(self):
        _, p, q = near_degenerate_3x3()
        with pytest.raises(InaccurateStationary) as exc:
            stationary(transition_matrix(p, q))
        # the offending mass prints as a plain float
        assert str(exc.value).startswith("stationary solve produced mass -1.1585")
        assert str(exc.value).endswith("e-09 below -1e-12")


class TestFeasibilityCondition:
    def test_ergodic_holds(self, rng):
        for _ in range(5):
            P = transition_matrix(rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3))
            report = zd_feasibility_condition(P)
            assert report.holds
            c = report.cofactors.c
            assert (c >= -1e-12).all() or (c <= 1e-12).all()

    def test_identity_fails(self):
        assert not zd_feasibility_condition(identity_chain()).holds

    def test_verdict_is_a_python_bool(self, rng):
        interior = transition_matrix(rand_strategy(rng, "alpha", 2, 2),
                                     rand_strategy(rng, "beta", 2, 2))
        for P in (identity_chain(), interior):
            assert type(zd_feasibility_condition(P).holds) is bool

    def test_zero_cofactor_row_fails(self):
        # P is within 1e-7 of I and has two closed classes, {(1,1)} and
        # {(2,1), (2,2)}: the largest singular value of P - I is 6.5e-8, so
        # only the corank test's floor of 1e-10 rejects the round-off one of
        # 5.2e-17; the row is exactly zero and enforces nothing
        P = TransitionMatrix((2, 2), [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.9999999544920568, 0.0, 4.550794318129011e-08],
            [0.0, 0.0, 0.999999989543351, 1.0456648968944562e-08],
            [0.0, 0.0, 2.1231947537247174e-10, 0.9999999997876806],
        ])
        report = zd_feasibility_condition(P)
        assert not report.cofactors.c.any()
        assert report.holds is False
        with pytest.raises(NonUniqueStationary):
            stationary(P)

    def test_absorbing_holds(self):
        P = transition_matrix(always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert zd_feasibility_condition(P).holds

    def test_verdicts_read_one_corank(self, rng, monkeypatch):
        # the chain's one SVD reports a second zero singular value: every
        # verdict reads the corank it gives, so all three flip together
        real_svd = chain_module._lapack_svd

        def svd(a):
            u, sv, vt = real_svd(a)
            return u, np.concatenate([sv[:-2], [0.0, 0.0]]), vt

        monkeypatch.setattr(chain_module, "_lapack_svd", svd)
        game = rand_game(rng, 2, 3)
        p, q = rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3)
        P = transition_matrix(p, q)
        with pytest.raises(NonUniqueStationary):
            stationary(P)
        assert zd_feasibility_condition(P).holds is False
        with pytest.raises(DegenerateDenominator):
            score_combination(game, p, q, ZDCoefficients(1.0, -1.0, 0.0))

    def test_one_svd_per_chain(self, rng, monkeypatch):
        real_svd = chain_module._lapack_svd
        calls = []

        def svd(a):
            calls.append(a)
            return real_svd(a)

        monkeypatch.setattr(chain_module, "_lapack_svd", svd)
        game = rand_game(rng, 3, 2)
        p, q = rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2)
        stationary(transition_matrix(p, q))
        expected_scores(game, p, q)
        zd_feasibility_condition(transition_matrix(p, q))
        coeffs = ZDCoefficients(1.0, -1.0, 0.0)
        score_combination(game, p, q, coeffs)
        press_dyson_determinant(p, q, coeffs.combine(*payoff_vectors(game)))
        assert len(calls) == 1
        # the payoff vectors, too, are computed once per game and shared read-only
        pair = payoff_vectors(game)
        assert all(a is b for a, b in zip(payoff_vectors(game), pair))
        assert not any(w.flags.writeable for w in pair)


class TestExpectedScores:
    def test_locked_first_outcome(self):
        game = chicken_family(0.5)
        scores = expected_scores(game, always("alpha", 1, 2, 2), always("beta", 1, 2, 2))
        assert scores.pi_alpha == scores.pi_beta == 1.0

    def test_uniform_play_means(self):
        game = chicken_family(0.5)
        scores = expected_scores(game, uniform("alpha", 2, 2), uniform("beta", 2, 2))
        assert abs(scores.pi_alpha - 0.75) < 1e-12
        assert abs(scores.pi_beta - 0.75) < 1e-12

    @pytest.mark.parametrize("k", [1, 600])
    def test_payoffs_at_the_float_limit(self, k):
        # v . omega averages four payoffs of -1.8e308, so it lies at the float
        # limit and rounds to -inf; the dot product used to overflow with
        # numpy's warning, and over s it is the 2^-k copy's score times 2^k
        rows = [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]]
        p = make_strategy("alpha", rows, order="alpha-major")
        q = make_strategy("beta", rows, order="alpha-major")
        big = np.full((2, 2), -np.finfo(float).max)
        scores = expected_scores(make_game(big, big), p, q)
        small = expected_scores(make_game(np.ldexp(big, -k), np.ldexp(big, -k)), p, q)
        assert scores.pi_alpha == scores.pi_beta == small.pi_alpha * 2.0**k

    def test_a_huge_payoff_on_a_zero_weight_state_leaves_the_score(self):
        # alpha never plays move 1, so the states holding 1e308 weigh exactly 0:
        # the score is v . omega to the bit, as if those payoffs were 0
        p = make_strategy("alpha", [[0.0, 1.0]] * 4, order="alpha-major")
        q = make_strategy("beta", [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5], [0.25, 0.75]],
                          order="alpha-major")
        A = np.array([[1e308, 1e308], [1e-10, 3e-10]])
        v = stationary(transition_matrix(p, q)).v
        assert v[:2].tolist() == [0.0, 0.0]
        scores = expected_scores(make_game(A, A.T), p, q)
        zeroed = np.where(A > 1.0, 0.0, A)
        assert scores == expected_scores(make_game(zeroed, zeroed.T), p, q)
        assert scores.pi_alpha == scores.pi_beta == float(v @ A.ravel())

    def test_within_payoff_range(self, rng):
        game = rand_game(rng, 3, 2)
        scores = expected_scores(game, rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2))
        assert game.A.min() - 1e-12 <= scores.pi_alpha <= game.A.max() + 1e-12
        assert game.B.min() - 1e-12 <= scores.pi_beta <= game.B.max() + 1e-12

    def test_against_simulation(self):
        game = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
        p = uniform("alpha", 2, 2)
        q = always("beta", 2, 2, 2)
        scores = expected_scores(game, p, q)
        # hand solve: the chain lives on column j=2, v = (0, 1/2, 0, 1/2)
        assert abs(scores.pi_alpha - 0.5) < 1e-12
        assert abs(scores.pi_beta - 3.0) < 1e-12
        report = play(game, p, q, SimulationConfig(rounds=10**6, seed=7))
        assert abs(report.empirical_pi_alpha - scores.pi_alpha) < 1e-2
        assert abs(report.empirical_pi_beta - scores.pi_beta) < 1e-2

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            expected_scores(chicken_family(0.5), rand_strategy(rng, "alpha", 2, 3), rand_strategy(rng, "beta", 2, 3))

    def test_relabeling_invariance(self, rng):
        # swap both players' move labels and permute everything consistently
        n = m = 2
        game = rand_game(rng, n, m)
        p = rand_strategy(rng, "alpha", n, m)
        q = rand_strategy(rng, "beta", n, m)
        swap = [1, 0]
        A2 = game.A[swap][:, swap]
        B2 = game.B[swap][:, swap]
        p2_rows = np.empty_like(p.rows)
        q2_rows = np.empty_like(q.rows)
        for i in range(n):
            for j in range(m):
                src = swap[i] * m + swap[j]
                p2_rows[i * m + j] = p.rows[src][swap]
                q2_rows[i * m + j] = q.rows[src][swap]
        relabeled = expected_scores(
            make_game(A2, B2),
            make_strategy("alpha", p2_rows, order="alpha-major"),
            make_strategy("beta", q2_rows, order="alpha-major"),
        )
        original = expected_scores(game, p, q)
        assert abs(relabeled.pi_alpha - original.pi_alpha) < 1e-12
        assert abs(relabeled.pi_beta - original.pi_beta) < 1e-12


class TestChainMemo:
    """Exact functions on one pair share its chain, and never another pair's."""

    @staticmethod
    def fresh_ratio(game, P, coeffs):
        # score_combination's Cramer solve on P - I of an unshared chain; it
        # divides f by a power of two first, which the solve carries exactly
        D = P._shifted.copy()
        D[:, -1] = 1.0
        return float(np.linalg.solve(D, coeffs.combine(*payoff_vectors(game)))[-1])

    def test_interleaved_pairs_match_fresh_chains(self, rng):
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q1, q2 = rand_strategy(rng, "beta", n, m), rand_strategy(rng, "beta", n, m)
        coeffs = ZDCoefficients(0.5, -1.0, 0.25)
        for game in (rand_game(rng, n, m), rand_game(rng, n, m)):
            for q in (q1, q2, q1):
                fresh = TransitionMatrix((n, m), chain_module._joint(p, q))
                v = stationary(fresh).v
                assert np.array_equal(stationary(transition_matrix(p, q)).v, v)
                assert expected_scores(game, p, q) == chain_module._scores(game, v)
                assert score_combination(game, p, q, coeffs) == self.fresh_ratio(game, fresh, coeffs)
        assert transition_matrix(p, q1) is transition_matrix(p, q1)

    def test_only_the_last_pair_keeps_its_chain(self, rng):
        n, m = 3, 2
        p = rand_strategy(rng, "alpha", n, m)
        q1, q2 = rand_strategy(rng, "beta", n, m), rand_strategy(rng, "beta", n, m)
        kept = weakref.ref(transition_matrix(p, q1))
        transition_matrix(p, q2)
        assert kept() is None

    def test_errors_are_raised_again(self):
        game = make_symmetric([[3.0, 0.0], [5.0, 1.0]])
        p, q = identity_pair()
        near_game, near_p, near_q = near_degenerate_3x3()
        for _ in range(2):
            with pytest.raises(NonUniqueStationary):
                stationary(transition_matrix(p, q))
            with pytest.raises(NonUniqueStationary):
                expected_scores(game, p, q)
            with pytest.raises(DegenerateDenominator):
                score_combination(game, p, q, ZDCoefficients(1.0, 0.0, 0.0))
            with pytest.raises(InaccurateStationary):
                expected_scores(near_game, near_p, near_q)

    def test_pair_checks_pass_through_a_kept_chain(self, rng):
        # the memo checks a pair on a miss; a failing pair raises today's message
        # and leaves the kept chain in place
        game, other_game = rand_game(rng, 2, 2), rand_game(rng, 3, 3)
        p, q = rand_strategy(rng, "alpha", 2, 2), rand_strategy(rng, "beta", 2, 2)
        wide = rand_strategy(rng, "beta", 2, 3)
        coeffs, f = ZDCoefficients(1.0, -1.0, 0.0), np.ones(4)
        order = "expected an alpha strategy followed by a beta strategy"
        disagree = "strategy dimensions disagree: (2, 2) vs (2, 3)"
        shape = "strategy dimensions do not match the game"
        kept = transition_matrix(p, q)
        calls = [
            (order, lambda: transition_matrix(q, p)),
            (order, lambda: expected_scores(game, q, p)),
            (order, lambda: score_combination(game, q, p, coeffs)),
            (order, lambda: press_dyson_determinant(q, p, f)),
            (disagree, lambda: transition_matrix(p, wide)),
            (disagree, lambda: expected_scores(game, p, wide)),
            (disagree, lambda: score_combination(game, p, wide, coeffs)),
            (disagree, lambda: press_dyson_determinant(p, wide, f)),
            (shape, lambda: expected_scores(other_game, p, q)),
            (shape, lambda: score_combination(other_game, p, q, coeffs)),
        ]
        for message, call in calls:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
            assert transition_matrix(p, q) is kept


class TestIdentityCache:
    def test_identities_kept_are_bounded(self):
        # one read-only identity per chain size, for the last few sizes only
        chain_module._eye.cache_clear()
        for k in range(2, 22):  # 20 chain sizes, 4..42
            size = 2 * k
            P = TransitionMatrix((2, k), np.full((size, size), 1.0 / size))
            assert np.allclose(stationary(P).v, 1.0 / size, rtol=0, atol=1e-15)
        info = chain_module._eye.cache_info()
        assert info.currsize == info.maxsize == 8
        assert not chain_module._eye(42).flags.writeable
        assert chain_module._eye.cache_info().hits == info.hits + 1


class TestCramerMatrix:
    """D of D(p, q, 1) is made with the chain: P - I with a last column of ones."""

    def test_D_is_the_shifted_matrix_with_a_last_column_of_ones(self, rng):
        pair = transition_matrix(rand_strategy(rng, "alpha", 3, 2), rand_strategy(rng, "beta", 3, 2))
        constructed = TransitionMatrix(pair.dims, pair.entries)
        identities = [identity_chain(), TransitionMatrix((2, 2), np.eye(4))]
        for P in [pair, constructed] + identities:
            expected = P._shifted.copy()
            expected[:, -1] = 1.0
            assert P._D.shape == expected.shape
            assert P._D.tobytes() == expected.tobytes()
            assert not P._D.flags.writeable
        for P in identities:
            assert P._corank == 4
            assert zd_feasibility_condition(P).holds is False
