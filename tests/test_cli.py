import csv
import json
import os
import pathlib
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

import zdgames
from zdgames import (
    ZDCoefficients,
    chicken_family,
    load_game,
    load_strategy,
    make_strategy,
    make_symmetric,
    save_game,
    save_strategy,
    verify_linear_relation,
)
from zdgames.cli import main

from helpers import lazy_walk, near_degenerate_3x3, rand_strategy


@pytest.fixture
def chicken_path(tmp_path):
    path = tmp_path / "chicken.json"
    save_game(chicken_family(0.5), path)
    return str(path)


@pytest.fixture
def pd_path(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text('{"n": 2, "m": 2, "A": [[3, 0], [5, 1]]}', encoding="utf-8")
    return str(path)


def uniform_pair(tmp_path):
    p = make_strategy("alpha", np.full((4, 2), 0.5), order="alpha-major")
    q = make_strategy("beta", np.full((4, 2), 0.5), order="alpha-major")
    p_path, q_path = tmp_path / "p.json", tmp_path / "q.json"
    save_strategy(p, p_path)
    save_strategy(q, q_path)
    return str(p_path), str(q_path)


def repeat_pair(tmp_path):
    p = make_strategy("alpha", [[1, 0], [1, 0], [0, 1], [0, 1]], order="alpha-major")
    q = make_strategy("beta", [[1, 0], [0, 1], [1, 0], [0, 1]], order="alpha-major")
    p_path, q_path = tmp_path / "pr.json", tmp_path / "qr.json"
    save_strategy(p, p_path)
    save_strategy(q, q_path)
    return str(p_path), str(q_path)


def near_degenerate_paths(tmp_path):
    game, p, q = near_degenerate_3x3()
    paths = [tmp_path / "nd_game.json", tmp_path / "nd_p.json", tmp_path / "nd_q.json"]
    save_game(game, paths[0])
    save_strategy(p, paths[1])
    save_strategy(q, paths[2])
    return [str(path) for path in paths]


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class TestAnalyze:
    def test_uniform_chicken(self, tmp_path, chicken_path, capsys):
        p_path, q_path = uniform_pair(tmp_path)
        out_csv = str(tmp_path / "out.csv")
        assert main(["analyze", chicken_path, p_path, q_path, "--csv", out_csv]) == 0
        out = capsys.readouterr().out
        assert "2x2 (symmetric)" in out
        assert "zd feasibility: holds" in out
        rows = read_rows(out_csv)
        assert len(rows) == 1
        assert float(rows[0]["pi_alpha"]) == 0.75
        assert float(rows[0]["pi_beta"]) == 0.75
        assert rows[0]["zd_feasible"] == "True"
        assert [float(rows[0][f"v{s}"]) for s in range(4)] == [0.25] * 4

    @pytest.mark.parametrize("pair", ["uniform-chicken", "lazy-walk"])
    def test_cofactor_sum_and_determinant_print_the_same_bits(self, tmp_path, chicken_path,
                                                              capsys, pair):
        # both lines read one cofactor row; on the 20x20 lazy walk it underflows
        if pair == "uniform-chicken":
            paths = [chicken_path, *uniform_pair(tmp_path)]
        else:
            paths = [str(tmp_path / name) for name in ("g.json", "p.json", "q.json")]
            game, *strategies = lazy_walk(20, 0.01)
            save_game(game, paths[0])
            for strategy, path in zip(strategies, paths[1:]):
                save_strategy(strategy, path)
        out_csv = str(tmp_path / "out.csv")
        assert main(["analyze", *paths, "--csv", out_csv]) == 0
        out = capsys.readouterr().out
        total = out.split("(cofactor sum ", 1)[1].split(")", 1)[0]
        assert f"D(p, q, 1) = {total}\n" in out
        assert read_rows(out_csv)[0]["det_one"] == total
        if pair == "uniform-chicken":
            assert total == "-1.0000000000000004"

    def test_non_unique_chain_exits_2(self, tmp_path, chicken_path, capsys):
        p_path, q_path = repeat_pair(tmp_path)
        assert main(["analyze", chicken_path, p_path, q_path]) == 2
        assert "non-unique stationary" in capsys.readouterr().err

    def test_near_degenerate_chain_exits_2(self, tmp_path, capsys):
        assert main(["analyze", *near_degenerate_paths(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stationary solve produced mass -1.1585")
        assert "np.float64" not in err and "Traceback" not in err

    def test_missing_file_exits_3(self, tmp_path, chicken_path):
        assert main(["analyze", chicken_path, str(tmp_path / "nope.json"),
                     str(tmp_path / "nope.json")]) == 3

    def test_wrong_player_file_exits_3(self, tmp_path, chicken_path, capsys):
        p_path, q_path = uniform_pair(tmp_path)
        assert main(["analyze", chicken_path, q_path, p_path]) == 3
        assert "expected 'alpha'" in capsys.readouterr().err

    def test_broken_json_exits_3(self, tmp_path, chicken_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        p_path, q_path = uniform_pair(tmp_path)
        assert main(["analyze", str(bad), p_path, q_path]) == 3

    def test_strategy_for_other_game_exits_3(self, tmp_path, chicken_path, rng, capsys):
        p3_path = tmp_path / "p3.json"
        save_strategy(rand_strategy(rng, "alpha", 3, 3), p3_path)
        _, q_path = uniform_pair(tmp_path)
        assert main(["analyze", chicken_path, str(p3_path), q_path]) == 3
        assert "strategy is for a 3x3 game, not 2x2" in capsys.readouterr().err

    def test_oversized_integer_exits_3(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        digits = "1" + "0" * 400
        big.write_text('{"n": 2, "m": 2, "A": [[1, 0], [0, %s]]}' % digits, encoding="utf-8")
        p_path, q_path = uniform_pair(tmp_path)
        assert main(["analyze", str(big), p_path, q_path]) == 3
        err = capsys.readouterr().err
        assert "field 'A' row 1" in err and "Traceback" not in err


class TestZd:
    def test_feasible_writes_strategy(self, tmp_path, chicken_path, capsys):
        out = str(tmp_path / "zd.json")
        code = main(["zd", chicken_path, "0.1", "-0.2", "0", "--out", out])
        assert code == 0
        assert "feasible" in capsys.readouterr().out
        strategy = load_strategy(out)
        assert np.allclose(strategy.rows[:, 0], [0.9, 0.75, 0.05, 0.0],
                           rtol=0, atol=1e-15)

    def test_infeasible_exits_1(self, tmp_path, chicken_path, capsys):
        assert main(["zd", chicken_path, "0", "0", "0.5"]) == 1
        out = capsys.readouterr().out
        assert "infeasible: 2 entries" in out
        assert "state (1,1)" in out and "state (1,2)" in out

    def test_fill_rules_share_the_relation(self, tmp_path, rng):
        # a 3x3 symmetric game so the fill rules actually differ
        three = tmp_path / "g3.json"
        A = [[2.0, 0.5, 0.2], [1.0, 0.1, 0.3], [1.5, 0.4, 0.0]]
        three.write_text(json.dumps({"n": 3, "m": 3, "A": A}), encoding="utf-8")
        game_path = str(three)
        paths = {}
        for rule in ("uniform", "all-to-last"):
            out = str(tmp_path / f"{rule}.json")
            code = main(["zd", game_path, "0.1", "-0.12", "0.02",
                         "--fill", rule, "--out", out])
            assert code == 0
            paths[rule] = out
        loaded = load_game(game_path)
        coeffs = ZDCoefficients(0.1, -0.12, 0.02)
        q = rand_strategy(rng, "beta", 3, 3)
        for path in paths.values():
            strategy = load_strategy(path)
            check = verify_linear_relation(loaded, strategy, q, coeffs)
            assert check.holds and check.residual < 1e-9

    def test_zero_coefficients_exit_3(self, chicken_path):
        assert main(["zd", chicken_path, "0", "0", "0"]) == 3

    def test_infinite_coefficient_exits_3(self, chicken_path, capsys):
        assert main(["zd", chicken_path, "inf", "0", "0"]) == 3
        assert "coefficients must be finite" in capsys.readouterr().err


# games whose theta_max a tie E_21 binds, where (PROB_TOL/|E_21|)*|E_21|
# rounds above PROB_TOL; at lambda = 1 the first one's strategy repeats its
# own move, so no opponent gives it a unique chain for scan's check
TIE_GAMES = [([[0.0023912007403269677, 0.0007970669134425616],
               [0.0007970669134423226, -0.0023912007403272067]], "1"),
             ([[4.909, 3.878], [4.61, 2.035]], "1.397178513295646")]


def tie_game(tmp_path, A):
    path = tmp_path / "tie.json"
    save_game(make_symmetric(A), path)
    return str(path)


class TestExtort:
    def test_bounds(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "admissible factors: [1.0, 3.0" in out

    def test_unbounded_family(self, tmp_path, capsys):
        path = tmp_path / "steep.json"
        save_game(chicken_family(1.5), path)
        assert main(["extort", str(path), "--bounds"]) == 0
        assert "inf)" in capsys.readouterr().out

    def test_end_at_zero_prints_as_zero(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        save_game(make_symmetric([[1.0, 0.0], [-1.0, 0.0]]), path)
        assert main(["extort", str(path), "--bounds"]) == 0
        assert capsys.readouterr().out == "admissible factors: [1.0, 0.0]\nfeasible: False\n"

    def test_theta_max(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--lambda", "2", "--theta-max"]) == 0
        assert "theta_max = 0.4" in capsys.readouterr().out

    @pytest.mark.parametrize("A, lam", TIE_GAMES, ids=["repeat", "interior"])
    def test_theta_max_is_feasible(self, tmp_path, capsys, A, lam):
        path = tie_game(tmp_path, A)
        assert main(["extort", path, "--lambda", lam, "--theta-max"]) == 0
        limit = capsys.readouterr().out.removeprefix("theta_max = ").strip()
        assert main(["extort", path, "--lambda", lam, "--theta", limit]) == 0
        assert f"theta_max at this factor: {limit}" in capsys.readouterr().out

    def test_strategy_output(self, tmp_path, chicken_path, capsys):
        out = str(tmp_path / "ext.json")
        code = main(["extort", chicken_path, "--lambda", "2", "--theta", "0.1",
                     "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "enforces: pi_alpha - 0.0 = 2.0 * (pi_beta - 0.0)" in text
        strategy = load_strategy(out)
        assert np.array_equal(strategy.rows[:, 0], [0.9, 0.75, 0.05, 0.0])

    def test_inadmissible_factor_exits_1(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--lambda", "4", "--theta", "0.1"]) == 1
        assert "last-row (2,1)" in capsys.readouterr().out

    def test_excessive_theta_exits_1(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--lambda", "2", "--theta", "0.5"]) == 1
        assert "exceeds theta_max" in capsys.readouterr().out

    def test_overflowing_factor_exits_3(self, pd_path, chicken_path, capsys):
        # PD's E_12/2 = -1/2 - 2*lam overflows; chicken's halved brackets
        # stay finite and give the verdict
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["extort", pd_path, "--lambda", "1.7e308", "--theta-max"])
            assert main(["extort", chicken_path, "--lambda", "1.7e308", "--theta-max"]) == 1
        assert code == 3
        assert not caught
        captured = capsys.readouterr()
        assert "overflows" in captured.err and "RuntimeWarning" not in captured.err
        assert "last-row (2,1)" in captured.out

    def test_payoffs_near_the_float_limit(self, tmp_path, capsys):
        # a_21 - a_22 overflows, yet the brackets over the game's payoff scale are
        # finite and the interval is [1, 2]
        path = tie_game(tmp_path, [[1.0, 0.5], [1e308, -1e308]])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["extort", path, "--bounds"]) == 0
            assert main(["extort", path, "--lambda", "1", "--theta-max"]) == 0
            assert main(["scan", path, "--lambda-grid", "1,1.25", "--opponents", "2",
                         "--out", str(tmp_path / "scan.csv")]) == 0
        assert not caught
        captured = capsys.readouterr()
        assert captured.out.startswith("admissible factors: [1.0, 2.0]\nfeasible: True\n"
                                       "theta_max = 1e-308\n")
        assert captured.err == ""
        rows = read_rows(tmp_path / "scan.csv")
        assert [row["lambda_ok"] for row in rows] == ["True", "True"]

    def test_module_runs_as_a_script(self, chicken_path):
        src = str(pathlib.Path(zdgames.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "zdgames.cli", "extort", chicken_path, "--bounds"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert "admissible factors: [1.0, 3.0" in done.stdout

    def test_module_as_main_exits_with_the_status(self, chicken_path, monkeypatch, capsys):
        # the same entry point in this process: main's status becomes the exit status
        monkeypatch.delitem(sys.modules, "zdgames.cli")  # run afresh, as -m does
        monkeypatch.setattr(sys, "argv", ["zdgames", "extort", chicken_path,
                                          "--lambda", "4", "--theta", "0.1"])
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("zdgames.cli", run_name="__main__")
        assert exited.value.code == 1
        assert "last-row (2,1)" in capsys.readouterr().out

    def test_lambda_required(self, chicken_path, capsys):
        assert main(["extort", chicken_path]) == 3
        assert "--lambda" in capsys.readouterr().err

    def test_theta_required(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--lambda", "2"]) == 3
        assert "--theta" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_factor_exits_3(self, chicken_path, capsys, lam):
        assert main(["extort", chicken_path, "--lambda", lam, "--theta-max"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"extortion factor must be finite, got {lam}" in captured.err

    def test_nan_theta_exits_3(self, chicken_path, capsys):
        assert main(["extort", chicken_path, "--lambda", "2", "--theta", "nan"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "scale theta must be finite, got nan" in captured.err


class TestPin:
    def test_pd_target_two(self, tmp_path, pd_path, capsys):
        report = str(tmp_path / "pin.csv")
        out = str(tmp_path / "pin.json")
        code = main(["pin", pd_path, "--target", "2", "--opponents", "25",
                     "--report", report, "--out", out])
        assert code == 0
        text = capsys.readouterr().out
        assert "b=-0.25" in text
        rows = read_rows(report)
        assert len(rows) == 25
        assert max(float(row["deviation"]) for row in rows) < 1e-9
        strategy = load_strategy(out)
        assert strategy.player == "alpha"

    def test_unreachable_target_exits_1(self, pd_path, capsys):
        assert main(["pin", pd_path, "--target", "10"]) == 1
        assert "no feasible pin" in capsys.readouterr().err

    def test_large_payoff_scale(self, tmp_path, capsys):
        path = tmp_path / "pd_1e6.json"
        path.write_text('{"n": 2, "m": 2, "A": [[3e6, 0], [5e6, 1e6]]}', encoding="utf-8")
        report = str(tmp_path / "pin.csv")
        code = main(["pin", str(path), "--target", "2e6", "--opponents", "25",
                     "--report", report])
        assert code == 0
        assert max(float(row["deviation"]) for row in read_rows(report)) < 1e-9 * 1e6

    @pytest.mark.parametrize("A, player", [([[-1e308, 3], [1.5, 0.0]], "alpha"),
                                           ([[3, 0], [5, -1e308]], "beta")])
    def test_variance_past_the_float_limit_warns_nothing(self, tmp_path, capsys, A, player):
        # pinned scores near 1e291 keep the pin's scale-relative contract; their
        # variance is inf, and squaring them must not leak numpy's overflow warning
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "m": 2, "A": A}), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["pin", str(path), "--player", player, "--target", "0.6",
                         "--opponents", "10", "--out", str(tmp_path / "pin.json")])
        assert code == 0
        assert not caught
        captured = capsys.readouterr()
        assert "score variance: inf" in captured.out
        assert "Warning" not in captured.err


class TestSimulate:
    def test_reproducible_csv(self, tmp_path, chicken_path):
        p_path, q_path = uniform_pair(tmp_path)
        first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (first, second):
            code = main(["simulate", chicken_path, p_path, q_path,
                         "--rounds", "20000", "--seed", "5", "--csv", out])
            assert code == 0
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_lambda_hat_report(self, tmp_path, chicken_path, capsys):
        ext = str(tmp_path / "ext.json")
        main(["extort", chicken_path, "--lambda", "2", "--theta", "0.1", "--out", ext])
        _, q_path = uniform_pair(tmp_path)
        capsys.readouterr()
        code = main(["simulate", chicken_path, ext, q_path,
                     "--rounds", "200000", "--lambda", "2"])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("lambda_hat")][0]
        assert 1.9 < float(line.split()[2]) < 2.1

    def test_lambda_hat_is_taken_about_a_nn(self, tmp_path, pd_path, capsys):
        # PD's offset a_nn is 1; about 0 this run reads 1.43
        ext = str(tmp_path / "ext.json")
        main(["extort", pd_path, "--lambda", "2", "--theta", "0.05", "--out", ext])
        _, q_path = uniform_pair(tmp_path)
        capsys.readouterr()
        code = main(["simulate", pd_path, ext, q_path, "--rounds", "200000", "--lambda", "2"])
        assert code == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("lambda_hat")][0]
        assert abs(float(line.split()[2]) - 2.0) < 0.1

    def test_non_unique_skips_comparison(self, tmp_path, chicken_path, capsys):
        p_path, q_path = repeat_pair(tmp_path)
        code = main(["simulate", chicken_path, p_path, q_path, "--rounds", "1000"])
        assert code == 0
        assert "skipping comparison" in capsys.readouterr().out

    def test_degenerate_ratio_exits_2(self, tmp_path, chicken_path, capsys):
        # both always play move 2: pi_beta is chicken's (2, 2) payoff, 0
        p = make_strategy("alpha", np.tile([0.0, 1.0], (4, 1)), order="alpha-major")
        q = make_strategy("beta", np.tile([0.0, 1.0], (4, 1)), order="alpha-major")
        p_path, q_path = tmp_path / "p2.json", tmp_path / "q2.json"
        save_strategy(p, p_path)
        save_strategy(q, q_path)
        code = main(["simulate", chicken_path, str(p_path), str(q_path),
                     "--rounds", "1000", "--lambda", "2"])
        assert code == 2
        assert "ratio undefined" in capsys.readouterr().err

    def test_lambda_hat_at_the_float_limit(self, tmp_path, capsys):
        # pi - a_nn is about -3.4e308 for both players, past the float limit, but
        # over the game's payoff scale it is finite and the ratio is exactly 1
        documents = {"g.json": {"n": 2, "m": 2, "A": [[-1.7e308, -1.7e308], [-1.7e308, 1.7e308]]},
                     "p.json": {"player": "alpha", "n": 2, "m": 2, "order": "alpha-major",
                                "rows": [[0.9, 0.1]] * 4},
                     "q.json": {"player": "beta", "n": 2, "m": 2, "order": "alpha-major",
                                "rows": [[0.8, 0.2]] * 4}}
        for name, document in documents.items():
            (tmp_path / name).write_text(json.dumps(document), encoding="utf-8")
        code = main(["simulate", *(str(tmp_path / name) for name in documents),
                     "--rounds", "20000", "--lambda", "1"])
        assert code == 0
        assert "lambda_hat = 1.0 (configured lambda 1.0)" in capsys.readouterr().out

    def test_near_degenerate_skips_comparison(self, tmp_path, capsys):
        code = main(["simulate", *near_degenerate_paths(tmp_path), "--rounds", "1000"])
        assert code == 0
        captured = capsys.readouterr()
        assert "exact stationary unavailable (inaccurate); skipping comparison" in captured.out
        assert "tv distance" not in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("flags, message", [
        (["--lambda", "inf"], "extortion factor must be finite, got inf"),
    ], ids=["lambda-inf"])
    def test_non_finite_ratio_parameter_exits_3(self, tmp_path, chicken_path, capsys,
                                                flags, message):
        p_path, q_path = uniform_pair(tmp_path)
        code = main(["simulate", chicken_path, p_path, q_path, "--rounds", "1000", *flags])
        assert code == 3
        captured = capsys.readouterr()
        assert message in captured.err
        assert "lambda_hat" not in captured.out

    def test_unreadable_game_is_reported_before_the_factor(self, tmp_path, capsys):
        # main loads the game before any subcommand checks its options
        p_path, q_path = uniform_pair(tmp_path)
        missing = str(tmp_path / "missing.json")
        code = main(["simulate", missing, p_path, q_path, "--rounds", "10", "--lambda", "inf"])
        assert code == 3
        err = capsys.readouterr().err
        assert "missing.json" in err and "extortion factor" not in err

    def test_zero_rounds_usage_error(self, tmp_path, chicken_path):
        p_path, q_path = uniform_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", chicken_path, p_path, q_path, "--rounds", "0"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("option", ["--burn-in", "--seed"], ids=["burn-in", "seed"])
    def test_negative_burn_in_usage_error(self, tmp_path, chicken_path, capsys, option):
        p_path, q_path = uniform_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", chicken_path, p_path, q_path, "--rounds", "100",
                  option, "-1"])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        noun = "seed" if option == "--seed" else "count"
        assert f"argument {option}: expected a non-negative {noun}, got -1" in err


class TestScan:
    def test_lambda_grid_flags(self, tmp_path, chicken_path):
        out = str(tmp_path / "scan.csv")
        code = main(["scan", chicken_path, "--lambda-grid", "1,2,3,4", "--out", out])
        assert code == 0
        rows = read_rows(out)
        assert [row["lambda_ok"] for row in rows] == ["True", "True", "True", "False"]

    def test_theta_flip_at_limit(self, tmp_path, chicken_path):
        out = str(tmp_path / "scan.csv")
        code = main(["scan", chicken_path, "--lambda-grid", "2",
                     "--theta-grid", "0.3,0.4,0.41", "--opponents", "5", "--out", out])
        assert code == 0
        rows = read_rows(out)
        assert [row["feasible"] for row in rows] == ["True", "True", "False"]
        assert all(float(row["theta_max"]) == 0.4 for row in rows)
        for row in rows[:2]:
            assert float(row["max_residual"]) < 1e-9

    def test_theta_max_is_feasible(self, tmp_path, capsys):
        A, lam = TIE_GAMES[1]
        path = tie_game(tmp_path, A)
        assert main(["extort", path, "--lambda", lam, "--theta-max"]) == 0
        limit = capsys.readouterr().out.removeprefix("theta_max = ").strip()
        out = str(tmp_path / "scan.csv")
        assert main(["scan", path, "--lambda-grid", lam, "--theta-grid", limit,
                     "--opponents", "3", "--out", out]) == 0
        (row,) = read_rows(out)
        assert (row["theta_max"], row["feasible"]) == (limit, "True")
        assert float(row["max_residual"]) < 1e-9

    def test_non_unique_opponent_chain_leaves_residual_empty(self, tmp_path):
        # the strategy at this point is [1, 1, 0, 0]: every opponent's chain has two
        # closed classes, so the residual is unavailable, as simulate's tv cell is
        path = tmp_path / "game.json"
        save_game(make_symmetric([[0.0023912007403269677, 0.0007970669134425616],
                                  [0.0007970669134423226, -0.0023912007403272067]]), path)
        out = str(tmp_path / "scan.csv")
        assert main(["scan", str(path), "--lambda-grid", "1", "--theta-grid", "1000",
                     "--out", out]) == 0
        (row,) = read_rows(out)
        assert (row["feasible"], row["max_residual"]) == ("True", "")

    def test_overflowing_factor_exits_3(self, tmp_path, pd_path, chicken_path, capsys):
        # PD's halved bracket E_12/2 overflows; chicken's stay finite and give a False row
        out = tmp_path / "scan.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["scan", pd_path, "--lambda-grid", "2,1.7e308", "--out", str(out)])
            assert not out.exists()
            assert main(["scan", chicken_path, "--lambda-grid", "2,1.7e308",
                         "--out", str(out)]) == 0
        assert code == 3
        assert not caught
        err = capsys.readouterr().err
        assert "overflows" in err and "RuntimeWarning" not in err
        assert [row["lambda_ok"] for row in read_rows(out)] == ["True", "False"]

    def test_generous_grid_rejected(self, tmp_path, chicken_path, capsys):
        out = str(tmp_path / "scan.csv")
        assert main(["scan", chicken_path, "--lambda-grid", "0.5,2", "--out", out]) == 3
        assert "at least 1" in capsys.readouterr().err

    def test_nan_grid_exits_3(self, tmp_path, chicken_path, capsys):
        out = tmp_path / "scan.csv"
        assert main(["scan", chicken_path, "--lambda-grid", "nan", "--out", str(out)]) == 3
        assert "extortion factor must be finite, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_usage_error(self, tmp_path, chicken_path):
        with pytest.raises(SystemExit) as exc:
            main(["scan", chicken_path, "--lambda-grid", "", "--out",
                  str(tmp_path / "scan.csv")])
        assert exc.value.code == 3

    def test_unparsable_grid_usage_error(self, tmp_path, chicken_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["scan", chicken_path, "--lambda-grid", "1,x", "--out",
                  str(tmp_path / "scan.csv")])
        assert exc.value.code == 3
        assert "bad grid '1,x'" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["2", "100"])
    @pytest.mark.parametrize("grid", ["0,0.1", "nan", "inf"])
    def test_nonpositive_theta_grid_rejected(self, tmp_path, chicken_path, capsys, grid, lam):
        out = tmp_path / "scan.csv"
        code = main(["scan", chicken_path, "--lambda-grid", lam, "--theta-grid", grid,
                     "--out", str(out)])
        assert code == 3
        assert "theta grid values must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_import_leaves_numpy_random_unloaded():
    # numpy.random costs about 9 ms on first use; only simulate, pin and scan
    # draw random numbers, so importing the CLI must not load it
    src = str(pathlib.Path(zdgames.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", "import sys, zdgames.cli; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_scan_without_theta_grid_leaves_numpy_random_unloaded(tmp_path, chicken_path):
    # opponents are drawn only to check strategies, which a factor-only scan never builds
    src = str(pathlib.Path(zdgames.__file__).parents[1])
    argv = ["scan", chicken_path, "--lambda-grid", "1,2", "--out", str(tmp_path / "scan.csv")]
    script = (
        "import sys; from zdgames.cli import main; "
        f"code = main({argv!r}); print(code, 'numpy.random' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"


class TestParser:
    def test_no_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("command, flags", [("pin", ["--target", "1.0"]),
                                                 ("scan", ["--lambda-grid", "2"])],
                             ids=["pin", "scan"])
    def test_negative_seed_usage_error(self, chicken_path, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, chicken_path, *flags, "--seed", "-1"])
        assert exc.value.code == 3
        assert "argument --seed: expected a non-negative seed, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--rounds", "1e6"], "--rounds: expected a positive count, got 1e6"),
        (["pin", "--target", "1.0", "--opponents", "2.5"],
         "--opponents: expected a positive count, got 2.5"),
        (["simulate", "--rounds", "100", "--seed", "1.5"],
         "--seed: expected a non-negative seed, got 1.5"),
        (["simulate", "--rounds", "100", "--burn-in", "x"],
         "--burn-in: expected a non-negative count, got x"),
    ], ids=["rounds", "opponents", "seed", "burn-in"])
    def test_non_integer_usage_error(self, tmp_path, chicken_path, capsys, argv, message):
        # the message names the option and what it counts, not a parser function
        command, *flags = argv
        files = [chicken_path]
        if command == "simulate":
            files += uniform_pair(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, *files, *flags])
        assert exc.value.code == 3
        err = capsys.readouterr().err
        assert f"argument {message}" in err
        assert "_int" not in err
