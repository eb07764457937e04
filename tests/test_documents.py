import json
import math
import re

import numpy as np
import pytest

from zdgames import (
    SchemaError,
    chicken_family,
    load_game,
    load_strategy,
    save_game,
    save_strategy,
)
from zdgames.documents import (
    game_from_document,
    game_to_document,
    strategy_from_document,
    strategy_to_document,
)

from helpers import rand_game, rand_strategy


def write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


class TestGameDocuments:
    def test_symmetric_shorthand(self, tmp_path):
        path = write(tmp_path / "game.json", {"n": 2, "m": 2, "A": [[1, 0.5], [1.5, 0]]})
        game = load_game(path)
        chicken = chicken_family(0.5)
        assert np.array_equal(game.A, chicken.A)
        assert np.array_equal(game.B, chicken.B)
        assert game.is_symmetric

    def test_missing_b_asymmetric_dims(self, tmp_path):
        doc = {"n": 2, "m": 3, "A": [[1, 2, 3], [4, 5, 6]]}
        with pytest.raises(SchemaError, match="omitted only"):
            load_game(write(tmp_path / "game.json", doc))

    def test_malformed_number(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text('{"n": 2, "m": 2, "A": [[1, 0..5], [1.5, 0]]}', encoding="utf-8")
        with pytest.raises(SchemaError, match="line 1"):
            load_game(str(path))

    def test_missing_field(self, tmp_path):
        with pytest.raises(SchemaError, match="missing field 'A'"):
            load_game(write(tmp_path / "game.json", {"n": 2, "m": 2}))

    def test_non_integer_dimension(self, tmp_path):
        doc = {"n": 2.0, "m": 2, "A": [[1, 0], [0, 1]]}
        with pytest.raises(SchemaError, match="integer"):
            load_game(write(tmp_path / "game.json", doc))

    def test_boolean_dimension_rejected(self, tmp_path):
        doc = {"n": True, "m": 2, "A": [[1, 0], [0, 1]]}
        with pytest.raises(SchemaError, match="integer"):
            load_game(write(tmp_path / "game.json", doc))

    def test_ragged_grid(self, tmp_path):
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0]]}
        with pytest.raises(SchemaError, match="row 1"):
            load_game(write(tmp_path / "game.json", doc))

    # the schema rejects every B that make_game would, naming the file
    def test_wrong_b_shape(self, tmp_path):
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0, 1]], "B": [[1, 0]]}
        path = write(tmp_path / "game.json", doc)
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: field 'B'"):
            load_game(path)

    def test_non_finite_b(self, tmp_path):
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0, 1]], "B": [[1, 0], [0, math.inf]]}
        path = write(tmp_path / "game.json", doc)
        with pytest.raises(SchemaError, match=f"^{re.escape(path)}: field 'B' row 1"):
            load_game(path)

    def test_overflowing_literal_rejected(self, tmp_path):
        # json accepts 1e999 and parses it to infinity; the schema must not
        path = tmp_path / "game.json"
        path.write_text('{"n": 2, "m": 2, "A": [[1e999, 0], [0, 1]]}', encoding="utf-8")
        with pytest.raises(SchemaError, match="'A'"):
            load_game(str(path))

    def test_oversized_integer_rejected(self, tmp_path):
        # json parses a 400-digit literal to an int no float can hold
        path = write(tmp_path / "game.json", {"n": 2, "m": 2, "A": [[1, 0], [0, 10**400]]})
        with pytest.raises(SchemaError, match="field 'A' row 1"):
            load_game(path)

    def test_oversized_integer_message_is_bounded(self):
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0, 10**400]]}
        with pytest.raises(SchemaError) as exc:
            game_from_document(doc)
        message = str(exc.value)
        assert message.endswith("... (401 digits)")
        assert len(message) < 80

    def test_long_string_cell_message_is_bounded(self):
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0, "x" * 30]]}
        # the repr's 32 characters, quotes included, are cut to the first 24
        with pytest.raises(SchemaError, match=r"row 1 holds 'x{23}\.\.\. \(32 characters\)$"):
            game_from_document(doc)

    def test_integer_past_str_limit_rejected(self):
        # more digits than Python converts to text: the message must not need them
        doc = {"n": 2, "m": 2, "A": [[1, 0], [0, 10**5000]]}
        with pytest.raises(SchemaError, match=r"field 'A' row 1 holds 1000.*\(5001 digits\)$"):
            game_from_document(doc)

    def test_dimension_past_str_limit_rejected(self):
        doc = {"n": 10**5000, "m": 2, "A": []}
        with pytest.raises(SchemaError, match=r"field 'A' must be a list of .*\(5001 digits\) rows"):
            game_from_document(doc)

    @pytest.mark.parametrize(
        "content",
        [
            b'{"n": 2, "m": 2, "A": [[1, 0], [0, 1' + b"0" * 5000 + b"]]}",
            b'{"n": 2, "m": 2, "A": [[1, 0], [0, 1]]}\xff',
        ],
        ids=["digit-limit", "undecodable-byte"],
    )
    def test_unparsable_file_is_named(self, tmp_path, content):
        path = tmp_path / "game.json"
        path.write_bytes(content)
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: invalid JSON"):
            load_game(path)

    def test_non_object_top_level(self, tmp_path):
        path = tmp_path / "game.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with pytest.raises(SchemaError, match="object"):
            load_game(str(path))

    def test_round_trip_asymmetric(self, rng, tmp_path):
        game = rand_game(rng, 3, 2)
        path = tmp_path / "game.json"
        save_game(game, path)
        loaded = load_game(path)
        assert np.array_equal(loaded.A, game.A)
        assert np.array_equal(loaded.B, game.B)

    def test_symmetric_document_omits_b(self):
        doc = game_to_document(chicken_family(0.5))
        assert "B" not in doc
        assert np.array_equal(game_from_document(doc).B, chicken_family(0.5).B)

    def test_asymmetric_document_keeps_b(self, rng):
        doc = game_to_document(rand_game(rng, 2, 2))
        assert "B" in doc


class TestStrategyDocuments:
    def test_round_trip_bitwise(self, rng, tmp_path):
        for player, n, m in [("alpha", 2, 3), ("beta", 3, 2)]:
            strategy = rand_strategy(rng, player, n, m)
            path = tmp_path / f"{player}.json"
            save_strategy(strategy, path)
            loaded = load_strategy(path)
            assert loaded.player == player
            assert np.array_equal(loaded.rows, strategy.rows)

    def test_order_field_enforced(self, rng):
        doc = strategy_to_document(rand_strategy(rng, "beta", 2, 2))
        doc["order"] = "beta-major"
        with pytest.raises(SchemaError, match="alpha-major"):
            strategy_from_document(doc)

    def test_bad_player(self, rng):
        doc = strategy_to_document(rand_strategy(rng, "alpha", 2, 2))
        doc["player"] = "gamma"
        with pytest.raises(SchemaError, match="player"):
            strategy_from_document(doc)

    def test_row_sums_validated_on_load(self, tmp_path):
        doc = {
            "player": "alpha", "n": 2, "m": 2, "order": "alpha-major",
            "rows": [[0.5, 0.4]] * 4,
        }
        with pytest.raises(SchemaError, match="sums to"):
            load_strategy(write(tmp_path / "p.json", doc))

    def test_oversized_integer_rejected(self, tmp_path):
        doc = {
            "player": "alpha", "n": 2, "m": 2, "order": "alpha-major",
            "rows": [[1, 0], [1, 0], [-(10**400), 1], [0, 1]],
        }
        with pytest.raises(SchemaError, match="field 'rows' row 2"):
            load_strategy(write(tmp_path / "p.json", doc))

    def test_integer_past_str_limit_rejected(self):
        doc = {
            "player": "alpha", "n": 2, "m": 2, "order": "alpha-major",
            "rows": [[1, 0], [1, 0], [-(10**5000), 1], [0, 1]],
        }
        with pytest.raises(SchemaError) as exc:
            strategy_from_document(doc)
        message = str(exc.value)
        assert message.startswith("<strategy>: field 'rows' row 2 holds -1000")
        assert message.endswith("... (5001 digits)")
        assert len(message) < 80

    def test_wrong_row_count(self, rng):
        doc = strategy_to_document(rand_strategy(rng, "alpha", 2, 2))
        doc["rows"] = doc["rows"][:3]
        with pytest.raises(SchemaError, match="rows"):
            strategy_from_document(doc)

    def test_documents_are_single_line(self, rng, tmp_path):
        path = tmp_path / "p.json"
        save_strategy(rand_strategy(rng, "alpha", 2, 2), path)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
