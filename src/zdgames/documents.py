"""JSON documents for games and strategies.

Game files carry {"n", "m", "A", "B"}; "B" may be omitted for symmetric
games (n == m), in which case beta faces alpha's table.  Strategy files
carry {"player", "n", "m", "order", "rows"} with rows always in alpha-major
state order ("order" must literally be "alpha-major").  Numbers round-trip
exactly: floats are written in shortest repr form, which reparses to the
identical 64-bit value.
"""

from __future__ import annotations

import json
import math
import sys

from .errors import SchemaError
from .model import make_game, make_strategy, make_symmetric

_ORDER = "alpha-major"
_SHOWN_CHARS = 24  # longest rejected value a message echoes in full


def _require(obj, field, source):
    if field not in obj:
        raise SchemaError(f"{source}: missing field {field!r}")
    return obj[field]


def _int_field(obj, field, source):
    value = _require(obj, field, source)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{source}: field {field!r} must be an integer, got {value!r}")
    return value


def _shown(x):
    """``repr(x)``, or a prefix of it with its digit or character count when long."""
    try:
        text = repr(x)
    except ValueError:  # an int past Python's int-to-str digit limit: cut it first
        cut = int(math.log10(abs(x))) - _SHOWN_CHARS
        head = str(abs(x) // 10**cut)  # at least _SHOWN_CHARS digits
        text = ("-" if x < 0 else "") + head
        return f"{text[:_SHOWN_CHARS]}... ({len(head) + cut} digits)"
    if len(text) <= _SHOWN_CHARS:
        return text
    if isinstance(x, int):
        return f"{text[:_SHOWN_CHARS]}... ({len(text.lstrip('-'))} digits)"
    return f"{text[:_SHOWN_CHARS]}... ({len(text)} characters)"


def _grid(obj, field, rows, cols, source):
    value = _require(obj, field, source)
    if not isinstance(value, list) or len(value) != rows:
        raise SchemaError(f"{source}: field {field!r} must be a list of {_shown(rows)} rows")
    for r, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise SchemaError(
                f"{source}: field {field!r} row {r} must have {_shown(cols)} entries"
            )
        for x in row:
            number = isinstance(x, (int, float)) and not isinstance(x, bool)
            # compares exactly, so an int beyond the float range fails too, as NaN does
            if not (number and abs(x) <= sys.float_info.max):
                raise SchemaError(f"{source}: field {field!r} row {r} holds {_shown(x)}")
    return value


def _load_json(path):
    with open(path, encoding="utf-8") as handle:
        try:
            obj = json.load(handle)
        except ValueError as exc:  # also undecodable bytes and over-long integers
            raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return obj


def _save_json(doc, path):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
        handle.write("\n")


def game_from_document(obj, source="<game>"):
    n = _int_field(obj, "n", source)
    m = _int_field(obj, "m", source)
    if n < 2 or m < 2:
        raise SchemaError(f"{source}: invalid dimensions n={_shown(n)}, m={_shown(m)}")
    A = _grid(obj, "A", n, m, source)
    if "B" in obj:  # _grid checks all that make_game would
        return make_game(A, _grid(obj, "B", m, n, source))
    if n != m:
        raise SchemaError(
            f"{source}: field 'B' may be omitted only for symmetric games (n == m), "
            f"got n={n}, m={m}"
        )
    return make_symmetric(A)


def game_to_document(game):
    doc = {"n": game.n, "m": game.m, "A": game.A.tolist()}
    if not game.is_symmetric:
        doc["B"] = game.B.tolist()
    return doc


def load_game(path):
    return game_from_document(_load_json(path), str(path))


def save_game(game, path):
    _save_json(game_to_document(game), path)


def strategy_from_document(obj, source="<strategy>"):
    player = _require(obj, "player", source)
    if player not in ("alpha", "beta"):
        raise SchemaError(f"{source}: field 'player' must be 'alpha' or 'beta'")
    n = _int_field(obj, "n", source)
    m = _int_field(obj, "m", source)
    order = _require(obj, "order", source)
    if order != _ORDER:
        raise SchemaError(f"{source}: field 'order' must be {_ORDER!r}, got {order!r}")
    k = n if player == "alpha" else m
    rows = _grid(obj, "rows", n * m, k, source)
    try:
        return make_strategy(player, rows, order="alpha-major")
    except ValueError as exc:
        raise SchemaError(f"{source}: {exc}") from exc


def strategy_to_document(strategy):
    return {
        "player": strategy.player,
        "n": strategy.n,
        "m": strategy.m,
        "order": _ORDER,
        "rows": strategy.rows.tolist(),
    }


def load_strategy(path):
    return strategy_from_document(_load_json(path), str(path))


def save_strategy(strategy, path):
    _save_json(strategy_to_document(strategy), path)
