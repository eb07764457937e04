"""The tolerance-0 check of goldens.py, on the recorded files and on copies.

The last test runs the whole check, which regenerates every golden (0.5 to
1.5 s), so a drifted golden fails the suite.  The others make sure that
the comparer reports what changed.
"""

import copy
import math

import numpy as np

import goldens

NAME = "golden_exact.json"
TEXT = (goldens.HERE / NAME).read_text(encoding="utf-8")
EXACT = goldens.recorded(NAME)


def changed(fields):
    return {field: counts for field, counts in fields.items() if counts[0]}


def test_registry_owns_every_golden_file():
    assert set(goldens.GOLDENS) == {path.name for path in goldens.HERE.glob("golden_*.json")}


def test_unchanged_copy_compares_clean(capsys):
    fields = goldens.drift(EXACT, copy.deepcopy(EXACT))
    assert changed(fields) == {}
    assert fields["scaled.combination"] == [0, 180, 0.0, 0.0]
    assert goldens.render(EXACT) == TEXT
    assert goldens.compare(NAME, TEXT, goldens.render(copy.deepcopy(EXACT)))
    assert capsys.readouterr().out.endswith(f"{NAME}: identical\n")


def test_one_ulp_is_one_changed_value(capsys):
    fresh = copy.deepcopy(EXACT)
    want = fresh[0]["scaled"][0]["determinant"]
    fresh[0]["scaled"][0]["determinant"] = float(np.nextafter(want, math.inf))
    rel = (fresh[0]["scaled"][0]["determinant"] - want) / abs(want)
    assert 1e-16 < rel <= 2.0**-52
    assert changed(goldens.drift(EXACT, fresh)) == {"scaled.determinant": [1, 180, rel, 0.0]}
    assert not goldens.compare(NAME, TEXT, goldens.render(fresh))
    out = capsys.readouterr().out
    assert f"{NAME} scaled.determinant 1/180 {rel:.2g} at-zero 0\n" in out
    assert out.endswith(f"{NAME}: DIFFERS\n")


def test_verdict_and_length_changes_are_reported():
    fresh = copy.deepcopy(EXACT)
    verdict = next(r for r in fresh if isinstance(r["v"], str))
    verdict["v"] = "InaccurateStationary"
    fresh[0]["holds"] = not fresh[0]["holds"]
    fresh[1]["c"].pop()
    assert changed(goldens.drift(EXACT, fresh)) == {
        "v": [1, 505, math.inf, 0.0],
        "holds": [1, 60, math.inf, 0.0],
        "c": [len(EXACT[1]["c"]), 516, math.inf, 0.0],
    }


def test_a_moved_zero_is_an_absolute_change(capsys):
    # a recorded 0.0 has no relative change: its move is reported apart, and
    # the nonzero records' largest relative change stays visible beside it
    want = copy.deepcopy(EXACT)
    want[11]["scaled"][0]["determinant"] = 0.0
    fresh = copy.deepcopy(want)
    fresh[11]["scaled"][0]["determinant"] = 1.2e-17
    before = want[0]["scaled"][0]["determinant"]
    fresh[0]["scaled"][0]["determinant"] = before * (1.0 + 2.0**-50)
    rel = abs(fresh[0]["scaled"][0]["determinant"] - before) / abs(before)
    assert changed(goldens.drift(want, fresh)) == {"scaled.determinant": [2, 180, rel, 1.2e-17]}
    fresh = copy.deepcopy(want)
    fresh[11]["scaled"][0]["determinant"] = -0.0
    assert changed(goldens.drift(want, fresh)) == {"scaled.determinant": [1, 180, 0.0, 0.0]}
    fresh[11]["scaled"][0]["determinant"] = "DegenerateDenominator"
    assert changed(goldens.drift(want, fresh)) == {"scaled.determinant": [1, 180, 0.0, math.inf]}
    assert not goldens.compare(NAME, goldens.render(want), goldens.render(fresh))
    assert f"{NAME} scaled.determinant 1/180 0 at-zero inf\n" in capsys.readouterr().out


def test_layout_change_alone_fails(capsys):
    assert not goldens.compare(NAME, TEXT, TEXT.replace("},\n{", "}, {"))
    assert f"{NAME}: same values, different layout" in capsys.readouterr().out


def test_every_golden_is_written_byte_for_byte(capsys):
    assert goldens.main([]) == 0, capsys.readouterr().out
