"""Seeded ``play`` against state counts recorded by make_play_golden.py.

Every run must reproduce its recorded integer tallies exactly, also when
the uniforms are drawn in blocks of 7 rows, which puts block boundaries
inside and at the end of runs.  Rerun the script only when the simulated
stream is meant to change.
"""

import json
import pathlib

import numpy as np
import pytest

from zdgames import play, simulate

from make_play_golden import config, counts, instance

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_play.json").read_text(encoding="utf-8")
)
RECORDS = GOLDEN["records"]


def case_id(record):
    n, m = record["shape"]
    return f"{n}x{m}-r{record['rounds']}-b{record['burn_in']}-s{record['seed']}"


def check(record):
    game, p, q = instance(GOLDEN["seed"], *record["shape"])
    report = play(game, p, q, config(record))
    assert report.rounds_counted == record["rounds_counted"]
    assert counts(report) == record["counts"]
    expected = np.array(record["counts"], dtype=float) / record["rounds_counted"]
    assert np.array_equal(report.state_frequencies, expected)


@pytest.mark.parametrize("record", RECORDS, ids=case_id)
def test_counts(record):
    check(record)



@pytest.mark.parametrize("record", RECORDS, ids=case_id)
def test_counts_in_small_blocks(record, monkeypatch):
    monkeypatch.setattr(simulate, "_DRAW_BLOCK", 7)
    check(record)
