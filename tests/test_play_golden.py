"""Seeded ``play`` against the state counts recorded in golden_play.json.

Every run must reproduce its recorded integer tallies exactly, also when
the uniforms are drawn in blocks of 7 rounds, which puts block boundaries
inside and at the end of runs, and of a single round.
"""

import numpy as np
import pytest

from zdgames import simulate

from goldens import play_outputs, play_run, recorded

GOLDEN = recorded("golden_play.json")
RECORDS = GOLDEN["records"]


def case_id(record):
    n, m = record["shape"]
    return f"{n}x{m}-r{record['rounds']}-b{record['burn_in']}-s{record['seed']}"


def check(record):
    report = play_run(GOLDEN["seed"], record)
    assert {**record, **play_outputs(report)} == record
    expected = np.array(record["counts"], dtype=float) / record["rounds_counted"]
    assert np.array_equal(report.state_frequencies, expected)


@pytest.mark.parametrize("record", RECORDS, ids=case_id)
def test_counts(record):
    check(record)


@pytest.mark.parametrize(
    "record, block",
    [pytest.param(record, block, id=case_id(record) + suffix)
     for block, suffix in [(7, ""), (1, "-block1")] for record in RECORDS],
)
def test_counts_in_small_blocks(record, block, monkeypatch):
    monkeypatch.setattr(simulate, "_DRAW_BLOCK", block)
    check(record)
