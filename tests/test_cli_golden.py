"""CLI transcript against the one recorded by make_cli_golden.py.

Every case must reproduce its exit code, stdout, stderr and written files
byte for byte, and the inputs must still be what the script writes today.
"""

import json
import pathlib

import pytest

from make_cli_golden import CASES, build_inputs, run_case

GOLDEN = json.loads(
    pathlib.Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8")
)


def test_inputs_and_cases_match_script():
    assert GOLDEN["inputs"] == build_inputs()
    assert [case["argv"] for case in GOLDEN["cases"]] == CASES


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"][:2]))
def test_cli_matches_golden(case, tmp_path):
    assert run_case(case["argv"], GOLDEN["inputs"], tmp_path) == case
