"""CLI transcript against the one recorded in golden_cli.json.

Every case must reproduce its exit code, stdout, stderr and written files
byte for byte, and the inputs must still be what goldens.py writes today.
"""

import pytest

from goldens import CLI_CASES, cli_inputs, recorded, run_case

GOLDEN = recorded("golden_cli.json")


def test_inputs_and_cases_match_script():
    assert GOLDEN["inputs"] == cli_inputs()
    assert [case["argv"] for case in GOLDEN["cases"]] == CLI_CASES


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"][:2]))
def test_cli_matches_golden(case, tmp_path):
    assert run_case(case["argv"], GOLDEN["inputs"], tmp_path) == case
