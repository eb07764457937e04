import sys

import numpy as np
import pytest
from hypothesis import settings

# property tests draw a fixed, bounded set of examples: tier-1 runs stay
# reproducible and write no example database
settings.register_profile(
    "zdgames", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("zdgames")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # echo the acceptance verdict lines outside stdout capture, so plain
    # ``pytest`` runs still show the scoreboard
    module = sys.modules.get("test_acceptance")
    verdicts = getattr(module, "VERDICTS", None) if module else None
    if verdicts:
        terminalreporter.section("acceptance scoreboard")
        for line in verdicts:
            terminalreporter.write_line(line)
