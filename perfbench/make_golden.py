"""Record the state counts of every pooled montecarlo simulation.

    python3 perfbench/make_golden.py

Writes ``golden_counts.json`` next to this file.  The benchmark counts any
later difference as a failed operation, so run this only at a commit whose
simulator is trusted: the counts pin its seeded output bit for bit.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from zdgames import simulate  # noqa: E402


def main():
    counts = {}
    for category in range(len(workloads.MC_CATEGORIES)):
        for variant in range(workloads.POOL_VARIANTS):
            game, p, q, _, config = workloads.pool_entry(category, variant)
            report = simulate.play(game, p, q, config)
            counts[f"{category}/{variant}"] = workloads.state_counts(report)
            print(category, variant, report.empirical_pi_alpha / report.empirical_pi_beta, flush=True)
    document = {
        "about": "state counts of simulate.play for workloads.pool_entry(category, variant)",
        "categories": [list(map(str, c)) for c in workloads.MC_CATEGORIES],
        "counts": counts,
    }
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()
