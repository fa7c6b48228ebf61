"""CI guard: EXP12's multilevel replay must match the dedicated runs at every level.

EXP12 replays one cache-oblivious execution against an LRU hierarchy and
compares each level's I/O count with a dedicated single-level run.  A
``False`` in its ``match`` column means the VM charged a different access
stream to some level, so the table alone is not enough: this script fails.

Usage::

    python tools/check_exp12_match.py results/results.json

Exit 0 when EXP12 is present and every row matches; exit 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def mismatches(summary: dict) -> list[str]:
    """The problems found in a ``run_all`` summary (empty when all rows match)."""
    tables = summary.get("experiments", {}).get("EXP12", [])
    if not tables:
        return ["EXP12 is missing from the summary"]
    problems = []
    for table in tables:
        column = table["headers"].index("match")
        for row in table["rows"]:
            if row[column] is not True:
                problems.append(f"level {row[0]}: multilevel {row[2]} vs dedicated {row[3]}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    problems = mismatches(json.loads(Path(argv[0]).read_text()))
    for problem in problems:
        print(f"EXP12 mismatch: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
