"""Record the values the transform and sums checks compare against.

    python3 perfbench/record_reference.py

Runs every operation of the two fixed-list workloads once and writes
perfbench/reference.json.  The checked-in file was recorded at the commit
that introduced the benchmark; re-record only when a change to the library
is meant to change these values, and say so with the change.
"""
from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ops = workloads.transform_ops() + workloads.sums_ops()
    values = {op.label: checks.recordable(op.kind, op.run()) for op in ops}
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
