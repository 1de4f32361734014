"""Self-test of the benchmark's own plumbing; takes about half a minute.

Usage, from the root of a checkout:

    python3 bench/selftest.py

Runs every workload for one second on the small self-test shapes, untraced
and traced.  Each run must report every metric BENCHMARK.json names, with
its unit, end-to-end values must be positive, and no operation may fail.
A last audit run gets one non-critical rival (the empty matching): it must
be counted as exactly one failed operation, mark the run incorrect, and
not stop the run.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            line = run.measure(workload, 1, 1, trace, tiny=True, setup_repeats=1)
            printed = {name: m["unit"] for name, m in line["metrics"].items()}
            if printed != units[trace]:
                problems.append(f"{label}: metrics {sorted(printed.items())}")
            if line["failed"] or not line["correct"]:
                problems.append(f"{label}: {line['failed']} of {line['attempted']} failed")
            if trace == 0 and not all(m["value"] > 0 for m in line["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")

    line = run.measure("audit", 1, 1, 0, tiny=True, noncritical_rival=True, setup_repeats=1)
    if line["failed"] != 1 or line["correct"]:
        problems.append(
            f"non-critical rival: {line['failed']} failed, correct={line['correct']}"
        )

    for problem in problems:
        print("SELFTEST FAIL " + problem)
    print("SELFTEST " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
