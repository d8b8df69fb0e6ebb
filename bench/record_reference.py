"""Record the holds values of random_systems for a range of seeds.

Usage: python3 bench/record_reference.py FIRST LAST

Runs every generated system of each seed in FIRST..LAST through the same
analyze path as the benchmark, refuses to record a seed whose verdicts raise
or whose witnesses do not replay, and merges the holds values into
reference/random_systems.json.  The benchmark then fails any later verdict
that differs.  Re-record only when a change is meant to alter verdicts.
"""

import json
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

from workloads import (REFERENCE_PATH, RANDOM_PROPS, VerdictProbe,  # noqa: E402
                       build_workload, check_job, load_reference)


def record(seed: int) -> list:
    workload = build_workload("random_systems", seed)
    holds = []
    with VerdictProbe() as probe:
        for job in workload.jobs:
            start = len(probe.records)
            job.run()
            records = probe.records[start:]
            failures = check_job(job, records)
            if failures or len(records) != len(RANDOM_PROPS):
                raise SystemExit(f"seed {seed}: {failures}")
            holds.append([r.holds for r in records])
    return holds


def main() -> None:
    first, last = int(sys.argv[1]), int(sys.argv[2])
    reference = load_reference()
    for seed in range(first, last + 1):
        reference[str(seed)] = record(seed)
        negative = sum(not h for row in reference[str(seed)] for h in row)
        print(f"seed {seed}: {negative} of {len(RANDOM_PROPS) * len(reference[str(seed)])} "
              f"verdicts negative", flush=True)
        os.makedirs(os.path.dirname(REFERENCE_PATH), exist_ok=True)
        with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
            json.dump(dict(sorted(reference.items(), key=lambda kv: int(kv[0]))), fh,
                      separators=(",", ":"))
            fh.write("\n")


if __name__ == "__main__":
    main()
