"""Time one cold set-up of a workload in a fresh interpreter.

Usage: python3 bench/cold_setup.py WORKLOAD SEED

Times importing ifs_lab and building or parsing every system the workload
uses, while a `calibrate.Gauge` samples the host's speed, and prints one JSON
object: `seconds` (the gauge's kernel left out) and `scale`, the factor to
the reference speed.  numpy is loaded before the timed part, because the
kernel needs it; making the job list (the harness) is not timed.  `run.py`
starts this several times per run.
"""

import json
import os
import sys

import calibrate
from workloads import build_workload

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# A set-up lasts about a tenth of a second, so the gauge samples more often.
PERIOD_S = 0.01


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, SRC)
    calibrate.kernel()  # loads what the kernel uses before the timed part
    gauge = calibrate.Gauge(period=PERIOD_S)
    with gauge:
        t0 = gauge.clock()
        import ifs_lab.cli  # noqa: F401  (the cold import being timed)
        imported = gauge.clock() - t0
    jobs = build_workload(name, seed).jobs
    with gauge:
        t1 = gauge.clock()
        for job in jobs:
            job.build()
        built = gauge.clock() - t1
    if not gauge.samples:
        calibrate.kernel()
        gauge.samples.append(calibrate.kernel())
    print(json.dumps({"seconds": imported + built, "scale": calibrate.scale(gauge.samples)}))


if __name__ == "__main__":
    main()
