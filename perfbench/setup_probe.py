"""Measure one cold set-up of a workload in a fresh interpreter.

``python3 perfbench/setup_probe.py WORKLOAD SEED`` imports the program,
builds the workload's plans (and service), runs its warm-up solve, and
prints ``{"setup_s": ...}``.  ``run.py`` starts it so that every set-up
it reports starts from a cold import.
"""

from __future__ import annotations

import json
import sys
import time
import warnings

import env


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    env.prepare()
    warnings.simplefilter("ignore")
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(workload, seed)
    setup_s = time.perf_counter() - t0
    wl.close()
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
