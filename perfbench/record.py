"""Write ``perfbench/workloads.json`` from finished runs.

    python3 perfbench/record.py SEED [SEED ...]

Reads ``perfbench/out/<workload>-seed<SEED>-trace0.json`` for every
workload and seed and records, per workload: why it exists, its loop
and input mix, the measured repeat share, the input fingerprint digests
per seed (``prefix_digest`` covers the first inputs of the stream, so it
is the same however many operations a run issued) and, for each input
label that ever failed, how often it ended in each status.  A later change compares its own runs' digests
with these to show it measured identical inputs.
"""

from __future__ import annotations

import json
import statistics
import sys

from env import OUT, WORKLOADS


def main() -> int:
    seeds = [int(s) for s in sys.argv[1:]]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    record = {}
    for name in WORKLOADS:
        runs = [json.loads((OUT / f"{name}-seed{s}-trace0.json").read_text()) for s in seeds]
        first = runs[0]["record"]
        outcomes: dict[str, dict[str, int]] = {}
        for run in runs:
            for op in run["ops"]:
                counts = outcomes.setdefault(op["label"], {})
                counts[op["status"]] = counts.get(op["status"], 0) + 1
        failures = {label: c for label, c in outcomes.items() if set(c) != {"ok"}}
        record[name] = {
            "why": runs[0]["why"],
            **{k: v for k, v in first.items() if k not in ("operations", "repeat_share", "inputs_digest", "prefix_digest")},
            "operations_per_run": [run["record"]["operations"] for run in runs],
            "repeat_share_median": statistics.median(run["record"]["repeat_share"] for run in runs),
            "prefix_digest": {str(s): run["record"]["prefix_digest"] for s, run in zip(seeds, runs)},
            "failing_inputs": dict(sorted(failures.items())),
        }
    (OUT.parent / "workloads.json").write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
