"""Layered benchmark of the repro symmetric EVD stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for ``S`` seconds on inputs generated from seed ``N``
and checks every output with the benchmark's own checker.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs the same operations inside spans and reports the per-layer
metrics, and writes a Chrome trace (Perfetto) of the spans.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  ``failed`` counts every operation that raised or
returned a wrong answer; ``correct`` is false when an answer was wrong
or an exception was not a typed ``ReproError``.  Details (every operation's status and input
fingerprint, the BLAS in use, per-span costs) go to ``perfbench/out/``.

BLAS is pinned to one thread; only ``serve_small`` runs more than one
load thread (two clients).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import env
from spans import Tracer

#: Cold set-ups per measured run; ``setup_s`` is their median.
SETUPS = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=env.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def cold_setup(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter (see ``setup_probe.py``)."""
    probe = Path(__file__).with_name("setup_probe.py")
    proc = subprocess.run(
        [sys.executable, str(probe), workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=env.ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


#: A metric as reported: value, unit, and the number of samples behind it.
Metric = tuple[float, str, int]


def end_to_end(wl, ops, wall: float, setups: list[float]) -> dict[str, Metric]:
    """Latencies are over correct operations (failures are counted by
    ``ok_ratio``), except when none succeeded."""
    import numpy as np

    ok = [op.seconds for op in ops if op.ok]
    lat = ok or [op.seconds for op in ops]
    return {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "solve_s_p50": (statistics.median(lat), "s", len(lat)),
        "solve_s_tail": (float(np.percentile(lat, wl.tail_percentile)), "s", len(lat)),
        "ops_per_s": (len(ok) / wall, "1/s", len(ok)),
        "ok_ratio": (len(ok) / len(ops), "ratio", len(ops)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(wl, tracer, ops) -> dict[str, Metric]:
    import layers

    traced = [op for op in ops if op.traced]
    m = {name: 0.0 for name in layers.METRICS}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        metric = layers.SPAN_METRIC.get(span.name)
        if metric is not None:
            m[metric] += self_s / max(len(traced), 1)
    wl.layer_metrics(m, tracer, ops)
    t_ok = [op.seconds for op in traced if op.ok]
    u_ok = [op.seconds for op in ops if not op.traced and op.ok]
    if t_ok and u_ok:
        m["trace.overhead_s"] = statistics.median(t_ok) - statistics.median(u_ok)
    # Coverage of completed operations: one that fails validation in
    # under a millisecond has no stage to cover it.
    done = {op.index for op in traced if op.ok}
    kids = tracer.children()
    roots = [
        i
        for i, s in enumerate(tracer.spans)
        if s.parent is None and s.name in ("eigh", "request") and s.op in done
    ]
    if roots:
        m["trace.top_level_coverage"] = min(
            sum(tracer.spans[c].duration for c in kids.get(i, ())) / tracer.spans[i].duration
            for i in roots
        )
    return {name: (float(value), layers.METRICS[name], len(traced)) for name, value in m.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The program warns (overflow, precision) on the scale sweep's
    # extreme inputs; the checker, not the warnings, judges the output.
    warnings.simplefilter("ignore")
    setups = [] if args.trace else [cold_setup(args.workload, args.seed) for _ in range(SETUPS - 1)]
    t0 = time.perf_counter()
    import repro
    import workloads

    env.check_imported(repro)
    wl = workloads.make(args.workload, args.seed)
    setups.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    try:
        ops, wall = wl.run(args.seconds, tracer)
    finally:
        wl.close()

    metrics = per_layer(wl, tracer, ops) if tracer is not None else end_to_end(wl, ops, wall, setups)
    correct = not any(op.status.startswith(("wrong", "untyped")) for op in ops)
    failed = [op for op in ops if not op.ok]
    details = write_details(args, wl, ops, metrics, setups, tracer)
    print_report(args, wl, ops, metrics, details)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


def write_details(args, wl, ops, metrics, setups, tracer) -> dict:
    import inputs
    import layers
    import repro

    untraced = [op for op in ops if not op.traced]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": next(
            w["why"]
            for w in json.loads((env.ROOT / "BENCHMARK.json").read_text())["workloads"]
            if w["name"] == args.workload
        ),
        "record": {
            **wl.describe(),
            "operations": len(untraced),
            "repeat_share": sum(op.repeat for op in untraced) / max(len(untraced), 1),
            "inputs_digest": inputs.digest([op.fingerprint for op in untraced]),
            "prefix_digest": inputs.digest([repro.matrix_fingerprint(A) for A in wl.prefix()]),
        },
        "blas": layers.blas_info(),
        "setups_s": setups,
        "metrics": {k: {"value": v, "unit": u, "samples": c} for k, (v, u, c) in metrics.items()},
        "ops": [vars(op) for op in ops],
    }
    env.OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(env.OUT / f"{stem}.json", "w") as fh:
        json.dump(details, fh, indent=1)
    if tracer is not None:
        tracer.write_chrome(env.OUT / f"{args.workload}-seed{args.seed}.trace.json")
        details["trace_file"] = str(Path("perfbench/out") / f"{args.workload}-seed{args.seed}.trace.json")
    return details


def print_report(args, wl, ops, metrics, details) -> None:
    rec = details["record"]
    ok = [op for op in ops if op.ok]
    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print(f"  why: {details['why']}")
    print(f"  loop: {rec['loop']}; n: {rec['n']}; repeat share: {rec['repeat_share']:.3f}")
    print(f"  inputs: {rec['operations']} ops, digest {rec['inputs_digest']}, "
          f"prefix digest {rec['prefix_digest']}")
    print(f"  blas: {json.dumps(details['blas'])}")
    fail_s = sum(op.seconds for op in ops if not op.ok)
    print(f"  attempted {len(ops)}, ok {len(ok)}, fail_ratio {1.0 - len(ok) / len(ops):.4f}, "
          f"{fail_s:.3f} s spent in failed operations")
    failures: dict[str, list[str]] = {}
    for op in ops:
        if not op.ok:
            failures.setdefault(op.status, []).append(op.label)
    for status, labels in sorted(failures.items()):
        print(f"  failed {status}: {len(labels)} ({', '.join(sorted(set(labels)))})")
    for name, (value, unit, samples) in metrics.items():
        note = ""
        if name == "solve_s_tail":
            beyond = sum(op.seconds > value for op in ok)
            note = f" (p{wl.tail_percentile:g}, {beyond} beyond)"
        print(f"  {name:34s} {value:14.6g} {unit:8s} n={samples}{note}")
        if name == "solve_s_tail" and ok:
            import numpy as np

            p95 = float(np.percentile([op.seconds for op in ok], 95))
            beyond = sum(op.seconds > p95 for op in ok)
            print(f"  {'solve_s_p95':34s} {p95:14.6g} {'s':8s} n={len(ok)} ({beyond} beyond"
                  f"{'; under 10, indicative only, not gated' if beyond < 10 else ''})")
    if "trace_file" in details:
        print(f"  trace: {details['trace_file']}")


if __name__ == "__main__":
    sys.exit(main())
