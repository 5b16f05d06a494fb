"""``python -m bench``: every workload, 3 runs each, round-robin.

Usage (from the repository root)::

    PYTHONPATH=src python -m bench [--seed N] [--out FILE] [--trace]

Prints every end-to-end metric by name and unit, checks each run's
output fingerprint, and writes every raw run to ``--out``.  ``--trace``
adds one traced run per workload, in the last round, and prints the
per-layer table; traced runs do not count toward the end-to-end metrics.
Exits 1 if a fingerprint is wrong or an operation failed, 2 if a run
crashed or a traced run missed a mapped entry point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench.harness import (
    END_TO_END,
    WORKLOADS,
    BenchError,
    check_fingerprints,
    layer_medians,
    spawn,
    summarize,
)
from bench.trace import format_layers

ROUNDS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign/workload seed (default 0)")
    parser.add_argument("--out", help="write every raw run here (JSON)")
    parser.add_argument("--trace", action="store_true",
                        help="add one traced run per workload")
    args = parser.parse_args(argv)
    started = time.monotonic()
    runs: list[dict] = []
    traced_s = 0.0
    try:
        for round_index in range(ROUNDS):
            for workload in WORKLOADS:
                run = spawn(workload, args.seed)
                runs.append(run)
                print(f"round {round_index + 1} {workload:<13} "
                      f"setup {run['setup_s']:6.2f} s  "
                      f"wall {run['wall_s']:6.2f} s", flush=True)
                # Host speed drifts at minute scale, so each traced run
                # follows an untraced run of its workload directly.
                if args.trace and round_index == ROUNDS - 1:
                    traced_started = time.monotonic()
                    runs.append(spawn(workload, args.seed, trace=True))
                    traced_s += time.monotonic() - traced_started
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    check_fingerprints(runs)
    summary = {workload: summarize(runs, workload) for workload in WORKLOADS}
    print(f"\nend-to-end, median of {ROUNDS} runs (seed {args.seed}):")
    for workload in WORKLOADS:
        for metric in END_TO_END:
            if workload in metric.workloads:
                value = summary[workload][metric.name]
                print(f"  {workload:<13} {metric.name:<15} "
                      f"{value:12.4f} {metric.unit}")
    layers = {}
    if args.trace:
        print(f"\ntraced runs ({traced_s:.1f} s):")
        for workload in WORKLOADS:
            layers[workload] = layer_medians(runs, workload)
            print(f" {workload}: overhead "
                  f"{layers[workload]['trace.overhead_pct']:.1f}%")
            print(format_layers(layers[workload]))
    bad = sorted({r["workload"] for r in runs if not r["fingerprint_ok"]})
    if args.out:
        Path(args.out).write_text(json.dumps({
            "seed": args.seed,
            "elapsed_s": time.monotonic() - started,
            "runs": runs,
            "summary": summary,
            "layers": layers,
        }, indent=1))
    if bad:
        print(f"fingerprint mismatch: {', '.join(bad)}", file=sys.stderr)
        return 1
    if any(summary[w]["fail_share"] for w in WORKLOADS):
        print("some operations failed", file=sys.stderr)
        return 1
    print(f"\nall fingerprints match; {time.monotonic() - started:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
